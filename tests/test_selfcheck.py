"""The seeded randomized property suite behind the selftest command."""

import hashlib
import json
import random

from supergeo import cli, selfcheck
from supergeo.selfcheck import (
    BUDGET,
    DEFAULT_SEED,
    random_elem,
    random_supermatrix,
    random_unit,
    run_all,
)
from supergeo.supermat import matmul


def test_generators_respect_parity():
    rng = random.Random(3)
    for _ in range(50):
        assert random_elem(rng, parity=0).is_even()
        assert random_elem(rng, parity=1).is_odd()
        u = random_unit(rng, parity=0)
        assert u.is_even()
        assert len(u.body().terms) == 1
        random_supermatrix(rng)  # construction itself asserts block parity


def test_run_all_small_budget_passes():
    rep = run_all(seed=11, total_cases=350)
    assert rep["ok"] is True
    assert {p["name"] for p in rep["properties"]} == set(BUDGET)
    assert all(p["failures"] == [] for p in rep["properties"])


def test_run_all_is_deterministic():
    a = run_all(seed=DEFAULT_SEED, total_cases=350)
    b = run_all(seed=DEFAULT_SEED, total_cases=350)
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


# The sha256 of the `selftest --cases 350` report at the default seed, with the
# wall time removed: the cases run, their order and the report's layout.
SELFTEST_350_SHA256 = "a12003b2e573154466da3c7848b6160925df4b3a6eff1695c6c60a766c159302"


def test_selftest_report_bytes_are_pinned(monkeypatch):
    monkeypatch.delenv("SUPERGEO_SEED", raising=False)
    code, rep = cli.run(["selftest", "--cases", "350"])
    assert code == 0
    rep["details"].pop("elapsed_seconds")
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == SELFTEST_350_SHA256


def test_a_broken_law_is_reported_with_its_inputs(monkeypatch):
    # the top-left entry of the even block is not multiplicative under matmul
    monkeypatch.delenv("SUPERGEO_SEED", raising=False)
    monkeypatch.setattr(selfcheck, "berezinian", lambda x: x.A[0][0])
    code, rep = cli.run(["selftest", "--cases", "700"])
    assert (code, rep["outcome"], rep["details"]["ok"]) == (1, "fail", False)
    props = {p["name"]: p for p in rep["details"]["properties"]}
    assert list(props) == list(BUDGET)
    rng = random.Random(f"{DEFAULT_SEED}:berezinian_mult")
    pairs = [(random_supermatrix(rng), random_supermatrix(rng)) for _ in range(31)]
    expected = [
        f"{x!r} ; {y!r}" for x, y in pairs if matmul(x, y).A[0][0] != x.A[0][0] * y.A[0][0]
    ][:3]
    assert props["berezinian_mult"]["cases"] == 31
    assert props["berezinian_mult"]["failures"] == expected
    assert len(expected) == 3
    assert all(p["failures"] == [] for name, p in props.items() if name != "berezinian_mult")
