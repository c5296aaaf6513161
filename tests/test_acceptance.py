"""Acceptance suite: the eleven headline checks, one test (and one line) each.

Every comparison below is exact — rational arithmetic throughout, equality
meaning identical canonical forms.  Run with ``pytest -v`` to get the
per-criterion pass/fail lines, or with ``-s`` to also see the printed
one-line summaries.
"""

from fractions import Fraction

import pytest

from supergeo import (
    Atlas,
    MatrixCocycle,
    SuperError,
    TransitionMap,
    atlas_equal,
    berezinian_normal_form,
    build_decomposable,
    build_generic,
    build_omega1,
    build_pi_plane,
    check_cocycle_loop,
    h1_tangent,
    h1_tangent_bott,
    h_line,
    is_calabi_yau,
    obstruction_delta,
    omega_cocycle_sum,
    parse,
    picard_delta,
    standard_chart,
    sym_restricted_rank,
)
from supergeo.atlas import transition_berezinian
from supergeo.selfcheck import run_all

LAMBDAS = (Fraction(0), Fraction(1), Fraction(2))
FAMILIES = (build_decomposable, build_omega1)
PAIRS = ((0, 1), (1, 2), (2, 0))
GEN = (-1, -1, -1)


def criterion(num, text, failures):
    status = "FAIL" if failures else "PASS"
    line = f"criterion {num:02d} {status} - {text}"
    print(line)
    assert not failures, line + "; " + "; ".join(failures)


def test_criterion_01_berezinian_minus_one():
    failures = []
    for build in FAMILIES:
        for lam in LAMBDAS:
            atlas = build(lam)
            for pair in PAIRS:
                ber = berezinian_normal_form(atlas, pair)
                if not (ber.is_constant() and ber.constant_value() == -1):
                    failures.append(f"{build.__name__} lam={lam} {pair}: {ber}")
    # the raw fixed-convention values behind the adapted frames are pinned too
    raw_dec = {p: transition_berezinian(build_decomposable(Fraction(1)).map(*p)).constant_value() for p in PAIRS}
    raw_om = {p: transition_berezinian(build_omega1(Fraction(1)).map(*p)).constant_value() for p in PAIRS}
    if raw_dec != {(0, 1): -1, (1, 2): -1, (2, 0): 1}:
        failures.append(f"raw decomposable values moved: {raw_dec}")
    if raw_om != {(0, 1): 1, (1, 2): 1, (2, 0): 1}:
        failures.append(f"raw omega1 values moved: {raw_om}")
    criterion(1, "Ber(Jac) = -1 on all 18 family/lambda/overlap combinations", failures)


def test_criterion_02_cocycle_loops_close():
    failures = []
    atlases = [(f"{b.__name__}(lam={lam})", b(lam)) for b in FAMILIES for lam in LAMBDAS]
    atlases.append(("build_pi_plane()", build_pi_plane()))
    for label, atlas in atlases:
        report = check_cocycle_loop(atlas)
        if len(report.residuals) != 4:
            failures.append(f"{label}: expected 4 residuals")
        if not report.ok:
            failures.append(f"{label}: nonzero residuals {report.nonzero()}")
    criterion(2, "cyclic loop equals the identity for 7 atlases, 4 zero residuals each", failures)


def test_criterion_03_tangent_trichotomy():
    failures = []
    for k in range(-10, 11):
        kernel = h1_tangent(2, k)
        dual = h1_tangent_bott(2, k)
        want = 1 if k == -3 else 0
        if kernel != want or dual != want:
            failures.append(f"k={k}: kernel={kernel} bott={dual} want={want}")
    criterion(3, "h1 of twisted tangent on the plane is 1 iff k = -3, both routes", failures)


def test_criterion_04_projective_line_ladder():
    failures = []
    for l in range(4, 13):
        got = h_line(1, 2 - l, 1)
        if got != l - 3:
            failures.append(f"l={l}: {got} != {l - 3}")
    criterion(4, "h^1(P^1, O(2-l)) = l-3 for l in [4, 12]", failures)


def test_criterion_05_picard_chase():
    failures = []
    for build in FAMILIES:
        for lam in LAMBDAS:
            c = picard_delta(build(lam))
            want = {} if lam == 0 else {GEN: lam}
            if c.coeffs != want or c.is_zero() != (lam == 0):
                failures.append(f"{build.__name__} lam={lam}: {c.to_dict()}")
    criterion(5, "connecting map sends the degree-1 lift to lambda/(X0*X1*X2)", failures)


def test_criterion_06_obstruction_class():
    failures = []
    for build in FAMILIES:
        for lam in LAMBDAS:
            c = obstruction_delta(build(lam))
            want = {} if lam == 0 else {GEN: lam}
            if c.coeffs != want:
                failures.append(f"{build.__name__} lam={lam}: {c.to_dict()}")
        for lam in (Fraction(1), Fraction(2)):
            total = omega_cocycle_sum(build(lam))
            if not all(v.is_zero() for v in total.values()):
                failures.append(f"{build.__name__} lam={lam}: omega sum nonzero")
    criterion(6, "obstruction class is lambda/(X0*X1*X2); omega cochain sums to zero", failures)


def test_criterion_07_pi_plane_identification():
    failures = []
    pi, om = build_pi_plane(), build_omega1(Fraction(1))
    if not atlas_equal(pi, om):
        failures.append("atlases differ")
    identical = sum(
        pi.map(i, j).assignment[name] == om.map(i, j).assignment[name]
        for (i, j) in PAIRS
        for name in standard_chart(i).names
    )
    if identical != 12:
        failures.append(f"only {identical}/12 assignments identical")
    criterion(7, "big-cell reduction equals the lambda=1 cotangent family, 12/12", failures)


def test_criterion_08_pi_picard_inputs_vanish():
    failures = []
    for k in (-1, -2):
        if h_line(2, k, 1) != 0:
            failures.append(f"h^1(O({k})) = {h_line(2, k, 1)}")
    criterion(8, "h^1(P^2, O(-1)) = h^1(P^2, O(-2)) = 0", failures)


def test_criterion_09_symmetric_power_ranks():
    failures = []
    for k in range(1, 21):
        got = sym_restricted_rank(k)
        if got != (2 * k, 2 * k):
            failures.append(f"k={k}: {got}")
    criterion(9, "restricted symmetric powers have rank 2k|2k for k in [1, 20]", failures)


def test_criterion_10_randomized_property_suite():
    report = run_all()
    failures = []
    if not report["ok"]:
        bad = [p for p in report["properties"] if p["failures"]]
        failures.append(f"failing properties: {bad}")
    if report["total_cases"] < 10_000:
        failures.append(f"only {report['total_cases']} cases")
    if report["elapsed_seconds"] >= 30:
        failures.append(f"took {report['elapsed_seconds']}s")
    criterion(10, f"{report['total_cases']} seeded random cases in "
                  f"{report['elapsed_seconds']}s, all properties hold", failures)


def _split_minus_one_twice_atlas():
    """Reduced even transitions with odd part O(-1) + O(-1): glues, not Calabi-Yau."""
    strings = {
        (0, 1): {"z10": "z11^-1", "z20": "z21/z11", "t10": "t11/z11", "t20": "t21/z11"},
        (1, 2): {"z11": "z12/z22", "z21": "z22^-1", "t11": "t12/z22", "t21": "t22/z22"},
        (2, 0): {"z12": "z20^-1", "z22": "z10/z20", "t12": "t10/z20", "t22": "t20/z20"},
    }
    maps = {
        (i, j): TransitionMap(
            standard_chart(j), standard_chart(i),
            {name: parse(text, standard_chart(j)) for name, text in assign.items()},
        )
        for (i, j), assign in strings.items()
    }
    return Atlas(maps)


def test_criterion_11_negative_controls():
    failures = []

    # (a) one flipped deformation sign must break the loop with a named residual
    atlas = build_decomposable(Fraction(1))
    t1 = standard_chart(1)
    bad = dict(atlas.map(0, 1).assignment)
    bad["z20"] = parse("z21/z11 - t11*t21/z11^2", t1)
    maps = dict(atlas.maps)
    maps[(0, 1)] = TransitionMap(standard_chart(1), standard_chart(0), bad)
    report = check_cocycle_loop(Atlas(maps))
    if report.ok or set(report.nonzero()) != {"z20"}:
        failures.append(f"corrupted atlas: ok={report.ok} nonzero={report.nonzero()}")

    # (b) a matrix cocycle with the wrong determinant twist must be rejected
    wrong = MatrixCocycle(
        {
            pair: [
                [parse("1/" + piv, standard_chart(pair[1])), parse("0", standard_chart(pair[1]))],
                [parse("0", standard_chart(pair[1])), parse("1/" + piv, standard_chart(pair[1]))],
            ]
            for pair, piv in (((0, 1), "z11"), ((1, 2), "z22"), ((2, 0), "z20"))
        }
    )
    with pytest.raises(SuperError, match="det twist"):
        build_generic(wrong, Fraction(1))

    # (c) the O(-1)+O(-1) split atlas glues but its Berezinians are not constant
    split = _split_minus_one_twice_atlas()
    if not check_cocycle_loop(split).ok:
        failures.append("split control atlas does not glue")
    cy = is_calabi_yau(split)
    if cy.ok:
        failures.append("split control atlas passed the Calabi-Yau flag")
    if all(b.is_constant() for b in cy.berezinians.values()):
        failures.append("expected a non-constant Berezinian")

    criterion(11, "corruption, wrong twist, and the split control all detected", failures)
