"""supergeo benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one in-process call of `supergeo.cli.run(argv)` on generated
inputs, in a fresh single-threaded interpreter, as a closed loop with one
client.  Every report is checked (see ops.py).  With --trace 0 the last line
of output is a JSON object with the end-to-end metrics; with --trace 1 a
separate run wraps the public functions of the seven layers from outside the
program and reports the per-layer metrics instead.  Run it from the root of a
checkout that holds `src/supergeo`; the program is compiled from there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import ops
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# setup_s is the median over this many fresh interpreters (plus the worker's own).
SETUP_PROBES = 8
# Every child must end before this many seconds after start.
BUDGET_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "correct_share": "ratio",
}

OP_SIZE = {
    "selftest": f"one `selftest --json --cases {ops.SELFTEST_CASES}` (1/100 of the default budget, same property mix)",
    "atlas": "one family report on a freshly built atlas (5 families x 6 reports, pi-plane-compare, a twist -2 control)",
    "grammar": "one `parse` of generated text (48-term sums, nesting, unit division, bindings, powers up to 2048, a malformed control)",
    "cohomology": "one cohomology, bott, h1-tangent or sym-rank call (h1-tangent on P^2 with k down to -20)",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(argv: list[str], deadline: float) -> dict:
    """Run one worker interpreter to completion; return its JSON line."""
    env = dict(os.environ, SUPERGEO_SEED="1")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {argv[:7]}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(args, workdir: str) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + BUDGET_S
    base = [ROOT, args.workload, str(args.seed), str(args.seconds), str(args.trace), workdir]
    warm = ["--", *ops.WARMUP[args.workload]]
    probes = []
    if args.trace == 0:
        probes = [child([*base, "setup", *warm], deadline) for _ in range(SETUP_PROBES)]
    return child([*base, "run", *warm], deadline), probes


def report(args, doc: dict, probes: list[dict]) -> dict:
    """Print the human-readable summary; return the final result object."""
    warm_problems = [p for d in (doc, *probes) for p in d["warm_up_problems"]]
    correct = doc["failed"] == 0 and not warm_problems
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  closed loop, 1 client, single-threaded")
    print(f"op: {OP_SIZE[args.workload]}")
    print(f"ops attempted {doc['attempted']}  failed {doc['failed']}  error_rate {doc['failed'] / doc['attempted']:.6f}")
    for failure in doc["failures"] + [{"warm-up": p} for p in warm_problems]:
        print(f"  FAILED {json.dumps(failure)}")
    print(f"digest sha256 {doc['digest']} over the first {doc['digest_ops']} ops (timing fields removed)")
    print("wait time: not applicable (one thread; nothing waits on a queue or lock)")
    if args.trace == 1:
        print(f"traced passes {doc['passes']} over {doc['deck']} ops; spans in {doc['spans_file']}")
        metrics = {name: {"value": doc["per_layer"][name], "unit": unit} for name, unit in tracing.METRICS.items()}
    else:
        setups = [doc["setup_s"]] + [p["setup_s"] for p in probes]
        print(f"setup_s median of {len(setups)} fresh interpreters: {', '.join(f'{s:.4f}' for s in setups)}")
        print(
            f"timed ops {doc['timed_ops']} in {doc['elapsed_s']:.3f} s; tail = p{doc['op_tail_pct']:.2f}"
            f" ({doc['timed_ops']} samples, 10 beyond it)"
        )
        if "known_defect" in doc:
            kd = doc["known_defect"]
            state = "fixed" if kd["fixed"] else f"still present: {'; '.join(kd['problems'])}"
            print(f"known defect probe (not in the op mix): {' '.join(kd['argv'])} -> {state}")
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": doc["ops_per_s"],
            "op_p50_ms": doc["op_p50_ms"],
            "op_tail_ms": doc["op_tail_ms"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "correct_share": (doc["attempted"] - doc["failed"]) / doc["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "supergeo", "__init__.py")):
        print(f"no supergeo sources under {src}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(src, quiet=1):
        print("supergeo sources do not compile", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as workdir:
        ops.write_inputs(workdir)
        try:
            doc, probes = measure(args, workdir)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(report(args, doc, probes), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
