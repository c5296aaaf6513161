"""Run every workload over several seeds and record the figures.

    python3 perfbench/sweep.py [--seeds 1-10] [--seconds 25] [--out perfbench/baseline.json]

For each workload and seed it runs `run.py --trace 0` and reports each
end-to-end metric's median, quartiles and spread (quartile distance over the
median, from `statistics.quantiles(values, n=4)`), then one `--trace 1` run
per workload for the per-layer figures.  It writes them, with the git commit,
Python version, nproc and the layer -> metric -> workload predictions, to the
output file.  Takes about (workloads x seeds) x (seconds + 2) seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric, on which workload, each per-layer metric should
# move, and where it should not move.  Later performance work cites these.
PREDICTIONS = {
    "superalg.mul.calls, superalg.mul.term_pairs, fraction_new.calls": {
        "moves": ["selftest ops_per_s", "atlas op_p50_ms"],
        "stays": ["cohomology"],
    },
    "superalg.pow.calls, superalg.pow.mul_calls": {
        "moves": ["grammar op_p50_ms", "grammar op_tail_ms"],
        "stays": ["selftest"],
    },
    "superalg.add.calls, superalg.invert_unit.calls, superalg.substitute.calls, superalg.parse.calls, superalg.format.calls": {
        "moves": ["grammar", "atlas"],
        "stays": [],
    },
    "supermat.matmul.calls, supermat.berezinian.calls, supermat.inverse.calls, supermat.det_even.calls": {
        "moves": ["selftest ops_per_s", "atlas (calabi-yau and berezinian reports)"],
        "stays": [],
    },
    "atlas.compose.calls, atlas.jacobian.calls, atlas.check_cocycle_loop.calls, atlas.invert_map.calls, atlas.invert_map.repeat_share": {
        "moves": ["atlas op_tail_ms", "atlas ops_per_s"],
        "stays": ["selftest", "grammar", "cohomology"],
    },
    "families.build.calls, families.frame_signs.calls, families.frame_signs.repeat_share": {
        "moves": ["atlas op_p50_ms"],
        "stays": [],
    },
    "cech.connecting.calls": {"moves": ["atlas"], "stays": []},
    "cech.h1_tangent.calls, cech.h1_tangent.self_s": {"moves": ["cohomology op_tail_ms"], "stays": []},
    "selfcheck.cases": {"moves": ["selftest ops_per_s"], "stays": []},
    "cli.run.calls": {"moves": ["cohomology op_p50_ms", "grammar op_p50_ms"], "stays": []},
    "<layer>.self_s": {"moves": ["the workloads where that layer's counts move"], "stays": []},
    "wait time": {"moves": [], "stays": ["not applicable: one thread, no queue or lock"]},
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    doc = {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "end_to_end": {},
        "digests": {},
        "per_layer": {},
        "predictions": PREDICTIONS,
    }
    for workload in ops.WORKLOADS:
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in args.seeds:
            result, lines = run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n" + "\n".join(lines))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            digests[seed] = next(line.split()[2] for line in lines if line.startswith("digest"))
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        doc["end_to_end"][workload] = {name: spread(v) for name, v in values.items()}
        doc["digests"][workload] = digests
        for name, s in doc["end_to_end"][workload].items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
        traced, _ = run(workload, args.seeds[0], args.seconds, 1)
        doc["per_layer"][workload] = {name: m["value"] for name, m in traced["metrics"].items()}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
