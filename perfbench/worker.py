"""One workload in a fresh interpreter: set-up, then the timed or traced loop.

run.py starts it as

    python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE WORKDIR MODE -- WARMUP_ARGV...

with MODE `setup` (measure set-up only) or `run`.  It prints one JSON object
as its last line.  Set-up time runs from just before `import supergeo` to the
end of the first, untimed op (WARMUP_ARGV); the benchmark's own modules are
imported after it, so they do not pre-load anything supergeo needs.
"""

import os
import sys
import time


def run_op(op, run):
    """(code, report, error) of one op; a raised exception is an outcome."""
    os.environ.update(op.env)
    try:
        code, report = run(list(op.argv))
    except Exception as exc:  # the op failed: record it and keep going
        return None, None, f"{type(exc).__name__}: {exc}"
    return code, report, None


class Outcomes:
    """Judges each op as it returns and keeps only what the result needs.

    It counts the ops, keeps the first failures and hashes the first
    `digest_ops` reports (see ops.digest_line) as they come, so the harness
    holds no report and its memory does not grow with the number of ops
    completed: peak_rss_mb measures the program.
    """

    KEPT_FAILURES = 20

    def __init__(self, digest_ops: int):
        import hashlib

        import ops

        self._ops = ops
        self._hash = hashlib.sha256()
        self.digest_ops = digest_ops
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def add(self, op, code, report, error) -> None:
        if self.attempted < self.digest_ops:
            self._hash.update(self._ops.digest_line(code, report, error).encode())
        self.attempted += 1
        problems = self._ops.judge(op, code, report, error)
        if problems:
            self.failed += 1
            if len(self.failures) < self.KEPT_FAILURES:
                self.failures.append({"kind": op.kind, "argv": list(op.argv), "problems": problems})

    def digest(self) -> str:
        return self._hash.hexdigest()


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten samples beyond it.

    None when there are ten samples or fewer: no percentile has ten beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 11) / (n - 1), ordered[n - 11]


def timed_run(stream, seconds, run, outcomes: Outcomes):
    """Closed loop, one client: the next op starts when the previous returns.

    Each op is judged after its latency is taken.  If the window ends before
    the digest's ops are done, the rest of them run untimed after it.
    """
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    for op in stream:
        t = time.perf_counter()
        outcome = run_op(op, run)
        now = time.perf_counter()
        latencies.append(now - t)
        outcomes.add(op, *outcome)
        if now >= deadline:
            break
    elapsed = time.perf_counter() - start
    for op in stream:
        if outcomes.attempted >= outcomes.digest_ops:
            break
        outcomes.add(op, *run_op(op, run))
    return latencies, elapsed


def traced_run(deck, seconds, run_module, out_path, meta, outcomes: Outcomes):
    """Alternate untraced and traced passes over one deck until time is up.

    Counts come from the first traced pass, self times are medians over the
    traced passes, and the overhead is untraced over traced pass throughput.
    `run_module.run` is looked up on every op, so traced passes call the
    wrapped `cli.run`.
    """
    import statistics

    import tracing

    untraced, traced, times = [], [], []
    first = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        for op in deck:
            outcomes.add(op, *run_op(op, run_module.run))
        untraced.append(time.perf_counter() - t)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            for i, op in enumerate(deck):
                tracer.begin_op(i)
                outcomes.add(op, *run_op(op, run_module.run))
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        first = first or tracer
        times.append(tracer.times())
    first.write(out_path, meta)
    metrics = {**first.counts(), **first.shares()}
    for name in times[0]:
        metrics[name] = statistics.median(t[name] for t in times)
    metrics["trace.overhead"] = statistics.median(untraced) / statistics.median(traced)
    return metrics, len(times)


def main(argv: list[str]) -> None:
    root, workload, seed, seconds, trace, workdir, mode, _sep, *warm_argv = argv
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    import supergeo.cli as cli  # imports the supergeo package too

    warm_code, _ = cli.run(warm_argv)
    setup_s = time.perf_counter() - t0

    import json
    import resource
    import statistics

    import ops

    def emit(doc):
        print(json.dumps(doc, sort_keys=True), flush=True)

    warm_problems = [] if warm_code == 0 else [f"warm-up op {warm_argv} gave exit {warm_code}"]
    if mode == "setup":
        emit({"setup_s": setup_s, "warm_up_problems": warm_problems})
        return

    seed, seconds = int(seed), float(seconds)
    files = ops.input_paths(workdir)
    deck = ops.first_deck(workload, seed, files)
    doc = {"setup_s": setup_s, "deck": len(deck), "warm_up_problems": warm_problems}
    if trace == "1":
        out_path = os.path.join(root, "perfbench", "out", f"trace-{workload}-{seed}.json")
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        meta = {"workload": workload, "seed": seed, "ops": [list(op.argv) for op in deck]}
        outcomes = Outcomes(len(deck))
        metrics, passes = traced_run(deck, seconds, cli, out_path, meta, outcomes)
        doc.update(per_layer=metrics, passes=passes, spans_file=os.path.relpath(out_path, root))
    else:
        outcomes = Outcomes(ops.DIGEST_DECKS * len(deck))
        latencies, elapsed = timed_run(ops.stream(workload, seed, files), seconds, cli.run, outcomes)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tail_at = tail(latencies)
        if tail_at is None:
            sys.exit(f"{len(latencies)} timed ops: a tail needs more than 10; give the run more seconds")
        tail_pct, tail_s = tail_at
        doc.update(
            timed_ops=len(latencies),
            elapsed_s=elapsed,
            ops_per_s=len(latencies) / elapsed,
            op_p50_ms=statistics.median(latencies) * 1e3,
            op_tail_ms=tail_s * 1e3,
            op_tail_pct=tail_pct,
            peak_rss_mb=rss_kb / 1024.0,
        )
        if workload == "atlas":
            probe = ops.no_matrices_probe(files)
            code, report, error = run_op(probe, cli.run)
            problems = ops.judge(probe, code, report, error)
            doc["known_defect"] = {"argv": list(probe.argv), "fixed": not problems, "problems": problems}

    doc.update(
        attempted=outcomes.attempted,
        failed=outcomes.failed,
        failures=outcomes.failures,
        digest=outcomes.digest(),
        digest_ops=outcomes.digest_ops,
    )
    emit(doc)


if __name__ == "__main__":
    main(sys.argv[1:])
