"""Benchmark for ckfree: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload construct-large --seed 1 --seconds 5 --trace 0

A run sets the workload up SETUP_REPEATS times (fresh imports and inputs),
then runs whole rounds of its operations, at least the workload's `rounds`
and until --seconds have passed, then checks the outputs of the first round,
and that every later round produced the same.  Time metrics are the mean of
the first `rounds` rounds, so that a run measures the same operations
however fast the machine is; any later rounds are counted in `attempted` and
`failed` and checked like the others.

With --trace 0 the last line carries the end-to-end metrics.  With --trace 1
the first round is untraced, the later ones are traced, and the last line
carries the per-layer metrics of one traced round.  Every run writes a
results file, and a traced run a span file, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def git_head() -> str | None:
    """HEAD of the repository this checkout is, if it is one."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


class Round:
    """Timings, failures and evidence of one pass over the operations."""

    def __init__(self) -> None:
        self.op_seconds: dict[str, float] = {}
        self.latencies: list[float] = []  # of each operation that succeeded
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.errors: dict[str, str] = {}
        self.evidence: dict = {}

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds.values())


def run_round(ops, succeeded, tracer=None) -> Round:
    r = Round()
    clock = time.perf_counter
    for op in ops:
        span = tracer.begin(f"op.{op.kind}") if tracer else None
        batch = op.batch is not None
        total = 0.0
        evidence = []
        for args in op.batch if batch else [()]:
            t0 = clock()
            try:
                result = op.call(*args)
                error = None
            except Exception as exc:  # a failing operation is a measurement, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"[:300]
            dt = clock() - t0
            total += dt
            r.attempted += 1
            if error is None and succeeded(result):
                r.latencies.append(dt)
                evidence.append(op.evidence(result))
            else:
                r.failed[op.label] = r.failed.get(op.label, 0) + 1
                r.errors[op.label] = error or f"exit {result.rc}: {(result.err or result.out).strip()[:300]}"
                evidence.append(None)
            del result
        if tracer:
            tracer.finish(span)
        r.op_seconds[op.label] = total
        if batch:
            r.evidence[op.label] = evidence
        elif evidence[0] is not None:
            r.evidence[op.label] = evidence[0]
    return r


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ckfree" / "__init__.py").is_file():
        print(f"error: no ckfree sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, metrics = measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for problem in report["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for label in report["unexpected_failures"]:
        print(f"UNEXPECTED FAILURE: {label}: {report['failed_ops'][label]['error']}")
    for name, m in list(report["end_to_end"].items()) + list(report["figures"].items()):
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"untraced_wall_s {report['untraced_wall_s']:.6g} s; traced_wall_s {report['traced_wall_s']:.6g} s")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def measure(args, workloads, workdir: Path):
    from tracing import Tracer, per_layer_metrics

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    ops = wl.ops()

    # a traced run measures one untraced round, then traced ones
    measured = 1 if args.trace else wl.rounds
    rounds: list[Round] = []
    problems: list[str] = []
    tracer = None
    start = time.perf_counter()
    while len(rounds) < measured + args.trace or time.perf_counter() - start < args.seconds:
        gc.collect()
        if len(rounds) == measured and args.trace:
            tracer = Tracer()
            tracer.install()
        r = run_round(ops, workloads.succeeded, tracer)
        if rounds:
            problems += [f"round {len(rounds) + 1}: {label} differs from round 1"
                         for label, ev in r.evidence.items() if ev != rounds[0].evidence.get(label, ev)]
            r.evidence = None
        rounds.append(r)
        if len(rounds) == measured:
            # read here, so the peak does not depend on how many rounds
            # --seconds allowed; later rounds drop their evidence
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    first = rounds[0]
    timed = rounds[:measured]
    op_seconds = {label: statistics.fmean(r.op_seconds[label] for r in timed) for label in first.op_seconds}
    failed_labels = sorted({label for r in rounds for label in r.failed})
    known = {o.label: o.known_fault for o in ops if o.known_fault}
    t0 = time.perf_counter()
    problems += wl.check(first.evidence)
    check_s = time.perf_counter() - t0

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.fmean(r.seconds for r in timed), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    figures = wl.figures(op_seconds, ops)
    figures["op_median_ms"] = (statistics.median(t for r in timed for t in r.latencies) * 1e3, "ms")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_head": git_head(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "rounds": len(rounds),
        "measured_rounds": measured,
        "round_seconds": [r.seconds for r in rounds],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(sum(r.failed.values()) for r in rounds),
        "failed_ops": {label: {"count": sum(r.failed.get(label, 0) for r in rounds),
                               "error": next(r.errors[label] for r in rounds if label in r.errors),
                               "known_fault": known.get(label)}
                       for label in failed_labels},
        "unexpected_failures": [label for label in failed_labels if label not in known],
        "correct": not problems,
        "problems": problems[:50],
        "setup_runs_s": setup_times,
        "check_s": check_s,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "op_seconds": {label: t for label, t in op_seconds.items() if not label.startswith("chain ")},
    }
    if not args.trace:
        return report, report["end_to_end"]
    traced = rounds[measured:]
    layers = per_layer_metrics(tracer, len(traced))
    report["untraced_wall_s"] = first.seconds
    report["traced_wall_s"] = statistics.median(r.seconds for r in traced)
    report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(span_path)
    report["span_file"] = str(span_path.relative_to(ROOT))
    return report, report["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
