"""One workload in one process: set up, run the timed rounds, check, report.

Run through ``perfbench/run.py``, which starts this file in a fresh process
with PYTHONHASHSEED pinned and ``src`` on the path.  The last line of
standard output is the JSON result; every line before it is for people.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Modules  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = (3, 15)  # at least 3 set-ups, more while under SETUP_BUDGET_S
SETUP_BUDGET_S = 1.5
PROBES_PER_SETUP = 5
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.5
MAX_PROBES_PER_GAP = 20
NOMINAL_PROBE_S = 0.002
LADDER = (50, 75, 90, 95, 99)
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(guaranteed: int) -> int:
    """Highest ladder percentile with at least 10 of ``guaranteed`` samples beyond it.

    The count is the run's guaranteed minimum (min_rounds full rounds), so
    every run of a workload reports the same percentile.
    """
    fitting = [p for p in LADDER if guaranteed * (100 - p) >= 10 * 100]
    return fitting[-1] if fitting else LADDER[0]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    index = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[index]


def fresh_import() -> Modules:
    """Import superweyl from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "superweyl" or n.startswith("superweyl.")]:
        del sys.modules[name]
    importlib.import_module("superweyl")
    return Modules(importlib.import_module)


def reference() -> Fraction:
    """Fixed stdlib work (about 2 ms): Fraction arithmetic and a small dict."""
    acc, counts = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, 3)
        key = (i % 13, i % 5)
        counts[key] = counts.get(key, 0) + i
    return acc


class SpeedProbe:
    """Times the reference work between requests to follow the machine's speed.

    Other processes on a shared machine slow everything down by up to 2x,
    for seconds to minutes at a time.  The probe runs the same fixed work
    every PROBE_EVERY_S, and each interval of time is scaled by
    NOMINAL_PROBE_S / (mean probe time around it): the time it would have
    taken on a machine where the reference work takes NOMINAL_PROBE_S.  The
    reference work is the benchmark's own code, so a change to superweyl
    does not move it.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []
        self.last = perf_counter()

    def run(self) -> None:
        # without the collector, so the program's heap size cannot slow the probe
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference()
            self.last = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.ends.append(self.last)
        self.times.append(self.last - start)

    def maybe(self) -> None:
        """Catch up to one probe per PROBE_EVERY_S since the last one (at most
        MAX_PROBES_PER_GAP), so long requests are bracketed by enough probes."""
        due = int((perf_counter() - self.last) / PROBE_EVERY_S)
        for _ in range(min(due, MAX_PROBES_PER_GAP)):
            self.run()

    def scale(self, start: float, end: float) -> float:
        """Speed factor from the probes within PROBE_WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.ends, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + PROBE_WINDOW_S)
        near = self.times[lo:hi] or self.times
        return NOMINAL_PROBE_S / statistics.fmean(near)


def set_up(name: str, seed: int, probe: SpeedProbe | None = None):
    """Median set-up time over repeated imports and builds; the last build.

    With a probe, each set-up time is scaled by the probes run just before
    and just after it.
    """
    times: list[float] = []
    for _ in range(PROBES_PER_SETUP if probe else 0):
        probe.run()
    while len(times) < SETUP_REPEATS[0] or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_REPEATS[1]
    ):
        start = perf_counter()
        workload = WORKLOADS[name](fresh_import(), seed)
        end = perf_counter()
        for _ in range(PROBES_PER_SETUP if probe else 0):
            probe.run()
        times.append((end - start) * (probe.scale(start, end) if probe else 1.0))
    return workload, statistics.median(times), times


@dataclass
class Timed:
    """What a run keeps of one request once its round has been checked."""
    cls: str
    latency: float
    end: float
    failure: str | None


def rounds(workload, request_span, probe: SpeedProbe):
    """Run rounds 0, 1, ... on demand, yielding (round, samples, ends).

    Round r runs the inputs of round r % min_rounds, so every run times the
    same input set however many rounds it makes.  The probe runs between
    requests, outside every timed interval.
    """
    r = 0
    while True:
        samples, ends = [], []

        def record(sample) -> None:
            ends.append(perf_counter())
            samples.append(sample)
            probe.maybe()

        workload.run_round(r % workload.min_rounds, record, request_span)
        yield r, samples, ends
        r += 1


def checked(workload, samples, ends) -> list[Timed]:
    """Check one round's results; keep only what the metrics need."""
    return [
        Timed(s.cls, s.latency, end, e and f"{s.cls} [{s.spec}]: {e}")
        for s, end, e in zip(samples, ends, workload.check(samples))
    ]


def digest_update(h, workload, samples):
    """Feed every rendered output of ``samples`` into the hash ``h``."""
    for s in samples:
        text = workload.render(s) if s.error is None else f"error {s.error}"
        h.update(f"{s.cls}\t{s.spec}\t{text}\n".encode())
    return h


def digest_error(workload, value: str) -> str | None:
    """None when ``value`` is the stored digest of the workload's default seed."""
    stored = json.loads(DIGESTS.read_text()).get(workload.name)
    if stored != value:
        return f"digest {value} differs from the stored {stored}"
    return None


def context(workload, seed: int, round_count: int, timed: list[Timed], tail_p: int | None) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    n = len(timed)
    ctx = {
        "workload": workload.name,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "class_counts_per_round": workload.counts,
        "rounds": round_count,
        "min_rounds": workload.min_rounds,
        "samples": n,
    }
    if tail_p is not None:
        ctx["tail_percentile"] = tail_p
        ctx["tail_samples_beyond"] = n - math.ceil(tail_p / 100 * n) if n else 0
    return ctx


def normalized(probe: SpeedProbe, timed: list[Timed]) -> list[float]:
    """Each latency scaled by the machine speed measured around it."""
    return [t.latency * probe.scale(t.end - t.latency, t.end) for t in timed]


def end_to_end(args) -> dict:
    probe = SpeedProbe()
    workload, setup_s, setup_times = set_up(args.workload, args.seed, probe)
    # Each round is checked as soon as it ends, so that memory held does not
    # grow with the round count.  The round count follows normalized request
    # time, so a slow spell on the machine does not add rounds.
    timed: list[Timed] = []
    running = 0.0
    h = hashlib.sha256() if args.seed == DEFAULT_SEED else None
    for r, samples, ends in rounds(workload, lambda cls: nullcontext(), probe):
        kept = checked(workload, samples, ends)
        if h is not None and r < workload.min_rounds:
            digest_update(h, workload, samples)
        del samples, ends  # so the next round runs without this one's outputs
        timed += kept
        running += sum(normalized(probe, kept))
        if r + 1 >= workload.min_rounds and running >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(1 for t in timed if t.failure)
    tail_p = tail_percentile(workload.min_rounds * workload.round_size)

    def summary(latencies: list[float]) -> dict:
        ordered = sorted(latencies)
        return {
            "ops_per_s": (len(timed) - failed) / sum(ordered),
            "latency_p50_ms": statistics.median(ordered) * 1e3,
            "latency_tail_ms": nearest_rank(ordered, tail_p) * 1e3,
        }

    values = {
        "setup_s": setup_s,
        **summary(normalized(probe, timed)),
        "peak_rss_mb": peak_rss_mb,
    }
    ctx = context(workload, args.seed, r + 1, timed, tail_p)
    ctx.update(setup_runs_s=setup_times, raw=summary([t.latency for t in timed]),
               probes=len(probe.times), probe_mean_s=statistics.fmean(probe.times))
    digest_failure = None
    if h is not None:
        ctx["digest"] = h.hexdigest()
        digest_failure = digest_error(workload, ctx["digest"])
    report(ctx, timed, digest_failure)
    print(f"metric failed_ratio = {failed / len(timed):.6f} (failed {failed} of {len(timed)})")
    for name, value in values.items():
        extra = f" (p{tail_p}, {ctx['tail_samples_beyond']} of {len(timed)} samples beyond)" \
            if name == "latency_tail_ms" else ""
        print(f"metric {name} = {value:.6g} {E2E_UNITS[name]}{extra}")
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return result(ctx, timed, failed, digest_failure, metrics, trace=0)


def traced(args) -> dict:
    """Round 0 untraced, then round 0 traced; per-layer metrics from the spans."""
    workload, setup_s, _ = set_up(args.workload, args.seed)
    probe = SpeedProbe()  # so that the overhead ratio compares like with like
    no_span = lambda cls: nullcontext()  # noqa: E731
    _, untraced_samples, untraced_ends = next(rounds(workload, no_span, probe))
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_samples, traced_ends = next(rounds(workload, tracer.request, probe))
    finally:
        tracer.uninstall()
    # checked after the tracer is gone, so checks add no spans; no digest:
    # it covers min_rounds rounds, which a traced run does not make
    untraced = checked(workload, untraced_samples, untraced_ends)
    traced_timed = checked(workload, traced_samples, traced_ends)
    untraced_s = sum(normalized(probe, untraced))
    traced_s = sum(normalized(probe, traced_timed))
    timed = untraced + traced_timed
    failed = sum(1 for t in timed if t.failure)
    metrics, absent = tracer.layer_metrics(traced_s / untraced_s)
    ctx = context(workload, args.seed, 1, traced_timed, None)
    ctx.update(untraced_s=untraced_s, traced_s=traced_s, setup_s=setup_s,
               absent=absent, missing_names=tracer.missing,
               spans_kept=len(tracer.spans), spans_dropped=tracer.spans_dropped)
    report(ctx, timed, None)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name in absent:
        print(f"metric {name} absent")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return result(ctx, timed, failed, None, metrics, trace=1)


def report(ctx, timed: list[Timed], digest_failure) -> None:
    print(f"context: {json.dumps(ctx, sort_keys=True)}")
    by_class: dict[str, list[float]] = {}
    for t in timed:
        by_class.setdefault(t.cls, []).append(t.latency)
    for cls, lat in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"class {cls}: {len(lat)} requests, median {statistics.median(lat) * 1e3:.3f} ms,"
              f" max {max(lat) * 1e3:.3f} ms")
    for failure in [t.failure for t in timed if t.failure][:5]:
        print(f"FAILED {failure}")
    if digest_failure:
        print(f"FAILED digest: {digest_failure}")


def result(ctx, timed, failed, digest_failure, metrics, trace: int) -> dict:
    out = {
        "correct": failed == 0 and digest_failure is None,
        "attempted": len(timed),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{ctx['workload']}-seed{ctx['seed']}-trace{trace}.json"
    (OUT / name).write_text(json.dumps({**out, "context": ctx}, indent=2) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = traced(args) if args.trace else end_to_end(args)
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
