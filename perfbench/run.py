"""Layered GRP benchmark: four workloads through the real path, timed from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload city_sharded --seed 1 --seconds 35 --trace 0

``--trace 0`` simulates the workload's input windows untraced for
``--seconds`` and reports the end-to-end metrics, their times scaled to a
reference host speed that ``hostref`` measures around every window (the
wall-clock figures are printed too); ``--trace 1`` alternates an
untraced and a traced simulation of each input window and reports the
per-layer metrics (self times, counts and ratios per simulated window) plus
the tracing overhead.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable table with every metric's median, the
highest percentile that has at least ten samples beyond it and the sample
count, the per-layer decomposition (traced run) and the simulation digest.

Every window is checked: repeated and traced simulations of one input seed
must reproduce its digest, the sharded run must match its ``shards=1``
reference fingerprint, and the traffic ledger must conserve messages.  A
window that raises or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metric -> unit (the set BENCHMARK.json declares)
END_TO_END = {"run_s": "s", "events_per_s": "1/s", "msgs_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _percentile_label(samples: List[float]) -> str:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            index = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
            return f"p{pct:g}={ordered[index]:.6g}"
    return "p-=none(n<20)"


def _summary(name: str, unit: str, value: float, samples: List[float]) -> str:
    median = statistics.median(samples) if samples else value
    return (f"{name:<22} {value:>14.6g} {unit:<6} median={median:.6g} "
            f"{_percentile_label(samples)} n={len(samples)}")


class Run:
    """Bookkeeping shared by the timed and the traced modes."""

    def __init__(self, workload, seeds: List[int], toy: bool):
        self.workload = workload
        self.seeds = seeds
        self.toy = toy
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[int, str] = {}
        self.outcomes: Dict[int, list] = {seed: [] for seed in seeds}

    def window(self, seed: int, tracer=None):
        """Simulate one input window and check it; ``None`` when it failed."""
        self.attempted += 1
        # Collect the previous window's garbage, then freeze what survives so
        # the collector does not rescan it inside this window.
        gc.collect()
        gc.freeze()
        try:
            before = hostref.measure()
            outcome = self.workload.execute(seed, self.toy, tracer)
            outcome.host_s = (before + hostref.measure()) / 2
        except Exception:  # a crashed window is a failed window, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        problems = list(outcome.problems)
        known = self.digests.setdefault(seed, outcome.digest)
        if known != outcome.digest:
            problems.append(f"digest {outcome.digest} differs from {known} "
                            f"for input {seed}")
        if problems:
            for problem in problems:
                print(f"check failed [{self.workload.name} input {seed}]: {problem}",
                      file=sys.stderr)
            self.failed += 1
            return None
        return outcome

    def digest(self) -> str:
        joined = ",".join(self.digests.get(seed, "missing") for seed in self.seeds)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def per_input_mean(self, value) -> Dict[int, float]:
        return {seed: statistics.fmean(value(o) for o in outs)
                for seed, outs in self.outcomes.items() if outs}


def _scaled(seconds: float, outcome) -> float:
    """``seconds`` measured in ``outcome``'s window, at the reference host speed."""
    return seconds * hostref.NOMINAL_S / outcome.host_s


def _wall(seconds: float, _outcome) -> float:
    return seconds


def _timings(run: Run, clock) -> Dict[str, tuple]:
    """Timed figures as (value, per-window samples), with times read by ``clock``."""
    # Each window's cost depends on its layout, so the reported figure is the
    # mean over the inputs of each input's mean.  Means, not medians: the
    # host's speed switches between a few levels for seconds at a time, so a
    # median jumps from one level to the next as their shares of the run
    # change, while a mean moves in proportion to those shares.
    everything = [o for outs in run.outcomes.values() for o in outs]
    first = [outs[0] for outs in run.outcomes.values() if outs]
    total_run = sum(run.per_input_mean(lambda o: clock(o.run_s, o)).values())
    run_samples = [clock(o.run_s, o) for o in everything]

    def rate(count) -> tuple:
        return (sum(count(o) for o in first) / total_run,
                [count(o) / t for o, t in zip(everything, run_samples)])

    figures = {
        "run_s": (total_run / len(first), run_samples),
        "events_per_s": rate(lambda o: o.events),
        "msgs_per_s": rate(lambda o: o.deliveries),
        # Set-up is cheap next to its noise and the first window also pays the
        # lazy imports, so it is the median over every window of the run.
        "setup_s": (statistics.median(clock(o.setup_s, o) for o in everything),
                    [clock(o.setup_s, o) for o in everything]),
    }
    if any(o.app_deliveries for o in first):
        figures["app_msgs_per_s"] = rate(lambda o: o.app_deliveries)
    return figures


def measure(run: Run, seconds: float) -> Dict[str, dict]:
    """Untraced windows, round-robin over the inputs, for ``seconds``."""
    deadline = time.perf_counter() + seconds
    index = 0
    peak_rss_mb = 0.0
    while (index < len(run.seeds) or time.perf_counter() < deadline):
        seed = run.seeds[index % len(run.seeds)]
        outcome = run.window(seed)
        if outcome is not None:
            run.outcomes[seed].append(outcome)
        index += 1
        if index == len(run.seeds):
            # Read after one window of every input: a fixed amount of work.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    everything = [o for outs in run.outcomes.values() for o in outs]
    if not everything:
        return {}
    figures = _timings(run, _scaled)
    lines = [_summary(name, END_TO_END.get(name, "1/s"), value, samples)
             for name, (value, samples) in figures.items()]
    lines += [_summary("wall_" + name, END_TO_END.get(name, "1/s"), value, samples)
              for name, (value, samples) in _timings(run, _wall).items()]
    lines.append(_summary("peak_rss_mb", "MB", peak_rss_mb, [peak_rss_mb]))
    host_ms = [o.host_s * 1e3 for o in everything]
    lines.append(_summary("host_reference_ms", "ms", statistics.median(host_ms), host_ms)
                 + f" (nominal {hostref.NOMINAL_S * 1e3:g} ms)")
    share = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"{'failed_run_share':<22} {share:>14.6g} {'ratio':<6} "
                 f"({run.failed} of {run.attempted} windows)")
    print("\n".join(lines))
    reported = {name: {"value": value, "unit": END_TO_END[name]}
                for name, (value, _samples) in figures.items() if name in END_TO_END}
    reported["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return reported


def measure_traced(run: Run, seconds: float, spans_path: Path) -> Dict[str, dict]:
    """Untraced/traced pairs per input; per-layer figures per simulated window."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    traced: List = []
    untraced: List = []
    aggregates: List[dict] = []
    setup_stats: List[dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    spans = None
    while index < len(run.seeds) or time.perf_counter() < deadline:
        seed = run.seeds[index % len(run.seeds)]
        index += 1
        plain = run.window(seed)
        tracer.clear()
        tracer.spans = [] if spans is None else None
        tracer.install()
        try:
            outcome = run.window(seed, tracer)
        finally:
            tracer.uninstall()
        if spans is None:
            spans = tracer.spans
        tracer.spans = None
        if plain is None or outcome is None:
            continue
        untraced.append(plain)
        traced.append(outcome)
        aggregates.append(tracer.snapshot())
        setup_stats.append(tracer.setup)
        run.outcomes[seed].append(outcome)
    if not traced:
        return {}
    if spans:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w") as fh:
            for name, event, t0, t1, depth in spans:
                fh.write(json.dumps({"name": name, "event": event, "start_ns": t0,
                                     "end_ns": t1, "depth": depth}) + "\n")
    metrics, table = layers.per_layer(traced, untraced, aggregates, setup_stats)
    print(table)
    print(f"spans of the first traced window: {spans_path} ({len(spans or [])} spans)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs (the smoke test)")
    args = parser.parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {source}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, input_seeds

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = input_seeds(workload.name, args.seed, 2 if args.toy else workload.inputs)
    run = Run(workload, seeds, args.toy)
    workload.prepare(seeds, args.toy)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"inputs {len(seeds)}: {workload.why}")
    print(f"bypasses: {workload.bypasses}")
    if args.trace:
        spans_path = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        metrics = measure_traced(run, args.seconds, spans_path)
    else:
        metrics = measure(run, args.seconds)
    per_input = ", ".join(f"{seed}:{run.digests.get(seed, 'missing')}" for seed in seeds)
    print(f"digest {run.digest()} over {len(seeds)} inputs ({per_input})")
    print(json.dumps({"correct": run.failed == 0 and bool(metrics),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
