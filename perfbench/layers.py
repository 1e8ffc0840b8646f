"""Per-layer metrics and the self-time table of the traced run.

Every figure is per simulated window (a mean over the traced windows), so
runs that fit a different number of windows into ``--seconds`` compare
directly.  The wrapped self times plus the ``other`` remainder (the run loop
and any code outside a wrapped entry point) add up to the traced ``run_s``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from tracer import SETUP_SPANS, SPAN_FEEDS

__all__ = ["PER_LAYER", "per_layer"]

#: per-layer metric -> unit (the set BENCHMARK.json declares)
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.self_ns_per_event": "ns",
    "core.compute.calls": "count",
    "core.compute.self_s": "s",
    "core.compute.us_p50": "us",
    "core.compute.us_p99": "us",
    "core.compute.view_change_ratio": "ratio",
    "core.msg_set.mean": "count",
    "core.alist.mean_size": "count",
    "core.sanitized_for.calls": "count",
    "core.sanitized_for.s": "s",
    "core.checks.s": "s",
    "core.send.self_s": "s",
    "net.broadcast.calls": "count",
    "net.broadcast.self_s": "s",
    "net.broadcast.us_p50": "us",
    "net.fanout.mean": "count",
    "net.delivery_ratio": "ratio",
    "net.channel.s": "s",
    "net.fast_path_share": "ratio",
    "net.deliver.self_s": "s",
    "net.topology.calls": "count",
    "net.topology.s": "s",
    "net.csr.patches": "count",
    "net.csr.rebuilds": "count",
    "sim.trace.records": "count",
    "mobility.step.calls": "count",
    "mobility.step.s": "s",
    "metrics.sample.calls": "count",
    "metrics.sample.self_s": "s",
    "metrics.sample.ms_p50": "ms",
    "metrics.sample.ms_p99": "ms",
    "metrics.predicates.s": "s",
    "metrics.continuity.s": "s",
    "traffic.send.calls": "count",
    "traffic.send.self_s": "s",
    "traffic.deliver.calls": "count",
    "traffic.deliver.self_s": "s",
    "traffic.delivery_ratio": "ratio",
    "shard.rounds": "count",
    "shard.run_round.s": "s",
    "shard.apply.s": "s",
    "shard.broadcast.self_s": "s",
    "shard.coord_self_s": "s",
    "shard.finish.s": "s",
    "shard.remote_share": "ratio",
    "shard.imbalance": "ratio",
    "scenarios.build.s": "s",
    "other.self_s": "s",
    "bench.traced_run_s": "s",
    "bench.trace_overhead": "ratio",
}


def _pct(values: List[int], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list, untraced: list, aggregates: List[dict],
              setups: List[dict]) -> Tuple[Dict[str, dict], str]:
    """Per-layer metrics (name -> {"value", "unit"}) and the printed table."""
    windows = len(traced)

    def stat(name: str, index: int) -> float:
        return sum(a["stats"].get(name, (0, 0, 0))[index] for a in aggregates)

    def calls(name: str) -> float:
        return stat(name, 0) / windows

    def total_s(name: str) -> float:
        return stat(name, 1) / 1e9 / windows

    def self_s(name: str) -> float:
        return stat(name, 2) / 1e9 / windows

    def count(key: str) -> float:
        return sum(a["counts"].get(key, 0.0) for a in aggregates)

    def samples(name: str) -> List[int]:
        return [v for a in aggregates for v in a["samples"].get(name, ())]

    def layer(key: str) -> float:
        return sum(o.layer.get(key, 0) for o in traced)

    traced_run = sum(o.run_s for o in traced) / windows
    untraced_run = sum(o.run_s for o in untraced) / windows
    run_spans = [name for name in SPAN_FEEDS if name not in SETUP_SPANS]
    accounted = sum(self_s(name) for name in run_spans)
    compute_calls = stat("core.compute", 0)
    values = {
        "sim.events": calls("sim.step"),
        "sim.self_s": self_s("sim.step"),
        "sim.self_ns_per_event": _ratio(stat("sim.step", 2), stat("sim.step", 0)),
        "core.compute.calls": calls("core.compute"),
        "core.compute.self_s": self_s("core.compute"),
        "core.compute.us_p50": _pct(samples("core.compute"), 0.50) / 1e3,
        "core.compute.us_p99": _pct(samples("core.compute"), 0.99) / 1e3,
        "core.compute.view_change_ratio": _ratio(count("view_changes"), compute_calls),
        "core.msg_set.mean": _ratio(count("msg_set"), compute_calls),
        "core.alist.mean_size": _ratio(count("alist_size"), compute_calls),
        "core.sanitized_for.calls": calls("core.sanitized_for"),
        "core.sanitized_for.s": total_s("core.sanitized_for"),
        "core.checks.s": total_s("core.good_list") + total_s("core.compatible_list"),
        "core.send.self_s": self_s("core.send"),
        "net.broadcast.calls": calls("net.broadcast"),
        "net.broadcast.self_s": self_s("net.broadcast"),
        "net.broadcast.us_p50": _pct(samples("net.broadcast"), 0.50) / 1e3,
        "net.fanout.mean": _ratio(count("offered"), sum(o.sent for o in traced)),
        "net.delivery_ratio": _ratio(count("accepted"), count("offered")),
        "net.channel.s": total_s("net.channel"),
        "net.fast_path_share": _ratio(count("fast_decisions"), count("decisions")),
        "net.deliver.self_s": self_s("net.deliver"),
        "net.topology.calls": calls("net.topology"),
        "net.topology.s": total_s("net.topology"),
        "net.csr.patches": layer("csr_patches") / windows,
        "net.csr.rebuilds": layer("csr_rebuilds") / windows,
        "sim.trace.records": layer("trace_records") / windows,
        "mobility.step.calls": calls("mobility.step"),
        "mobility.step.s": total_s("mobility.step"),
        "metrics.sample.calls": calls("metrics.sample"),
        "metrics.sample.self_s": self_s("metrics.sample"),
        "metrics.sample.ms_p50": _pct(samples("metrics.sample"), 0.50) / 1e6,
        "metrics.sample.ms_p99": _pct(samples("metrics.sample"), 0.99) / 1e6,
        "metrics.predicates.s": total_s("metrics.predicates"),
        "metrics.continuity.s": total_s("metrics.continuity"),
        "traffic.send.calls": calls("traffic.send"),
        "traffic.send.self_s": self_s("traffic.send"),
        "traffic.deliver.calls": calls("traffic.deliver"),
        "traffic.deliver.self_s": self_s("traffic.deliver"),
        "traffic.delivery_ratio": _ratio(layer("app_delivered"), layer("app_expected")),
        "shard.rounds": layer("shard_rounds") / windows,
        "shard.run_round.s": total_s("shard.run_round"),
        "shard.apply.s": total_s("shard.apply"),
        "shard.broadcast.self_s": self_s("shard.broadcast"),
        "shard.coord_self_s": self_s("shard.coord"),
        "shard.finish.s": total_s("shard.finish"),
        "shard.remote_share": _ratio(layer("shard_remote"),
                                     sum(o.deliveries for o in traced)),
        "shard.imbalance": layer("shard_imbalance") / windows,
        "scenarios.build.s": sum(s["stats"].get("scenarios.build", (0, 0, 0))[1]
                                 for s in setups) / 1e9 / windows,
        "other.self_s": traced_run - accounted,
        "bench.traced_run_s": traced_run,
        "bench.trace_overhead": _ratio(traced_run, untraced_run),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}

    rows = [f"per-layer self time per simulated window ({windows} traced windows, "
            f"traced run_s {traced_run:.4f} s, untraced {untraced_run:.4f} s)",
            f"{'span':<22} {'calls':>11} {'total_s':>10} {'self_s':>10} {'share':>7}  feeds"]
    for name in run_spans:
        if not stat(name, 0):
            continue
        rows.append(f"{name:<22} {calls(name):>11.1f} {total_s(name):>10.4f} "
                    f"{self_s(name):>10.4f} {_ratio(self_s(name), traced_run):>7.1%}  "
                    f"{SPAN_FEEDS[name]}")
    rows.append(f"{'other':<22} {'':>11} {'':>10} {values['other.self_s']:>10.4f} "
                f"{_ratio(values['other.self_s'], traced_run):>7.1%}  "
                "run loop and code outside the wrapped entry points")
    rows.append(f"{'sum':<22} {'':>11} {'':>10} {accounted + values['other.self_s']:>10.4f} "
                f"{'':>7}  = traced run_s")
    net_traffic = sum(self_s(name) for name in run_spans
                      if name.startswith(("net.", "traffic.")))
    rows.append("shares of traced run_s: "
                f"core.compute {_ratio(total_s('core.compute'), traced_run):.1%}, "
                f"metrics.sample {_ratio(total_s('metrics.sample'), traced_run):.1%}, "
                f"net+traffic self {_ratio(net_traffic, traced_run):.1%}, "
                f"shard.coord {_ratio(total_s('shard.coord'), traced_run):.1%}")
    rows.append("per-layer metrics:")
    rows.extend(f"  {name:<32} {values[name]:>14.6g} {unit}"
                for name, unit in PER_LAYER.items())
    return metrics, "\n".join(rows)
