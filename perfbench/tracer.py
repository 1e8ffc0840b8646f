"""Outside-in tracing of the GRP layers for the traced benchmark run.

The program is not edited: :class:`Tracer` replaces the public entry points
of each layer (and a few module-level names the layers call through) with
timing wrappers while a traced iteration runs, and puts the originals back
afterwards.  Every wrapper is a *span* — it pushes a frame on a shared stack
so that the enclosing span can subtract the time its wrapped children took
(self time = span minus wrapped children) — except the kernels that run
millions of times per window (``sanitized_for``, ``good_list``,
``compatible_list``, the channel decisions), which are aggregated as count +
total time and only charge their time to the enclosing span.

Span records (name, event seq, start ns, end ns, stack depth) are kept in memory
for the first traced iteration only and written out when the benchmark ends;
the event seq of the ``Simulator.step`` being executed is the span id that
every child span shares.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import repro.core.node as node_module
import repro.metrics.collectors as collectors_module
import repro.scenarios.registry as registry_module
import repro.shard.runner as runner_module
import repro.shard.world as world_module
from repro.core.ancestor_list import AncestorList
from repro.core.node import GRPNode
from repro.metrics.collectors import ConfigurationSampler
from repro.net.network import Network
from repro.shard.world import ShardNetwork, ShardWorld
from repro.sim.engine import Simulator
from repro.traffic.generators import TrafficDriver

__all__ = ["Tracer", "SPAN_FEEDS", "SETUP_SPANS"]

_clock = time.perf_counter_ns

#: Every wrapped name, in table order, with the end-to-end metric (and the
#: workload) the layer is expected to move.
SPAN_FEEDS: Dict[str, str] = {
    "sim.step": "events_per_s, all workloads (most on convoy_traffic)",
    "core.compute": "run_s on city_static and city_sharded",
    "core.sanitized_for": "run_s on city_static and city_sharded",
    "core.good_list": "run_s on city_static and city_sharded",
    "core.compatible_list": "run_s on city_static and city_sharded",
    "core.send": "run_s on city_static and city_sharded",
    "net.broadcast": "run_s, app_msgs_per_s on convoy_traffic",
    "net.channel": "run_s, app_msgs_per_s on convoy_traffic",
    "net.deliver": "run_s on city_static, city_sharded (delayed deliveries)",
    "net.topology": "run_s on manet_sampled (topology snapshots)",
    "mobility.step": "run_s on manet_sampled",
    "metrics.sample": "run_s on manet_sampled",
    "metrics.predicates": "run_s on manet_sampled",
    "metrics.continuity": "run_s on manet_sampled",
    "traffic.send": "app_msgs_per_s on convoy_traffic",
    "traffic.deliver": "app_msgs_per_s on convoy_traffic",
    "shard.coord": "run_s on city_sharded",
    "shard.run_round": "run_s on city_sharded",
    "shard.apply": "run_s on city_sharded",
    "shard.broadcast": "run_s on city_sharded",
    "shard.finish": "run_s on city_sharded",
    "scenarios.build": "setup_s, all workloads (most on city_sharded)",
}

#: Spans that only run during set-up; they are kept apart from the run-phase
#: decomposition.
SETUP_SPANS = ("scenarios.build",)


class Tracer:
    """Span/aggregate recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: name -> [calls, total ns, self ns]
        self.stats: Dict[str, List[int]] = {}
        #: name -> per-call durations (ns), for the layers reported as percentiles
        self.samples: Dict[str, List[int]] = {}
        #: free-form counters measured at the layer boundaries
        self.counts: Dict[str, float] = defaultdict(float)
        self.stack: List[List[int]] = []
        self.event = -1
        self.spans: Optional[list] = None
        #: aggregates of the set-up phase of the last traced window
        self.setup: Dict[str, object] = {}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ records

    def stat(self, name: str) -> List[int]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        return stat

    def clear(self) -> None:
        """Zero every aggregate in place (wrappers hold references to them)."""
        for stat in self.stats.values():
            stat[0] = stat[1] = stat[2] = 0
        for samples in self.samples.values():
            samples.clear()
        self.counts.clear()
        self.event = -1

    def snapshot(self) -> Dict[str, object]:
        """Copy of the aggregates collected since the last :meth:`clear`."""
        return {"stats": {name: list(stat) for name, stat in self.stats.items()},
                "samples": {name: list(s) for name, s in self.samples.items()},
                "counts": dict(self.counts)}

    def begin_run(self) -> None:
        """Mark the set-up/run boundary: keep the set-up aggregates, restart."""
        self.setup = self.snapshot()
        self.clear()

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn: Callable, sampled: bool = False) -> Callable:
        stat = self.stat(name)
        samples = self.samples.setdefault(name, []) if sampled else None
        stack = self.stack
        tracer = self

        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                dt = t1 - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if samples is not None:
                    samples.append(dt)
                if tracer.spans is not None:
                    tracer.spans.append((name, tracer.event, t0, t1, len(stack)))
        return span

    def _kernel(self, name: str, fn: Callable) -> Callable:
        stat = self.stat(name)
        stack = self.stack

        def kernel(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt
            if stack:
                stack[-1][0] += dt
            return result
        return kernel

    def _step(self, fn: Callable) -> Callable:
        span = self._span("sim.step", fn)
        tracer = self

        def step(sim):
            # peek_time() drops cancelled heads exactly as step() would, so
            # the head is the event about to run; its seq is the span id.
            if sim.peek_time() is not None:
                tracer.event = sim._queue[0].seq
            return span(sim)
        return step

    def _compute(self, fn: Callable) -> Callable:
        span = self._span("core.compute", fn, sampled=True)
        counts = self.counts

        def compute(node):
            old_view = node.view
            counts["msg_set"] += len(node.msg_set)
            span(node)
            counts["alist_size"] += node.alist.size()
            if node.view != old_view:
                counts["view_changes"] += 1
        return compute

    # ------------------------------------------------------------- install

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every class- and module-level layer entry point."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(Simulator, "step", self._step(Simulator.step))
        p(GRPNode, "compute", self._compute(GRPNode.compute))
        p(GRPNode, "_on_ts_expired", self._span("core.send", GRPNode._on_ts_expired))
        p(AncestorList, "sanitized_for",
          self._kernel("core.sanitized_for", AncestorList.sanitized_for))
        p(node_module, "good_list", self._kernel("core.good_list", node_module.good_list))
        p(node_module, "compatible_list",
          self._kernel("core.compatible_list", node_module.compatible_list))
        p(Network, "broadcast", self._span("net.broadcast", Network.broadcast, sampled=True))
        p(Network, "_deliver", self._span("net.deliver", Network._deliver))
        p(Network, "topology", self._span("net.topology", Network.topology))
        p(ConfigurationSampler, "sample_now",
          self._span("metrics.sample", ConfigurationSampler.sample_now, sampled=True))
        p(collectors_module, "evaluate_configuration",
          self._span("metrics.predicates", collectors_module.evaluate_configuration))
        for attr in ("continuity", "continuity_violations", "topological"):
            p(collectors_module, attr,
              self._span("metrics.continuity", getattr(collectors_module, attr)))
        p(TrafficDriver, "send", self._span("traffic.send", TrafficDriver.send))
        p(TrafficDriver, "_on_delivery",
          self._span("traffic.deliver", TrafficDriver._on_delivery))
        p(runner_module, "_coordinate", self._span("shard.coord", runner_module._coordinate))
        p(ShardWorld, "run_round", self._span("shard.run_round", ShardWorld.run_round))
        p(ShardWorld, "apply", self._span("shard.apply", ShardWorld.apply))
        p(ShardWorld, "finish", self._span("shard.finish", ShardWorld.finish))
        p(ShardNetwork, "broadcast", self._span("shard.broadcast", ShardNetwork.broadcast))
        p(registry_module, "build", self._span("scenarios.build", registry_module.build))
        p(world_module, "build_scenario",
          self._span("scenarios.build", world_module.build_scenario))

    def uninstall(self) -> None:
        """Put every original back (reverse order, so doubled names unwind)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def instrument(self, network: Network) -> None:
        """Wrap one built network's channel decisions and mobility step.

        Instance attributes, not class patches: the channel class differs per
        workload (a sharded world swaps in a per-sender channel that delegates
        to inner lossy channels, which must not be counted twice), and the
        wrappers die with the deployment.
        """
        channel = network.channel
        counts = self.counts
        stat = self.stat("net.channel")
        stack = self.stack
        inside = [False]

        def counted(fn, offered, accepted, fast=False):
            # A channel whose batch call falls back to its own scalar decide()
            # loop must be timed and counted once, at the outer call.
            def decide(sender, receivers, now):
                if inside[0]:
                    return fn(sender, receivers, now)
                inside[0] = True
                t0 = _clock()
                try:
                    result = fn(sender, receivers, now)
                finally:
                    inside[0] = False
                dt = _clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                if stack:
                    stack[-1][0] += dt
                if result is not None:
                    counts["offered"] += offered(receivers)
                    counts["accepted"] += accepted(result)
                    counts["decisions"] += 1
                    counts["fast_decisions"] += fast
                return result
            return decide

        channel.decide_batch = counted(
            channel.decide_batch, len,
            lambda r: r.n_accepted if r.n_accepted is not None else r.accepted())
        channel.decide_batch_fast = counted(channel.decide_batch_fast, len,
                                            lambda r: r[1], fast=True)
        channel.decide = counted(channel.decide, lambda _receiver: 1,
                                 lambda r: bool(r.delivered))
        mobility = network.mobility
        if mobility is not None:
            mobility.step = self._span("mobility.step", mobility.step)
