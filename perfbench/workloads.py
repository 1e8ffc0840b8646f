"""The four benchmark workloads, each driven through the real user path.

A workload turns one *input seed* into one simulated window: it builds the
scenario from the registry (or hands a :class:`~repro.shard.ShardSpec` to
``run_sharded``), starts the deployment, simulates the fixed window and
returns an :class:`Outcome` — set-up and run wall times measured from here,
the work done, and a digest of every simulated statistic the run produced.

Set-up covers the scenario build, the deployment start, shard host
construction and the lazy first-call builds the first broadcasts would
otherwise pay inside the run (the CSR link state and every sender's receiver
cache), so that work moved between set-up and run shows in ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np

import repro.scenarios.registry as registry
import repro.shard.runner as shard_runner
from repro.experiments.runner import run_with_sampler
from repro.scenarios.spec import ScenarioSpec
from repro.shard import ShardSpec, run_sharded
from repro.traffic.generators import attach_traffic
from repro.traffic.spec import TrafficSpec

__all__ = ["Outcome", "WORKLOADS", "input_seeds"]

_clock = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """One simulated window, as measured from outside the program."""

    setup_s: float
    run_s: float
    events: int
    deliveries: int
    sent: int
    digest: str
    #: per-layer facts read off the built objects after the run
    layer: Dict[str, float]
    #: output checks that failed (empty when the window is correct)
    problems: List[str]
    app_deliveries: int = 0
    #: wall seconds of the host reference around the window (set by run.py)
    host_s: float = 0.0


def input_seeds(workload: str, seed: int, count: int) -> List[int]:
    """The ``count`` input seeds a run of ``workload`` at ``seed`` simulates."""
    return [int.from_bytes(hashlib.sha256(f"perfbench/{workload}/{seed}/{i}".encode())
                           .digest()[:4], "little") for i in range(count)]


def _canonical(value: Any) -> Any:
    """JSON-able form whose text does not depend on set or dict order."""
    if isinstance(value, dict):
        return sorted((str(key), _canonical(item)) for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _digest(facts: Dict[str, Any]) -> str:
    text = json.dumps(_canonical(facts))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng_state(generator) -> Optional[str]:
    return None if generator is None else repr(generator.bit_generator.state)


def warm(network) -> None:
    """Build the CSR link state and every sender's receiver cache now.

    Both are pure caches keyed on the topology generation, so building them
    ahead of the first broadcast changes no simulated outcome; the digest
    checks (and the sharded reference, which runs unwarmed) hold that.
    """
    linkstate = network._link_state()
    if linkstate is None:
        return
    for node_id in network.node_ids:
        network._receiver_batch(linkstate, node_id)


def release(network) -> None:
    """Break the cycles that keep a finished deployment alive.

    The node store, the link state and the receiver cache hold processes in
    numpy object arrays, which the cyclic garbage collector does not
    traverse, so without this every window's deployment would stay in memory
    for the rest of the run.  Called once the window's facts are read.
    """
    network._receiver_cache.clear()
    for holder in (network, network._store, network._array_ls):
        if holder is None:
            continue
        names = getattr(type(holder), "__slots__", None) or vars(holder)
        for name in names:
            value = getattr(holder, name, None)
            if isinstance(value, np.ndarray) and value.dtype == object:
                value.fill(None)


def _network_layer(network) -> Dict[str, float]:
    als = network._array_ls
    return {"csr_patches": als.patch_count if als is not None else 0,
            "csr_rebuilds": als.rebuild_count if als is not None else 0}


class Workload:
    """Base: one registered scenario simulated for a fixed window."""

    name = ""
    why = ""
    bypasses = ""
    scenario = ""
    #: distinct input seeds per run; each window's cost depends on its
    #: layout, so a run averages over several of them
    inputs = 1
    window = 1.0
    params: Dict[str, object] = {}
    toy_params: Dict[str, object] = {}
    toy_window = 1.0

    def prepare(self, seeds: List[int], toy: bool) -> None:
        """Untimed per-run preparation, before the first window."""

    def execute(self, seed: int, toy: bool, tracer=None) -> Outcome:
        params = self.toy_params if toy else self.params
        window = self.toy_window if toy else self.window
        t0 = _clock()
        deployment = registry.build(ScenarioSpec.create(self.scenario, **params), seed=seed)
        extra = self.attach(deployment, seed)
        deployment.start()
        warm(deployment.network)
        if tracer is not None:
            tracer.instrument(deployment.network)
            tracer.begin_run()
        t1 = _clock()
        events0 = deployment.sim.processed_events
        result = self.drive(deployment, window, extra)
        t2 = _clock()
        sim, network = deployment.sim, deployment.network
        facts: Dict[str, Any] = {
            "events": sim.processed_events,
            "sent": network.messages_sent,
            "delivered": network.messages_delivered,
            "dropped": network.messages_dropped,
            "views": deployment.views(),
            "rng": [_rng_state(sim.rng),
                    _rng_state(getattr(network.channel, "_rng", None)),
                    _rng_state(getattr(network.mobility, "rng", None))],
        }
        layer = _network_layer(network)
        layer["trace_records"] = len(deployment.trace)
        problems: List[str] = []
        app = self.finish(result, window, facts, layer, problems)
        release(network)
        return Outcome(setup_s=t1 - t0, run_s=t2 - t1,
                       events=sim.processed_events - events0,
                       deliveries=network.messages_delivered,
                       sent=network.messages_sent, digest=_digest(facts),
                       layer=layer, problems=problems, app_deliveries=app)

    def attach(self, deployment, seed: int):
        return None

    def drive(self, deployment, window: float, extra):
        deployment.run(window)
        return extra

    def finish(self, result, window, facts, layer, problems) -> int:
        """Add workload facts to the digest and run the output checks."""
        return 0


class CityStatic(Workload):
    name = "city_static"
    why = ("protocol-compute-bound cold start of the city_scale hotspot field through "
           "group formation on a lossy delayed channel; bypasses sampler, mobility, traffic")
    bypasses = "metrics (sampler), mobility, traffic, shard"
    scenario = "city_scale"
    inputs = 12
    window = 5.0
    params = {"n": 300, "area": 1280.0, "hotspot_count": 6, "hotspot_sigma": 250.0,
              "hotspot_fraction": 0.15}
    toy_params = {"n": 60, "area": 500.0, "hotspot_count": 2, "hotspot_sigma": 100.0}
    toy_window = 3.0


class ManetSampled(Workload):
    name = "manet_sampled"
    why = ("random-waypoint MANET under the configuration sampler every 0.25 s, the path "
           "every E1-E10 experiment takes; bypasses traffic, shard, delayed delivery")
    bypasses = "traffic, shard, delayed delivery (zero-delay perfect channel)"
    scenario = "large_manet_waypoint"
    inputs = 8
    window = 3.0
    params = {"n": 400, "area": 2500.0, "speed": 10.0}
    toy_params = {"n": 40, "area": 500.0, "speed": 10.0}
    toy_window = 1.0

    def drive(self, deployment, window, extra):
        return run_with_sampler(deployment, window, sample_interval=0.25, keep_graphs=False)

    def finish(self, sampler, window, facts, layer, problems) -> int:
        facts["samples"] = len(sampler.samples)
        facts["legitimate"] = len(sampler.legitimate_samples())
        facts["best_effort_violations"] = len(sampler.best_effort_violations())
        expected = int(round(window / 0.25)) + 2
        if len(sampler.samples) != expected:
            problems.append(f"sampler took {len(sampler.samples)} samples, "
                            f"expected {expected}")
        return 0


class ConvoyTraffic(Workload):
    name = "convoy_traffic"
    why = ("RPGM convoys with request_reply every 0.05 s on the zero-delay channel: "
           "delivery and ledger bound; bypasses sampler, shard, delayed delivery")
    bypasses = "metrics (sampler), shard, delayed delivery (zero-delay perfect channel)"
    scenario = "rpgm_scenario"
    inputs = 12
    window = 7.0
    params = {"group_sizes": (6,) * 6, "area": 12000.0}
    toy_params = {"group_sizes": (4, 4), "area": 300.0}
    toy_window = 6.0
    traffic = {"interval": 0.05}

    def attach(self, deployment, seed):
        return attach_traffic(deployment, TrafficSpec.create("request_reply", **self.traffic),
                              seed=seed)

    def finish(self, driver, window, facts, layer, problems) -> int:
        ledger = driver.ledger
        totals = ledger.totals(window)
        facts["ledger"] = totals
        layer["app_expected"] = totals["expected"]
        layer["app_delivered"] = totals["delivered"]
        if totals["delivered"] > totals["expected"]:
            problems.append(f"ledger delivered {totals['delivered']} > "
                            f"expected {totals['expected']}")
        if ledger.replies_matched > ledger.requests_sent:
            problems.append(f"ledger replies {ledger.replies_matched} > "
                            f"requests {ledger.requests_sent}")
        if totals["delivered"] == 0:
            problems.append("no group-scoped application message was delivered")
        return ledger.receptions


class CitySharded(Workload):
    name = "city_sharded"
    why = ("the city_scale hotspot field through run_sharded(shards=2, inproc): compute-bound "
           "group formation plus window sync, outbox apply and ShardWorld.broadcast; "
           "bypasses sampler, mobility, traffic")
    bypasses = "metrics (sampler), mobility, traffic"
    scenario = CityStatic.scenario
    #: fewer inputs than city_static: each one costs an untimed shards=1
    #: reference run before the timing starts
    inputs = 4
    window = CityStatic.window
    params = CityStatic.params
    toy_params = CityStatic.toy_params
    toy_window = CityStatic.toy_window
    shards = 2

    def __init__(self) -> None:
        #: input seed -> shards=1 reference fingerprint, computed once per run
        self._references: Dict[int, Dict[str, Any]] = {}

    def spec(self, seed: int, toy: bool) -> ShardSpec:
        return ShardSpec.create(self.scenario, seed=seed,
                                duration=self.toy_window if toy else self.window,
                                shards=self.shards,
                                params=self.toy_params if toy else self.params)

    def prepare(self, seeds: List[int], toy: bool) -> None:
        """The ``shards=1`` fingerprint of each input's spec, outside any timing."""
        for seed in seeds:
            spec = dataclasses.replace(self.spec(seed, toy), shards=1)
            try:
                self._references[seed] = run_sharded(spec, transport="inproc").fingerprint
            except Exception:  # every window of this input then fails its check
                traceback.print_exc(file=sys.stderr)

    def execute(self, seed: int, toy: bool, tracer=None) -> Outcome:
        reference = self._references.get(seed)
        spec = self.spec(seed, toy)
        hosts: List[Any] = []
        marks: Dict[str, float] = {}
        host_init = shard_runner._InprocHost.__init__
        coordinate = shard_runner._coordinate

        def init_host(host, *args, **kwargs):
            host_init(host, *args, **kwargs)
            warm(host.world.network)
            if tracer is not None:
                tracer.instrument(host.world.network)
            hosts.append(host)

        def start_run(*args, **kwargs):
            if tracer is not None:
                tracer.begin_run()
            marks["run"] = _clock()
            return coordinate(*args, **kwargs)

        shard_runner._InprocHost.__init__ = init_host
        shard_runner._coordinate = start_run
        try:
            t0 = _clock()
            result = run_sharded(spec, transport="inproc")
            t2 = _clock()
        finally:
            shard_runner._InprocHost.__init__ = host_init
            shard_runner._coordinate = coordinate
        fingerprint = result.fingerprint
        problems = []
        if reference is None:
            problems.append("the shards=1 reference run failed")
        elif fingerprint != reference:
            problems.append("merged fingerprint differs from the shards=1 reference")
        stats = result.stats
        per_shard = [part["processed_events"] for part in stats["per_shard"]]
        layer: Dict[str, float] = {
            "shard_rounds": stats["rounds"],
            "shard_remote": stats["remote_deliveries"],
            "shard_imbalance": max(per_shard) / (sum(per_shard) / len(per_shard)),
            "trace_records": sum(len(host.world.deployment.trace) for host in hosts),
        }
        for host in hosts:
            for key, value in _network_layer(host.world.network).items():
                layer[key] = layer.get(key, 0) + value
            release(host.world.network)
        return Outcome(setup_s=marks["run"] - t0, run_s=t2 - marks["run"],
                       events=fingerprint["processed_events"],
                       deliveries=fingerprint["delivered"], sent=fingerprint["sent"],
                       digest=_digest(fingerprint), layer=layer, problems=problems)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    CityStatic(), ManetSampled(), ConvoyTraffic(), CitySharded())}
