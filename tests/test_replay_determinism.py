"""Deterministic replay at scale: the fast path against the reference.

The network's fast path (array store + CSR link state, batched channel
decisions, bulk scheduling) is a pure query/dispatch optimization: a seeded
run must unfold *identically* on it and on the brute-force all-nodes scan
(``Network.reference``).  These tests run a 500-node mobile lossy GRP
deployment on both and require bit-identical event counts, message counters,
group assignments, topology edges, metric reports and post-run RNG states
(plus a same-seed rerun).  Two more cells run the fast path with the
network's trace recorder detached — the only configuration that reaches the
channel's zero-delay hook and the direct ``on_message`` dispatch — and on a
radio that reports no range bound, where the fast path must degrade to the
brute-force scan without a visible seam.

The traffic-laden variant layers an application workload
(:mod:`repro.traffic`) on top of a smaller deployment: application sends,
replies and relays interleave with protocol messages on the same event queue
and the same channel RNG stream, so any backend divergence — in either the
protocol or the traffic subsystem — shows up as a ledger or counter mismatch.
"""

import pytest

from repro.metrics.overhead import overhead_summary
from repro.mobility.churn import ChurnEvent, ChurnSchedule
from repro.net.radio import UnitDiskRadio
from repro.obs import ObsContext, observing
from repro.scenarios import ScenarioSpec, build
from repro.traffic import TrafficSpec, attach_traffic

N = 500
DURATION = 3.0
SEED = 2024

#: cell -> (Network.reference, keep the trace recorder attached, radio
#: reports its range bound).  ``fast`` is the fingerprint every other cell
#: must reproduce.  ``brute+scalar`` is the reference: the all-nodes scan with
#: one channel decision per receiver.  ``brute+vectorized-degraded`` leaves
#: the fast path switched on but hides the radio's range bound, so no grid
#: and no CSR link state can be built and every broadcast degrades to the
#: brute-force scan.  ``untraced`` detaches the trace recorder, which unlocks
#: the zero-delay fast hook (``decide_batch_fast``) and the direct
#: ``on_message`` dispatch.
BACKENDS = {
    "fast": (False, True, True),
    "brute+scalar": (True, True, True),
    "brute+vectorized-degraded": (False, True, False),
    "untraced": (False, False, True),
}


class UnboundedUnitDiskRadio(UnitDiskRadio):
    """A unit disk that reports no range bound: same links, no spatial
    structure (``Network`` builds neither the grid nor the CSR link state
    for a radio whose ``max_range()`` is ``None``)."""

    def max_range(self):
        return None


def configure(network, reference, traced, bounded):
    """Switch ``network`` onto one replay cell before it runs."""
    network.reference = reference
    if not traced:
        network.trace = None
    if not bounded:
        network.radio = UnboundedUnitDiskRadio(network.radio.radio_range)
        network.invalidate_topology()


def assert_degraded(network, bounded):
    """An unbounded-radio cell must really have run on the brute-force scan;
    otherwise it would only repeat the ``fast`` cell."""
    if not bounded:
        assert network._spatial_index() is None
        assert network._link_state() is None


def manet_waypoint(**params):
    seed = params.pop("seed")
    return build(ScenarioSpec.create("manet_waypoint", **params), seed=seed)


def rng_fingerprint(deployment):
    """Serialized post-run RNG states: the root sim stream and (when the
    channel draws randomness) the channel stream.  Any hidden consumer —
    an instrumentation layer included — would desynchronize these."""
    states = {"sim": repr(deployment.sim.rng.bit_generator.state)}
    channel_rng = getattr(deployment.network.channel, "_rng", None)
    if channel_rng is not None:
        states["channel"] = repr(channel_rng.bit_generator.state)
    return states


def run_once(reference=False, traced=True, bounded=True):
    deployment = manet_waypoint(n=N, area=1500.0, radio_range=100.0, dmax=3,
                                speed=10.0, seed=SEED, loss_probability=0.05)
    configure(deployment.network, reference, traced, bounded)
    churn = ChurnSchedule([ChurnEvent(time=1.0, node_id=i, active=False) for i in range(25)]
                          + [ChurnEvent(time=2.0, node_id=i, active=True) for i in range(25)])
    churn.install(deployment.network)
    deployment.run(DURATION)
    network = deployment.network
    assert_degraded(network, bounded)
    graph = deployment.topology()
    return {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "edges": {frozenset(e) for e in graph.edges},
        "report": overhead_summary(deployment, DURATION).as_row(),
        "rng_state": rng_fingerprint(deployment),
    }


@pytest.fixture(scope="module")
def runs():
    return {name: run_once(*flags) for name, flags in BACKENDS.items()}


@pytest.mark.parametrize("backend", [name for name in BACKENDS if name != "fast"])
def test_backends_replay_identically(runs, backend):
    assert runs["fast"] == runs[backend], (
        f"seeded 500-node run diverged between fast and {backend}")


def test_rerun_with_same_seed_is_identical(runs):
    assert run_once() == runs["fast"]


def test_obs_enabled_replay_is_bit_identical(runs):
    """Observability must be invisible to the simulation: the 500-node run
    with metrics + spans collected matches the reference fingerprint exactly
    — deliveries, event counts, topology, and the post-run RNG states (the
    obs layer never consumes randomness)."""
    with observing(ObsContext()) as ctx:
        observed = run_once()
    assert observed == runs["fast"]
    export = ctx.export()
    assert export["counters"]["sim.events"] == observed["processed_events"]
    assert export["counters"]["net.delivered"] == observed["delivered"]
    assert "sim.event_pop" in export["spans"]


def test_views_cover_all_active_nodes(runs):
    views = runs["fast"]["views"]
    assert len(views) == N
    for node_id, view in views.items():
        assert node_id in view


# ------------------------------------------------------- with traffic on top

TRAFFIC_N = 200
#: Long enough for groups to form so that request/reply round trips happen
#: (requests are only recorded once the sender's view exceeds itself).
TRAFFIC_DURATION = 8.0


def run_traffic_once(reference=False, traced=True, bounded=True):
    deployment = manet_waypoint(n=TRAFFIC_N, area=900.0, radio_range=100.0, dmax=3,
                                speed=10.0, seed=SEED, loss_probability=0.05)
    configure(deployment.network, reference, traced, bounded)
    driver = attach_traffic(
        deployment, TrafficSpec.create("request_reply", interval=1.0), seed=SEED)
    churn = ChurnSchedule([ChurnEvent(time=1.0, node_id=i, active=False)
                           for i in range(10)]
                          + [ChurnEvent(time=2.0, node_id=i, active=True)
                             for i in range(10)])
    churn.install(deployment.network)
    deployment.run(TRAFFIC_DURATION)
    network = deployment.network
    assert_degraded(network, bounded)
    ledger = driver.ledger
    return {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "app_sent": ledger.messages_sent,
        "app_receptions": ledger.receptions,
        "requests": ledger.requests_sent,
        "replies": ledger.replies_matched,
        "group_rows": ledger.group_rows(),
        "totals": ledger.totals(TRAFFIC_DURATION),
    }


@pytest.fixture(scope="module")
def traffic_runs():
    return {name: run_traffic_once(*flags) for name, flags in BACKENDS.items()}


@pytest.mark.parametrize("backend", [name for name in BACKENDS if name != "fast"])
def test_traffic_backends_replay_identically(traffic_runs, backend):
    assert traffic_runs["fast"] == traffic_runs[backend], (
        f"seeded traffic run diverged between fast and {backend}")


def test_traffic_rerun_with_same_seed_is_identical(traffic_runs):
    assert run_traffic_once() == traffic_runs["fast"]


def test_traffic_actually_flowed(traffic_runs):
    reference = traffic_runs["fast"]
    assert reference["app_sent"] > 0
    assert reference["app_receptions"] > 0
    assert reference["replies"] > 0


# ------------------------------------------------- sharded executor on top

#: The sharded executor (:mod:`repro.shard`) joins the replay matrix as a
#: new axis: the same 500-node world, split across worker shards by spatial
#: tile, must reproduce the ``shards=1`` fingerprint bit for bit — counters,
#: views, edges, overhead report and the post-run RNG states (root sim
#: stream + every per-sender channel stream).  The reference is the sharded
#: engine at one shard: sharding swaps the global channel RNG for per-sender
#: streams, so its fingerprint family is its own, anchored at k=1 where the
#: whole run takes the stock single-process pipeline.  The ``reference``
#: cell runs every shard on the brute-force scan, which exercises
#: :class:`~repro.shard.ShardNetwork`'s per-receiver ownership loop.
SHARD_CELLS = {
    "2shards": (2, False),
    "4shards": (4, False),
    "2shards+reference": (2, True),
}

SHARD_CHURN = (tuple((1.0, i, False) for i in range(25))
               + tuple((2.0, i, True) for i in range(25)))


def shard_spec(shards, reference=False):
    from repro.shard import ShardSpec

    return ShardSpec.create(
        "manet_waypoint",
        params={"n": N, "area": 1500.0, "radio_range": 100.0, "dmax": 3,
                "speed": 10.0, "loss_probability": 0.05},
        seed=SEED, duration=DURATION, shards=shards, reference=reference,
        churn=SHARD_CHURN)


def run_sharded_once(shards, reference=False, transport="inproc",
                     build="replicate"):
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(shards, reference),
                         transport=transport, build=build)
    return result.fingerprint, result.stats


@pytest.fixture(scope="module")
def sharded_reference():
    fingerprint, _ = run_sharded_once(1)
    return fingerprint


@pytest.mark.parametrize("cell", list(SHARD_CELLS))
def test_sharded_backends_replay_identically(sharded_reference, cell):
    shards, reference = SHARD_CELLS[cell]
    fingerprint, stats = run_sharded_once(shards, reference)
    assert fingerprint == sharded_reference, (
        f"sharded 500-node run diverged between 1 shard and {cell}")
    # The split must be real: nodes crossing tile boundaries force actual
    # cross-shard traffic, otherwise the cell proves nothing.
    assert stats["remote_deliveries"] > 0


def test_sharded_mp_transport_matches(sharded_reference):
    """One OS process per shard (spawn context) replays the in-process
    reference exactly — the pipe transport adds no nondeterminism."""
    fingerprint, stats = run_sharded_once(2, transport="mp")
    assert fingerprint == sharded_reference
    assert stats["transport"] == "mp"
    assert stats["remote_deliveries"] > 0


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_snapshot_restore_matches(sharded_reference, shards):
    """Snapshot-restore builds (one scenario build, pickled, restored per
    worker) must reproduce the replicated-build fingerprint bit for bit at
    every shard count — counters, views, merged ledger and post-run RNG
    states all come through the pickle round trip unchanged."""
    fingerprint, stats = run_sharded_once(shards, build="snapshot")
    assert fingerprint == sharded_reference, (
        f"snapshot-restore diverged from replicated build at {shards} shards")
    assert stats["build"] == "snapshot"
    assert stats["base_build_s"] > 0
    assert len(stats["worker_build_s"]) == shards


def test_sharded_snapshot_restore_mp_matches(sharded_reference):
    """Snapshot-restore over the mp transport: the blob travels through the
    filesystem to spawned workers and must still replay exactly."""
    fingerprint, stats = run_sharded_once(2, transport="mp", build="snapshot")
    assert fingerprint == sharded_reference
    assert stats["transport"] == "mp" and stats["build"] == "snapshot"
    assert stats["remote_deliveries"] > 0


def test_sharded_fingerprint_includes_rng_states(sharded_reference):
    states = sharded_reference["rng_state"]
    assert "sim" in states and "'bit_generator'" in states["sim"]
    # Per-sender channel streams: every sender that ever broadcast reports
    # its post-run state, keyed by node id.
    assert len(states["channel"]) > 0
    assert all("'bit_generator'" in state for state in states["channel"].values())


@pytest.fixture(scope="module")
def sharded_traffic_reference():
    from repro.shard import run_sharded

    return run_sharded(shard_traffic_spec(1))


def shard_traffic_spec(shards):
    from repro.shard import ShardSpec

    return ShardSpec.create(
        "manet_waypoint",
        params={"n": TRAFFIC_N, "area": 900.0, "radio_range": 100.0, "dmax": 3,
                "speed": 10.0, "loss_probability": 0.05},
        seed=SEED, duration=TRAFFIC_DURATION, shards=shards,
        churn=(tuple((1.0, i, False) for i in range(10))
               + tuple((2.0, i, True) for i in range(10))),
        traffic="request_reply", traffic_params={"interval": 1.0},
        traffic_seed=SEED)


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_traffic_replays_identically(sharded_traffic_reference, shards):
    """Application workload (request/reply round trips) on the sharded
    engine: the merged ledger — group rows, RTTs, totals — and the protocol
    fingerprint must match the 1-shard reference at every shard count."""
    from repro.shard import run_sharded

    result = run_sharded(shard_traffic_spec(shards))
    assert result.fingerprint == sharded_traffic_reference.fingerprint
    assert result.traffic == sharded_traffic_reference.traffic
    assert result.stats["remote_deliveries"] > 0


def test_sharded_traffic_actually_flowed(sharded_traffic_reference):
    traffic = sharded_traffic_reference.traffic
    assert traffic["app_sent"] > 0
    assert traffic["app_receptions"] > 0
    assert traffic["replies"] > 0


# ------------------------------------- incremental CSR patch, engaged regime

#: ``manet_waypoint`` moves every node every tick, so its dirty fraction
#: exceeds the patch threshold and the CSR refresh falls back to full
#: rebuilds.  This section pins the patch path *while it is actually
#: running*: a scaled-down ``city_scale_mobile`` field, where only a sparse
#: mover subset dirties rows each tick, must replay bit-identically on the
#: fast path and on the reference scan — and the fast run must prove patches
#: happened.


def run_sparse_mobile_once(reference):
    deployment = build(ScenarioSpec.create(
        "city_scale_mobile", n=400, area=2000.0, hotspot_sigma=200.0,
        mover_fraction=0.02), seed=SEED)
    deployment.network.reference = reference
    deployment.run(4.0)
    network = deployment.network
    linkstate = network._array_ls
    fingerprint = {
        "processed_events": deployment.sim.processed_events,
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "views": deployment.views(),
        "edges": {frozenset(e) for e in deployment.topology().edges},
        "rng_state": rng_fingerprint(deployment),
    }
    return fingerprint, (linkstate.patch_count if linkstate is not None else 0)


def test_incremental_patch_replays_identically_when_engaged():
    patched, patch_count = run_sparse_mobile_once(False)
    scanned, scanned_patch_count = run_sparse_mobile_once(True)
    assert patch_count > 0, "sparse-mover run never took the patch path"
    assert scanned_patch_count == 0
    assert patched == scanned, (
        "sparse-mover run diverged between incremental CSR patch and the reference")


# ------------------------------------ observed sharded runs, bit-identical

#: Observability on the sharded executor crosses every seam at once: each
#: worker observes into its own ObsContext (captured at build time), the mp
#: transport ships contexts back over the pipe, and the coordinator merges
#: them and appends its convergence milestone.  None of that may perturb
#: the simulation: every cell must reproduce the unobserved 1-shard
#: fingerprint bit for bit — counters, views, edges and post-run RNG states.

OBS_SHARD_CELLS = [(1, "inproc"), (2, "inproc"), (4, "inproc"),
                   (1, "mp"), (2, "mp"), (4, "mp")]


@pytest.mark.parametrize("shards,transport", OBS_SHARD_CELLS,
                         ids=[f"{k}shards-{t}" for k, t in OBS_SHARD_CELLS])
def test_sharded_obs_replay_is_bit_identical(sharded_reference, shards,
                                             transport):
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(shards), transport=transport, obs=True)
    assert result.fingerprint == sharded_reference, (
        f"observed sharded run diverged at {shards} shards over {transport}")
    assert "rng_state" in result.fingerprint
    merged = result.obs["merged"]
    assert len(result.obs["per_shard"]) == shards
    assert merged["counters"]["sim.events"] > 0
    assert merged["counters"]["shard.windows"] > 0
    assert "shard.outbox_entries" in merged["counters"]
    kinds = merged["events"]["kinds"]
    assert kinds.get("convergence.final") == 1


def test_sharded_obs_snapshot_restore_workers_observe(sharded_reference):
    """The satellite bugfix: snapshot-restored workers must re-capture the
    process-local context in ``_finalize`` — without it every restored
    component keeps the nulled handles from the pickled blob and the run
    is silently unobserved."""
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(2), build="snapshot", obs=True)
    assert result.fingerprint == sharded_reference
    merged = result.obs["merged"]
    assert merged["counters"]["sim.events"] > 0
    assert merged["counters"]["net.delivered"] > 0
    assert merged["spans"].get("shard.snapshot_restore", {}).get("count") == 2
    for blob in result.obs["per_shard"]:
        assert blob["counters"].get("sim.events", 0) > 0, (
            "a snapshot-restored worker recorded nothing: the finalize "
            "re-capture is broken")


def test_sharded_obs_traffic_ledger_cell(sharded_traffic_reference):
    """Observability with an application workload attached: the merged
    ledger and fingerprint must still match the unobserved reference, and
    the per-shard blobs must carry the shard instruments."""
    from repro.shard import run_sharded

    result = run_sharded(shard_traffic_spec(2), obs=True)
    assert result.fingerprint == sharded_traffic_reference.fingerprint
    assert result.traffic == sharded_traffic_reference.traffic
    for blob in result.obs["per_shard"]:
        assert "shard.windows" in blob["counters"]
        assert "shard.outbox_entries" in blob["counters"]


def test_sharded_obs_merged_counters_reconcile(sharded_reference):
    """Merged per-shard counters must reconcile with the fingerprint:
    ``net.delivered`` sums exactly; ``sim.events`` counts the shared churn
    events once per shard, so the merged total exceeds the fingerprint by
    ``(k - 1) x shared``."""
    from repro.shard import run_sharded

    result = run_sharded(shard_spec(2), obs=True)
    merged = result.obs["merged"]
    assert merged["counters"]["net.delivered"] == result.fingerprint["delivered"]
    assert merged["counters"]["sim.events"] >= result.fingerprint["processed_events"]
