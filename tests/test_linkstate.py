"""Randomized equivalence of the network's link state vs brute force.

Radios with a uniform link radius are served from the CSR
:class:`repro.net.arraystate.ArrayLinkState`, which is patched or rebuilt
lazily after every delta; its one correctness obligation is that after *any*
sequence of moves, insertions, removals, churn and radio mutations, the
stored directed edge set is identical to a from-scratch recomputation over
the current positions.  Radios without one (per-node ranges) have no link
state: their snapshots and neighbour queries come from the grid-indexed scan
and must equal the same brute-force recomputation, as must every query of a
``reference=True`` network.  These tests drive a network through long
randomized delta sequences (with several radios, densities and seeds, on the
fast path and on the reference) and compare against brute force after every
step.
"""

import numpy as np
import pytest

from repro.net.network import Network
from repro.net.radio import AsymmetricRangeRadio, ProbabilisticDiskRadio, UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process


class Idle(Process):
    def on_message(self, sender, payload):
        pass


def brute_force_arcs(network, active_only=False):
    """Directed link set recomputed from scratch (all nodes, or active ones)."""
    nodes = [n for n in network.node_ids
             if not active_only or network.process(n).active]
    positions = network.positions
    radio = network.radio
    arcs = set()
    for u in nodes:
        for v in nodes:
            if u != v and radio.link_exists(u, v, positions[u], positions[v]):
                arcs.add((u, v))
    return arcs


def cache_arcs(cache):
    return set(cache.arcs())


def assert_scan_consistent(network):
    """Snapshots and neighbour queries ≡ brute force over active nodes."""
    arcs = brute_force_arcs(network, active_only=True)
    edges = {frozenset(a) for a in arcs if (a[1], a[0]) in arcs}
    assert set(network.directed_topology().edges) == arcs
    assert {frozenset(e) for e in network.topology().edges} == edges
    for u in network.node_ids:
        expected = {v for v in network.node_ids if frozenset((u, v)) in edges}
        assert network.neighbors_of(u) == expected


def assert_cache_consistent(network):
    """Link state ≡ rebuild and sorted by insertion order; scans ≡ brute force."""
    cache = network._link_state()
    if cache is None:
        assert network.reference or network.radio.uniform_link_radius() is None
        assert_scan_consistent(network)
        return
    assert cache_arcs(cache) == brute_force_arcs(network)
    for u in network.node_ids:
        orders = cache.store.order[cache.out_rows(u)].tolist()
        assert orders == sorted(orders)


def build_network(radio, n, area, seed, reference=False):
    sim = Simulator(seed=seed)
    network = Network(sim, radio=radio, reference=reference)
    rng = np.random.default_rng(seed)
    for i in range(n):
        network.add_node(Idle(i), (rng.uniform(0, area), rng.uniform(0, area)))
    return network, rng


RADIOS = [
    lambda: UnitDiskRadio(120.0),
    lambda: AsymmetricRangeRadio(100.0, ranges={0: 180.0, 3: 40.0}),
    lambda: ProbabilisticDiskRadio(90.0, 150.0, 0.5, rng=np.random.default_rng(5)),
]


@pytest.mark.parametrize("reference", [False, True], ids=["array", "reference"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("radio_factory", RADIOS)
def test_randomized_delta_sequence_matches_rebuild(radio_factory, seed, reference):
    network, rng = build_network(radio_factory(), n=40, area=600.0, seed=seed,
                                 reference=reference)
    assert_cache_consistent(network)
    next_id = 40
    for step in range(60):
        op = rng.integers(0, 10)
        nodes = network.node_ids
        if op < 5:  # move a random node (the dominant delta under mobility)
            node = nodes[int(rng.integers(0, len(nodes)))]
            jump = rng.uniform(0, 200.0, size=2)
            old = network.position_of(node)
            network.set_position(node, (old[0] + jump[0] - 100.0,
                                        old[1] + jump[1] - 100.0))
        elif op < 6:  # batch teleport (mobility-step shaped delta)
            moved = {node: (rng.uniform(0, 600.0), rng.uniform(0, 600.0))
                     for node in nodes[:: int(rng.integers(2, 6))]}
            network.set_positions(moved)
        elif op < 7:  # insertion
            network.add_node(Idle(next_id), (rng.uniform(0, 600.0),
                                             rng.uniform(0, 600.0)))
            next_id += 1
        elif op < 8 and len(nodes) > 5:  # removal
            network.remove_node(nodes[int(rng.integers(0, len(nodes)))])
        else:  # churn: flips must not disturb the (activity-blind) cache
            node = nodes[int(rng.integers(0, len(nodes)))]
            if network.process(node).active:
                network.deactivate_node(node)
            else:
                network.activate_node(node)
        if step % 5 == 0 or step > 50:
            assert_cache_consistent(network)
    assert_cache_consistent(network)


def test_radio_mutation_forces_rebuild():
    radio = UnitDiskRadio(80.0)
    network, rng = build_network(radio, n=30, area=500.0, seed=11)
    before = cache_arcs(network._link_state())
    radio.radio_range = 200.0  # property setter notifies the network
    after = cache_arcs(network._link_state())
    assert after == brute_force_arcs(network)
    assert after != before  # densification at 500x500/30 nodes is certain
    assert_cache_consistent(network)


def test_asymmetric_range_override_rebuilds():
    radio = AsymmetricRangeRadio(90.0)
    network, _ = build_network(radio, n=25, area=400.0, seed=13)
    assert network._link_state() is not None  # uniform until a range is set
    assert_cache_consistent(network)
    radio.set_range(0, 400.0)  # non-uniform growth: node 0 reaches everyone
    assert network._link_state() is None
    assert all(network.directed_topology().has_edge(0, v)
               for v in network.node_ids if v != 0)
    assert_cache_consistent(network)
    radio.clear_range(0)
    assert network._link_state() is not None
    assert_cache_consistent(network)


def test_symmetric_neighbors_match_topology():
    network, rng = build_network(UnitDiskRadio(150.0), n=35, area=500.0, seed=7)
    for _ in range(3):
        node = int(rng.integers(0, 35))
        network.deactivate_node(node)
    cache = network._link_state()
    graph = network.topology()
    for node in network.node_ids:
        assert network.neighbors_of(node) == (
            set(graph.neighbors(node)) if node in graph else set())
    # The link state is activity-blind; neighbors_of filters activity.
    for node in network.node_ids:
        sym = set(cache.store.ids[cache.out_rows(node)].tolist())
        assert {w for w in sym if network.process(w).active
                and network.process(node).active} == network.neighbors_of(node)


def test_cache_disabled_paths_still_agree():
    """reference=True serves identical snapshots via the brute-force scan."""
    fast, _ = build_network(UnitDiskRadio(130.0), n=30, area=500.0, seed=21)
    slow, _ = build_network(UnitDiskRadio(130.0), n=30, area=500.0, seed=21)
    slow.reference = True
    assert slow._link_state() is None
    assert set(fast.topology().edges) == set(slow.topology().edges)
    assert set(fast.directed_topology().edges) == set(slow.directed_topology().edges)
    for node in fast.node_ids:
        assert fast.neighbors_of(node) == slow.neighbors_of(node)
