"""The predicate kernel equals the networkx reference.

``safety``, ``maximality``, ``topological``, ``group_diameter_ok``,
``merged_diameter_ok`` and ``evaluate_configuration`` decide diameters with
the bounded in-group BFS of :func:`repro.net.topology.induced_diameter_ok`.
The reference below decides them with ``subgraph_diameter(...) <= dmax``
(``networkx`` ``is_connected`` plus ``diameter``) and checks every pair of
groups instead of only the candidates.
"""

from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import (ConfigurationReport, agreement, agreement_violations,
                                   evaluate_configuration, legitimate, maximality,
                                   maximality_violations, omega, safety, safety_violations,
                                   topological)
from repro.experiments.runner import run_with_sampler
from repro.net.topology import (group_diameter_ok, induced_diameter_ok, merged_diameter_ok,
                                subgraph_diameter)
from repro.scenarios import ScenarioSpec, build

from test_properties import random_partitioned_graph

DMAX = st.integers(min_value=0, max_value=4)


# --------------------------------------------------------------- reference

def sorted_groups(views):
    return sorted(set(omega(views).values()), key=lambda g: sorted(map(str, g)))


def ref_safety_violations(views, graph, dmax):
    return [(group, subgraph_diameter(graph, group)) for group in sorted_groups(views)
            if subgraph_diameter(graph, group) > dmax]


def ref_maximality_violations(views, graph, dmax):
    return [(a, b) for a, b in combinations(sorted_groups(views), 2)
            if subgraph_diameter(graph, a | b) <= dmax]


def ref_topological(previous_groups, graph, dmax):
    return all(subgraph_diameter(graph, group) <= dmax
               for group in set(previous_groups.values()))


def ref_report(time, views, graph, dmax):
    sizes = [len(group) for group in set(omega(views).values())]
    return ConfigurationReport(
        time=time,
        agreement=not agreement_violations(views),
        safety=not ref_safety_violations(views, graph, dmax),
        maximality=not ref_maximality_violations(views, graph, dmax),
        group_count=len(sizes),
        largest_group=max(sizes) if sizes else 0,
        isolated_nodes=sum(1 for size in sizes if size == 1),
    )


# --------------------------------------------------------------- strategies

@st.composite
def random_configuration(draw):
    """A random graph with views that may overlap, disagree or name absent nodes.

    Starts from a consistent partition, then rewrites some views to random
    subsets of a node range wider than the graph, and removes some graph
    nodes, so that view members and view owners can be missing from it.
    """
    graph, views = draw(random_partitioned_graph())
    universe = list(range(len(views) + 2))
    for node in sorted(views):
        if draw(st.booleans()):
            views[node] = frozenset(draw(st.sets(st.sampled_from(universe), max_size=5)))
    for node in draw(st.sets(st.sampled_from(universe), max_size=2)):
        if node in graph:
            graph.remove_node(node)
    return graph, views


@st.composite
def graph_and_member_sets(draw):
    """A random graph and two member sets, possibly empty or with absent nodes."""
    graph, _ = draw(random_partitioned_graph())
    universe = list(range(graph.number_of_nodes() + 2))
    group_a = draw(st.sets(st.sampled_from(universe), max_size=6))
    group_b = draw(st.sets(st.sampled_from(universe), max_size=6))
    return graph, group_a, group_b


# --------------------------------------------------------------- single groups

class TestInducedDiameter:
    @given(graph_and_member_sets(), DMAX)
    @settings(max_examples=300)
    def test_group_check_matches_reference(self, case, dmax):
        graph, members, _ = case
        expected = subgraph_diameter(graph, members) <= dmax
        assert group_diameter_ok(graph, members, dmax) == expected
        assert induced_diameter_ok(dict(graph.adjacency()), members, dmax) == expected
        assert induced_diameter_ok(dict(graph.adjacency()), list(members), dmax) == expected

    @given(graph_and_member_sets(), DMAX)
    @settings(max_examples=300)
    def test_merged_check_matches_reference(self, case, dmax):
        graph, group_a, group_b = case
        expected = subgraph_diameter(graph, group_a | group_b) <= dmax
        assert merged_diameter_ok(graph, group_a, group_b, dmax) == expected

    def test_empty_and_singleton_groups_pass(self):
        graph = nx.path_graph(3)
        for dmax in range(5):
            assert group_diameter_ok(graph, [], dmax)
            assert group_diameter_ok(graph, [1], dmax)
            assert group_diameter_ok(graph, ["absent"], dmax)
            assert merged_diameter_ok(graph, [], ["absent"], dmax)

    def test_absent_member_fails(self):
        graph = nx.path_graph(3)
        assert not group_diameter_ok(graph, [0, "absent"], 4)
        assert not merged_diameter_ok(graph, [0, 1], ["absent"], 4)

    def test_dmax_zero_fails_any_pair(self):
        graph = nx.complete_graph(3)
        assert not group_diameter_ok(graph, [0, 1], 0)
        assert group_diameter_ok(graph, [0, 1], 1)

    def test_depth_cutoff_is_exact(self):
        graph = nx.path_graph(5)  # diameter 4
        assert not group_diameter_ok(graph, range(5), 3)
        assert group_diameter_ok(graph, range(5), 4)
        # Connected through a non-member only: disconnected inside the group.
        assert not group_diameter_ok(graph, [0, 2], 4)


# --------------------------------------------------------------- predicates

class TestPredicatesMatchReference:
    @given(random_configuration(), DMAX)
    @settings(max_examples=300)
    def test_static_predicates(self, configuration, dmax):
        graph, views = configuration
        expected_safety = ref_safety_violations(views, graph, dmax)
        expected_maximality = ref_maximality_violations(views, graph, dmax)
        assert safety_violations(views, graph, dmax) == expected_safety
        assert safety(views, graph, dmax) == (not expected_safety)
        assert maximality_violations(views, graph, dmax) == expected_maximality
        assert maximality(views, graph, dmax) == (not expected_maximality)
        assert agreement(views) == (not agreement_violations(views))
        assert legitimate(views, graph, dmax) == (
            agreement(views) and not expected_safety and not expected_maximality)

    @given(random_configuration(), DMAX)
    @settings(max_examples=300)
    def test_evaluate_configuration(self, configuration, dmax):
        graph, views = configuration
        assert (evaluate_configuration(1.5, views, graph, dmax)
                == ref_report(1.5, views, graph, dmax))

    @given(random_configuration(), random_configuration(), DMAX)
    @settings(max_examples=200)
    def test_topological(self, previous, current, dmax):
        _, previous_views = previous
        graph, _ = current
        previous_groups = omega(previous_views)
        assert (topological(previous_groups, graph, dmax)
                == ref_topological(previous_groups, graph, dmax))

    def test_empty_configuration(self):
        graph = nx.Graph()
        assert evaluate_configuration(0.0, {}, graph, 2) == ref_report(0.0, {}, graph, 2)


# --------------------------------------------------------------- sampler path

def test_sampler_reports_equal_reference_on_a_mobile_deployment():
    """Every sample of a small random-waypoint run matches the reference."""
    spec = ScenarioSpec.create("large_manet_waypoint", n=24, area=300.0, speed=0.5, dmax=2)
    sampler = run_with_sampler(build(spec, seed=3), 40.0, sample_interval=1.0)
    assert len(sampler.samples) == 42
    assert max(sample.report.largest_group for sample in sampler.samples) > 1
    for sample in sampler.samples:
        graph, views = sample.graph, sample.views
        assert sample.report == ref_report(sample.time, views, graph, 2)
        assert safety_violations(views, graph, 2) == ref_safety_violations(views, graph, 2)
        assert (maximality_violations(views, graph, 2)
                == ref_maximality_violations(views, graph, 2))
