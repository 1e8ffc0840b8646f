"""Formal predicates of the Dynamic Group Service specification.

These functions evaluate, on configuration snapshots, the predicates defined
in Section 3 of the paper:

* ``Ω`` (group of a node) — :func:`omega`;
* ΠA (agreement) — :func:`agreement`;
* ΠS (safety) — :func:`safety`;
* ΠM (maximality) — :func:`maximality`;
* ΠT (topological, on consecutive configurations) — :func:`topological`;
* ΠC (continuity, on consecutive configurations) — :func:`continuity`.

A *configuration snapshot* consists of the views (mapping node → frozenset of
members) and the symmetric-link topology graph at that instant.  The metric
collectors (:mod:`repro.metrics`) call these functions at sampling times; the
tests call them directly on hand-built configurations.

The boolean predicates stop at the first failure and check diameters with the
bounded BFS of :func:`repro.net.topology.induced_diameter_ok` on the raw
adjacency; :func:`evaluate_configuration` computes Ω and that adjacency once
per snapshot.  The ``*_violations`` functions list every offender in a
deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Collection, Dict, FrozenSet, Hashable, Iterator, List, Mapping, Sequence,
                    Set, Tuple)

import networkx as nx

from repro.net.topology import Adjacency, induced_diameter_ok, subgraph_diameter

__all__ = [
    "Views",
    "Groups",
    "omega",
    "groups_partition",
    "agreement",
    "agreement_violations",
    "safety",
    "safety_violations",
    "maximality",
    "maximality_violations",
    "topological",
    "continuity",
    "continuity_violations",
    "legitimate",
    "ConfigurationReport",
    "evaluate_configuration",
]

NodeId = Hashable
Views = Mapping[NodeId, FrozenSet[NodeId]]
Groups = Dict[NodeId, FrozenSet[NodeId]]


def omega(views: Views) -> Groups:
    """The group Ω_v of every node.

    Ω_v equals view_v when v belongs to its own view and every member shares
    exactly the same view; otherwise Ω_v = {v} (paper Section 3).
    """
    groups: Groups = {}
    for node, view in views.items():
        if node in view and all(views.get(member) == view for member in view):
            groups[node] = frozenset(view)
        else:
            groups[node] = frozenset({node})
    return groups


def groups_partition(views: Views) -> Set[FrozenSet[NodeId]]:
    """The set of distinct groups {Ω_v : v}."""
    return set(omega(views).values())


def agreement_violations(views: Views) -> List[Tuple[NodeId, str]]:
    """Nodes violating ΠA, with a human-readable reason."""
    violations: List[Tuple[NodeId, str]] = []
    for node, view in views.items():
        if node not in view:
            violations.append((node, "node absent from its own view"))
            continue
        for member in view:
            other = views.get(member)
            if other is None:
                violations.append((node, f"view member {member!r} is not a node"))
                break
            if other != view:
                violations.append((node, f"view member {member!r} disagrees"))
                break
    return violations


def agreement(views: Views) -> bool:
    """ΠA: the views define a partition on which all members agree."""
    for node, view in views.items():
        if node not in view:
            return False
        for member in view:
            if views.get(member) != view:
                return False
    return True


def _group_key(group: FrozenSet[NodeId]) -> List[str]:
    """Sort key that orders groups independently of PYTHONHASHSEED."""
    return sorted(map(str, group))


def _safe(groups: Collection[FrozenSet[NodeId]], adjacency: Adjacency, dmax: int) -> bool:
    return all(induced_diameter_ok(adjacency, group, dmax) for group in groups)


def _merge_candidates(groups: Sequence[FrozenSet[NodeId]],
                      adjacency: Adjacency) -> Iterator[Tuple[int, int]]:
    """Index pairs ``(a, b)``, ``a < b``, of groups joined by a direct edge.

    Ω's groups partition the nodes, so the subgraph over the union of two
    groups can only be connected — and the merge keep ΠS — when an edge joins
    them.  On a mostly-singleton configuration this reduces the O(g^2) pair
    scan to at most one pair per topology edge.  A pair is yielded once per
    edge joining the two groups.
    """
    group_of = {node: index for index, group in enumerate(groups) for node in group}
    for node_u, neighbours in adjacency.items():
        index_a = group_of.get(node_u)
        if index_a is None:
            continue
        for node_v in neighbours:
            index_b = group_of.get(node_v)
            if index_b is not None and index_a < index_b:
                yield index_a, index_b


def _maximal(groups: Collection[FrozenSet[NodeId]], adjacency: Adjacency, dmax: int) -> bool:
    groups = list(groups)
    checked: Set[Tuple[int, int]] = set()
    for pair in _merge_candidates(groups, adjacency):
        if pair in checked:
            continue
        checked.add(pair)
        if induced_diameter_ok(adjacency, groups[pair[0]] | groups[pair[1]], dmax):
            return False
    return True


def safety_violations(views: Views, graph: nx.Graph, dmax: int) -> List[Tuple[FrozenSet, float]]:
    """Groups violating ΠS with their (possibly infinite) diameter, in sorted group order."""
    adjacency = dict(graph.adjacency())
    return [(group, subgraph_diameter(graph, group))
            for group in sorted(set(omega(views).values()), key=_group_key)
            if not induced_diameter_ok(adjacency, group, dmax)]


def safety(views: Views, graph: nx.Graph, dmax: int) -> bool:
    """ΠS: every group is connected with diameter ≤ Dmax inside the group subgraph."""
    return _safe(set(omega(views).values()), dict(graph.adjacency()), dmax)


def maximality_violations(views: Views, graph: nx.Graph,
                          dmax: int) -> List[Tuple[FrozenSet, FrozenSet]]:
    """Pairs of distinct groups that could merge without breaking ΠS, in sorted order."""
    adjacency = dict(graph.adjacency())
    groups = sorted(set(omega(views).values()), key=_group_key)
    return [(groups[index_a], groups[index_b])
            for index_a, index_b in sorted(set(_merge_candidates(groups, adjacency)))
            if induced_diameter_ok(adjacency, groups[index_a] | groups[index_b], dmax)]


def maximality(views: Views, graph: nx.Graph, dmax: int) -> bool:
    """ΠM: no two distinct groups could be merged while keeping the diameter ≤ Dmax."""
    return _maximal(set(omega(views).values()), dict(graph.adjacency()), dmax)


def legitimate(views: Views, graph: nx.Graph, dmax: int) -> bool:
    """The stabilization target ΠA ∧ ΠS ∧ ΠM."""
    if not agreement(views):
        return False
    groups = set(omega(views).values())
    adjacency = dict(graph.adjacency())
    return _safe(groups, adjacency, dmax) and _maximal(groups, adjacency, dmax)


def topological(previous_groups: Groups, new_graph: nx.Graph, dmax: int) -> bool:
    """ΠT on a pair of consecutive configurations.

    For every node, the members of its *previous* group must still be within
    distance ``Dmax`` of each other in the *new* topology, counting only paths
    inside the previous group.
    """
    return _safe(set(previous_groups.values()), dict(new_graph.adjacency()), dmax)


def continuity_violations(previous_groups: Groups,
                          new_groups: Groups) -> List[Tuple[NodeId, FrozenSet, FrozenSet]]:
    """Nodes whose group lost at least one member between two configurations."""
    violations: List[Tuple[NodeId, FrozenSet, FrozenSet]] = []
    for node, previous in previous_groups.items():
        new = new_groups.get(node, frozenset({node}))
        if not previous <= new:
            violations.append((node, previous, new))
    return violations


def continuity(previous_groups: Groups, new_groups: Groups) -> bool:
    """ΠC: no node disappears from any group between two configurations."""
    return not continuity_violations(previous_groups, new_groups)


@dataclass(frozen=True)
class ConfigurationReport:
    """Predicate values of one sampled configuration."""

    time: float
    agreement: bool
    safety: bool
    maximality: bool
    group_count: int
    largest_group: int
    isolated_nodes: int

    @property
    def legitimate(self) -> bool:
        """ΠA ∧ ΠS ∧ ΠM."""
        return self.agreement and self.safety and self.maximality


def evaluate_configuration(time: float, views: Views, graph: nx.Graph,
                           dmax: int) -> ConfigurationReport:
    """Evaluate every static predicate on one configuration snapshot."""
    groups = set(omega(views).values())
    adjacency = dict(graph.adjacency())
    sizes = [len(group) for group in groups]
    return ConfigurationReport(
        time=time,
        agreement=agreement(views),
        safety=_safe(groups, adjacency, dmax),
        maximality=_maximal(groups, adjacency, dmax),
        group_count=len(groups),
        largest_group=max(sizes) if sizes else 0,
        isolated_nodes=sum(1 for size in sizes if size == 1),
    )
