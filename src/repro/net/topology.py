"""Dynamic-topology utilities.

The correctness predicates of the Dynamic Group Service (ΠS, ΠM, ΠT) are
defined over *subgraph distances*: the distance between two members of a group
counted only along edges whose both endpoints belong to the group.  This module
implements those graph computations on ``networkx`` snapshots produced by the
network.

The boolean diameter checks (:func:`group_diameter_ok`,
:func:`merged_diameter_ok`, and the predicates built on them) run on the raw
adjacency mapping through :func:`induced_diameter_ok`, a BFS bounded to the
members and to depth ``dmax``; :func:`subgraph_diameter` keeps the exact
``networkx`` number for reports and is the reference for those checks.
"""

from __future__ import annotations

from typing import (AbstractSet, Collection, Dict, FrozenSet, Hashable, Iterable, Mapping,
                    Optional, Sequence, Set, Tuple)

import networkx as nx

__all__ = [
    "Adjacency",
    "snapshot_graph",
    "subgraph_distance",
    "subgraph_diameter",
    "group_is_connected",
    "group_diameter_ok",
    "merged_diameter_ok",
    "induced_diameter_ok",
    "distance_matrix_within",
    "neighbors_within",
    "connected_components",
]

#: Node -> its neighbours; ``dict(graph.adjacency())`` of a ``networkx`` graph.
Adjacency = Mapping[Hashable, Collection[Hashable]]


def snapshot_graph(positions: Mapping[Hashable, Sequence[float]],
                   link_predicate, active: Optional[Set[Hashable]] = None) -> nx.Graph:
    """Build the undirected symmetric-link snapshot of the network.

    An undirected edge ``(u, v)`` exists when *both* directed links exist
    according to ``link_predicate(u, v)`` and ``link_predicate(v, u)``, which is
    the symmetric-link graph GRP effectively operates on (asymmetric links are
    filtered out by the handshake).

    Parameters
    ----------
    positions:
        Mapping node -> (x, y).
    link_predicate:
        Callable ``(sender, receiver, sender_pos, receiver_pos) -> bool``.
    active:
        If given, only these nodes are included.
    """
    graph = nx.Graph()
    nodes = [n for n in positions if active is None or n in active]
    graph.add_nodes_from(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (link_predicate(u, v, positions[u], positions[v])
                    and link_predicate(v, u, positions[v], positions[u])):
                graph.add_edge(u, v)
    return graph


def subgraph_distance(graph: nx.Graph, members: Iterable[Hashable],
                      source: Hashable, target: Hashable) -> float:
    """Distance from ``source`` to ``target`` using only edges inside ``members``.

    Returns ``float('inf')`` when no such path exists or when either endpoint is
    not in the graph (this matches the paper's convention d_X(u, v) = +inf).
    """
    members = set(members)
    if source not in graph or target not in graph:
        return float("inf")
    if source not in members or target not in members:
        return float("inf")
    sub = graph.subgraph(members)
    try:
        return float(nx.shortest_path_length(sub, source, target))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return float("inf")


def distance_matrix_within(graph: nx.Graph,
                           members: Iterable[Hashable]) -> Dict[Hashable, Dict[Hashable, float]]:
    """All-pairs shortest-path lengths restricted to the ``members`` subgraph."""
    members = [m for m in members if m in graph]
    sub = graph.subgraph(members)
    lengths = dict(nx.all_pairs_shortest_path_length(sub))
    out: Dict[Hashable, Dict[Hashable, float]] = {}
    for u in members:
        row = lengths.get(u, {})
        out[u] = {v: float(row[v]) if v in row else float("inf") for v in members}
    return out


def subgraph_diameter(graph: nx.Graph, members: Iterable[Hashable]) -> float:
    """Diameter of the subgraph induced by ``members``.

    Returns 0 for empty or singleton member sets, ``float('inf')`` when the
    induced subgraph is disconnected or contains nodes absent from the graph.
    """
    members = list(members)
    if len(members) <= 1:
        return 0.0
    if any(m not in graph for m in members):
        return float("inf")
    sub = graph.subgraph(members)
    if not nx.is_connected(sub):
        return float("inf")
    return float(nx.diameter(sub))


def group_is_connected(graph: nx.Graph, members: Iterable[Hashable]) -> bool:
    """Whether the subgraph induced by ``members`` is connected (singletons are)."""
    members = list(members)
    if len(members) <= 1:
        return True
    if any(m not in graph for m in members):
        return False
    return nx.is_connected(graph.subgraph(members))


def induced_diameter_ok(adjacency: Adjacency, members: Iterable[Hashable],
                        dmax: int) -> bool:
    """Whether the subgraph induced by ``members`` is connected with diameter <= ``dmax``.

    One BFS per member, restricted to the members and cut off at depth
    ``dmax``; the answer is ``False`` at the first source that does not reach
    every member.  Groups of 0 or 1 members pass (even when the node is absent
    from ``adjacency``), a group with a member absent from ``adjacency`` fails,
    and ``dmax=0`` fails any group of two or more — the conventions of
    ``subgraph_diameter(graph, members) <= dmax`` for ``dmax >= 0``.
    """
    if not isinstance(members, AbstractSet):
        members = set(members)
    count = len(members)
    if count <= 1:
        return True
    if dmax < 1 or any(member not in adjacency for member in members):
        return False
    for source in members:
        seen = {source}
        frontier = [source]
        for _ in range(dmax):
            reached = []
            for node in frontier:
                for neighbour in adjacency[node]:
                    if neighbour in members and neighbour not in seen:
                        seen.add(neighbour)
                        reached.append(neighbour)
            if not reached or len(seen) == count:
                break
            frontier = reached
        if len(seen) != count:
            return False
    return True


def group_diameter_ok(graph: nx.Graph, members: Iterable[Hashable], dmax: int) -> bool:
    """ΠS for one group: connected and diameter <= dmax within the group subgraph."""
    return induced_diameter_ok(dict(graph.adjacency()), members, dmax)


def merged_diameter_ok(graph: nx.Graph, group_a: Iterable[Hashable],
                       group_b: Iterable[Hashable], dmax: int) -> bool:
    """Whether merging the two groups would still satisfy the diameter constraint.

    This is the test used by the maximality predicate ΠM: two groups violate
    maximality when their union subgraph has diameter <= dmax.
    """
    return induced_diameter_ok(dict(graph.adjacency()), set(group_a) | set(group_b), dmax)


def neighbors_within(graph: nx.Graph, node: Hashable, hops: int) -> Set[Hashable]:
    """Nodes at distance <= ``hops`` from ``node`` (excluding ``node`` itself)."""
    if node not in graph:
        return set()
    lengths = nx.single_source_shortest_path_length(graph, node, cutoff=hops)
    return {v for v, d in lengths.items() if v != node and d <= hops}


def connected_components(graph: nx.Graph) -> Tuple[FrozenSet[Hashable], ...]:
    """Connected components as a tuple of frozensets (deterministic order)."""
    comps = [frozenset(c) for c in nx.connected_components(graph)]
    return tuple(sorted(comps, key=lambda c: sorted(map(repr, c))))
