"""Ordered lists of ancestors' sets and the ``ant`` r-operator.

The central data structure of GRP (paper Section 4.2).  A node ``v`` maintains
an ordered list ``(a0, a1, ..., ap)`` where ``ai`` is the set of identities
believed to be at distance ``i`` from ``v`` (``a0 = {v}``).  Lists are combined
with:

* ``⊕`` (:meth:`AncestorList.merge`): level-wise union followed by duplicate
  removal — an identity is kept only at its smallest level — and removal of
  trailing empty levels;
* ``r`` (:meth:`AncestorList.shifted`): prepend an empty level (one more hop);
* ``ant(l1, l2) = l1 ⊕ r(l2)`` (:meth:`AncestorList.ant`), the strictly
  idempotent r-operator the stabilization proofs rely on.

Every identity occurrence carries a :class:`~repro.core.identity.Mark`.
Instances are immutable; all operations return new lists.  Only the public
constructor and :meth:`AncestorList.from_wire` normalise arbitrary input; the
operations build canonical levels directly from canonical operands, and
:meth:`AncestorList.ant_all` folds any number of lists in one pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple

from .identity import Mark, NodeId

__all__ = ["AncestorList", "WireList"]

#: Wire representation: a tuple of levels, each level a tuple of (node, mark-int)
#: pairs sorted by ``str(node)`` — hashable, comparable and JSON-friendly.
WireList = Tuple[Tuple[Tuple[NodeId, int], ...], ...]


#: Wire int -> Mark member: decoding through this table hands out the members
#: themselves instead of re-boxing every entry with ``Mark(x)``.
_WIRE_MARKS = {int(mark): mark for mark in Mark}

#: Level index :meth:`AncestorList._fold` reads for an identity not placed yet.
_ABSENT = 1 << 62


def _normalize(levels: Sequence[Mapping[NodeId, Mark]]) -> Tuple[Dict[NodeId, Mark], ...]:
    """Canonicalize levels: cross-level dedup, strip trailing empties."""
    cleaned: list = []
    seen: Dict[NodeId, int] = {}
    for index, level in enumerate(levels):
        new_level: Dict[NodeId, Mark] = {}
        for node, mark in level.items():
            if mark.__class__ is not Mark:
                mark = Mark(mark)
            if node in seen:
                # Keep the occurrence at the smallest level; if the duplicate is
                # at the same level, keep the strongest mark.
                if seen[node] == index:
                    prev = new_level.get(node, Mark.NONE)
                    new_level[node] = max(prev, mark)
                continue
            if node in new_level:
                new_level[node] = max(new_level[node], mark)
            else:
                new_level[node] = mark
                seen[node] = index
        cleaned.append(new_level)
    while cleaned and not cleaned[-1]:
        cleaned.pop()
    return tuple(cleaned)


class AncestorList:
    """Immutable ordered list of ancestors' sets.

    Parameters
    ----------
    levels:
        Sequence of mappings ``{node: mark}``; duplicates across levels are
        removed (smallest level wins) and trailing empty levels are dropped.
    """

    __slots__ = ("_levels", "_hash", "_unmarked")

    def __init__(self, levels: Sequence[Mapping[NodeId, Mark]] = ()):
        self._levels = _normalize(levels)
        self._hash: Optional[int] = None
        self._unmarked: Optional[tuple] = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def _canonical(cls, levels: Sequence[Dict[NodeId, Mark]]) -> "AncestorList":
        """Wrap levels that are already canonical except for trailing empties.

        The caller guarantees that every mark is a :class:`Mark` member and
        that no identity appears twice; only trailing empty levels are
        stripped.  The level dicts are taken over, not copied.
        """
        end = len(levels)
        while end and not levels[end - 1]:
            end -= 1
        lst = cls.__new__(cls)
        lst._levels = tuple(levels[:end])
        lst._hash = None
        lst._unmarked = None
        return lst

    @classmethod
    def singleton(cls, node: NodeId, mark: Mark = Mark.NONE) -> "AncestorList":
        """The list ``({node})`` — a node's initial knowledge, or a rejected sender."""
        if mark.__class__ is not Mark:
            mark = Mark(mark)
        return cls._canonical(({node: mark},))

    @classmethod
    def from_levels(cls, levels: Sequence[Iterable[NodeId]]) -> "AncestorList":
        """Build an unmarked list from plain sets of identities per level."""
        return cls(tuple({node: Mark.NONE for node in level} for level in levels))

    @classmethod
    def from_wire(cls, wire: WireList) -> "AncestorList":
        """Rebuild a list from its wire representation."""
        marks = _WIRE_MARKS
        return cls(tuple({node: marks[mark] for node, mark in level} for level in wire))

    # ----------------------------------------------------------------- queries

    @property
    def levels(self) -> Tuple[Dict[NodeId, Mark], ...]:
        """Levels as a tuple of ``{node: mark}`` dict copies."""
        return tuple(dict(level) for level in self._levels)

    def __len__(self) -> int:
        """Number of levels — ``s(list)`` in the paper's pseudo-code."""
        return len(self._levels)

    def __bool__(self) -> bool:
        return bool(self._levels)

    def level(self, index: int) -> Dict[NodeId, Mark]:
        """The set of identities (with marks) at distance ``index``; empty if absent."""
        if 0 <= index < len(self._levels):
            return dict(self._levels[index])
        return {}

    def level_nodes(self, index: int) -> Set[NodeId]:
        """Identities at distance ``index`` regardless of mark."""
        if 0 <= index < len(self._levels):
            return set(self._levels[index])
        return set()

    def nodes(self) -> Set[NodeId]:
        """All identities appearing in the list."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(level)
        return out

    def unmarked_nodes(self) -> Set[NodeId]:
        """Identities appearing with :attr:`Mark.NONE` (the view candidates)."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(node for node, mark in level.items() if mark is Mark.NONE)
        return out

    def marked_nodes(self) -> Set[NodeId]:
        """Identities carrying a single or double mark."""
        out: Set[NodeId] = set()
        for level in self._levels:
            out.update(node for node, mark in level.items() if mark is not Mark.NONE)
        return out

    def contains(self, node: NodeId) -> bool:
        """Whether ``node`` appears (marked or not)."""
        return any(node in level for level in self._levels)

    def __contains__(self, node: NodeId) -> bool:
        return self.contains(node)

    def position_of(self, node: NodeId) -> Optional[int]:
        """Level index of ``node`` or ``None`` when absent."""
        for index, level in enumerate(self._levels):
            if node in level:
                return index
        return None

    def positions(self) -> Dict[NodeId, int]:
        """Mapping identity -> level index, marked identities included."""
        return {node: index for index, level in enumerate(self._levels) for node in level}

    def mark_of(self, node: NodeId) -> Optional[Mark]:
        """Mark carried by ``node`` or ``None`` when absent."""
        for level in self._levels:
            if node in level:
                return level[node]
        return None

    def has_empty_level(self) -> bool:
        """Whether any (non-trailing) level is empty — a malformed list."""
        return any(not level for level in self._levels)

    def size(self) -> int:
        """Total number of identities across all levels."""
        return sum(len(level) for level in self._levels)

    def __iter__(self) -> Iterator[Dict[NodeId, Mark]]:
        return iter(self.levels)

    # ------------------------------------------------------------- operations

    def merge(self, other: "AncestorList") -> "AncestorList":
        """The ``⊕`` operator: level-wise union with duplicate removal."""
        return self._fold((other,), 0)

    def __or__(self, other: "AncestorList") -> "AncestorList":
        return self.merge(other)

    def shifted(self) -> "AncestorList":
        """The ``r`` endomorphism: prepend an empty level (one additional hop)."""
        if not self._levels:
            return AncestorList._canonical(())
        return AncestorList._canonical(({},) + self._levels)

    def ant(self, other: "AncestorList") -> "AncestorList":
        """The ``ant`` r-operator: ``self ⊕ r(other)``."""
        return self._fold((other,), 1)

    def ant_all(self, others: Iterable["AncestorList"]) -> "AncestorList":
        """``ant`` folded over ``others`` in order: ``ant(...ant(self, l1)..., lk)``."""
        return self._fold(others, 1)

    def _fold(self, others: Iterable["AncestorList"], offset: int) -> "AncestorList":
        """``self ⊕ rᵒ(l1) ⊕ ... ⊕ rᵒ(lk)`` in one pass, ``o = offset`` shifts.

        Gives the list the chain of pairwise merges gives — same levels, same
        marks, same key order inside every level — without building the
        intermediate lists.  ``where`` maps every identity placed so far to its
        level: an identity stays at the smallest level any list offers, with
        the strongest mark offered at that level, and moves to the end of a
        smaller level (where the pairwise merge would append it) when a later
        list offers a shorter path.
        """
        levels = [dict(level) for level in self._levels]
        absent = _ABSENT
        where = {node: index for index, level in enumerate(self._levels) for node in level}
        get = where.get
        for other in others:
            for index, level in enumerate(other._levels, offset):
                while len(levels) <= index:
                    levels.append({})
                target = levels[index]
                for node, mark in level.items():
                    current = get(node, absent)
                    if current < index:
                        continue
                    if current == index:
                        if mark > target[node]:
                            target[node] = mark
                        continue
                    if current != absent:
                        del levels[current][node]
                    target[node] = mark
                    where[node] = index
        return AncestorList._canonical(levels)

    def truncated(self, max_levels: int) -> "AncestorList":
        """Keep the first ``max_levels`` levels (pseudo-code line 28)."""
        if max_levels < 0:
            raise ValueError("max_levels must be non-negative")
        return AncestorList._canonical(self._levels[:max_levels])

    def without_marked(self, keep: Iterable[NodeId] = ()) -> "AncestorList":
        """Remove marked identities except those listed in ``keep``.

        This is pseudo-code line 2 ("delete marked nodes except v"): marked
        identities are neighbour-local information and must not be propagated.
        Trailing empty levels produced by the removal are dropped; intermediate
        empty levels are preserved (such a list is then rejected by goodList).
        """
        keep = set(keep)
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items()
                           if mark is Mark.NONE or node in keep})
        return AncestorList._canonical(levels)

    def sanitized_for(self, receiver: NodeId) -> "AncestorList":
        """Apply the reception filtering of pseudo-code line 2 for ``receiver``.

        Marked identities are neighbour-local information and must not be
        propagated, so every marked entry is removed **except** the receiver's
        own *single-marked* entry (the handshake witness).  A *double-marked*
        receiver entry is removed as well: per the paper's Proposition 3, a node
        double-marked by its neighbour must stop seeing itself in that
        neighbour's list so that the incompatibility is detected reciprocally
        (the subsequent ``goodList`` test then fails and only the sender's
        identity is kept, single-marked).

        The receiver-independent part (the list without any marked entry) is
        built on the first call and kept, so a broadcast list filtered for
        each of its receivers is scanned once; a receiver that is
        single-marked only gets its own level rebuilt.
        """
        cached = self._unmarked
        if cached is None:
            cached = self._unmarked = self._unmarked_part()
        unmarked, unmarked_levels, singles = cached
        index = singles.get(receiver)
        if index is None:
            return self if unmarked is None else unmarked
        levels = list(unmarked_levels)
        levels[index] = {
            node: mark for node, mark in self._levels[index].items()
            if mark is Mark.NONE or (node == receiver and mark is Mark.SINGLE)
        }
        return AncestorList._canonical(levels)

    def _unmarked_part(self) -> tuple:
        """``(list, levels, singles)`` behind :meth:`sanitized_for`.

        ``list`` is this list without its marked entries (``None`` when it
        has none: the list itself), ``levels`` the same levels before trailing
        empty ones are stripped, ``singles`` maps every single-marked identity
        to its level.  Levels without marks are shared, not copied.
        """
        none = Mark.NONE
        levels = []
        singles: Dict[NodeId, int] = {}
        marked = False
        for index, level in enumerate(self._levels):
            kept = {node: mark for node, mark in level.items() if mark is none}
            if len(kept) == len(level):
                levels.append(level)
                continue
            marked = True
            levels.append(kept)
            for node, mark in level.items():
                if mark is Mark.SINGLE:
                    singles[node] = index
        return (AncestorList._canonical(levels) if marked else None), tuple(levels), singles

    def restricted_to(self, members: Iterable[NodeId]) -> "AncestorList":
        """Keep only the (unmarked) identities belonging to ``members``.

        Used to measure the span of an *established group* inside a list: the
        compatibility test compares group spans, not candidate spans (see the
        README, "Deviations from the paper's pseudo-code").
        """
        members = set(members)
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items()
                           if node in members and mark is Mark.NONE})
        return AncestorList._canonical(levels)

    def without_nodes(self, nodes: Iterable[NodeId]) -> "AncestorList":
        """Remove the given identities entirely (used for effective-length computations)."""
        drop = set(nodes)
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items() if node not in drop})
        return AncestorList._canonical(levels)

    def stripped(self, receiver: Optional[NodeId] = None) -> "AncestorList":
        """Effective list used by the compatibility test.

        Removes every marked identity and (optionally) the receiver's own
        identity: marked entries are neighbour-local annotations and the
        receiver is not a *new* member brought by the sender, so neither should
        count towards the prospective group diameter (see Proposition 13 and
        the README, "Deviations from the paper's pseudo-code").
        """
        drop: Set[NodeId] = set() if receiver is None else {receiver}
        levels = []
        for level in self._levels:
            levels.append({node: mark for node, mark in level.items()
                           if mark is Mark.NONE and node not in drop})
        return AncestorList._canonical(levels)

    def relabel_mark(self, node: NodeId, mark: Mark) -> "AncestorList":
        """Return a copy where ``node`` (if present) carries ``mark``."""
        if mark.__class__ is not Mark:
            mark = Mark(mark)
        levels = []
        for level in self._levels:
            new_level = dict(level)
            if node in new_level:
                new_level[node] = mark
            levels.append(new_level)
        return AncestorList._canonical(levels)

    # ---------------------------------------------------------------- equality

    def to_wire(self) -> WireList:
        """Canonical, hashable wire representation."""
        return tuple(
            tuple(sorted(((node, int(mark)) for node, mark in level.items()),
                         key=lambda item: str(item[0])))
            for level in self._levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AncestorList):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.to_wire())
        return self._hash

    def __repr__(self) -> str:
        def fmt(level: Dict[NodeId, Mark]) -> str:
            parts = []
            for node in sorted(level, key=str):
                mark = level[node]
                suffix = {Mark.NONE: "", Mark.SINGLE: "'", Mark.DOUBLE: "''"}[mark]
                parts.append(f"{node}{suffix}")
            return "{" + ",".join(parts) + "}"

        return "(" + ", ".join(fmt(level) for level in self._levels) + ")"
