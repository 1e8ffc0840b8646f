"""Equivalence of the one-pass ancestor-list kernel with the pairwise reference.

The reference below is the straightforward implementation of the paper's
operators: every ``⊕`` builds the level-wise union and re-normalises it, ``ant``
materialises ``r(l)`` first, and ``compute()`` chains one ``ant`` per accepted
list.  The library folds all lists in one pass and builds canonical levels
directly; both must agree on the wire form *and* on the key order inside every
level (the order later set and dict iterations inherit).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ancestor_list import AncestorList
from repro.core.identity import Mark
from repro.core.node import GRPConfig, GRPNode

# ------------------------------------------------------------------ reference


def ref_normalize(levels, dedupe=True):
    cleaned = []
    seen = {}
    for index, level in enumerate(levels):
        new_level = {}
        for node, mark in level.items():
            mark = Mark(mark)
            if dedupe and node in seen:
                if seen[node] == index:
                    prev = new_level.get(node, Mark.NONE)
                    new_level[node] = Mark(max(prev, mark))
                continue
            if node in new_level:
                new_level[node] = Mark(max(new_level[node], mark))
            else:
                new_level[node] = mark
                seen[node] = index
        cleaned.append(new_level)
    while cleaned and not cleaned[-1]:
        cleaned.pop()
    return tuple(cleaned)


def ref_from_wire(wire):
    return ref_normalize(tuple({node: Mark(mark) for node, mark in level} for level in wire))


def ref_merge(left, right):
    merged = []
    for index in range(max(len(left), len(right))):
        level = {}
        for source in (left, right):
            if index < len(source):
                for node, mark in source[index].items():
                    level[node] = Mark(max(level.get(node, Mark.NONE), mark))
        merged.append(level)
    return ref_normalize(merged)


def ref_shifted(levels):
    if not levels:
        return ()
    return ref_normalize(({},) + tuple(levels))


def ref_ant(left, right):
    return ref_merge(left, ref_shifted(right))


def ref_sanitized_for(levels, receiver):
    return ref_normalize(tuple(
        {node: mark for node, mark in level.items()
         if mark is Mark.NONE or (node == receiver and mark is Mark.SINGLE)}
        for level in levels))


def ref_combine(node_id, accepted):
    result = ref_normalize(({node_id: Mark.NONE},))
    for sender in sorted(accepted, key=str):
        result = ref_ant(result, accepted[sender])
    return result


def ref_too_far(node_id, accepted, dmax):
    """Double-mark the providers of every level-``dmax + 1`` identity, re-combine, truncate."""
    combined = ref_combine(node_id, accepted)
    if len(combined) != dmax + 2:
        return combined, accepted
    accepted = dict(accepted)
    for far_node in sorted(combined[dmax + 1], key=str):
        for sender in sorted(accepted, key=str):
            provider = accepted[sender]
            if dmax < len(provider) and far_node in provider[dmax]:
                accepted[sender] = ref_normalize(({sender: Mark.DOUBLE},))
    return ref_normalize(ref_combine(node_id, accepted)[:dmax + 1]), accepted


# ------------------------------------------------------------------ helpers


def assert_same(lst, ref):
    """Equal wire form, equal key order per level, marks are Mark members."""
    assert isinstance(lst, AncestorList)
    assert lst.to_wire() == AncestorList(ref).to_wire()
    assert [list(level) for level in lst.levels] == [list(level) for level in ref]
    assert all(type(mark) is Mark for level in lst.levels for mark in level.values())


def too_far(node, accepted, dmax):
    """The library's side of :func:`ref_too_far`, as ``GRPNode.compute`` runs it."""
    combined = node._combine(accepted)
    if len(combined) != dmax + 2:
        return combined, accepted
    accepted = dict(accepted)
    for far_node in sorted(combined.level_nodes(dmax + 1), key=str):
        for sender in sorted(accepted, key=str):
            if far_node in accepted[sender].level_nodes(dmax):
                accepted[sender] = AncestorList.singleton(sender, Mark.DOUBLE)
    return node._combine(accepted).truncated(dmax + 1), accepted


# ------------------------------------------------------------------ strategies

# Integer identities: their str order ("10" < "2") differs from their own.
node_ids = st.integers(min_value=0, max_value=13)
marks = st.sampled_from([Mark.NONE, Mark.SINGLE, Mark.DOUBLE])

#: Raw levels: cross-level duplicates, intermediate and trailing empty levels.
raw_levels = st.lists(st.dictionaries(node_ids, marks, max_size=6), max_size=6)

#: Raw wire lists: same-level duplicates as well, plain-int marks.
raw_wires = st.lists(
    st.lists(st.tuples(node_ids, st.integers(min_value=0, max_value=2)), max_size=6)
    .map(tuple), max_size=6).map(tuple)

senders = st.dictionaries(node_ids, raw_levels, max_size=12)


def build(raw):
    return AncestorList(tuple(raw)), ref_normalize(tuple(raw))


# ------------------------------------------------------------------ tests


class TestConstructors:
    @given(raw_levels)
    @settings(max_examples=150, deadline=None)
    def test_public_constructor(self, raw):
        lst, ref = build(raw)
        assert_same(lst, ref)

    @given(raw_wires)
    @settings(max_examples=150, deadline=None)
    def test_from_wire(self, wire):
        assert_same(AncestorList.from_wire(wire), ref_from_wire(wire))

    @given(raw_levels)
    @settings(max_examples=100, deadline=None)
    def test_wire_roundtrip_sorts_levels_like_the_reference(self, raw):
        lst, ref = build(raw)
        assert_same(AncestorList.from_wire(lst.to_wire()), ref_from_wire(lst.to_wire()))

    def test_canonical_strips_only_trailing_empty_levels(self):
        lst = AncestorList._canonical(({1: Mark.NONE}, {}, {2: Mark.SINGLE}, {}, {}))
        assert [list(level) for level in lst.levels] == [[1], [], [2]]
        assert not AncestorList._canonical(({}, {}))


class TestOperators:
    @given(raw_levels, raw_levels)
    @settings(max_examples=200, deadline=None)
    def test_merge(self, raw_a, raw_b):
        a, ref_a = build(raw_a)
        b, ref_b = build(raw_b)
        assert_same(a.merge(b), ref_merge(ref_a, ref_b))
        assert_same(b.merge(a), ref_merge(ref_b, ref_a))

    @given(raw_levels)
    @settings(max_examples=100, deadline=None)
    def test_shifted(self, raw):
        lst, ref = build(raw)
        assert_same(lst.shifted(), ref_shifted(ref))

    @given(raw_levels, raw_levels)
    @settings(max_examples=200, deadline=None)
    def test_ant(self, raw_a, raw_b):
        a, ref_a = build(raw_a)
        b, ref_b = build(raw_b)
        assert_same(a.ant(b), ref_ant(ref_a, ref_b))

    @given(raw_levels, st.lists(raw_levels, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_ant_all_is_the_ant_chain(self, raw_base, raws):
        base, ref = build(raw_base)
        others = [build(raw) for raw in raws]
        for _, ref_other in others:
            ref = ref_ant(ref, ref_other)
        assert_same(base.ant_all([lst for lst, _ in others]), ref)

    @given(raw_levels, st.lists(node_ids, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_sanitized_for_every_receiver(self, raw, receivers):
        lst, ref = build(raw)
        # Every receiver of one list, twice: the second round reads the cache.
        for receiver in receivers + sorted(lst.nodes()) + receivers:
            assert_same(lst.sanitized_for(receiver), ref_sanitized_for(ref, receiver))

    @given(raw_levels, st.sets(node_ids), st.integers(min_value=0, max_value=7), node_ids)
    @settings(max_examples=100, deadline=None)
    def test_filters(self, raw, subset, limit, node):
        lst, ref = build(raw)
        assert_same(lst.truncated(limit), ref_normalize(ref[:limit]))
        assert_same(lst.without_marked(keep=subset), ref_normalize(tuple(
            {n: m for n, m in level.items() if m is Mark.NONE or n in subset}
            for level in ref)))
        assert_same(lst.restricted_to(subset), ref_normalize(tuple(
            {n: m for n, m in level.items() if n in subset and m is Mark.NONE}
            for level in ref)))
        assert_same(lst.without_nodes(subset), ref_normalize(tuple(
            {n: m for n, m in level.items() if n not in subset} for level in ref)))
        assert_same(lst.stripped(node), ref_normalize(tuple(
            {n: m for n, m in level.items() if m is Mark.NONE and n != node}
            for level in ref)))
        assert_same(lst.relabel_mark(node, 2), ref_normalize(tuple(
            {n: (Mark.DOUBLE if n == node else m) for n, m in level.items()}
            for level in ref)))


class TestCombine:
    @given(node_ids, senders)
    @settings(max_examples=200, deadline=None)
    def test_combine_is_the_sequential_ant_fold(self, node_id, raw_accepted):
        node = GRPNode(node_id, GRPConfig(dmax=3))
        accepted = {sender: AncestorList(tuple(raw)) for sender, raw in raw_accepted.items()}
        reference = {sender: ref_normalize(tuple(raw)) for sender, raw in raw_accepted.items()}
        assert_same(node._combine(accepted), ref_combine(node_id, reference))

    @given(node_ids, senders)
    @settings(max_examples=150, deadline=None)
    def test_combine_of_received_lists(self, node_id, raw_accepted):
        # The path compute() takes: wire round trip, then sanitized_for.
        node = GRPNode(node_id, GRPConfig(dmax=3))
        accepted, reference = {}, {}
        for sender, raw in raw_accepted.items():
            wire = AncestorList(tuple(raw)).to_wire()
            accepted[sender] = AncestorList.from_wire(wire).sanitized_for(node_id)
            reference[sender] = ref_sanitized_for(ref_from_wire(wire), node_id)
        assert_same(node._combine(accepted), ref_combine(node_id, reference))

    @given(node_ids, senders, st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_too_far_double_marks_providers_then_truncates(self, node_id, raw_accepted,
                                                          slack):
        accepted = {sender: AncestorList(tuple(raw)) for sender, raw in raw_accepted.items()}
        reference = {sender: ref_normalize(tuple(raw)) for sender, raw in raw_accepted.items()}
        # Choose Dmax so that the combined list is exactly Dmax + 2 levels long
        # whenever it can be (slack 0), or shorter than that.
        dmax = max(1, len(ref_combine(node_id, reference)) - 2 + slack)
        node = GRPNode(node_id, GRPConfig(dmax=dmax))
        result, replaced = too_far(node, accepted, dmax)
        ref_result, ref_replaced = ref_too_far(node_id, reference, dmax)
        assert_same(result, ref_result)
        assert sorted(replaced, key=str) == sorted(ref_replaced, key=str)
        for sender in replaced:
            assert_same(replaced[sender], ref_replaced[sender])

    def test_too_far_example(self):
        # v - a - b - c - d on a path, Dmax = 3: d shows up at level 4 = Dmax + 1.
        accepted = {"a": AncestorList.from_levels([{"a"}, {"v", "b"}, {"c"}, {"d"}])}
        node = GRPNode("v", GRPConfig(dmax=3))
        assert len(node._combine(accepted)) == 5
        result, replaced = too_far(node, accepted, 3)
        assert replaced["a"] == AncestorList.singleton("a", Mark.DOUBLE)
        assert result.to_wire() == ((("v", 0),), (("a", 2),))
