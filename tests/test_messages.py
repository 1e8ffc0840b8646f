"""Unit tests for the GRP wire messages."""

import copy
import pickle

from repro.core.ancestor_list import AncestorList
from repro.core.identity import Mark, priority_key
from repro.core.messages import GRPMessage

from conftest import alist


class TestGRPMessage:
    def test_build_and_decode_roundtrip(self):
        lst = alist({"u"}, {"v", "w"})
        msg = GRPMessage.build("u", lst, priorities={"u": 1, "v": 2},
                               group_priority=priority_key(1, "u"),
                               view=frozenset({"u", "v"}))
        assert msg.sender == "u"
        assert msg.ancestor_list == lst
        assert msg.priority_map == {"u": 1, "v": 2}
        assert msg.view_set == frozenset({"u", "v"})
        assert msg.group_priority == priority_key(1, "u")

    def test_default_view_is_sender_singleton(self):
        msg = GRPMessage.build("u", AncestorList.singleton("u"), priorities={"u": 0})
        assert msg.view_set == frozenset({"u"})

    def test_messages_are_hashable_and_comparable(self):
        lst = alist({"u"}, {"v"})
        m1 = GRPMessage.build("u", lst, priorities={"u": 1})
        m2 = GRPMessage.build("u", lst, priorities={"u": 1})
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_size_estimate_counts_slots(self):
        lst = alist({"u"}, {"v", "w"})
        msg = GRPMessage.build("u", lst, priorities={"u": 1, "v": 2},
                               group_priority=priority_key(1, "u"),
                               view=frozenset({"u", "v"}))
        # 3 list slots + 2 priorities + 2 view members + 1 group priority
        assert msg.size_estimate() == 8

    def test_priorities_sorted_deterministically(self):
        lst = alist({"u"})
        m1 = GRPMessage.build("u", lst, priorities={"b": 2, "a": 1})
        m2 = GRPMessage.build("u", lst, priorities={"a": 1, "b": 2})
        assert m1.priorities == m2.priorities

    def test_list_is_decoded_once(self):
        msg = GRPMessage.build("u", alist({"u"}, {"v"}), priorities={"u": 1})
        assert msg.ancestor_list is msg.ancestor_list


class TestDecodeCache:
    """The decoded list is a cache: never part of a message's identity."""

    @staticmethod
    def message():
        lst = AncestorList(({"u": Mark.NONE}, {"v": Mark.SINGLE, "w": Mark.NONE},
                            {"x": Mark.DOUBLE}))
        return GRPMessage.build("u", lst, priorities={"u": 1, "w": 2},
                                group_priority=priority_key(1, "u"),
                                view=frozenset({"u", "w"}))

    def test_pickle_bytes_do_not_depend_on_the_cache(self):
        msg = self.message()
        before = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        decoded = msg.ancestor_list
        msg.ancestor_list.sanitized_for("v")
        after = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before
        assert pickle.dumps(msg) == pickle.dumps(self.message())
        clone = pickle.loads(after)
        assert "ancestor_list" not in vars(clone)
        assert clone == msg
        assert clone.ancestor_list == decoded
        # The cache survives pickling the original.
        assert msg.ancestor_list is decoded

    def test_equality_hash_and_copies_ignore_the_cache(self):
        read, unread = self.message(), self.message()
        read.ancestor_list
        assert read == unread
        assert hash(read) == hash(unread)
        assert repr(read) == repr(unread)
        assert "ancestor_list" not in vars(copy.copy(read))
        assert copy.deepcopy(read) == unread
