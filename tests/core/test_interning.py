"""Tests for the signature intern table."""

import pytest

from repro.core import (
    InternedSignature,
    OutlierModel,
    TaskSynopsis,
    canonical_tuple,
    clear_intern_table,
    intern_signature,
    intern_table_size,
    model_from_json,
    model_to_json,
)


def synopsis(lps=(1, 2, 4), uid=0):
    return TaskSynopsis(
        host_id=0,
        stage_id=1,
        uid=uid,
        start_time=0.0,
        duration=0.01,
        log_points={lp: 1 for lp in lps},
    )


class TestInternTable:
    def test_same_elements_same_object(self):
        a = intern_signature([3, 1, 2])
        b = intern_signature({2: 5, 1: 1, 3: 9})  # dict iterates keys
        assert a is b

    def test_behaves_like_plain_frozenset(self):
        interned = intern_signature([1, 2, 4])
        plain = frozenset({1, 2, 4})
        assert interned == plain
        assert hash(interned) == hash(plain)
        assert interned in {plain}
        assert plain in {interned}
        assert isinstance(interned, frozenset)

    def test_canonical_tuple_is_sorted(self):
        interned = intern_signature([9, 1, 5])
        assert interned.canonical == (1, 5, 9)
        assert canonical_tuple(interned) == (1, 5, 9)
        # Plain frozensets get the tuple computed on demand.
        assert canonical_tuple(frozenset({9, 1, 5})) == (1, 5, 9)

    def test_repeated_ids_share_the_one_signature(self):
        real = intern_signature([1, 2, 4, 5])
        repeated = intern_signature([2, 1, 4, 5, 1])
        assert repeated is real
        assert repeated.canonical == (1, 2, 4, 5)
        # First sight through a repeating iterable stores the deduped key.
        clear_intern_table()
        first = intern_signature((7, 3, 7))
        assert first.canonical == (3, 7)
        assert intern_signature([3, 7]) is first
        assert intern_table_size() == 1

    def test_table_size_and_clear(self):
        clear_intern_table()
        assert intern_table_size() == 0
        intern_signature([1])
        intern_signature([1])
        intern_signature([2])
        assert intern_table_size() == 2
        clear_intern_table()
        assert intern_table_size() == 0


class TestInterningAcrossLayers:
    def test_two_decodes_share_signature_identity(self):
        # The satellite micro-test: two independent decodes of the same
        # task shape yield identity-equal signatures.
        payload1 = synopsis(uid=1).encode()
        payload2 = synopsis(uid=2).encode()
        sig1 = TaskSynopsis.decode(payload1).signature
        sig2 = TaskSynopsis.decode(payload2).signature
        assert sig1 is sig2
        assert isinstance(sig1, InternedSignature)

    def test_synopsis_signature_is_cached(self):
        s = synopsis()
        assert s.signature is s.signature

    def test_model_keys_are_interned(self):
        trace = [synopsis(uid=i) for i in range(30)]
        model = OutlierModel().train(trace)
        (sig,) = model.stages[(0, 1)].signatures
        assert sig is intern_signature([1, 2, 4])

    def test_persistence_round_trip_interns(self):
        trace = [synopsis(uid=i) for i in range(30)]
        model = OutlierModel().train(trace)
        clone = model_from_json(model_to_json(model))
        (sig,) = clone.stages[(0, 1)].signatures
        assert sig is intern_signature([1, 2, 4])


class TestClassifyWithPlainFrozensets:
    def test_plain_frozenset_lookup_still_matches(self):
        trace = [synopsis(uid=i) for i in range(30)]
        model = OutlierModel().train(trace)
        label = model.classify_parts((0, 1), frozenset({1, 2, 4}), 0.01)
        assert not label.new_signature
