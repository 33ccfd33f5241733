"""Tests for the sharded multi-object service layer
(:mod:`repro.service`): the keyed data-type adapter and the consistent-hash
router.  The sharded deployment itself is tested in
``test_sharded_cluster.py`` and ``test_reshard.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ConfigurationError
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.service.keyed import KeyedStore
from repro.service.router import ShardRouter, stable_hash


class TestKeyedStore:
    def test_independent_keys_evolve_independently(self):
        store = KeyedStore(CounterType())
        state = store.initial_state()
        state, first = store.apply(state, KeyedStore.at("a", CounterType.increment()))
        state, second = store.apply(state, KeyedStore.at("b", CounterType.add(5)))
        state, third = store.apply(state, KeyedStore.at("a", CounterType.increment()))
        assert (first, second, third) == (1, 5, 2)
        assert store.lookup(state, "a") == 2
        assert store.lookup(state, "b") == 5

    def test_missing_key_reads_base_initial_state(self):
        store = KeyedStore(RegisterType())
        _, value = store.apply(store.initial_state(), KeyedStore.at("never", RegisterType.read()))
        assert value == RegisterType().initial_state()
        assert store.lookup(store.initial_state(), "never") == RegisterType().initial_state()

    def test_read_only_operator_does_not_materialize_keys(self):
        # Regression: is_read_only promises the state is unchanged, so a read
        # on an absent key must not create a phantom entry (which would make
        # keys() depend on whether/where reads executed and break the
        # pointwise-lifted Section 10.3 predicates).
        store = KeyedStore(CounterType())
        state = store.initial_state()
        same, _ = store.apply(state, KeyedStore.at("ghost", CounterType.read()))
        assert same == state
        state, _ = store.apply(state, KeyedStore.at("real", CounterType.increment()))
        after_read, _ = store.apply(state, KeyedStore.at("ghost", CounterType.read()))
        assert after_read == state
        _, keys = store.apply(after_read, KeyedStore.keys_op())
        assert keys == ("real",)

    def test_keys_operator_reports_written_keys(self):
        store = KeyedStore(CounterType())
        state = store.initial_state()
        state, _ = store.apply(state, KeyedStore.at("x", CounterType.increment()))
        state, _ = store.apply(state, KeyedStore.at("y", CounterType.add(2)))
        state, _ = store.apply(state, KeyedStore.at("z", CounterType.read()))  # no write
        same_state, keys = store.apply(state, KeyedStore.keys_op())
        assert same_state == state  # keys() is the identity on states
        assert keys == ("x", "y")

    def test_states_are_hashable_and_order_canonical(self):
        store = KeyedStore(CounterType())
        one = store.initial_state()
        for key in ("b", "a"):
            one, _ = store.apply(one, KeyedStore.at(key, CounterType.increment()))
        other = store.initial_state()
        for key in ("a", "b"):
            other, _ = store.apply(other, KeyedStore.at(key, CounterType.increment()))
        assert one == other
        assert hash(one) == hash(other)

    def test_check_operator_rejects_malformed(self):
        store = KeyedStore(CounterType())
        store.check_operator(KeyedStore.at("k", CounterType.increment()))
        store.check_operator(KeyedStore.keys_op())
        from repro.datatypes import Operator

        with pytest.raises(ValueError):
            store.check_operator(Operator("frobnicate"))
        with pytest.raises(ValueError):
            store.check_operator(Operator("at", ("only-key",)))
        with pytest.raises(ValueError):
            store.check_operator(Operator("at", (42, CounterType.increment())))
        with pytest.raises(ValueError):
            store.check_operator(Operator("at", ("k", "not-an-operator")))
        with pytest.raises(ValueError):
            # Inner operator is validated by the base type.
            store.check_operator(KeyedStore.at("k", Operator("bogus")))
        with pytest.raises(ValueError):
            store.check_operator(Operator("keys", ("extra",)))

    def test_key_of_and_inner_of(self):
        op = KeyedStore.at("shard-me", CounterType.read())
        assert KeyedStore.key_of(op) == "shard-me"
        assert KeyedStore.inner_of(op) == CounterType.read()
        assert KeyedStore.key_of(KeyedStore.keys_op()) is None
        with pytest.raises(ValueError):
            KeyedStore.inner_of(KeyedStore.keys_op())

    def test_commutativity_lifts_pointwise(self):
        store = KeyedStore(CounterType())
        inc_a = KeyedStore.at("a", CounterType.increment())
        inc_b = KeyedStore.at("b", CounterType.increment())
        double_a = KeyedStore.at("a", CounterType.double())
        read_a = KeyedStore.at("a", CounterType.read())
        # Different keys always commute and are independent.
        assert store.commute(inc_a, inc_b)
        assert store.independent(inc_a, inc_b)
        # Same key delegates to the base type.
        assert store.commute(inc_a, inc_a)
        assert not store.commute(inc_a, double_a)
        assert not store.oblivious(read_a, inc_a)
        assert store.is_read_only(read_a)
        assert not store.is_read_only(inc_a)
        assert store.is_read_only(KeyedStore.keys_op())
        # keys() state-commutes with writes but is not oblivious to them.
        assert store.commute(KeyedStore.keys_op(), inc_a)
        assert not store.oblivious(KeyedStore.keys_op(), inc_a)
        assert store.oblivious(KeyedStore.keys_op(), read_a)
        assert store.oblivious(inc_a, KeyedStore.keys_op())

    def test_outcome_matches_per_key_replay(self):
        store = KeyedStore(GSetType())
        operators = [
            KeyedStore.at("evens", GSetType.insert(2)),
            KeyedStore.at("odds", GSetType.insert(1)),
            KeyedStore.at("evens", GSetType.insert(4)),
        ]
        state = store.outcome(operators)
        assert store.lookup(state, "evens") == GSetType().outcome(
            [GSetType.insert(2), GSetType.insert(4)]
        )
        assert store.lookup(state, "odds") == GSetType().outcome([GSetType.insert(1)])


def sort_based_apply(store, state, operator):
    """The reference ``KeyedStore.apply`` splices against: rebuild the whole
    mapping and re-sort it on every write."""
    if operator.name == "keys":
        return state, tuple(key for key, _sub in state)
    key, inner = operator.args
    mapping = dict(state)
    sub_state = mapping.get(key, store.base.initial_state())
    new_sub, value = store.base.apply(sub_state, inner)
    if new_sub == sub_state:
        return state, value
    mapping[key] = new_sub
    return tuple(sorted(mapping.items(), key=lambda item: item[0])), value


keyed_keys = st.sampled_from(["", "a", "ab", "abc", "b", "k10", "k2", "é", "~"])
counter_operators = st.one_of(
    st.builds(CounterType.add, st.integers(min_value=-3, max_value=3)),
    st.just(CounterType.increment()),
    st.just(CounterType.double()),
    st.just(CounterType.read()),
)
# Register values of mixed types: sub-states are never compared by the splice.
register_operators = st.one_of(
    st.builds(RegisterType.write, st.one_of(st.none(), st.integers(), st.text(max_size=2))),
    st.just(RegisterType.read()),
)


def keyed_sequences(inner):
    return st.lists(
        st.one_of(st.builds(KeyedStore.at, keyed_keys, inner), st.just(KeyedStore.keys_op())),
        max_size=40,
    )


class TestKeyedStoreSplice:
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just(CounterType()), keyed_sequences(counter_operators)),
            st.tuples(st.just(RegisterType()), keyed_sequences(register_operators)),
        )
    )
    def test_splice_matches_sort_based_reference(self, case):
        base, operators = case
        store = KeyedStore(base)
        state = reference = store.initial_state()
        for operator in operators:
            state, value = store.apply(state, operator)
            reference, expected = sort_based_apply(store, reference, operator)
            assert value == expected
            assert state == reference
            assert hash(state) == hash(reference)
            assert [key for key, _sub in state] == sorted({key for key, _sub in state})


class TestShardRouter:
    def test_routing_is_deterministic_and_total(self):
        router = ShardRouter.for_count(4)
        again = ShardRouter.for_count(4)
        keys = [f"user:{i}" for i in range(500)]
        assert [router.shard_for(k) for k in keys] == [again.shard_for(k) for k in keys]
        assert set(router.spread(keys)) == set(router.shard_ids)

    def test_stable_hash_is_process_independent(self):
        # Pinned value: must never depend on PYTHONHASHSEED.
        assert stable_hash("k0") == stable_hash("k0")
        assert stable_hash("k0") != stable_hash("k1")

    def test_spread_is_reasonably_balanced(self):
        router = ShardRouter.for_count(4)
        counts = router.spread(f"k{i}" for i in range(2000))
        mean = 2000 / 4
        assert all(0.5 * mean <= count <= 1.5 * mean for count in counts.values())

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        # The consistent-hashing contract: going from n to n+1 shards
        # relocates roughly 1/(n+1) of the keyspace, not all of it.
        three = ShardRouter.for_count(3)
        four = ShardRouter.for_count(4)
        keys = [f"k{i}" for i in range(1000)]
        moved = sum(1 for k in keys if three.shard_for(k) != four.shard_for(k))
        assert moved < 500
        # Keys that stay put keep their shard identity.
        stayed = [k for k in keys if four.shard_for(k) in three.shard_ids]
        assert any(three.shard_for(k) == four.shard_for(k) for k in stayed)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardRouter([])
        with pytest.raises(ConfigurationError):
            ShardRouter(["s0", "s0"])
        with pytest.raises(ConfigurationError):
            ShardRouter(["s0"], virtual_nodes=0)
        with pytest.raises(ConfigurationError):
            ShardRouter.for_count(0)
        assert len(ShardRouter.for_count(1)) == 1
