"""Direct tests of the shared partial-aggregation state machines."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StackExecutionError
from repro.stacks.sql.aggregates import (
    finalize_state,
    init_state,
    merge_states,
    update_state,
)
from repro.stacks.sql.plan import AggFunc

_VALUES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


def _fold(func: AggFunc, values):
    state = init_state(func)
    for value in values:
        state = update_state(func, state, value)
    return state


class TestSemantics:
    def test_count(self):
        state = _fold(AggFunc.COUNT, [10, 20, 30])
        assert finalize_state(AggFunc.COUNT, state) == 3

    def test_sum(self):
        state = _fold(AggFunc.SUM, [1.5, 2.5])
        assert finalize_state(AggFunc.SUM, state) == pytest.approx(4.0)

    def test_avg(self):
        state = _fold(AggFunc.AVG, [2.0, 4.0, 6.0])
        assert finalize_state(AggFunc.AVG, state) == pytest.approx(4.0)

    def test_avg_of_empty_state_is_zero(self):
        assert finalize_state(AggFunc.AVG, init_state(AggFunc.AVG)) == 0.0

    def test_min_max(self):
        values = [3.0, -1.0, 7.0]
        assert finalize_state(AggFunc.MIN, _fold(AggFunc.MIN, values)) == -1.0
        assert finalize_state(AggFunc.MAX, _fold(AggFunc.MAX, values)) == 7.0

    def test_min_merge_with_empty_side(self):
        empty = init_state(AggFunc.MIN)
        full = _fold(AggFunc.MIN, [5.0])
        assert merge_states(AggFunc.MIN, empty, full) == 5.0
        assert merge_states(AggFunc.MIN, full, empty) == 5.0


@pytest.mark.parametrize("func", list(AggFunc))
class TestMergeLaws:
    """Combiner correctness: merging partials must equal folding the
    concatenation — the property map-side combining relies on."""

    @given(left=_VALUES, right=_VALUES)
    def test_merge_equals_fold_of_concatenation(self, func, left, right):
        merged = merge_states(func, _fold(func, left), _fold(func, right))
        direct = _fold(func, left + right)
        assert finalize_state(func, merged) == pytest.approx(
            finalize_state(func, direct), rel=1e-9, abs=1e-9
        )

    @given(left=_VALUES, right=_VALUES)
    def test_merge_is_commutative(self, func, left, right):
        a = merge_states(func, _fold(func, left), _fold(func, right))
        b = merge_states(func, _fold(func, right), _fold(func, left))
        assert finalize_state(func, a) == pytest.approx(
            finalize_state(func, b), rel=1e-9, abs=1e-9
        )

    @given(values=_VALUES)
    def test_identity_element(self, func, values):
        state = _fold(func, values)
        with_identity = merge_states(func, state, init_state(func))
        assert finalize_state(func, with_identity) == pytest.approx(
            finalize_state(func, state), rel=1e-12, abs=1e-12
        )


_FLOAT_COLUMN = st.lists(
    st.floats(
        min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=30,
)


def _partitioned_fold(func: AggFunc, values, data):
    """Fold a shuffled column in random partitions, then merge the partial
    states in a random order — any plan a combiner or reduceByKey may take."""
    shuffled = data.draw(st.permutations(values))
    cuts = sorted(
        data.draw(st.sets(st.integers(1, max(1, len(shuffled) - 1)), max_size=5))
    )
    bounds = [0, *[c for c in cuts if c < len(shuffled)], len(shuffled)]
    states = [_fold(func, shuffled[a:b]) for a, b in zip(bounds, bounds[1:])]
    while len(states) > 1:
        i = data.draw(st.integers(0, len(states) - 2))
        states[i : i + 2] = [merge_states(func, states[i], states[i + 1])]
    return finalize_state(func, states[0])


class TestExactTotals:
    """SUM and AVG are exact, so no partition or merge order moves them."""

    @given(values=_FLOAT_COLUMN, data=st.data())
    def test_float_sum_is_fsum_under_any_merge_order(self, values, data):
        expected = math.fsum(values)
        assert finalize_state(AggFunc.SUM, _fold(AggFunc.SUM, values)) == expected
        assert _partitioned_fold(AggFunc.SUM, values, data) == expected

    @given(values=_FLOAT_COLUMN, data=st.data())
    def test_float_avg_is_the_rounded_exact_mean_under_any_merge_order(
        self, values, data
    ):
        expected = float(sum(map(Fraction, values)) / len(values))
        assert finalize_state(AggFunc.AVG, _fold(AggFunc.AVG, values)) == expected
        assert _partitioned_fold(AggFunc.AVG, values, data) == expected

    @given(
        values=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_int_sum_stays_an_int(self, values, data):
        total = _partitioned_fold(AggFunc.SUM, values, data)
        assert type(total) is int
        assert total == sum(values)
