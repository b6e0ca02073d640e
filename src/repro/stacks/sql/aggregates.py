"""Partial-aggregation state machines shared by all three SQL executors.

Grouped aggregation decomposes into init / update / merge / finalize so
that the Hive compiler can run combiners (partial aggregates on the map
side) and the Shark compiler can reduceByKey over partial states, while
the in-memory interpreter uses the same code for reference semantics.
SUM and AVG totals are exact, so no merge order can change a result.
"""

from __future__ import annotations

from repro.errors import StackExecutionError
from repro.stacks.sql.plan import AggFunc

__all__ = ["init_state", "update_state", "merge_states", "finalize_state"]


class _Units(int):
    """A float total held exactly, as a count of ``2**-1074`` (every finite
    float is a whole number of them).  It is an ``int`` so a shuffled state
    sizes as the float did; a plain ``int`` total is an int column's sum."""

    __slots__ = ()


def _units(value) -> int:
    if isinstance(value, float):
        numerator, denominator = value.as_integer_ratio()
        return numerator << (1075 - denominator.bit_length())
    return value if isinstance(value, _Units) else int(value) << 1074


def _add(total, value):
    if isinstance(total, _Units) or isinstance(value, (float, _Units)):
        return _Units(_units(total) + _units(value))
    return total + value


def init_state(func: AggFunc):
    """Identity element of ``func``'s partial state."""
    if func in (AggFunc.COUNT, AggFunc.SUM):
        return 0
    if func is AggFunc.AVG:
        return (0, 0)
    if func in (AggFunc.MIN, AggFunc.MAX):
        return None
    raise StackExecutionError(f"unknown aggregate function: {func}")


def update_state(func: AggFunc, state, value):
    """Fold one input ``value`` into ``state``."""
    if func is AggFunc.COUNT:
        return state + 1
    return merge_states(func, state, (value, 1) if func is AggFunc.AVG else value)


def merge_states(func: AggFunc, left, right):
    """Combine two partial states (combiner / reduceByKey step)."""
    if func is AggFunc.COUNT:
        return left + right
    if func is AggFunc.SUM:
        return _add(left, right)
    if func is AggFunc.AVG:
        return (_add(left[0], right[0]), left[1] + right[1])
    if func in (AggFunc.MIN, AggFunc.MAX):
        if left is None or right is None:
            return right if left is None else left
        return min(left, right) if func is AggFunc.MIN else max(left, right)
    raise StackExecutionError(f"unknown aggregate function: {func}")


def finalize_state(func: AggFunc, state):
    """Produce the output value, rounding an exact float total once."""
    if func is AggFunc.AVG:
        total, count = state
        scale = count << 1074 if isinstance(total, _Units) else count
        return total / scale if count else 0.0
    return state / (1 << 1074) if isinstance(state, _Units) else state
