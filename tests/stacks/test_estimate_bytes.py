"""``estimate_bytes`` must size every value exactly as the plain
``isinstance`` chain does, whatever the exact-type fast path takes."""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stacks.base import estimate_bytes


def oracle_estimate_bytes(record: object) -> int:
    """The isinstance-only implementation, kept as the reference."""
    if record is None:
        return 1
    if isinstance(record, bool):
        return 1
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, (tuple, list)):
        return 2 + sum(oracle_estimate_bytes(item) for item in record)
    if isinstance(record, dict):
        return 2 + sum(
            oracle_estimate_bytes(k) + oracle_estimate_bytes(v) for k, v in record.items()
        )
    if hasattr(record, "__dataclass_fields__"):
        return 2 + sum(
            oracle_estimate_bytes(getattr(record, name))
            for name in record.__dataclass_fields__
        )
    return 16


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Count(int):
    pass


class Row(tuple):
    pass


class Opaque:
    pass


Pair = namedtuple("Pair", "left right")


@dataclass(frozen=True)
class Box:
    first: object
    second: object


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.sampled_from(Level),
    st.text(max_size=12).map(Label),
    st.integers().map(Count),
    st.builds(Opaque),
)

VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Row),
        st.builds(Pair, children, children),
        st.builds(Box, children, children),
        st.dictionaries(st.text(max_size=6) | st.integers(), children, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_matches_isinstance_oracle(value):
    assert estimate_bytes(value) == oracle_estimate_bytes(value)


def test_subclasses_take_the_isinstance_chain():
    assert estimate_bytes(Level.HIGH) == 8
    assert estimate_bytes(True) == 1
    assert estimate_bytes(Label("abc")) == 4
    assert estimate_bytes(Pair("a", 1)) == 2 + 2 + 8
    assert estimate_bytes(Box(None, Opaque())) == 2 + 1 + 16
