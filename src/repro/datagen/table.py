"""Structured e-commerce transaction tables (BDGS table generator).

The ten interactive-analytics workloads of Table I run SQL-like operators
over a structured "e-commerce transaction data set".  Following the
BigDataBench schema, we generate an ``ORDER`` fact table and an
``ORDER_ITEM`` detail table with realistic skews: a Zipfian buyer
distribution (loyal customers), a Zipfian goods distribution (popular
products), and uniform-ish dates across a year.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenerationError

__all__ = ["Order", "OrderItem", "TransactionGenerator"]

_CATEGORIES = (
    "books",
    "electronics",
    "clothing",
    "grocery",
    "toys",
    "sports",
    "home",
    "beauty",
)


@dataclass(frozen=True)
class Order:
    """One row of the ORDER fact table."""

    order_id: int
    buyer_id: int
    date: int  # day-of-year, 1..365


@dataclass(frozen=True)
class OrderItem:
    """One row of the ORDER_ITEM detail table."""

    item_id: int
    order_id: int
    goods_id: int
    category: str
    quantity: int
    price: float

    @property
    def amount(self) -> float:
        """Line total."""
        return round(self.quantity * self.price, 2)


class TransactionGenerator:
    """Seeded generator of the two-table e-commerce data set."""

    def __init__(self, seed: int = 17) -> None:
        self._rng = np.random.default_rng(seed)

    def orders(self, count: int, num_buyers: int | None = None) -> list[Order]:
        """Generate ``count`` orders with a Zipf-skewed buyer distribution.

        Raises:
            DataGenerationError: On a negative count.
        """
        if count < 0:
            raise DataGenerationError("order count must be non-negative")
        if count == 0:
            return []
        rng = self._rng
        num_buyers = num_buyers or max(1, count // 5)
        u = rng.random(count)
        buyers = (num_buyers * (u**2.0)).astype(int).tolist()  # loyal-customer head
        dates = rng.integers(1, 366, size=count).tolist()
        return [
            Order(order_id=i + 1, buyer_id=buyers[i] + 1, date=dates[i])
            for i in range(count)
        ]

    def items(
        self,
        count: int,
        num_orders: int,
        num_goods: int | None = None,
        id_offset: int = 0,
    ) -> list[OrderItem]:
        """Generate ``count`` order items referencing ``num_orders`` orders.

        Args:
            count: Number of item rows.
            num_orders: Highest referenced ``order_id`` (foreign key space).
            num_goods: Distinct products (defaults to ``max(8, count // 20)``).
            id_offset: Added to ``item_id`` (lets callers generate two
                disjoint-id tables with the same schema for Union /
                Difference workloads).

        Raises:
            DataGenerationError: On non-positive ``num_orders`` or a
                negative count.
        """
        if count < 0:
            raise DataGenerationError("item count must be non-negative")
        if num_orders <= 0:
            raise DataGenerationError("num_orders must be positive")
        if count == 0:
            return []
        rng = self._rng
        num_goods = num_goods or max(8, count // 20)
        u = rng.random(count)
        goods = (num_goods * (u**2.5)).astype(int).tolist()  # popular-product head
        orders = rng.integers(1, num_orders + 1, size=count).tolist()
        quantities = rng.integers(1, 9, size=count).tolist()
        prices = np.round(rng.lognormal(mean=2.5, sigma=0.8, size=count), 2).tolist()
        return [
            OrderItem(
                item_id=id_offset + i + 1,
                order_id=orders[i],
                goods_id=goods[i] + 1,
                category=_CATEGORIES[(goods[i] + 1) % len(_CATEGORIES)],
                quantity=quantities[i],
                price=max(0.5, prices[i]),
            )
            for i in range(count)
        ]
