"""Finite abelian groups given as explicit products of cyclic factors.

Elements are exponent vectors (tuples of ints), one entry per cyclic factor.
Element i of the enumeration has mixed-radix digits coords[i] in the factors,
so element <-> index is arithmetic and whole-group loops run on integer
arrays.  Groups are immutable (the index tables are built on first use and
are read-only), every function is pure, and groups, elements and subsets can
be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import accumulate, product
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

Element = tuple[int, ...]


# largest group order accepted: the package's dense tables are sized for
# 2n <= ~2000 (the character-exponent table alone is order^2 int64, 8 MB at
# 1024), so larger orders are refused before anything order-sized is built
MAX_ORDER = 1024


def integer(x) -> int:
    """operator.index(x), refusing bool: JSON's true and false are not integers."""
    if isinstance(x, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(x)


class AbelianGroup:
    """Direct product Z_{n_1} x ... x Z_{n_k} with exponent-vector elements.

    The factor list is kept exactly as the user presented it (no invariant
    factor normalisation), and elements enumerate in lexicographic order on
    exponent vectors.  That fixed order is part of the public contract:
    adjacency matrices built from it are reproducible bit for bit.  Orders
    above MAX_ORDER are rejected.
    """

    def __init__(self, factors: Sequence[int]) -> None:
        try:
            factors = tuple(map(integer, factors))
        except TypeError as exc:
            raise ValidationError(f"cyclic factor sizes must be integers, got {factors!r}") from exc
        if not factors:
            raise ValidationError("a group needs at least one cyclic factor")
        if any(n < 1 for n in factors):
            raise ValidationError(f"cyclic factor sizes must be >= 1, got {list(factors)}")
        order = math.prod(factors)
        if order > MAX_ORDER:
            raise ValidationError(f"group order {order} exceeds the supported maximum {MAX_ORDER}")
        self.factors: tuple[int, ...] = factors
        self.order: int = order
        self.exponent: int = math.lcm(*factors)
        self.identity: Element = (0,) * len(factors)
        self.strides: tuple[int, ...] = tuple(accumulate(reversed(factors[1:]), operator.mul, initial=1))[::-1]
        self._elements: list[Element] = [tuple(v) for v in product(*(range(n) for n in factors))]

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.factors)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    # -- elements ----------------------------------------------------------

    def elements(self) -> list[Element]:
        """All elements in the fixed lexicographic enumeration order."""
        return list(self._elements)

    def element(self, i: int) -> Element:
        return self._elements[i]

    def index(self, g: Element) -> int:
        return self._index(self.validate_element(g))

    def _index(self, g: Element) -> int:
        # index of an already validated element
        return sum(x * s for x, s in zip(g, self.strides))

    def index_array(self, xs: frozenset[Element]) -> np.ndarray:
        """Sorted enumeration indices of an already validated set of elements."""
        return np.sort(np.array(list(xs), dtype=np.int64).reshape(len(xs), len(self.factors)) @ np.array(self.strides))

    def validate_element(self, g: Iterable[int]) -> Element:
        try:
            g = tuple(map(integer, g))
        except TypeError as exc:
            raise ValidationError(f"element {g!r} must be a list of integer exponents") from exc
        if len(g) != len(self.factors):
            raise ValidationError(
                f"element {list(g)} has {len(g)} coordinates, group has {len(self.factors)} factors"
            )
        if any(not 0 <= x < n for x, n in zip(g, self.factors)):
            raise ValidationError(f"element {list(g)} out of range for factors {list(self.factors)}")
        return g

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a: Element, b: Element) -> Element:
        a = self.validate_element(a)
        b = self.validate_element(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def inverse(self, a: Element) -> Element:
        a = self.validate_element(a)
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def element_order(self, a: Element) -> int:
        """Least m >= 1 with a^m = identity."""
        a = self.validate_element(a)
        return math.lcm(*(n // math.gcd(n, x) for x, n in zip(a, self.factors)))

    # -- index tables ----------------------------------------------------------

    @cached_property
    def coords(self) -> np.ndarray:
        """order x factors int64 array: row i is the exponent vector of element i."""
        coords = np.array(self._elements, dtype=np.int64)
        coords.flags.writeable = False
        return coords

    @cached_property
    def char_exponents(self) -> np.ndarray:
        """order x order int64 table E with chi_i(g_j) = zeta_N^E[i, j], N the exponent.

        E[i, j] = sum_l i_l * j_l * (N / n_l) modulo N; rows index characters,
        columns elements, both in enumeration order.
        """
        n_exp = self.exponent
        scale = np.array([n_exp // n for n in self.factors], dtype=np.int64)
        table = (self.coords * scale) @ self.coords.T % n_exp
        table.flags.writeable = False
        return table

    def add_indices(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Index of g_i * g_j for index arrays i and j (broadcast together)."""
        out = np.zeros(np.broadcast_shapes(np.shape(i), np.shape(j)), dtype=np.int64)
        for l, (n, stride) in enumerate(zip(self.factors, self.strides)):
            out += (self.coords[i, l] + self.coords[j, l]) % n * stride
        return out

    def power_indices(self, i: np.ndarray, k) -> np.ndarray:
        """Index of g_i^k, shaped k.shape + i.shape, for an index array i and integers k (-1: inverses)."""
        return (np.multiply.outer(k, self.coords[i]) % np.array(self.factors)) @ np.array(self.strides)

    def orders(self, i: np.ndarray) -> np.ndarray:
        """Order of g_i for an index array i: the lcm over the factors of n / gcd(n, x)."""
        factors = np.array(self.factors, dtype=np.int64)
        return np.lcm.reduce(factors // np.gcd(factors, self.coords[i]), axis=-1)

    # -- subsets -------------------------------------------------------------

    def subset(self, elements: Iterable[Iterable[int]]) -> frozenset[Element]:
        """Validate and deduplicate a collection of elements."""
        try:  # validate_element raises no TypeError, so this one is the collection's
            return frozenset(self.validate_element(g) for g in elements)
        except TypeError as exc:
            raise ValidationError(f"a subset must be a list of elements, got {elements!r}") from exc

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, obj: dict) -> "AbelianGroup":
        if not isinstance(obj, dict) or "factors" not in obj:
            raise ValidationError('group JSON must be {"factors": [...]}')
        return cls(obj["factors"])


def subset_to_json(xs: Iterable[Element]) -> list[list[int]]:
    """Sorted list-of-lists form, stable for byte-identical reports."""
    return [list(g) for g in sorted(xs)]
