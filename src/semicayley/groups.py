"""Finite abelian groups given as explicit products of cyclic factors.

Elements are exponent vectors (tuples of ints), one entry per cyclic factor.
Element i of the enumeration has mixed-radix digits coords[i] in the factors,
so element <-> index is arithmetic and whole-group loops run on integer
arrays.  Groups are immutable (the index tables are built on first use and
are read-only), every function is pure, and groups, elements and subsets can
be shared freely across threads.

AbelianGroup(factors) returns one shared instance per factor tuple, so the
tables that depend on the group alone (elements, coords, inverses, element
orders, rational classes, the exponent table) are built once per group, not
once per spec.  The instances are kept in a cache, under a lock, that drops
the least recently used groups while the cached groups hold more than
MAX_ORDER^2 table entries (order x (order + factors) each): together no more
than the one exponent table of a group at the maximum order, 8 MB.  An
evicted group that is still referenced stays valid, and the next
AbelianGroup(factors) builds an equal one.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from functools import cached_property
from itertools import accumulate, product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

Element = tuple[int, ...]


# largest group order accepted: the package's dense tables are sized for
# 2n <= ~2000 (the character-exponent table, order^2 int64, is 8 MB at 1024;
# pst-find's deciders, full-matrix evolve and the spectra of groups with many
# rational classes build it), so larger orders are refused before anything
# order-sized is built
MAX_ORDER = 1024


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


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
    above MAX_ORDER are rejected.  AbelianGroup(factors) returns the one
    shared instance of its factor tuple while that is cached (see the
    module docstring).
    """

    factors: tuple[int, ...]
    order: int
    exponent: int
    identity: Element
    strides: tuple[int, ...]
    _elements: list[Element]

    def __new__(cls, factors: Sequence[int]) -> "AbelianGroup":
        # validated before the lookup: True == 1 and 2.0 == 2 hash alike
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
        global _cached_entries
        with _cache_lock:
            group = _cache.get(factors)
            if group is not None:
                _cache.move_to_end(factors)
                return group
            group = super().__new__(cls)
            group.factors = factors
            group.order = order
            group.exponent = math.lcm(*factors)
            group.identity = (0,) * len(factors)
            group.strides = tuple(accumulate(reversed(factors[1:]), operator.mul, initial=1))[::-1]
            group._elements = [tuple(v) for v in product(*(range(n) for n in factors))]
            _cache[factors] = group
            _cached_entries += _entries(group)
            while _cached_entries > MAX_ORDER**2 and len(_cache) > 1:
                _cached_entries -= _entries(_cache.popitem(last=False)[1])
            return group

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, which returns
        # the shared instance; no state is restored onto it
        return AbelianGroup, (self.factors,)

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
        return _read_only(np.array(self._elements, dtype=np.int64))

    @cached_property
    def char_exponents(self) -> np.ndarray:
        """order x order int64 table E with chi_i(g_j) = zeta_N^E[i, j], N the exponent.

        E[i, j] = sum_l i_l * j_l * (N / n_l) modulo N; rows index characters,
        columns elements, both in enumeration order, and E is symmetric.
        Built by exponent_rows when more than half the rows are asked for:
        by pst-find's deciders, the full character matrix (transfer_rows,
        transfer_matrix, scan_pair) and the spectrum of a group with more
        rational classes than half its order (every group of exponent 2).
        Other spectra, periods and single entries read rows at a few
        characters and never build it.
        """
        return _read_only(self._exponent_rows(np.arange(self.order)))

    def exponent_rows(self, chars: np.ndarray) -> np.ndarray:
        """Rows chars of char_exponents, for an array of distinct character indices.

        Taken from the table when it is built; asking for more than half the
        rows builds it, at most twice their cost, and keeps it for the next
        reader.  Fewer rows are computed from coords alone, so the rows at a
        few characters cost len(chars) x order, not order^2.
        """
        if 2 * len(chars) <= self.order and "char_exponents" not in self.__dict__:
            return self._exponent_rows(chars)
        return self.char_exponents[chars]

    def _exponent_rows(self, chars: np.ndarray) -> np.ndarray:
        # E[chars] from the exponent vectors of the characters and of the elements
        n_exp = self.exponent
        scale = np.array([n_exp // n for n in self.factors], dtype=np.int64)
        return (self.coords[chars] * scale) @ self.coords.T % n_exp

    def add_indices(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Index of g_i * g_j for index arrays i and j (broadcast together).

        i + j adds the digits factor by factor; a digit sum is below 2n, so
        where it reaches n the factor wraps once, and n * stride comes off.
        """
        out = np.add(i, j, dtype=np.int64)
        for l, (n, stride) in enumerate(zip(self.factors, self.strides)):
            if n > 1:
                out -= (self.coords[i, l] + self.coords[j, l] >= n) * (n * stride)
        return out

    def power_indices(self, i: np.ndarray, k) -> np.ndarray:
        """Index of g_i^k, shaped k.shape + i.shape, for an index array i and integers k (-1: inverses)."""
        return (np.multiply.outer(k, self.coords[i]) % np.array(self.factors)) @ np.array(self.strides)

    def orders(self, i: np.ndarray) -> np.ndarray:
        """Order of g_i for an index array i."""
        return self._orders[i]

    @cached_property
    def _orders(self) -> np.ndarray:
        # the order of every element, read-only: the lcm over the factors of n / gcd(n, x)
        factors = np.array(self.factors, dtype=np.int64)
        return _read_only(np.lcm.reduce(factors // np.gcd(factors, self.coords), axis=-1))

    @cached_property
    def _inverses(self) -> np.ndarray:
        # the index of g_i^-1 for every i, read-only
        return _read_only(self.power_indices(np.arange(self.order), -1))

    @cached_property
    def _classes(self) -> _Classes:
        # the rational classes of the characters (see _rational_classes), read-only
        return _Classes(*map(_read_only, _rational_classes(self)))

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


# the shared groups by factor tuple, least recently used first, and the
# table entries they hold (see the module docstring)
_cache: OrderedDict[tuple[int, ...], AbelianGroup] = OrderedDict()
_cache_lock = threading.Lock()
_cached_entries = 0


def _entries(group: AbelianGroup) -> int:
    # the entries of a group's order x order and order x factors tables
    return group.order * (group.order + len(group.factors))


def subset_to_json(xs: Iterable[Element]) -> list[list[int]]:
    """Sorted list-of-lists form, stable for byte-identical reports."""
    return [list(g) for g in sorted(xs)]


# _rational_classes sieves from phi(N) = _SIEVE_UNITS on (see there)
_SIEVE_UNITS = 64


class _Classes(NamedTuple):
    # the rational classes {chi^k : gcd(k, N) = 1} of a group's characters
    rep: np.ndarray  # per character chi_i, the least index of its class
    power: np.ndarray  # per character, the unit k with chi_rep^k = chi_i whose inverse is least
    reps: np.ndarray  # the representatives in index order
    slot: np.ndarray  # per character, its representative's position among them


def _rational_classes(group: AbelianGroup) -> _Classes:
    # inverses[j] is the inverse of the j-th unit, so it lists the units by
    # increasing inverse
    n, order = group.order, group.exponent
    units = [k for k in range(order) if math.gcd(k, order) == 1]  # [0] for N = 1
    inverses = np.array([pow(k, -1, order) for k in units], dtype=np.int64)
    # The argmin builds a phi(N) x n table, at some 30 ns an entry; the sieve
    # makes one pass of some 30 us per class, and a class has at most phi(N)
    # members, so there are at least n / phi(N) classes.  The sieve can only
    # win where phi(N)^2 > 1000, and it wins from phi(N) = 64 on (Z_1024,
    # Z_2 x Z_512, Z_4 x Z_256, Z_3 x Z_5 x Z_7 x Z_9, Z_1000: 3-15x).
    # Below, the argmin is faster: by 3-30x on Z_32^2, Z_2^10, Z_2^8 and
    # Z_2^4 x Z_4^2, and by 2-5x on the groups of order <= 12.  n <= 1024, so
    # the sieve sees n / phi(N) <= 16
    if len(units) < _SIEVE_UNITS:
        powers = group.power_indices(np.arange(n), np.array(units))
        class_rep, class_power = powers.min(axis=0), inverses[powers.argmin(axis=0)]
        reps = np.flatnonzero(class_rep == np.arange(n))
        return _Classes(class_rep, class_power, reps, np.searchsorted(reps, class_rep))
    # the least unassigned index is a representative, and its orbit chi_rep^k
    # over the units by increasing inverse gives each member, at its first
    # occurrence, the k whose inverse is least
    class_rep, class_power, slot = np.full(n, -1), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    reps = []
    rep = 0
    while rep < n:
        members, first = np.unique(group.power_indices(rep, inverses), return_index=True)
        class_rep[members], class_power[members], slot[members] = rep, inverses[first], len(reps)
        reps.append(rep)
        unassigned = np.flatnonzero(class_rep[rep:] < 0)
        rep += int(unassigned[0]) if len(unassigned) else n
    return _Classes(class_rep, class_power, np.array(reps), slot)
