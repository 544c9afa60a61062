"""Irreducible characters of abelian groups and exact root-of-unity sums.

Character sums live in Z[zeta_N], N the group exponent, as integer
coefficient vectors indexed by powers of zeta_N, and integrality is decided
exactly, never by comparing floats.  The package runs `character_matrix`;
the public `cyclotomic_polynomial` serves `CycloValue.residue`.
`CycloValue` (exact arithmetic modulo x^N - 1), `Root`, `eval_character`
and `char_sum` are the tests' referees, one value at a time; the package
does not export them, and they stay in this module because the benchmark
tracer names them here.  The tables of the exponent N that the package
reads, the CRT column order and the roots of unity, are the group's
(AbelianGroup._crt_order and _roots).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError
from .groups import MAX_ORDER, AbelianGroup, Element, _prime_factors, integer


def cyclotomic_polynomial(n) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    n is read through groups.integer and must lie in [1, MAX_ORDER], which
    bounds every group exponent.  For n > 1, Phi_n is the Moebius product of
    (1 - x^(n/e))^mu(e) over the squarefree e | n, computed on an int64 array
    as a power series cut at the degree phi(n): multiplying by 1 - x^d is a
    shift and a subtraction, dividing by it a running sum along each residue
    class modulo d.  No value can overflow: n <= 1024 has w <= 4 distinct
    primes.  The 2^(w-1) products, by binomials of two terms, come first, so
    no value exceeds 2^(2^(w-1)).  Each of the 2^(w-1) divisions, by
    1 - x^(n/e), sums at most e + 1 values and multiplies the bound by
    e + 1 <= 2e; each prime divides 2^(w-2) of those e, so the bound ends at
    2^(2^w) rad(n)^(2^(w-2)) < 2^56 (at 2 (p + 1) for w = 1).
    Memoized, for CycloValue.residue reduces modulo Phi_N value by value.
    """
    try:
        n = integer(n)
    except TypeError as exc:
        raise ValidationError(f"cyclotomic polynomial index must be an integer, got {n!r}") from exc
    if not 1 <= n <= MAX_ORDER:
        raise ValidationError(f"cyclotomic polynomial index must be >= 1 and <= {MAX_ORDER}, got {n}")
    return _cyclotomic(n)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    # cached apart from cyclotomic_polynomial, so True or 2.0 never reads the entry of 1 or 2
    if n == 1:  # x - 1, minus the product 1 - x
        return (-1, 1)
    primes = _prime_factors(n)
    degree = n * math.prod(p - 1 for p in primes) // math.prod(primes)
    divisors = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of n
    for p in primes:
        divisors += [(e * p, -mu) for e, mu in divisors]
    poly = np.zeros(degree + 1, dtype=np.int64)
    poly[0] = 1
    for e, mu in sorted(divisors, key=lambda pair: -pair[1]):  # the products first
        d = n // e
        if d > degree:  # 1 - x^d is 1 below the cut
            continue
        if mu > 0:
            poly[d:] -= poly[:-d]  # numpy reads overlapping operands as if copied first
        else:
            chains = np.zeros(-(-len(poly) // d) * d, dtype=np.int64)
            chains[: len(poly)] = poly
            poly = chains.reshape(-1, d).cumsum(axis=0).ravel()[: len(poly)]
    return tuple(poly.tolist())


def _reduce_mod(coeffs: Iterable[int], den: tuple[int, ...]) -> tuple[int, ...]:
    # remainder of coeffs modulo the monic polynomial den
    rem = list(coeffs)
    dn = len(den) - 1
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(dn):
                rem[i - dn + j] -= c * den[j]
    return tuple(rem[:dn])


class CycloValue:
    """Exact element of Z[zeta_N]: coeffs[j] multiplies exp(2*pi*i*j/N)."""

    __slots__ = ("order", "coeffs", "_approx")

    def __init__(self, order: int, coeffs: Iterable[int]) -> None:
        order = int(order)
        if order < 1:
            raise ValidationError("root-of-unity order must be >= 1")
        if isinstance(coeffs, np.ndarray) and coeffs.dtype.kind in "iu":
            coeffs = tuple(coeffs.tolist())  # Python ints, without a per-element call
        else:
            coeffs = tuple(map(int, coeffs))
        if len(coeffs) != order:
            raise ValidationError(f"expected {order} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs
        self._approx: complex | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycloValue":
        return cls(order, (0,) * order)

    @classmethod
    def from_integer(cls, value: int, order: int) -> "CycloValue":
        coeffs = [0] * order
        coeffs[0] = int(value)
        return cls(order, coeffs)

    @classmethod
    def root(cls, numerator: int, order: int) -> "CycloValue":
        coeffs = [0] * order
        coeffs[int(numerator) % order] = 1
        return cls(order, coeffs)

    # -- basics ---------------------------------------------------------------

    @property
    def approx(self) -> complex:
        if self._approx is None:
            n = self.order
            self._approx = sum(c * cmath.exp(2j * math.pi * j / n) for j, c in enumerate(self.coeffs) if c) + 0j
        return self._approx

    def _coerce(self, other) -> "CycloValue":
        if isinstance(other, int):
            return CycloValue.from_integer(other, self.order)
        if isinstance(other, CycloValue):
            if other.order != self.order:
                raise ValidationError(
                    f"mixed root-of-unity orders {self.order} and {other.order}"
                )
            return other
        return NotImplemented

    def __add__(self, other) -> "CycloValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloValue(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycloValue":
        return CycloValue(self.order, (-c for c in self.coeffs))

    def __sub__(self, other) -> "CycloValue":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloValue(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "CycloValue":
        if isinstance(other, int):
            return CycloValue(self.order, (other * c for c in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return CycloValue(n, out)

    __rmul__ = __mul__

    def conj(self) -> "CycloValue":
        n = self.order
        return CycloValue(n, (self.coeffs[(-j) % n] for j in range(n)))

    def abs_squared(self) -> "CycloValue":
        return self * self.conj()

    # -- exact decisions ------------------------------------------------------

    def residue(self) -> tuple[int, ...]:
        """Remainder of the coefficient polynomial modulo Phi_N."""
        return _reduce_mod(self.coeffs, cyclotomic_polynomial(self.order))

    def is_zero(self) -> bool:
        return not any(self.residue())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, CycloValue)):
            coerced = self._coerce(other)
            return (self - coerced).is_zero()
        return NotImplemented

    def as_integer(self) -> int | None:
        """The exact integer value, or None if the value is irrational.

        The powers zeta_N^0 .. zeta_N^{phi(N)-1} are a Q-basis of Q(zeta_N),
        so the value is rational iff its residue modulo Phi_N is constant;
        being an algebraic integer, a rational value is that integer constant.
        """
        res = self.residue()
        if any(res[1:]):
            return None
        return res[0]

    def __repr__(self) -> str:
        return f"CycloValue(order={self.order}, coeffs={list(self.coeffs)})"

    def to_json(self) -> dict:
        """The nonzero terms, value = sum of coefficients[k] * zeta_N^exponents[k], and the float."""
        a = self.approx
        exponents = [j for j, c in enumerate(self.coeffs) if c]
        coefficients = [self.coeffs[j] for j in exponents]
        return {"N": self.order, "exponents": exponents, "coefficients": coefficients, "re": a.real, "im": a.imag}


class Root(NamedTuple):
    """A single N-th root of unity exp(2*pi*i*numerator/order)."""

    numerator: int
    order: int

    @property
    def value(self) -> complex:
        return cmath.exp(2j * math.pi * self.numerator / self.order)

    def as_cyclo(self) -> CycloValue:
        return CycloValue.root(self.numerator, self.order)


def eval_character(group: AbelianGroup, char_index: Element, g: Element) -> Root:
    """Value of the character indexed by char_index at the element g.

    Characters of a product of cyclic groups are indexed by the same exponent
    vectors as the elements; the value is the root of unity zeta_N^r with
    r = sum_l j_l * i_l * (N / n_l) modulo N.
    """
    chi = group.validate_element(char_index)
    g = group.validate_element(g)
    n_exp = group.exponent
    r = sum(j * i * (n_exp // n) for j, i, n in zip(chi, g, group.factors)) % n_exp
    return Root(r, n_exp)


def char_sum(group: AbelianGroup, char_index: Element, subset: Iterable[Element]) -> CycloValue:
    """Exact character sum over a subset; the empty subset sums to zero.

    The coefficient of zeta_N^r counts the subset elements where the
    character takes the value zeta_N^r: a bincount of one row of the group's
    character-exponent table.
    """
    row = group.exponent_rows([group.index(char_index)])[0][group.index_array(group.subset(subset))]
    return CycloValue(group.exponent, np.bincount(row, minlength=group.exponent))


def character_matrix(group: AbelianGroup) -> np.ndarray:
    """Complex matrix W with W[i, r] = (character i)(element r).

    Rows and columns both follow the group enumeration order; row 0 is the
    trivial character.
    """
    return np.exp(2j * np.pi * group.char_exponents / group.exponent)
