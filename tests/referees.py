"""Independent referees that only the tests call.

Each is a second way to compute something the package computes on index
arrays or through the character formula, kept here so that the tests can
compare the two: the R = L block formula for H(t), the 2-adic valuation of
a rational, inverse closure by the group's tuple law, the vertex list in
enumeration order, cyclotomic polynomials by exact division, the rational
classes of characters by an argmin over all unit powers, integrality in
Z[zeta_N] by the table of x^j modulo Phi_N and one float64 product, and the
comparison of two spectra field by field.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from semicayley import AbelianGroup, ConsistencyError, SemiCayleySpec, Spectrum, ValidationError, Vertex
from semicayley.characters import _prime_factors, cyclotomic_polynomial
from semicayley.graphs import cay_adjacency
from semicayley.groups import Element


def _matrix_cos_sinc(gram: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    # cos(t sqrt(M)) and the series sum_k (-it)^{2k+1} M^k / (2k+1)! for M = C C^T;
    # the sinc form handles singular M (the closed inverse-sqrt form would not).
    vals, vecs = np.linalg.eigh(gram)
    vals = np.clip(vals, 0.0, None)
    roots = np.sqrt(vals)
    cos_part = (vecs * np.cos(t * roots)) @ vecs.T
    small = roots < 1e-9
    sinc = np.where(small, -1j * t, -1j * np.sin(t * np.where(small, 1.0, roots)) / np.where(small, 1.0, roots))
    sin_part = (vecs * sinc) @ vecs.T
    return cos_part, sin_part


def block_transfer_rl(spec: SemiCayleySpec, t: float) -> np.ndarray:
    """H(t) by the R = L block formula.

    Writing A = I_2 (x) B + (P (x) C + Q (x) C^T) and using that B, C, C^T
    commute over an abelian group, exp(-itA) factors as (I_2 (x) H_B(t))
    times exp of the spoke part, whose even/odd series give cos(t sqrt(CC^T))
    and the sinc factor; H_B(t) multiplies all four blocks.  Requires R = L.
    """
    if spec.R != spec.L:
        raise ValidationError("block transfer formula requires R = L")
    layer = cay_adjacency(spec.group, spec.R).astype(float)
    spokes = cay_adjacency(spec.group, spec.S).astype(float)
    vals, vecs = np.linalg.eigh(layer)
    h_layer = (vecs * np.exp(-1j * vals * t)) @ vecs.T
    cos_part, sinc_part = _matrix_cos_sinc(spokes @ spokes.T, t)
    return np.block(
        [
            [h_layer @ cos_part, h_layer @ spokes @ sinc_part],
            [h_layer @ spokes.T @ sinc_part, h_layer @ cos_part],
        ]
    )


def nu2(q) -> int | float:
    """Exact 2-adic valuation of a rational; zero maps to +infinity."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    # the lowest set bit of n is 2^nu2(n), negative n included
    return (q.numerator & -q.numerator).bit_length() - (q.denominator & -q.denominator).bit_length()


def is_inverse_closed(group: AbelianGroup, xs: Iterable[Element]) -> bool:
    """Inverse closure by the group's tuple law."""
    xs = group.subset(xs)
    return xs == frozenset(group.inverse(g) for g in xs)


def vertices(spec: SemiCayleySpec) -> list[Vertex]:
    """Layer-0 vertices in group enumeration order, then layer 1."""
    elems = spec.group.elements()
    return [Vertex(g, 0) for g in elems] + [Vertex(g, 1) for g in elems]


@lru_cache(maxsize=None)
def cyclotomic_by_division(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by exact integer division of x^n - 1 by Phi_d over the proper
    divisors d of n; memoized because callers reduce modulo Phi_N often.
    """
    if n < 1:
        raise ValidationError("cyclotomic polynomial index must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = exact_polydiv(poly, cyclotomic_by_division(d))
    return tuple(poly)


def exact_polydiv(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den must be monic and divide num exactly
    num = list(num)
    dn = len(den) - 1
    qn = len(num) - 1 - dn
    quot = [0] * (qn + 1)
    for i in range(qn, -1, -1):
        c = num[i + dn]
        quot[i] = c
        if c:
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    if any(num):
        raise ValidationError("polynomial division left a remainder")
    return quot


def rational_classes_by_argmin(group: AbelianGroup) -> tuple[np.ndarray, ...]:
    """class_rep, class_power, the representatives and each character's slot among them.

    Builds the phi(N) x n table of every unit power of every character and
    takes its argmin over the units.
    """
    order = group.exponent
    units = [k for k in range(1, order + 1) if math.gcd(k, order) == 1]
    powers = group.power_indices(np.arange(group.order), np.array(units))
    # the argmin u has chi_i^u = chi_rep, so k is the inverse of u modulo N
    inverses = np.array([pow(k, -1, order) for k in units], dtype=np.int64)
    class_rep, class_power = powers.min(axis=0), inverses[powers.argmin(axis=0)]
    reps = np.flatnonzero(class_rep == np.arange(group.order))
    return class_rep, class_power, reps, np.searchsorted(reps, class_rep)


def same_spectrum(a: Spectrum, b: Spectrum) -> bool:
    """Equal public fields and equal float halves, the floats computed on both sides if need be."""
    assert isinstance(a, Spectrum) and isinstance(b, Spectrum)
    names = [f.name for f in dataclasses.fields(a) if not f.name.startswith("_")]
    return (all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)
            and all(map(np.array_equal, a._floats, b._floats)))


@lru_cache(maxsize=None)
def residue_table(order: int) -> np.ndarray:
    """N x phi(N) table T whose row j holds the residue of x^j modulo Phi_N.

    A coefficient row c over zeta_N has the residue c @ T, so one product
    reduces any number of rows.  Phi_N(x) = Phi_r(x^m) for r = rad(N) and
    m = N / r, and x^(q m + s) = x^s (x^m)^q with s < m reduces to x^s times
    row q of T_r in the powers x^m, so T_N = kron(T_r, I_m), from the cached
    T_r: for N = 2^k it is [I; -I].  Only a squarefree N keeps the row
    recurrence.  Stored as int8 when it fits (every N <= 1024 has
    max|T| <= 5), so a cached table costs N phi(N) bytes.
    """
    rad = math.prod(_prime_factors(order))
    if rad < order:
        table = residue_table(rad)
        table = np.kron(table, np.eye(order // rad, dtype=table.dtype))
    else:  # row j follows from row j - 1 by a shift and one subtraction of Phi_N, which is monic
        poly = np.array(cyclotomic_polynomial(order)[:-1], dtype=np.int64)
        table = np.zeros((order, len(poly)), dtype=np.int64)
        np.fill_diagonal(table, 1)  # rows 0 .. phi(N) - 1
        for j in range(len(poly), order):
            table[j, 1:] = table[j - 1, :-1]
            table[j] -= table[j - 1, -1] * poly
        if np.abs(table).max() <= 127:
            table = table.astype(np.int8)
    table.flags.writeable = False
    return table


def certify_by_table(rows: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Which coefficient rows over zeta_N are rational integers, and their values.

    Row c has the residue c @ T modulo Phi_N, T = residue_table(N).  The
    powers zeta_N^0 .. zeta_N^(phi(N)-1) are a Q-basis of Q(zeta_N), so the
    value is rational iff the residue is (v, 0, ..., 0), and then, being an
    algebraic integer, it is the integer v.  Every row goes through one
    float64 product, which is exact while no partial sum reaches 2^53: each
    is at most the row's L1 norm times max|T|.  max|T| <= 5 for every
    N <= 1024, and the rows of spectrum have L1 norm at most 8 n^2 (disc, a
    sum of (|R| + |L|)^2 + 4 |S|^2 roots), so every sum stays below 4.2e7;
    a product whose rows could pass 2^53 raises ConsistencyError instead.
    """
    table = residue_table(order)
    if np.abs(rows).sum(axis=1).max(initial=0) * int(np.abs(table).max()) >= 2**53:
        raise ConsistencyError(f"coefficient rows too large for an exact float64 reduction modulo Phi_{order}")
    residues = rows.astype(np.float64) @ table.astype(np.float64)
    return ~residues[:, 1:].any(axis=1), residues[:, 0].astype(np.int64)
