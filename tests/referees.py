"""Independent referees that only the tests call.

Each is a second way to compute something the package computes on index
arrays or through the character formula, kept here so that the tests can
compare the two: the R = L block formula for H(t), the 2-adic valuation of
a rational, inverse closure by the group's tuple law, and the vertex list
in enumeration order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from semicayley import AbelianGroup, SemiCayleySpec, ValidationError, Vertex
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
