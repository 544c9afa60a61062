"""Closed-form spectra of semi-Cayley graphs over abelian groups.

Every character chi of G contributes a 2x2 block with entries chi(R), chi(S),
conj(chi(S)), chi(L); its eigenvalue pair and the weights of its spectral
projectors are computed in closed form.  Floats drive the dynamics.

Integrality is certified once per rational class of characters, when the
spectrum is built: the eigenvalues (sigma +- sqrt(disc)) / 2, sigma =
chi(R) + chi(L) and disc = (chi(R) - chi(L))^2 + 4 |chi(S)|^2, are integers
iff sigma and disc are integers and disc is a perfect square (its parity
then matches sigma's, the eigenvalues being algebraic integers); when
chi(S) = 0 the branches chi(R) and chi(L) are certified one by one.  The
class of chi is {chi^k : gcd(k, N) = 1}, N the exponent of G, and
chi^k(X) = sigma_k(chi(X)) for the automorphism sigma_k: zeta_N -> zeta_N^k
of Q(zeta_N).  sigma_k fixes exactly the rationals and commutes with complex
conjugation, so "chi(S) = 0" and "sigma and disc are integers, disc a
square" hold for the whole class or for none of it, with the same integers:
one representative (the least index) is certified and its results are
copied.  Z_512 has 10 classes for 512 characters; Z_2^k only classes of
size 1.  Periodicity and same-layer transfer need no more: a vertex is
periodic iff its support is integral (see pst).

The floats differ across a class and are computed for every character, on
n x N integer coefficient matrices (one bincount per subset; |chi(S)|^2 =
chi(S S^-1) is one weighted bincount over the difference multiset), summed
against the roots of unity in the order of CycloValue.approx, so they are
the per-character floats bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import CycloValue, _roots_of_unity
from .errors import ValidationError
from .graphs import SemiCayleySpec
from .groups import Element


@dataclass(frozen=True)
class EigenPair:
    """Eigen-data of one character block.

    When chi(S) = 0 the pair keeps the convention (lambda_plus, lambda_minus)
    = (chi(R), chi(L)) unsorted, so the eigenvector weights stay (1,0)/(0,1);
    otherwise lambda_plus >= lambda_minus.

    The *_int fields are the certified integer eigenvalues, branch by branch
    (None when irrational); the *_exact values are the same ints when both
    branches are integers, else None.
    """

    index: int
    char_index: Element
    chi_r: CycloValue
    chi_l: CycloValue
    chi_s: CycloValue
    chi_s_is_zero: bool
    x: float
    lambda_plus: float
    lambda_minus: float
    lambda_plus_int: int | None
    lambda_minus_int: int | None
    c_plus: float
    c_minus: float
    d_plus: float
    d_minus: float
    e_plus: complex
    e_minus: complex

    @property
    def exact(self) -> bool:
        return self.lambda_plus_int is not None and self.lambda_minus_int is not None

    @property
    def lambda_plus_exact(self) -> int | None:
        return self.lambda_plus_int if self.exact else None

    @property
    def lambda_minus_exact(self) -> int | None:
        return self.lambda_minus_int if self.exact else None

    def layer_ints(self, layer: int) -> tuple:
        """The certified eigenvalues in the support of a vertex of the layer.

        chi(S) = 0 puts chi(R) only in layer 0 and chi(L) only in layer 1;
        otherwise both branches, with positive weights, are in both layers.
        """
        ints = (self.lambda_plus_int, self.lambda_minus_int)
        return ints[layer : layer + 1] if self.chi_s_is_zero else ints

    def coefficient(self, r: int, s: int, sign: int) -> complex:
        """Entry-formula weight for the (r, s) layer case and the +/- branch."""
        if r == 0 and s == 0:
            return self.c_plus if sign > 0 else self.c_minus
        if r == 1 and s == 1:
            return self.d_plus if sign > 0 else self.d_minus
        if r == 0 and s == 1:
            return self.e_plus if sign > 0 else self.e_minus
        return self.e_plus.conjugate() if sign > 0 else self.e_minus.conjugate()


@dataclass(frozen=True)
class Spectrum:
    pairs: tuple[EigenPair, ...]

    @cached_property
    def chi_s_zero_indices(self) -> frozenset[int]:
        """Indices of characters vanishing on S (the set X of the theory)."""
        return frozenset(p.index for p in self.pairs if p.chi_s_is_zero)

    def eigenvalues(self) -> list[float]:
        out: list[float] = []
        for p in self.pairs:
            out.extend((p.lambda_plus, p.lambda_minus))
        return out

    @cached_property
    def is_integral(self) -> bool:
        """Exact integrality certificate for the whole spectrum.

        True iff every character's eigenvalues are certified integers: chi(R)
        and chi(L) when chi(S) = 0, and otherwise an integral
        sigma = chi(R) + chi(L) with disc = (chi(R) - chi(L))^2 + 4 |chi(S)|^2
        a perfect square.
        """
        return all(p.exact for p in self.pairs)

    @cached_property
    def layer_gaps(self) -> tuple:
        """Per layer, the integer support of its vertices as (gaps, characters), or None.

        One entry per support eigenvalue lambda, in character order with the
        + branch first: the gap lambda_0 - lambda from the first one (a branch
        of the trivial character) and the index of lambda's character.  None
        when some support eigenvalue is irrational.
        """
        out = []
        for layer in (0, 1):
            support = [(p.index, lam) for p in self.pairs for lam in p.layer_ints(layer)]
            if any(lam is None for _, lam in support):
                out.append(None)
                continue
            chars, lams = np.array(support, dtype=np.int64).T
            out.append((lams[0] - lams, chars))
        return tuple(out)

    @cached_property
    def spoke_valuation_break(self) -> int | None:
        """First character where nu2((lambda+ - lambda-) / 2) differs from the trivial one's, or None.

        Read for an integral spectrum with chi(S) != 0 everywhere and R = L,
        where (lambda+ - lambda-) / 2 = |chi(S)| and the trivial character's
        is |S|.  Equal valuations are equal lowest set bits.
        """
        halves = np.array([(p.lambda_plus_int - p.lambda_minus_int) // 2 for p in self.pairs], dtype=np.int64)
        lowest = halves & -halves
        breaks = np.flatnonzero(lowest != lowest[0])
        return int(breaks[0]) if breaks.size else None

    @cached_property
    def sign_exponents(self) -> np.ndarray:
        """Per character, the e in Z_N with conj(chi(S)) zeta_N^e = +|chi(S)| and then -|chi(S)|.

        An n x 2 int64 table, -1 where no e exists.  Read, like
        spoke_valuation_break, for an integral spectrum with chi(S) != 0
        everywhere and R = L, where |chi(S)| = (lambda+ - lambda-) / 2.  The
        float phase of chi(S) proposes e and one exact product in Z[zeta_N]
        confirms it; the roots zeta_N^e are distinct, so no other e can hold.
        """
        order = self.pairs[0].chi_s.order
        table = np.full((len(self.pairs), 2), -1, dtype=np.int64)
        for p in self.pairs:
            spoke = p.chi_s.conj()
            abs_s = (p.lambda_plus_int - p.lambda_minus_int) // 2
            turns = order * cmath.phase(p.chi_s.approx) / (2 * math.pi)
            for column, (target, shift) in enumerate(((abs_s, 0), (-abs_s, order / 2))):
                e = round(turns + shift) % order
                if (CycloValue.root(e, order) * spoke).as_integer() == target:
                    table[p.index, column] = e
        return table

    def to_json(self) -> dict:
        rows = []
        for p in self.pairs:
            rows.append(
                {
                    "index": p.index,
                    "char_index": list(p.char_index),
                    "lambda_plus": p.lambda_plus,
                    "lambda_minus": p.lambda_minus,
                    "exact": p.exact,
                    "lambda_plus_exact": p.lambda_plus_exact,
                    "lambda_minus_exact": p.lambda_minus_exact,
                    "chi_s": p.chi_s.to_json(),
                    "c_plus": p.c_plus,
                    "c_minus": p.c_minus,
                    "d_plus": p.d_plus,
                    "d_minus": p.d_minus,
                    "e_plus": {"re": p.e_plus.real, "im": p.e_plus.imag},
                    "e_minus": {"re": p.e_minus.real, "im": p.e_minus.imag},
                }
            )
        return {"characters": rows}


def _certify(chi_r: CycloValue, chi_l: CycloValue, chi_s_abs2: CycloValue | None):
    """The integer eigenvalues (lambda_plus, lambda_minus) of one character block.

    Each is an int or None; chi_s_abs2 = |chi(S)|^2, None when chi(S) = 0.
    sigma is tested first: forming disc costs a product in Z[zeta_N].
    """
    if chi_s_abs2 is None:
        return chi_r.as_integer(), chi_l.as_integer()
    sigma = (chi_r + chi_l).as_integer()
    if sigma is None:
        return None, None
    diff = chi_r - chi_l
    disc = (diff * diff + 4 * chi_s_abs2).as_integer()
    root = math.isqrt(disc) if disc is not None else -1
    if root * root != disc:
        return None, None
    return (sigma + root) // 2, (sigma - root) // 2


def _eigen_pair(index, chi, chi_r, chi_l, chi_s, s_zero, ints, approx) -> EigenPair:
    # approx holds the floats of chi(R), chi(L), chi(S) and |chi(S)|^2
    r, l, s, s2 = approx
    exact = dict(lambda_plus_int=ints[0], lambda_minus_int=ints[1])
    if s_zero:
        return EigenPair(
            index=index, char_index=chi, chi_r=chi_r, chi_l=chi_l, chi_s=chi_s,
            chi_s_is_zero=True, x=r - l, lambda_plus=r, lambda_minus=l, **exact,
            c_plus=1.0, c_minus=0.0, d_plus=0.0, d_minus=1.0, e_plus=0j, e_minus=0j,
        )
    x = r - l
    disc = math.sqrt(x * x + 4.0 * s2)
    lam_p = 0.5 * (r + l + disc)
    lam_m = 0.5 * (r + l - disc)
    p = x + disc
    m = x - disc
    den_p = p * p + 4.0 * s2
    den_m = m * m + 4.0 * s2
    # conj(chi(S)), not chi(S): the eigenvector weights pair with the vertex
    # functions chi(g^{-1}), and the oracle arbitrates the orientation
    e_plus = 2.0 * s.conjugate() * p / den_p
    return EigenPair(
        index=index, char_index=chi, chi_r=chi_r, chi_l=chi_l, chi_s=chi_s,
        chi_s_is_zero=False, x=x, lambda_plus=lam_p, lambda_minus=lam_m, **exact,
        c_plus=p * p / den_p, c_minus=m * m / den_m,
        d_plus=4.0 * s2 / den_p, d_minus=4.0 * s2 / den_m,
        e_plus=e_plus, e_minus=-e_plus,
    )


def _coefficient_rows(group, columns: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    # n x N: row i holds the coefficients of chi_i summed over the element
    # indices `columns` (with multiplicities `weights`), one bincount in all
    n, order = group.order, group.exponent
    keys = group.char_exponents[:, columns] + order * np.arange(n)[:, None]
    if weights is not None:
        weights = np.broadcast_to(weights, keys.shape).ravel()
    counts = np.bincount(keys.ravel(), weights=weights, minlength=n * order)
    return counts.astype(np.int64, copy=False).reshape(n, order)


def _abs_squared_rows(group, s: np.ndarray) -> np.ndarray:
    # |chi(S)|^2 = chi(S S^-1): the coefficient rows of the difference multiset,
    # counted once over S x S and then summed with its multiplicities
    inverse = (-group.coords[s] % np.array(group.factors)) @ np.array(group.strides)
    multiplicity = np.bincount(group.add_indices(s[:, None], inverse[None, :]).ravel(), minlength=group.order)
    support = np.flatnonzero(multiplicity)
    return _coefficient_rows(group, support, multiplicity[support])


def _approx(rows: np.ndarray) -> list[complex]:
    # CycloValue.approx of every row, bit for bit: the same left-to-right sum.
    # Adding 0.0 to the first term clears a signed zero, as Python's sum from 0
    # does, so no partial sum is -0.0 and the zero terms that approx skips
    # change nothing
    terms = rows * np.array(_roots_of_unity(rows.shape[1]))
    terms[:, 0] += 0.0
    np.add.accumulate(terms, axis=1, out=terms)
    return terms[:, -1].tolist()


def _class_representatives(group) -> list[int]:
    # the least index of each character's rational class {chi^k : gcd(k, N) = 1}
    order = group.exponent
    units = np.array([k for k in range(1, order + 1) if math.gcd(k, order) == 1], dtype=np.int64)
    powers = units[:, None, None] * group.coords % np.array(group.factors)
    return (powers @ np.array(group.strides)).min(axis=0).tolist()


def spectrum(spec: SemiCayleySpec) -> Spectrum:
    """Closed-form eigen-data for every character of the group.

    Certifies one representative per rational class and copies its integers
    to the class; computes afresh on every call, and spec.spectrum keeps one
    result per spec.
    """
    group = spec.group
    order = group.exponent
    rows = [_coefficient_rows(group, group.indices(xs)) for xs in (spec.R, spec.L, spec.S)]
    abs2_rows = _abs_squared_rows(group, group.indices(spec.S))
    r, l, s, s2 = (_approx(m) for m in (*rows, abs2_rows))
    certified = {}
    pairs = []
    for i, (chi, rep) in enumerate(zip(group.elements(), _class_representatives(group))):
        chi_r, chi_l, chi_s = (CycloValue(order, m[i]) for m in rows)
        chi_r._approx, chi_l._approx, chi_s._approx = r[i], l[i], s[i]  # the floats CycloValue.approx would sum
        if rep == i:
            s_zero = chi_s.is_zero()
            abs2 = None if s_zero else CycloValue(order, abs2_rows[i])
            certified[i] = s_zero, _certify(chi_r, chi_l, abs2)
        s_zero, ints = certified[rep]
        approx = r[i].real, l[i].real, s[i], s2[i].real
        pairs.append(_eigen_pair(i, chi, chi_r, chi_l, chi_s, s_zero, ints, approx))
    return Spectrum(tuple(pairs))


def eigen_gcd(spec: SemiCayleySpec) -> int:
    """gcd of the gaps between the top eigenvalue and the rest of the spectrum."""
    spect = spec.spectrum
    if not spect.is_integral:
        raise ValidationError("spectrum not integral")
    top = spect.pairs[0].lambda_plus_int
    gaps = []
    for p in spect.pairs:
        for lam in (p.lambda_plus_int, p.lambda_minus_int):
            if lam != top:
                gaps.append(abs(top - lam))
    if not gaps:
        raise ValidationError("constant spectrum has no eigenvalue gaps")
    return math.gcd(*gaps)
