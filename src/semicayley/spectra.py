"""Closed-form spectra of semi-Cayley graphs over abelian groups.

Every character chi of G contributes a 2x2 block with entries chi(R), chi(S),
conj(chi(S)), chi(L); its eigenvalue pair and the weights of its spectral
projectors are computed in closed form.  Floats drive the dynamics.

Integrality is certified once per character, when its pair is built: the
eigenvalues (sigma +- sqrt(disc)) / 2, sigma = chi(R) + chi(L) and disc =
(chi(R) - chi(L))^2 + 4 |chi(S)|^2, are integers iff sigma and disc are
integers and disc is a perfect square (its parity then matches sigma's, the
eigenvalues being algebraic integers); when chi(S) = 0 the branches chi(R)
and chi(L) are certified one by one.  Periodicity and same-layer transfer
need no more: a vertex is periodic iff its support is integral (see pst).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import CycloValue
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

    @property
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


def _eigen_pair(index: int, chi: Element, chi_r, chi_l, chi_s) -> EigenPair:
    s_zero = chi_s.is_zero()
    r = chi_r.approx.real
    l = chi_l.approx.real
    abs2 = None if s_zero else chi_s.abs_squared()
    ints = _certify(chi_r, chi_l, abs2)
    exact = dict(lambda_plus_int=ints[0], lambda_minus_int=ints[1])
    if s_zero:
        return EigenPair(
            index=index, char_index=chi, chi_r=chi_r, chi_l=chi_l, chi_s=chi_s,
            chi_s_is_zero=True, x=r - l, lambda_plus=r, lambda_minus=l, **exact,
            c_plus=1.0, c_minus=0.0, d_plus=0.0, d_minus=1.0, e_plus=0j, e_minus=0j,
        )
    x = r - l
    s2 = abs2.approx.real
    disc = math.sqrt(x * x + 4.0 * s2)
    lam_p = 0.5 * (r + l + disc)
    lam_m = 0.5 * (r + l - disc)
    p = x + disc
    m = x - disc
    den_p = p * p + 4.0 * s2
    den_m = m * m + 4.0 * s2
    # conj(chi(S)), not chi(S): the eigenvector weights pair with the vertex
    # functions chi(g^{-1}), and the oracle arbitrates the orientation
    e_plus = 2.0 * chi_s.approx.conjugate() * p / den_p
    return EigenPair(
        index=index, char_index=chi, chi_r=chi_r, chi_l=chi_l, chi_s=chi_s,
        chi_s_is_zero=False, x=x, lambda_plus=lam_p, lambda_minus=lam_m, **exact,
        c_plus=p * p / den_p, c_minus=m * m / den_m,
        d_plus=4.0 * s2 / den_p, d_minus=4.0 * s2 / den_m,
        e_plus=e_plus, e_minus=-e_plus,
    )


def _char_sums(group, subset) -> list[CycloValue]:
    # chi(subset) for every character: the subset is indexed once and each
    # sum is a bincount of one row of the character-exponent table
    rows = group.char_exponents[:, group.indices(subset)]
    return [CycloValue(group.exponent, np.bincount(row, minlength=group.exponent)) for row in rows]


def spectrum(spec: SemiCayleySpec) -> Spectrum:
    """Closed-form eigen-data for every character of the group.

    Computes afresh on every call; spec.spectrum keeps one result per spec.
    """
    group = spec.group
    sums = zip(group.elements(), _char_sums(group, spec.R), _char_sums(group, spec.L), _char_sums(group, spec.S))
    return Spectrum(tuple(_eigen_pair(i, *chis) for i, chis in enumerate(sums)))


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
