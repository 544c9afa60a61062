"""Closed-form spectra of semi-Cayley graphs over abelian groups.

Every character chi of G contributes a 2x2 block with entries chi(R), chi(S),
conj(chi(S)), chi(L); its eigenvalue pair, eigenvector weights and spectral
projectors are computed in closed form.  Floats drive the dynamics.

Exactness is certified once per character, when its pair is built: the
eigenvalues (sigma +- sqrt(disc)) / 2, sigma = chi(R) + chi(L) and disc =
(chi(R) - chi(L))^2 + 4 |chi(S)|^2, are exact surds iff sigma and disc are
integers, and integers iff disc is moreover a perfect square with the parity
of sigma (chi(R) and chi(L) one by one when chi(S) = 0).  These are the two cases of a
periodic vertex's eigenvalues (Godsil, "Periodic graphs", 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .characters import CycloValue, character_matrix
from .errors import ValidationError
from .graphs import SemiCayleySpec
from .groups import Element


@dataclass(frozen=True)
class EigenPair:
    """Eigen-data of one character block.

    When chi(S) = 0 the pair keeps the convention (lambda_plus, lambda_minus)
    = (chi(R), chi(L)) unsorted, so the eigenvector weights stay (1,0)/(0,1);
    otherwise lambda_plus >= lambda_minus.

    The *_surd fields are the certified exact eigenvalues as vectors
    {1: rational part, s: coefficient of sqrt(s)}, s > 1 squarefree, or None;
    the *_exact fields are the same values as ints when both are integers.
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
    lambda_plus_surd: dict[int, Fraction] | None
    lambda_minus_surd: dict[int, Fraction] | None
    lambda_plus_exact: int | None
    lambda_minus_exact: int | None
    c_plus: float
    c_minus: float
    d_plus: float
    d_minus: float
    e_plus: complex
    e_minus: complex

    @property
    def exact(self) -> bool:
        return self.lambda_plus_exact is not None

    def layer_surds(self, layer: int) -> tuple:
        """The exact eigenvalues in the support of a vertex of the layer.

        chi(S) = 0 puts chi(R) only in layer 0 and chi(L) only in layer 1;
        otherwise both branches are in both layers.
        """
        surds = (self.lambda_plus_surd, self.lambda_minus_surd)
        return surds[layer : layer + 1] if self.chi_s_is_zero else surds

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
        a perfect square of the parity of sigma.
        """
        return all(p.exact for p in self.pairs)

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


def _squarefree_split(m: int) -> tuple[int, int]:
    # m = f^2 * s with s squarefree
    f, s = 1, 1
    d = 2
    while d * d <= m:
        exp = 0
        while m % d == 0:
            m //= d
            exp += 1
        f *= d ** (exp // 2)
        if exp % 2:
            s *= d
        d += 1
    return f, s * m


def _surd(rational, root: int = 1, coeff: Fraction = Fraction(0)) -> dict[int, Fraction]:
    # rational + coeff * sqrt(root) as a surd vector without zero entries
    vec = {1: Fraction(rational)}
    vec[root] = vec.get(root, 0) + coeff
    return {key: c for key, c in vec.items() if c}


def _surd_int(vec: dict[int, Fraction] | None) -> int | None:
    if vec is None or set(vec) - {1} or vec.get(1, Fraction(0)).denominator != 1:
        return None
    return int(vec.get(1, 0))


def _certify(chi_r: CycloValue, chi_l: CycloValue, chi_s_abs2: CycloValue | None):
    """The exact eigenvalues (lambda_plus, lambda_minus) of one character block.

    Each is a surd vector or None; chi_s_abs2 = |chi(S)|^2, None when chi(S) = 0.
    sigma is tested first: forming disc costs a product in Z[zeta_N].
    """
    if chi_s_abs2 is None:
        return tuple(None if v is None else _surd(v) for v in (chi_r.as_integer(), chi_l.as_integer()))
    sigma = (chi_r + chi_l).as_integer()
    if sigma is None:
        return None, None
    diff = chi_r - chi_l
    disc = (diff * diff + 4 * chi_s_abs2).as_integer()
    if disc is None:
        return None, None
    f, root = _squarefree_split(disc)
    mid = Fraction(sigma, 2)
    return _surd(mid, root, Fraction(f, 2)), _surd(mid, root, Fraction(-f, 2))


def _eigen_pair(index: int, chi: Element, chi_r, chi_l, chi_s) -> EigenPair:
    s_zero = chi_s.is_zero()
    r = chi_r.approx.real
    l = chi_l.approx.real
    abs2 = None if s_zero else chi_s.abs_squared()
    surds = _certify(chi_r, chi_l, abs2)
    ints = [_surd_int(vec) for vec in surds]
    if None in ints:
        ints = [None, None]
    exact = dict(lambda_plus_surd=surds[0], lambda_minus_surd=surds[1],
                 lambda_plus_exact=ints[0], lambda_minus_exact=ints[1])
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


def eigenvectors(spec: SemiCayleySpec) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form orthonormal eigenbasis.

    Returns (values, vectors): column 2i of vectors is the +branch of
    character i, column 2i+1 the -branch, with values aligned.
    """
    group = spec.group
    n = group.order
    W = character_matrix(group)
    inv_perm = [group.index(group.inverse(g)) for g in group.elements()]
    values = np.empty(2 * n)
    vectors = np.empty((2 * n, 2 * n), dtype=complex)
    for p in spec.spectrum.pairs:
        chi_at_inverse = W[p.index, inv_perm]
        if p.chi_s_is_zero:
            weights = (((1.0, 0.0), p.lambda_plus), ((0.0, 1.0), p.lambda_minus))
        else:
            disc = p.lambda_plus - p.lambda_minus
            b = 2.0 * p.chi_s.approx
            weights = (
                (((p.x + disc), b), p.lambda_plus),
                (((p.x - disc), b), p.lambda_minus),
            )
        for branch, ((a, b), lam) in enumerate(weights):
            norm = math.sqrt(n * (abs(a) ** 2 + abs(b) ** 2))
            col = 2 * p.index + branch
            vectors[:n, col] = a * chi_at_inverse / norm
            vectors[n:, col] = b * chi_at_inverse / norm
            values[col] = lam
    return values, vectors


def projectors(spec: SemiCayleySpec) -> list[np.ndarray]:
    """Rank-one spectral projectors, ordered (char 0, +), (char 0, -), ...

    Each projector is Hermitian with block structure built from the character
    Gram block B[r, s] = chi(g_r^{-1} g_s); their eigenvalue order matches
    eigenvectors().
    """
    group = spec.group
    n = group.order
    W = character_matrix(group)
    out = []
    for p in spec.spectrum.pairs:
        gram = np.outer(W[p.index].conj(), W[p.index])
        for sign in (1, -1):
            c = p.coefficient(0, 0, sign)
            d = p.coefficient(1, 1, sign)
            e = p.coefficient(0, 1, sign)
            block = np.block([[c * gram, e * gram], [np.conj(e) * gram, d * gram]]) / n
            out.append(block)
    return out


def eigen_gcd(spec: SemiCayleySpec) -> int:
    """gcd of the gaps between the top eigenvalue and the rest of the spectrum."""
    spect = spec.spectrum
    if not spect.is_integral:
        raise ValidationError("spectrum not integral")
    top = spect.pairs[0].lambda_plus_exact
    gaps = []
    for p in spect.pairs:
        for lam in (p.lambda_plus_exact, p.lambda_minus_exact):
            if lam != top:
                gaps.append(abs(top - lam))
    if not gaps:
        raise ValidationError("constant spectrum has no eigenvalue gaps")
    return math.gcd(*gaps)
