"""Closed-form spectra of semi-Cayley graphs over abelian groups.

Every character chi of G contributes a 2x2 block with entries chi(R), chi(S),
conj(chi(S)), chi(L); its eigenvalue pair and the weights of its spectral
projectors have closed forms in chi(R), chi(L) and chi(S).  A Spectrum holds
them as columns, one entry per character in enumeration order, and no
object per character.  Floats drive the dynamics.

A Spectrum has two halves, and each command computes only the half it
reads.  The exact half (the certified integers, chi(S) = 0 and the rational
classes) is built by spectrum() from coefficient rows at the class
representatives only; periodicity, eigen_gcd, reduce_time, the layer gaps
and every decider read nothing else, so `period` and a `pst-find` without
a `yes` never compute a float.  The float half (chi_s_coeffs, chi_s,
lambdas and the weights c, d, e) is computed the first time any of it is
read, by the entry formula (transfer_* and the spectral side of a
confirmation) or by Spectrum.to_json (the `spectrum` report), and kept.

The floats come from the representatives' coefficient rows as well.
chi_rep^k takes the value zeta_N^(k E[rep, x]) at x, so the row of
chi_i = chi_rep^k over the powers of zeta_N is the representative's row
with its exponents permuted, row_i[e] = row_rep[k^-1 e mod N]: the integers
a bincount over chi_i would give.  One N x n index gathers every
character's rows of chi(R), chi(L), chi(S) and |chi(S)|^2 = chi(S S^-1)
(S S^-1 as integer weights over G, which both halves share), and each block
is summed against the roots of unity in the order of CycloValue.approx.
The closed forms then run elementwise in the order of Python's scalar
arithmetic, complex products and quotients split into CPython's real and
imaginary formulas, so every float is the per-character float bit for bit,
signed zeros included.  Both halves read their rows through
AbelianGroup.exponent_rows, so a spectrum builds the n x n exponent table
only where more than half the characters are representatives (every
character on a group of exponent 2), and no n x N index outlives the float
half.

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
size 1.

The certificate is exact and has no per-class arithmetic: a value in
Z[zeta_N] is an integer iff its residue modulo the N-th cyclotomic
polynomial is constant, and the residues of any number of coefficient rows
are one product with the table of x^j modulo Phi_N (_certify).  The rows of
chi(R), chi(L), chi(S), sigma and disc at every representative go through
one such product.  disc needs no multiplication in Z[zeta_N] either: it is
chi(w) for the group-ring element w = (1_R - 1_L)^2 + 4 S S^-1, whose rows
come out of the bincount that gives those of R, L and S.  The cross-layer
sign exponents follow the same way: conj(chi(S)) zeta_N^e = +-|chi(S)|, an
integer, gives conj(chi^k(S)) zeta_N^(k e) = +-|chi(S)| under sigma_k, so
one exact value per representative and sign fixes them for its class, and
one product confirms them all.  Periodicity and same-layer transfer need no
more: a vertex is periodic iff its support is integral (see pst).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .characters import _residue_table, _roots_of_unity
from .errors import ConsistencyError, ValidationError
from .graphs import SemiCayleySpec
from .groups import AbelianGroup


class _Floats(NamedTuple):
    # the float half of a Spectrum (see Spectrum and _float_half)
    chi_s_coeffs: np.ndarray
    chi_s: np.ndarray
    lambdas: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigen-data of every character, as columns indexed by character.

    Character i is the one indexed by the exponent vector char_index[i].
    Arrays of shape (2, n) hold the + branch in row 0 and the - branch in
    row 1.  When chi(S) = 0 the pair keeps the convention (lambda+, lambda-)
    = (chi(R), chi(L)) unsorted, so the weights stay c = (1, 0), d = (0, 1)
    and e = 0; otherwise lambda+ >= lambda-.  ints holds the certified
    integer eigenvalues, branch by branch, where certified is True (0
    elsewhere).  The weights of the entry formula are c for the layer case
    (0, 0), d for (1, 1), e for (0, 1) and conj(e) for (1, 0).

    Two halves.  The exact half (the fields) is built by spectrum().  The
    float half (chi_s_coeffs, chi_s, lambdas, c, d, e) is computed by
    _float_half the first time any of them is read, from coefficient rows at
    the class representatives permuted by class_power, and then kept: the
    chi(S) rows (n x N ints) and n columns of floats.  The private fields
    are what it is computed from, the group, the spec's read-only index
    arrays and the S S^-1 weights, never the spec itself.
    """

    order: int  # N, the exponent of G
    char_index: np.ndarray  # n x factors
    chi_s_zero: np.ndarray  # bool, chi(S) = 0 exactly
    ints: np.ndarray  # 2 x n int64
    certified: np.ndarray  # 2 x n bool
    class_rep: np.ndarray  # the least index of each character's rational class
    class_power: np.ndarray  # k with chi_i = chi_rep^k, gcd(k, N) = 1
    _group: AbelianGroup
    _subsets: tuple  # the index arrays of R, L and S
    _s_s_inverse: np.ndarray  # n ints: S S^-1 as integer weights over G

    chi_s_coeffs = property(lambda self: self._floats.chi_s_coeffs,
                            doc="n x N: chi(S) as coefficients of powers of zeta_N (chi(R), chi(L) are not kept)")
    chi_s = property(lambda self: self._floats.chi_s, doc="complex chi(S), the CycloValue.approx of its coefficients")
    lambdas = property(lambda self: self._floats.lambdas, doc="2 x n float")
    c = property(lambda self: self._floats.c, doc="2 x n float")
    d = property(lambda self: self._floats.d, doc="2 x n float")
    e = property(lambda self: self._floats.e, doc="2 x n complex")

    @cached_property
    def _floats(self) -> _Floats:
        return _float_half(self._group, self._subsets, self._s_s_inverse, self.chi_s_zero,
                           self.class_rep, self.class_power)

    def __eq__(self, other) -> bool:
        # the public fields and the float half, computed on both sides if need be
        if not isinstance(other, Spectrum):
            return NotImplemented
        names = [f.name for f in fields(self) if not f.name.startswith("_")] + list(_Floats._fields)
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in names)

    @cached_property
    def is_integral(self) -> bool:
        """Exact integrality certificate for the whole spectrum.

        True iff every character's eigenvalues are certified integers: chi(R)
        and chi(L) when chi(S) = 0, and otherwise an integral
        sigma = chi(R) + chi(L) with disc = (chi(R) - chi(L))^2 + 4 |chi(S)|^2
        a perfect square.
        """
        return bool(self.certified.all())

    @cached_property
    def layer_gaps(self) -> tuple:
        """Per layer, the integer support gaps of its vertices, one row per character, or None.

        chi(S) = 0 puts chi(R) only in layer 0 and chi(L) only in layer 1;
        otherwise both branches, with positive weights, are in both layers.
        Row i holds lambda_0 - lambda for the + and - branch of character i
        in the support, or twice for its one branch where chi(S) = 0, lambda_0
        being the first of them all (a branch of the trivial character).  A
        repeated gap changes no minimum, maximum, set or gcd of the gaps.
        None when some support eigenvalue is irrational.
        """
        out = []
        for layer in (0, 1):
            branches = np.where(self.chi_s_zero, layer, np.arange(2)[:, None])
            if not np.take_along_axis(self.certified, branches, axis=0).all():
                out.append(None)
                continue
            lams = np.take_along_axis(self.ints, branches, axis=0).T
            out.append(lams[0, 0] - lams)
        return tuple(out)

    @cached_property
    def sign_exponents(self) -> np.ndarray:
        """Per character, the e in Z_N with conj(chi(S)) zeta_N^e = +|chi(S)| and then -|chi(S)|.

        An n x 2 int64 table, -1 where no e exists.  Read, like the
        spoke-valuation rule of pst, for an integral spectrum with chi(S) != 0
        everywhere and R = L, where |chi(S)| = (lambda+ - lambda-) / 2.  For a
        class representative the float phase of chi(S) proposes e and one
        exact reduction confirms it; the roots zeta_N^e are distinct, so no
        other e can hold.  conj(chi(S)) zeta_N^e has the coefficient of chi(S)
        at e - j on zeta_N^j, so both proposals of every representative are
        gathered as coefficient rows and confirmed in one _certify product.
        chi_rep^k then takes k e modulo N (see the module docstring), and no
        e for none.  Builds the representatives' chi(S) rows and takes their
        floats row by row, so it leaves the float half uncomputed.
        """
        order = self.order
        reps = np.flatnonzero(self.class_rep == np.arange(len(self.class_rep)))
        rows = _coefficient_rows(self._group, [self._subsets[2]], chars=reps)[0]
        abs_s = (self.ints[0, reps] - self.ints[1, reps]) // 2
        roots = np.array(_roots_of_unity(order))
        turns = order * np.arctan2(_sums(rows.T, roots.imag), _sums(rows.T, roots.real)) / (2 * math.pi)
        e = np.round(turns[:, None] + np.array([0, order / 2])).astype(np.int64) % order
        spokes = rows[np.arange(len(reps))[:, None, None], (e[:, :, None] - np.arange(order)) % order]
        rational, value = _certify(spokes.reshape(-1, order), order)
        confirmed = rational.reshape(-1, 2) & (value.reshape(-1, 2) == np.stack([abs_s, -abs_s], axis=1))
        table = np.where(confirmed, e, -1)[np.searchsorted(reps, self.class_rep)]
        return np.where(table < 0, -1, table * self.class_power[:, None] % order)

    def to_json(self) -> dict:
        """One row per character; chi(S) as its nonzero terms, the form of CycloValue.to_json."""
        exact = self.certified.all(axis=0).tolist()
        chars, chi_s = self.char_index.tolist(), self.chi_s.tolist()
        # the nonzero coefficients of chi(S), row by row and in ascending
        # exponent within a row; row i owns terms bounds[i] to bounds[i + 1]
        which, exponents = np.nonzero(self.chi_s_coeffs)
        bounds = np.searchsorted(which, np.arange(len(exact) + 1)).tolist()
        coefficients, exponents = self.chi_s_coeffs[which, exponents].tolist(), exponents.tolist()
        (lam_p, lam_m), (int_p, int_m) = self.lambdas.tolist(), self.ints.tolist()
        (c_p, c_m), (d_p, d_m), (e_p, e_m) = self.c.tolist(), self.d.tolist(), self.e.tolist()
        rows = []
        for i, ok in enumerate(exact):
            rows.append(
                {
                    "index": i,
                    "char_index": chars[i],
                    "lambda_plus": lam_p[i],
                    "lambda_minus": lam_m[i],
                    "exact": ok,
                    "lambda_plus_exact": int_p[i] if ok else None,
                    "lambda_minus_exact": int_m[i] if ok else None,
                    "chi_s": {
                        "N": self.order,
                        "exponents": exponents[bounds[i] : bounds[i + 1]],
                        "coefficients": coefficients[bounds[i] : bounds[i + 1]],
                        "re": chi_s[i].real,
                        "im": chi_s[i].imag,
                    },
                    "c_plus": c_p[i],
                    "c_minus": c_m[i],
                    "d_plus": d_p[i],
                    "d_minus": d_m[i],
                    "e_plus": {"re": e_p[i].real, "im": e_p[i].imag},
                    "e_minus": {"re": e_m[i].real, "im": e_m[i].imag},
                }
            )
        return {"characters": rows}


def _certify(rows: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Which coefficient rows over zeta_N are rational integers, and their values.

    Row c has the residue c @ T modulo Phi_N, T = _residue_table(N).  The
    powers zeta_N^0 .. zeta_N^(phi(N)-1) are a Q-basis of Q(zeta_N), so the
    value is rational iff the residue is (v, 0, ..., 0), and then, being an
    algebraic integer, it is the integer v.  Every row goes through one
    float64 product, which is exact while no partial sum reaches 2^53: each
    is at most the row's L1 norm times max|T|.  max|T| <= 5 for every
    N <= 1024, and the rows of spectrum have L1 norm at most 8 n^2 (disc, a
    sum of (|R| + |L|)^2 + 4 |S|^2 roots), so every sum stays below 4.2e7;
    a product whose rows could pass 2^53 raises ConsistencyError instead.
    """
    table = _residue_table(order)
    if np.abs(rows).sum(axis=1).max(initial=0) * int(np.abs(table).max()) >= 2**53:
        raise ConsistencyError(f"coefficient rows too large for an exact float64 reduction modulo Phi_{order}")
    residues = rows.astype(np.float64) @ table.astype(np.float64)
    return ~residues[:, 1:].any(axis=1), residues[:, 0].astype(np.int64)


def _closed_forms(r, l, s, s2):
    # eigenvalues and weights (each + row over - row) of the blocks with
    # chi(S) != 0, from the floats of chi(R), chi(L), chi(S) and |chi(S)|^2
    x = r - l
    disc = np.sqrt(x * x + 4.0 * s2)
    p, m = x + disc, x - disc
    den_p, den_m = p * p + 4.0 * s2, m * m + 4.0 * s2
    # e+ = 2.0 * conj(chi(S)) * p / den_p as CPython computes it, each float
    # operand promoted to a complex with imaginary part 0.0.  conj(chi(S)),
    # not chi(S): the eigenvector weights pair with the vertex functions
    # chi(g^{-1}), and the oracle arbitrates the orientation
    re, im = 2.0 * s.real - 0.0 * -s.imag, 2.0 * -s.imag + 0.0 * s.real
    re, im = re * p - im * 0.0, re * 0.0 + im * p
    e = np.empty((2, len(x)), dtype=complex)
    e[0].real, e[0].imag = (re + im * 0.0) / den_p, (im - re * 0.0) / den_p
    e[1] = -e[0]
    lambdas = np.array([0.5 * (r + l + disc), 0.5 * (r + l - disc)])
    return lambdas, np.array([p * p / den_p, m * m / den_m]), np.array([4.0 * s2 / den_p, 4.0 * s2 / den_m]), e


def _coefficient_rows(group, subsets: list, weights: np.ndarray | None = None,
                      chars: np.ndarray | None = None) -> np.ndarray:
    # len(subsets) x m x N: row i of block b holds the coefficients of chi_i
    # (i over chars, every character by default) summed over the element
    # indices subsets[b], with the multiplicities `weights` laid out as the
    # concatenated subsets: one bincount in all
    order = group.exponent
    exponents = group.exponent_rows(np.arange(group.order) if chars is None else chars)
    m = len(exponents)
    columns = np.concatenate(subsets)
    block = np.repeat(np.arange(len(subsets)), [len(xs) for xs in subsets])
    keys = exponents[:, columns] + order * (np.arange(m)[:, None] + m * block)
    if weights is not None:
        weights = np.broadcast_to(weights, keys.shape).ravel()
    counts = np.bincount(keys.ravel(), weights=weights, minlength=len(subsets) * m * order)
    return counts.astype(np.int64, copy=False).reshape(len(subsets), m, order)


def _group_product(group, a: np.ndarray, b: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    # integer weights over G of the group-ring product of the elements indexed
    # by a and by b, the pair (a_i, b_j) counted weights[i, j] times (once by
    # default): chi of the product is the product of the chi for every character
    keys = group.add_indices(a[:, None], b[None, :]).ravel()
    if weights is not None:
        weights = weights.ravel()
    return np.bincount(keys, weights=weights, minlength=group.order).astype(np.int64, copy=False)


def _ring_rows(group, subsets: tuple, element: np.ndarray, chars: np.ndarray) -> np.ndarray:
    # (len(subsets) + 1) x m x N: the coefficient rows of each subset and then
    # of chi(element), a group-ring element given as integer weights over G,
    # one row per character in chars: one bincount in all
    support = np.flatnonzero(element)
    weights = np.concatenate([np.ones(sum(map(len, subsets)), dtype=np.int64), element[support]])
    return _coefficient_rows(group, [*subsets, support], weights, chars)


def _s_s_inverse(group, s: np.ndarray) -> np.ndarray:
    # S S^-1 as integer weights over G.  A large S is formed from its
    # complement C: 1_S = 1_G - 1_C gives S S^-1 = (n - 2|C|) 1_G + C C^-1,
    # so S = G (a join or a cone) forms no pairs at all
    n = group.order
    if 2 * len(s) <= n:
        return _group_product(group, s, group.power_indices(s, -1))
    outside = np.ones(n, dtype=bool)
    outside[s] = False
    c = np.flatnonzero(outside)
    return n - 2 * len(c) + _group_product(group, c, group.power_indices(c, -1))


def _sums(columns: np.ndarray, part: np.ndarray) -> np.ndarray:
    # for each column i of the N x m coefficients `columns`, sum_j columns[j, i]
    # * part[j], with part the real or the imaginary parts of the roots of
    # unity: that part of CycloValue.approx bit for bit, the same
    # left-to-right sum.  Its complex product c * root has the parts c * re
    # and c * im up to the sign of a zero, and adding 0.0 to the first term
    # clears a signed zero, as Python's sum from 0 does, so no partial sum is
    # -0.0 and no zero term changes one.  numpy adds a C-order array over its
    # slow axis one row at a time (pairwise summation is for the fast axis
    # only), and m >= 2 whenever N > 1: the trivial character is a class and
    # a column of its own.  A C-order float64 `columns` is overwritten
    terms = np.require(columns, dtype=np.float64, requirements=["C", "W"])
    terms *= part[:, None]
    terms[0] += 0.0
    return np.add.reduce(terms, axis=0)


def _rational_classes(group) -> tuple[np.ndarray, ...]:
    # per character chi_i, the least index rep of its rational class
    # {chi^k : gcd(k, N) = 1} and a unit k with chi_rep^k = chi_i; then the
    # representatives in index order and each character's position among them
    order = group.exponent
    units = [k for k in range(1, order + 1) if math.gcd(k, order) == 1]
    powers = group.power_indices(np.arange(group.order), np.array(units))
    # the argmin u has chi_i^u = chi_rep, so k is the inverse of u modulo N
    inverses = np.array([pow(k, -1, order) for k in units], dtype=np.int64)
    class_rep, class_power = powers.min(axis=0), inverses[powers.argmin(axis=0)]
    reps = np.flatnonzero(class_rep == np.arange(group.order))
    return class_rep, class_power, reps, np.searchsorted(reps, class_rep)


def spectrum(spec: SemiCayleySpec) -> Spectrum:
    """The exact half of the eigen-data of every character of the group.

    Builds coefficient rows at the rational-class representatives only,
    certifies them all in one _certify product, and copies each
    representative's integers to its class.  The float half is left to the
    first read of a float (see Spectrum).  Computes afresh on every call, and
    spec.spectrum keeps one result per spec.
    """
    group = spec.group
    n, order = group.order, group.exponent
    indices = spec.subset_indices
    subsets = (indices["R"], indices["L"], indices["S"])
    s_s_inverse = _s_s_inverse(group, indices["S"])
    class_rep, class_power, reps, slot = _rational_classes(group)

    # certified at each representative, then read by every member of its class;
    # disc = chi((1_R - 1_L)^2 + 4 S S^-1), 1_R - 1_L supported on R xor L
    diff = np.bincount(indices["R"], minlength=n) - np.bincount(indices["L"], minlength=n)
    support = np.flatnonzero(diff)
    diff_squared = _group_product(group, support, support, np.outer(diff[support], diff[support]))
    at_reps = _ring_rows(group, subsets, diff_squared + 4 * s_s_inverse, reps)  # chi(R), chi(L), chi(S), disc
    rows = np.concatenate([*at_reps[:3], at_reps[0] + at_reps[1], at_reps[3]])  # sigma before disc
    rational, value = (a.reshape(5, -1) for a in _certify(rows, order))
    chi_s_zero = rational[2] & (value[2] == 0)
    # disc < 2^53, so the float root of a square is exact and root^2 decides
    root = np.rint(np.sqrt(np.maximum(value[4], 0))).astype(np.int64)
    square = rational[3] & rational[4] & (root * root == value[4])
    certified = np.where(chi_s_zero, rational[:2], square)
    ints = np.where(certified, np.where(chi_s_zero, value[:2], [(value[3] + root) // 2, (value[3] - root) // 2]), 0)
    return Spectrum(
        order=order, char_index=group.coords, chi_s_zero=chi_s_zero[slot], ints=ints[:, slot],
        certified=certified[:, slot], class_rep=class_rep, class_power=class_power,
        _group=group, _subsets=subsets, _s_s_inverse=s_s_inverse,
    )


def _float_half(group, subsets: tuple, s_s_inverse: np.ndarray, chi_s_zero: np.ndarray,
                class_rep: np.ndarray, class_power: np.ndarray) -> _Floats:
    # the floats of every character from coefficient rows at the class
    # representatives: chi_i = chi_rep^k takes the value zeta_N^(k E[rep, x])
    # at x, so row i is the representative's row with exponent f moved to
    # k f, row_i[e] = row_rep[k^-1 e mod N].  One N x n index gathers the
    # rows of chi(R), chi(L), chi(S) and |chi(S)|^2 = chi(S S^-1) of every
    # character, as columns, into one float buffer, where _sums adds them
    # against the roots of unity block by block; only the chi(S) integers
    # are kept, and they are gathered first, so that the temporaries lie
    # above them on the heap and are given back when freed.  Then the closed
    # forms where chi(S) != 0
    n, order = group.order, group.exponent
    reps = np.flatnonzero(class_rep == np.arange(n))
    blocks = _ring_rows(group, subsets, s_s_inverse, reps)
    inverse = {k: pow(k, -1, order) for k in set(class_power.tolist())}
    # int32 products (below N^2 <= 2^20) divide faster than int64 ones
    shifts = np.multiply.outer(np.arange(order, dtype=np.int32),
                               np.array([inverse[k] for k in class_power.tolist()], dtype=np.int32)) % order
    index = np.searchsorted(reps, class_rep) * order + shifts
    del shifts
    roots = np.array(_roots_of_unity(order))
    chi_s_columns = np.take(blocks[2], index)
    columns = np.empty(index.shape)  # mode "clip" reads the same in-range indices unbuffered
    r, l, s2 = (_sums(np.take(blocks[b].astype(np.float64), index, out=columns, mode="clip"), roots.real)
                for b in (0, 1, 3))
    s = np.empty(n, dtype=complex)
    for part, sums in ((roots.real, s.real), (roots.imag, s.imag)):
        np.copyto(columns, chi_s_columns)
        sums[:] = _sums(columns, part)
    nonzero = ~chi_s_zero
    lambdas = np.array([r, l])  # the chi(S) = 0 convention, unsorted
    c, d, e = np.zeros((2, n)), np.zeros((2, n)), np.zeros((2, n), dtype=complex)
    c[0], d[1] = 1.0, 1.0
    lambdas[:, nonzero], c[:, nonzero], d[:, nonzero], e[:, nonzero] = _closed_forms(
        r[nonzero], l[nonzero], s[nonzero], s2[nonzero])
    return _Floats(chi_s_coeffs=chi_s_columns.T, chi_s=s, lambdas=lambdas, c=c, d=d, e=e)


def eigen_gcd(spec: SemiCayleySpec) -> int:
    """gcd of the gaps lambda - mu over the whole spectrum (any one mu gives the same gcd).

    Not the minimum period: that is periodicity's 2 pi / gcd(g0, g1), g_r the
    gap gcd of layer r's support.  The two can differ only when S is empty:
    SC(Z_4, {2}, {+-1}, {}) has eigen_gcd 1 and period pi.
    """
    spect = spec.spectrum
    if not spect.is_integral:
        raise ValidationError("spectrum not integral")
    gcd = int(np.gcd.reduce(np.abs(spect.ints[0, 0] - spect.ints), axis=None))
    if gcd == 0:
        raise ValidationError("constant spectrum has no eigenvalue gaps")
    return gcd
