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
a `yes` never compute a float.  The float half (chi(S) as its nonzero
terms, chi_s, lambdas and the weights c, d, e) is computed the first time
any of it is read, by the entry formula (transfer_* and the spectral side
of a confirmation) or by Spectrum.to_json (the `spectrum` report), and
kept.

The floats come from the same coefficient rows, which spectrum() builds
once and keeps, read-only: an m x N block each of chi(R), chi(L), chi(S)
and chi(S S^-1) at the m representatives (at most 30,240 entries on a
group of order <= 1024, on Z_1008).  chi_rep^k takes the value
zeta_N^(k E[rep, x]) at x, so chi_i = chi_rep^k has the representative's
terms with every exponent f moved to k f mod N: the terms a bincount over
chi_i would give.  Each character's terms of a block are sorted by
exponent, padded with zero terms to the longest list of the block (96 of
512 exponents for chi(R) on the Z_512 spectra of the benchmark, and nearly
all of them for S S^-1), and summed against the roots of unity in the
order of CycloValue.approx.  The closed forms then run elementwise in the
order of Python's scalar arithmetic, complex products and quotients split
into CPython's real and imaginary formulas, so every float is the
per-character float bit for bit, signed zeros included.  The rows are read
through AbelianGroup.exponent_rows, so a spectrum builds the n x n
exponent table only where more than half the characters are
representatives (every character on a group of exponent 2); only the term
lists of a block as dense as S S^-1 reach n x N entries, one at a time.

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
size 1.  The classes depend on the group alone: groups._rational_classes
computes them once per group, which keeps them read-only
(AbelianGroup._classes), and every spectrum over the group shares them.

The certificate is exact and has no per-class arithmetic: a value in
Z[zeta_N] is an integer iff its coordinates in the Z-basis of products of
the power bases of the zeta_q, q over the prime powers of N, are
(v, 0, ..., 0), and _certify finds the coordinates of any number of
coefficient rows at once by one integer fold per prime power, exact in
int64.  The rows of chi(R), chi(L), chi(S), sigma and disc at every
representative go through one such call.  disc needs no multiplication in
Z[zeta_N] either: it is chi((1_R - 1_L)^2) + 4 chi(S S^-1), and the
bincount that gives the rows of R, L and S, linear in its integer weights,
gives those of both group-ring elements.  The cross-layer sign exponents
follow the same way, from the kept chi(S) rows: conj(chi(S)) zeta_N^e =
+-|chi(S)|, an integer, gives
conj(chi^k(S)) zeta_N^(k e) = +-|chi(S)| under sigma_k, so one exact value
per representative and sign fixes them for its class, and one call
confirms them all.  Periodicity and same-layer transfer need no
more: a vertex is periodic iff its support is integral (see pst).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ValidationError
from .groups import AbelianGroup, _prime_powers

if TYPE_CHECKING:
    from .graphs import SemiCayleySpec


class _Floats(NamedTuple):
    # the float half of a Spectrum (see Spectrum and _float_half): chi(S) as
    # its nonzero terms, character i owning chi_s_bounds[i] to [i + 1]
    chi_s_exponents: np.ndarray
    chi_s_coefficients: np.ndarray
    chi_s_bounds: np.ndarray
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
    float half (chi_s, lambdas, c, d, e, and chi(S) as the nonzero terms
    that to_json lists) is computed by _float_half the first time any of it
    is read, from the kept rows at the class representatives moved by
    class_power, and then kept: n columns of floats and, per character, the
    exponents and coefficients of chi(S), at most min(|S|, N) of each.  The
    private fields are what it is computed from, the group and the rows
    spectrum() built, never the spec itself.
    """

    order: int  # N, the exponent of G
    char_index: np.ndarray  # n x factors
    chi_s_zero: np.ndarray  # bool, chi(S) = 0 exactly
    ints: np.ndarray  # 2 x n int64
    certified: np.ndarray  # 2 x n bool
    class_rep: np.ndarray  # the least index of each character's rational class
    class_power: np.ndarray  # k with chi_i = chi_rep^k, gcd(k, N) = 1
    _group: AbelianGroup
    _rows: tuple  # read-only m x N int64 coefficient rows at the m representatives: chi(R), chi(L), chi(S), chi(S S^-1)

    chi_s = property(lambda self: self._floats.chi_s, doc="complex chi(S), the CycloValue.approx of its coefficients")
    lambdas = property(lambda self: self._floats.lambdas, doc="2 x n float")
    c = property(lambda self: self._floats.c, doc="2 x n float")
    d = property(lambda self: self._floats.d, doc="2 x n float")
    e = property(lambda self: self._floats.e, doc="2 x n complex")

    @cached_property
    def _floats(self) -> _Floats:
        return _float_half(self._group, self._rows, self.chi_s_zero)

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
        gathered as coefficient rows and confirmed in one _certify call.
        chi_rep^k then takes k e modulo N (see the module docstring), and no
        e for none.  Reads the kept chi(S) rows of the representatives and
        takes their floats row by row, so it builds no row and leaves the
        float half uncomputed.
        """
        order = self.order
        classes = self._group._classes
        rows = self._rows[2]
        abs_s = (self.ints[0, classes.reps] - self.ints[1, classes.reps]) // 2
        roots = self._group._roots
        dense = np.broadcast_to(np.arange(order)[:, None], rows.T.shape)  # every exponent, zeros included
        turns = order * np.arctan2(_sums(dense, rows.T, roots.imag), _sums(dense, rows.T, roots.real)) / (2 * math.pi)
        e = np.round(turns[:, None] + np.array([0, order / 2])).astype(np.int64) % order
        spokes = rows[np.arange(len(classes.reps))[:, None, None], (e[:, :, None] - np.arange(order)) % order]
        rational, value = _certify(spokes.reshape(-1, order), self._group)
        confirmed = rational.reshape(-1, 2) & (value.reshape(-1, 2) == np.stack([abs_s, -abs_s], axis=1))
        table = np.where(confirmed, e, -1)[classes.slot]
        return np.where(table < 0, -1, table * self.class_power[:, None] % order)

    def to_json(self) -> dict:
        """One row per character; chi(S) as its nonzero terms, the form of CycloValue.to_json."""
        exact = self.certified.all(axis=0).tolist()
        chars, chi_s = self.char_index.tolist(), self.chi_s.tolist()
        floats = self._floats
        exponents, coefficients = floats.chi_s_exponents.tolist(), floats.chi_s_coefficients.tolist()
        bounds = floats.chi_s_bounds.tolist()
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


def _certify(rows: np.ndarray, group: AbelianGroup) -> tuple[np.ndarray, np.ndarray]:
    """Which int64 coefficient rows over zeta_N, N = group.exponent, are rational integers, and their values.

    Q(zeta_N) is the tensor product of the Q(zeta_q), q = p^k over the prime
    powers of N, so the products of the power bases {zeta_q^j : j < phi(q)}
    are a Z-basis of Z[zeta_N] whose first element is 1.  The columns go
    once into the grid of the q (AbelianGroup._crt_order), and each q's axis,
    split as t q/p + s with t < p, folds its last slab into the others,
    zeta_q^((p-1) q/p + s) = -sum_{t < p-1} zeta_q^(t q/p + s), which leaves
    the coordinates j < phi(q).  A value is rational iff every coordinate
    but the first (value, for every row) is 0, and then, being an algebraic
    integer, it is the first.  Each coordinate is a signed sum of distinct
    entries of its row, so |coordinate| <= the row's L1 norm: exact in int64
    (the rows of spectrum have L1 norm at most 8 n^2, disc's).
    """
    coords, rest = rows[:, group._crt_order], group.exponent
    for p, q in _prime_powers(rest):
        coords = coords.reshape(-1, p, rest // p)  # q's axis as (t, s), the later prime powers inside s
        coords = coords[:, :-1] - coords[:, -1:]
        rest //= q
    coords = coords.reshape(len(rows), -1)
    return ~coords[:, 1:].any(axis=1), coords[:, 0]


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


def _coefficient_rows(group, subsets: list, weights: np.ndarray, chars: np.ndarray) -> np.ndarray:
    # len(subsets) x m x N: row i of block b holds the coefficients of chi_i
    # (i over chars) summed over the element indices subsets[b], with the
    # multiplicities `weights` laid out as the concatenated subsets: one
    # bincount in all
    order = group.exponent
    exponents = group.exponent_rows(chars)
    m = len(exponents)
    columns = np.concatenate(subsets)
    block = np.repeat(np.arange(len(subsets)), [len(xs) for xs in subsets])
    keys = exponents[:, columns] + order * (np.arange(m)[:, None] + m * block)
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


def _s_s_inverse(group, s: np.ndarray) -> np.ndarray:
    # S S^-1 as integer weights over G.  A large S is formed from its
    # complement C: 1_S = 1_G - 1_C gives S S^-1 = (n - 2|C|) 1_G + C C^-1,
    # so S = G (a join or a cone) forms no pairs at all
    n = group.order
    if 2 * len(s) <= n:
        return _group_product(group, s, group._inverses[s])
    outside = np.ones(n, dtype=bool)
    outside[s] = False
    c = np.flatnonzero(outside)
    return n - 2 * len(c) + _group_product(group, c, group._inverses[c])


# _sums adds the terms in blocks of this many rows
_SUM_ROWS = 64


def _sums(exponents: np.ndarray, coefficients: np.ndarray, part: np.ndarray) -> np.ndarray:
    # for each column i of the T x m terms, sum_t coefficients[t, i] *
    # part[exponents[t, i]] in the order of t, part the roots of unity or
    # their real parts: CycloValue.approx, or its real part, bit for bit
    # when each column lists the nonzero terms in ascending exponent, the
    # same left-to-right sum.  A term c * root has the parts c * re and
    # c * im up to the sign of a zero (a complex sum adds the parts apart),
    # and the sums start from +0.0, as Python's sum from 0 does, which
    # clears a signed zero; so no partial sum is -0.0 and a zero term,
    # wherever it stands, changes none.  The terms go through a buffer of
    # _SUM_ROWS rows below the running sums: numpy adds a C-order array over
    # its slow axis one row at a time (pairwise summation is for the fast
    # axis only), and m >= 2 whenever N > 1, the trivial character being a
    # class of its own
    total = np.zeros(exponents.shape[1], dtype=part.dtype)
    buffer = np.empty((_SUM_ROWS + 1, len(total)), dtype=part.dtype)
    for start in range(0, len(exponents), _SUM_ROWS):
        rows = buffer[: 1 + len(exponents[start : start + _SUM_ROWS])]
        rows[0] = total
        np.take(part, exponents[start : start + _SUM_ROWS], out=rows[1:], mode="clip")  # "clip": unbuffered
        rows[1:] *= coefficients[start : start + _SUM_ROWS]
        total = np.add.reduce(rows, axis=0)
    return total


def _class_terms(rows: np.ndarray, slot: np.ndarray, power: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    # the terms of every character from the coefficient rows at the class
    # representatives: character i = rep^k has the row rows[slot[i]] and
    # k = power[i] (an int32 column).  chi_rep^k takes the value
    # zeta_N^(k E[rep, x]) at x, so the representative's term at exponent f
    # is chi_i's term at k f mod N.  Two T x n arrays, exponents and
    # coefficients, column i in ascending exponent, T the most nonzero terms
    # of any row, a shorter row padded with zero terms.  The rows count pairs
    # or elements, so every coefficient c is in [0, n^2] and below 2^21, and
    # the keys (k f mod N) 2^b + c, b the bit length of the largest c, are
    # below 2^31: one int32 sort puts each character's terms in order,
    # coefficients along
    nonzero = rows != 0
    width = max(int(nonzero.sum(axis=1).max(initial=0)), 1)
    bits = int(rows.max(initial=0)).bit_length()
    # each row's terms as f 2^b + c, the nonzero ones in ascending f ahead of
    # the zero ones, which all become N 2^b and then the zero term (0, 0)
    packed = np.where(nonzero, np.arange(order) << bits | rows, order << bits)
    packed.sort(axis=1)
    packed = (packed[:, :width] % (order << bits)).astype(np.int32)
    keys = (packed >> bits)[slot]
    keys *= power
    multiples = keys // order  # then k f mod N: numpy divides by a scalar far faster than it takes a remainder
    multiples *= order
    keys -= multiples
    del multiples
    keys <<= bits
    keys |= (packed & (2**bits - 1))[slot]
    keys.sort(axis=1)
    keys = np.ascontiguousarray(keys.T)  # the T x n layout that _sums adds over its slow axis
    exponents = keys >> bits
    keys &= 2**bits - 1
    return exponents, keys


def spectrum(spec: SemiCayleySpec) -> Spectrum:
    """The exact half of the eigen-data of every character of the group.

    Builds coefficient rows at the rational-class representatives only (the
    group's classes, computed once per group) in one _coefficient_rows
    call, certifies them all in one _certify call, and copies each
    representative's integers to its class.  Keeps the rows that the float
    half and the sign exponents read (see Spectrum).  Computes afresh on
    every call, and spec.spectrum keeps one result per spec.
    """
    group = spec.group
    n, order = group.order, group.exponent
    indices = spec.subset_indices
    classes = group._classes

    # 1_R, 1_L, 1_S, S S^-1 and (1_R - 1_L)^2 as integer weights over G: one
    # bincount gives their rows, and sigma and disc are sums of them
    ring = [np.bincount(indices[name], minlength=n) for name in ("R", "L", "S")]
    support = np.flatnonzero(ring[0] - ring[1])
    diff = (ring[0] - ring[1])[support]
    ring += [_s_s_inverse(group, indices["S"]), _group_product(group, support, support, np.outer(diff, diff))]
    supports = [np.flatnonzero(element) for element in ring]
    blocks = _coefficient_rows(group, supports, np.concatenate([w[xs] for w, xs in zip(ring, supports)]), classes.reps)
    # certified at each representative, then read by every member of its class
    rows = np.concatenate([*blocks[:3], blocks[0] + blocks[1], blocks[4] + 4 * blocks[3]])  # sigma, then disc
    rational, value = (a.reshape(5, -1) for a in _certify(rows, group))
    chi_s_zero = rational[2] & (value[2] == 0)
    # disc < 2^53, so the float root of a square is exact and root^2 decides
    root = np.rint(np.sqrt(np.maximum(value[4], 0))).astype(np.int64)
    square = rational[3] & rational[4] & (root * root == value[4])
    certified = np.where(chi_s_zero, rational[:2], square)
    ints = np.where(certified, np.where(chi_s_zero, value[:2], [(value[3] + root) // 2, (value[3] - root) // 2]), 0)
    kept = blocks[:4].copy()  # without the fifth block, which only disc reads
    kept.flags.writeable = False
    return Spectrum(
        order=order, char_index=group.coords, chi_s_zero=chi_s_zero[classes.slot], ints=ints[:, classes.slot],
        certified=certified[:, classes.slot], class_rep=classes.rep, class_power=classes.power,
        _group=group, _rows=tuple(kept),
    )


def _float_half(group, rows: tuple, chi_s_zero: np.ndarray) -> _Floats:
    # the floats of every character from the spectrum's rows at the class
    # representatives: _class_terms gives each character its terms of
    # chi(R), chi(L), chi(S) and |chi(S)|^2 = chi(S S^-1), in ascending
    # exponent, and _sums adds them against the roots of unity.  Only the
    # nonzero chi(S) terms are kept, and they are made first, so that the
    # temporaries lie above them on the heap and are given back when freed.
    # Then the closed forms where chi(S) != 0
    n, order = group.order, group.exponent
    slot = group._classes.slot
    roots = group._roots
    power = group._classes.power.astype(np.int32)[:, None]  # below N, and int32 divides faster than int64
    exponents, coefficients = _class_terms(rows[2], slot, power, order)
    kept = (coefficients != 0).T  # character by character, in ascending exponent
    terms = exponents.T[kept], coefficients.T[kept], np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
    s = _sums(exponents, coefficients, roots)
    del exponents, coefficients
    r, l, s2 = (_sums(*_class_terms(rows[b], slot, power, order), roots.real) for b in (0, 1, 3))
    nonzero = ~chi_s_zero
    lambdas = np.array([r, l])  # the chi(S) = 0 convention, unsorted
    c, d, e = np.zeros((2, n)), np.zeros((2, n)), np.zeros((2, n), dtype=complex)
    c[0], d[1] = 1.0, 1.0
    lambdas[:, nonzero], c[:, nonzero], d[:, nonzero], e[:, nonzero] = _closed_forms(
        r[nonzero], l[nonzero], s[nonzero], s2[nonzero])
    return _Floats(*terms, chi_s=s, lambdas=lambdas, c=c, d=d, e=e)


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
