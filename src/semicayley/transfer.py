"""Quantum-walk transfer matrices H(t) = exp(-i t A) on semi-Cayley graphs.

Deliberately independent computation paths:

* the character formula for n * H_(g,r),(h,s)(t), a function of the layers
  and a = g^{-1} h alone (the product), behind every entry and scan and
  behind `transfer_rows`, the 4n values H_(e,r),(a,s)(t) that hold all of
  H(t); `transfer_matrix` only gathers them through index(g^{-1} h),
* the referee, which shares no eigen or character data with it: one column
  exp(-itA) e_j as a Chebyshev-Bessel series on the spec's adjacency
  (`oracle_column`, which confirms every `yes`), and the dense
  truncated-Taylor scaling-and-squaring exponential (`oracle_expm`, the
  tests' referee for whole matrices),
* the block cosine/sinc formula available when R = L.

Equivalence of the paths, entrywise to 1e-9, is the core QA property of the
package.  Time is a plain float here; exact rational-multiple-of-pi time
reasoning, including the exact reduction of large times, lives in the
state-transfer analysis module.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import character_matrix
from .errors import ValidationError
from .graphs import SemiCayleySpec, Vertex, cay_adjacency

# largest t * rho the column oracle accepts: it costs about t * rho
# matrix-vector products, and its rounding error grows with their number
COLUMN_HORIZON = 1e6
# Bessel coefficients below this are dropped: the Chebyshev vectors have norm <= 1
_BESSEL_CUTOFF = 1e-18


def transfer_rows(spec: SemiCayleySpec, t: float) -> np.ndarray:
    """The 2 x 2 x n array rows[r, s, k] = H_(e,r),(g_k,s)(t), g_k the k-th element.

    H_(g,r),(h,s)(t) depends only on the layers and a = g^{-1} h, so these
    4n values are all of H(t): entry (g, r), (h, s) is rows[r, s, index(a)].
    The entry formula of transfer_sums runs once per layer case, for every
    connecting element at once, on one character table.
    """
    table = character_matrix(spec.group)
    ts = np.array([t])
    return np.array([[_entry_sums(spec, r, s, table, ts)[:, 0] for s in (0, 1)] for r in (0, 1)]) / spec.n


def transfer_matrix(spec: SemiCayleySpec, t: float) -> np.ndarray:
    """H(t) as a 2n x 2n matrix: transfer_rows gathered through index(g^{-1} h)."""
    group = spec.group
    inverses = (-group.coords % np.array(group.factors)) @ np.array(group.strides)
    differences = group.add_indices(inverses[:, None], np.arange(group.order))
    # rows[r, s, differences[g, h]] at [r, g, s, h], then one row per vertex (g, r)
    return transfer_rows(spec, t)[:, :, differences].transpose(0, 2, 1, 3).reshape(2 * spec.n, 2 * spec.n)


def _entry_sums(spec: SemiCayleySpec, r: int, s: int, chi_a: np.ndarray, ts: np.ndarray) -> np.ndarray:
    # n * H_(e,r),(g_a,s)(t) from chi_a = chi(g_a) over every character: row a
    # of the character table (which is symmetric), or the table for every a
    spect = spec.spectrum
    if r == s:
        weights = spect.d if r else spect.c
    else:
        weights = spect.e.conj() if r else spect.e
    lam_p, lam_m = spect.lambdas
    coef_p, coef_m = weights.astype(complex)  # contiguous complex rows, one per branch
    values = (chi_a * coef_p) @ np.exp(-1j * np.outer(lam_p, ts))
    values += (chi_a * coef_m) @ np.exp(-1j * np.outer(lam_m, ts))
    return values


def transfer_sums(spec: SemiCayleySpec, u: Vertex, v: Vertex, ts: np.ndarray) -> np.ndarray:
    """n * H_uv(t) for every time in ts: the four-case character formula.

    The sum over characters chi of chi(a) (w+ exp(-i lambda+ t) + w-
    exp(-i lambda- t)), with a = g^{-1} h the connecting element and w+- the
    weights of the (u.layer, v.layer) case; callers divide by n = |G|.
    """
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    group = spec.group
    a = group.index(spec.connecting_element(u, v))
    chi_a = np.exp(2j * np.pi * group.char_exponents[a] / group.exponent)
    return _entry_sums(spec, u.layer, v.layer, chi_a, ts)


def transfer_entry(spec: SemiCayleySpec, u: Vertex, v: Vertex, t: float) -> complex:
    """Single entry of H(t): the one-time case of transfer_sums."""
    return complex(transfer_sums(spec, u, v, np.array([t]))[0] / spec.n)


def oracle_expm(adjacency: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t A) by truncated Taylor series with scaling and squaring.

    Independent referee: uses no eigendecomposition and no character data.
    The argument is scaled so its 1-norm is at most 1/2, the series is summed
    until terms fall below 1e-20, and the result is squared back up; for
    desk-scale norms the error budget is below 1e-10.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValidationError("adjacency matrix must be square")
    if not np.array_equal(adjacency, adjacency.T):
        raise ValidationError("adjacency matrix must be symmetric")
    m = (-1j * t) * adjacency
    norm = np.max(np.sum(np.abs(m), axis=0)) if m.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    m /= 2.0 ** squarings
    dim = m.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 60):
        term = term @ m / k
        result += term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def _bessel_series(x: float) -> list[float]:
    """J_0(x), J_1(x), ..., J_K(x) for x > 0, up to the last one above the cutoff.

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started at
    k ~ x + 10 x^(1/3) + 30 where J_k(x) is negligible, rescaled before it can
    overflow and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1.  Python floats:
    for the short series of small graphs they beat numpy's per-call cost.
    """
    start = int(x + 10 * x ** (1 / 3) + 30)
    values = [0.0] * (start + 1)
    upper, current = 0.0, 1e-30
    values[start] = current
    for k in range(start, 0, -1):
        upper, current = current, 2 * k / x * current - upper
        values[k - 1] = current
        if abs(current) > 1e250:
            values[k - 1 :] = [value * 1e-250 for value in values[k - 1 :]]
            upper, current = upper * 1e-250, values[k - 1]
    scale = values[0] + 2 * math.fsum(values[2::2])
    last = max(k for k, value in enumerate(values) if abs(value) > _BESSEL_CUTOFF * abs(scale))
    return [value / scale for value in values[: last + 1]]


def oracle_column(spec: SemiCayleySpec, j: int, t: float) -> np.ndarray:
    """Column j of exp(-itA) by its Chebyshev-Bessel series.

    With rho the largest row sum of A (its infinity norm, which bounds the
    spectral radius) and x = t * rho,
        exp(-itA) e_j = J_0(x) e_j + 2 sum_{k>=1} (-i)^k J_k(x) T_k(A / rho) e_j,
    where T_k(A / rho) e_j comes from the three-term Chebyshev recurrence on
    real vectors: even k feed the real part, odd k the imaginary part.  Reads
    the spec's adjacency only, no eigen or character data, so it is an
    independent referee for the spectral path.  Costs about x matrix-vector
    products; x above COLUMN_HORIZON raises ValidationError.
    """
    if not t >= 0:
        raise ValidationError("time must be nonnegative")
    adjacency = spec.adjacency
    column = np.zeros(adjacency.shape[0])
    column[j] = 1.0
    rho = float(adjacency.sum(axis=1).max())
    x = t * rho
    if x > COLUMN_HORIZON:
        raise ValidationError(
            f"t * rho = {x:.6g} is beyond the oracle's accuracy and work horizon "
            f"{COLUMN_HORIZON:.0e} (rho = {rho:g}, the largest degree); only a time of a graph "
            "with an integral spectrum can be reduced exactly modulo its period 2*pi"
        )
    if x == 0:
        return column.astype(complex)
    bessel = _bessel_series(x)
    twice = adjacency * (2.0 / rho)
    previous, current = column, twice[:, j] / 2
    real = bessel[0] * column
    imag = np.zeros_like(column)
    for k in range(1, len(bessel)):
        if k > 1:
            previous, current = current, twice @ current - previous
        # 2 (-i)^k J_k: real +, imaginary -, real -, imaginary + for k = 0, 1, 2, 3 mod 4
        coefficient = 2 * bessel[k] if k % 4 in (0, 3) else -2 * bessel[k]
        if k % 2:
            imag += coefficient * current
        else:
            real += coefficient * current
    return real + 1j * imag


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
