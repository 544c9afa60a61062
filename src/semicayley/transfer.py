"""Quantum-walk transfer matrices H(t) = exp(-i t A) on semi-Cayley graphs.

Deliberately independent computation paths:

* the character formula for n * H_(g,r),(h,s)(t), a function of the layers
  and a = g^{-1} h alone (the product), behind every entry and scan and
  behind `transfer_rows`, the 4n values H_(e,r),(a,s)(t) that hold all of
  H(t); `transfer_matrix` only gathers them through index(g^{-1} h),
* the referee, which shares no eigen or character data with it: one column
  exp(-itA) e_j by Lanczos on the spec's adjacency (`oracle_column`, which
  confirms every `yes` in as many products as e_j has distinct eigenvalues
  in its support, and never more than 2n), and the dense
  truncated-Taylor scaling-and-squaring exponential (`oracle_expm`, the
  tests' referee for whole matrices).

Equivalence of the paths, entrywise to 1e-9, is the core QA property of the
package.  Time is a plain float.  The spectral path reduces it exactly when
the spectrum is integral (`reduce_time`) and then checks the accuracy
horizon (`check_horizon`); the oracle, which reads no spectral data, checks
the horizon alone.
"""

from __future__ import annotations

import math
import numbers
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import character_matrix
from .errors import ValidationError
from .graphs import SemiCayleySpec, Vertex
from .groups import integer

# largest |t * rho| of an unreduced time (check_horizon).  The oracle's work stops
# growing with t at 2n products, but a rounding error of eps * rho in an
# eigenvalue moves the phases exp(-i t lambda) by about t * rho * eps, 2e-10 here
COLUMN_HORIZON = 1e6
# the column oracle's two error budgets (see oracle_column), 100x and 1e6x
# under the path agreement tolerance 1e-8 of the state-transfer module
_INVARIANCE_TOL = 1e-10
_CAP_TOL = 1e-14


def transfer_rows(spec: SemiCayleySpec, t: float) -> np.ndarray:
    """The 2 x 2 x n array rows[r, s, k] = H_(e,r),(g_k,s)(t), g_k the k-th element.

    H_(g,r),(h,s)(t) depends only on the layers and a = g^{-1} h, so these
    4n values are all of H(t): entry (g, r), (h, s) is rows[r, s, index(a)].
    The entry formula of transfer_entry runs once per layer case, for every
    connecting element at once, on one character table.
    """
    table = character_matrix(spec.group)
    ts = np.array([_checked_time(spec, t)])
    return np.array([[_entry_sums(spec, r, s, table, ts)[:, 0] for s in (0, 1)] for r in (0, 1)]) / spec.n


def transfer_matrix(spec: SemiCayleySpec, t: float) -> np.ndarray:
    """H(t) as a 2n x 2n matrix: transfer_rows gathered through index(g^{-1} h)."""
    group = spec.group
    everything = np.arange(group.order)
    differences = group.add_indices(group._inverses[:, None], everything)
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


def transfer_entry(spec: SemiCayleySpec, u: Vertex, v: Vertex, t: float) -> complex:
    """Single entry H_uv(t): the four-case character formula at one time.

    The sum over characters chi of chi(a) (w+ exp(-i lambda+ t) + w-
    exp(-i lambda- t)) / n, with a = g^{-1} h the connecting element and w+-
    the weights of the (u.layer, v.layer) case.
    """
    return _entry(spec, spec.validate_vertex(u), spec.validate_vertex(v), t)


def _entry(spec: SemiCayleySpec, u: Vertex, v: Vertex, t: float) -> complex:
    # transfer_entry of validated vertices
    group = spec.group
    chi_a = np.exp(2j * np.pi * group.exponent_rows([spec._connecting_index(u.element, v.element)])[0] / group.exponent)
    return complex(_entry_sums(spec, u.layer, v.layer, chi_a, np.array([_checked_time(spec, t)]))[0] / spec.n)


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


def _lanczos_steps(x: float, size: int) -> int:
    """Least m with 4 * sum_{k >= m} |J_k(x)| <= _CAP_TOL by Kapteyn's bound, at most size.

    Kapteyn: |J_k(x)| <= x^k e^r / (k + r)^k with r = sqrt(k^2 - x^2) for k >= x,
    and consecutive bounds shrink by at least the factor x / (k + r) from k on.
    """
    k = np.arange(math.floor(x) + 1, size + 1, dtype=float)
    r = np.sqrt(k * k - x * x)
    ratio = x / (k + r)
    log_tail = math.log(4) + k * np.log(ratio) + r - np.log1p(-ratio)
    below = np.flatnonzero(log_tail <= math.log(_CAP_TOL))
    return int(k[below[0]]) if below.size else size


@lru_cache(maxsize=None)
def _pi(digits: int) -> Decimal:
    # pi to about `digits` significant digits (the series recipe of the decimal docs)
    with localcontext() as ctx:
        ctx.prec = digits + 2
        last, term, total, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while total != last:
            last = total
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            term = term * n / d
            total += term
    return total


def reduce_time(spec: SemiCayleySpec, t: float, pi_multiple: Fraction | None = None) -> float:
    """t modulo 2*pi when the spectrum is integral (then H(t + 2*pi) = H(t)); else t.

    The reduction is exact: a multiple of pi is reduced as a Fraction, and a
    float, being a binary rational, is reduced against pi to 40 more digits
    than its integer part has; a negative float lands in (-2*pi, 0].  A
    reduced time is its own reduction.  Any real t is read as a float; a
    bool, a t that is not a real number and a non-finite t are a
    ValidationError.
    """
    t = _real_time(t)  # a float before Decimal(t), which reads no Fraction and has no remainder of inf or nan
    if not spec.spectrum.is_integral:
        return t
    if pi_multiple is not None:
        return float(pi_multiple % 2) * math.pi
    if abs(t) < 2 * math.pi:  # math.pi < pi: already reduced
        return t
    exact = Decimal(t)
    digits = exact.adjusted() + 40
    with localcontext() as ctx:
        ctx.prec = digits + 2
        return float(exact % (2 * _pi(digits)))


def check_horizon(spec: SemiCayleySpec, t: float) -> float:
    """x = t * rho, rho the largest degree, for a time both transfer paths can still resolve.

    Refuses |x| beyond COLUMN_HORIZON with a ValidationError; reduce_time brings an integral spectrum's t within it.
    """
    rho = float(spec.max_degree)
    x = t * rho
    if abs(x) > COLUMN_HORIZON:
        raise ValidationError(
            f"t * rho = {x:.6g} is beyond the oracle's accuracy and work horizon "
            f"{COLUMN_HORIZON:.0e} (rho = {rho:g}, the largest degree); only a time of a graph "
            "with an integral spectrum can be reduced exactly modulo its period 2*pi"
        )
    return x


def _checked_time(spec: SemiCayleySpec, t: float) -> float:
    t = reduce_time(spec, t)
    check_horizon(spec, t)
    return t


def oracle_column(spec: SemiCayleySpec, j: int, t: float) -> np.ndarray:
    """Column j of exp(-itA) by Lanczos on the spec's adjacency, started at e_j.

    Each step multiplies the newest basis vector by A (the first reads row j,
    which is A e_j as A is symmetric), subtracts the three-term recurrence and then one
    classical Gram-Schmidt pass over the whole stored basis.  After m steps,
    A V = V T + beta_m v_{m+1} e_m^T with T tridiagonal, and the column is
    V exp(-itT) e_1, from np.linalg.eigh of the m x m matrix T.  Reads the
    spec's adjacency and largest degree only, no eigen or character data,
    so it is an independent referee for the spectral path.  Two stopping
    rules, each with a proven bound on the error in exact arithmetic:

    * invariance: stop at the first step with t * beta_m <= _INVARIANCE_TOL.
      The error solves E' = -iA E - i beta_m v_{m+1} e_m^T exp(-itT) e_1 from
      E(0) = 0, so its norm is at most t * beta_m (A is symmetric).  The
      Krylov space of e_j has as many dimensions as e_j has distinct
      eigenvalues in its support: 10 steps on hypercube(9), 4 on the
      dihedral graph of Z_256.
    * cap: take at most min(2n, m_x) steps (see _lanczos_steps).  V p(T) e_1
      = p(A) e_j for every polynomial p of degree below m, and A and T have
      their eigenvalues in [-rho, rho], rho the largest row sum of A; so the
      error is at most twice max |exp(-it lambda) - p(lambda)| on [-rho, rho]
      for the best such p, at most twice the Chebyshev-Bessel tail
      2 sum_{k >= m} |J_k(x)|, x = t rho.  m_x makes that 4 sum at most
      _CAP_TOL; after 2n steps the Krylov space is the whole space.

    So the products stop growing with t at 2n.  A t that is a bool, not a
    real number, not finite or negative, x above COLUMN_HORIZON (see
    check_horizon) and a j that is not an integer in [0, 2n) raise
    ValidationError.
    """
    t = _oracle_time(t)
    try:
        j = integer(j)
    except TypeError as exc:
        raise ValidationError(f"vertex index must be an integer, got {j!r}") from exc
    if not 0 <= j < 2 * spec.n:
        raise ValidationError(f"vertex index {j} is outside [0, {2 * spec.n})")
    return _column(spec, j, t)


def _real_time(t) -> float:
    # the time rule of every entrance: a real number other than a bool, read
    # as a float (an int, a Fraction or a numpy scalar too), then finite
    if isinstance(t, bool) or not isinstance(t, numbers.Real):
        raise ValidationError(f"time must be a real number, got {t!r}")
    try:
        t = float(t)
    except OverflowError:  # an int or a Fraction beyond the floats
        t = math.inf
    if not math.isfinite(t):
        raise ValidationError("time must be finite")
    return t


def _oracle_time(t) -> float:
    # the oracle's time rule: a finite real, then nonnegative
    t = _real_time(t)
    if t < 0:
        raise ValidationError("time must be nonnegative")
    return t


def _column(spec: SemiCayleySpec, j: int, t: float) -> np.ndarray:
    # oracle_column of a vertex index and a time that passed _oracle_time
    x = check_horizon(spec, t)
    adjacency = spec.adjacency
    size = adjacency.shape[0]
    column = np.zeros(size, dtype=complex)
    column[j] = 1.0
    if x == 0:
        return column
    steps = _lanczos_steps(x, size)
    basis = np.empty((steps, size))
    alpha, beta = np.zeros(steps), np.zeros(steps)
    basis[0] = column.real
    for k in range(steps):
        w = np.array(adjacency[j]) if k == 0 else adjacency @ basis[k]
        alpha[k] = basis[k] @ w
        w -= alpha[k] * basis[k]
        if k:
            w -= beta[k - 1] * basis[k - 1]
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta[k] = math.sqrt(w @ w)
        if t * beta[k] <= _INVARIANCE_TOL or k + 1 == steps:
            break
        basis[k + 1] = w / beta[k]
    m = k + 1
    # eigh reads the lower triangle: T's diagonal and subdiagonal
    vals, vecs = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(beta[: m - 1], -1))
    weights = vecs @ (np.exp(-1j * t * vals) * vecs[0])
    return weights.real @ basis[:m] + 1j * (weights.imag @ basis[:m])

