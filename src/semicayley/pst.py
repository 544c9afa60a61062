"""Perfect state transfer and periodicity decisions for semi-Cayley graphs.

Every verdict is exact, for every spec.  Cross-layer transfer is decided by
sign conditions in the cyclotomic ring plus 2-adic valuations (it forces
R = L).  Same-layer transfer and periodicity rest on one theorem:

    A vertex of SC(G, R, L, S) is periodic iff every eigenvalue in its
    support is an integer.

The support of a layer-0 vertex holds lambda+-(chi) for each character with
chi(S) != 0 (both weights are positive) and chi(R) when chi(S) = 0; layer 1
holds chi(L) instead of chi(R).  An integral support makes H_uu(2 pi) = 1.
Conversely, by Godsil ("Periodic graphs", Electron. J. Combin. 18(1), 2011)
the support of a periodic vertex is integral or consists of numbers
(a + b_theta sqrt(D)) / 2 with integers a, b_theta and one squarefree D > 1.
Suppose the second case for a layer-0 vertex (layer 1 is the same argument
with R and L exchanged).  Rational support eigenvalues have b = 0, hence all
equal a / 2.  Recall that R and L are inverse-closed (character sums are
real), avoid the identity (sum over chi of chi(R) is 0), and that a Galois
conjugate of a character sum is the sum of another character.

* S empty: the support is {chi(R)} and holds |R|, so a = 2 |R|.  A conjugate
  pair |R| +- c sqrt(D) of character sums, both at most |R|, forces c = 0.
  So chi(R) = |R| for every chi, whence R = {} and the support {0} is
  integral.
* S nonempty, disc0 = (|R| - |L|)^2 + 4 |S|^2 a square: lambda+-(chi_0) are
  two distinct rational support eigenvalues, which is impossible.
* Otherwise lambda+-(chi_0) = (|R| + |L| +- sqrt(disc0)) / 2, so
  a = |R| + |L|.  When chi(S) != 0, sigma = chi(R) + chi(L) = a + c sqrt(D)
  has the conjugate a - c sqrt(D), both sums at most |R| + |L|, so c = 0 and
  chi = 1 on R and L.  When chi(S) = 0, chi(R) has rational part a / 2.  The
  rational part of sum_chi chi(R) = 0 is then N1 |R| + N0 (|R| + |L|) / 2,
  N1 >= 1 characters with chi(S) != 0 and N0 with chi(S) = 0, so R = {} and
  N0 |L| = 0; if N0 = 0, every chi is 1 on L.  Either way R = L = {}, and
  disc0 = 4 |S|^2 is a square: a contradiction.

So the graph is periodic iff its spectrum is integral (every eigenvalue is
in some layer's support), with minimum period 2 pi / gcd(g0, g1), g_r the
gcd of the gaps in the support of layer r.  Transfer u -> v at tau makes u
periodic at 2 tau, so a same-layer pair needs an integral layer support.
Then, with a = u^-1 v of order 2, |H_uv(t)| = 1 iff every support term
chi(a) exp(-i lambda t) has one phase (the weights are positive and sum to
1), that is, iff each gap g = lambda_0 - lambda satisfies g t in
pi (2Z + [chi(a) = -1]).  With t = pi s this is solvable iff the chi(a) = -1
gaps share one 2-adic valuation k and the other nonzero gaps exceed it; the
solutions are then s in (1 + 2Z) / G, G the gcd of the gaps, so pi / G is
the least transfer time.

Every positive verdict is mandatorily confirmed by both the spectral path and
the independent column oracle (a Chebyshev series of exp(-itA) e_u on the
adjacency): the candidate times are synthesized from the valuation
bookkeeping, so a wrong synthesis would be caught immediately.  With an
integral spectrum H(t + 2*pi) = H(t), so a checked time is first reduced
exactly modulo 2*pi, which keeps both paths accurate and cheap at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import CycloValue
from .errors import ConsistencyError, ValidationError
from .graphs import SemiCayleySpec, Vertex
from .spectra import eigen_gcd
from .transfer import oracle_column, transfer_entry, transfer_sums

MAGNITUDE_TOL = 1e-8
PATH_AGREEMENT_TOL = 1e-8
SCAN_SAMPLES = 10_000


def _v2(n: int) -> int:
    n = abs(int(n))
    return (n & -n).bit_length() - 1


def _v2_array(gaps: np.ndarray) -> np.ndarray:
    # 2-adic valuations of nonzero int64 entries (-1 for zero): the lowest set
    # bit is a power of two, so its float exponent is exact
    return np.frexp(gaps & -gaps)[1] - 1


def nu2(q) -> int | float:
    """Exact 2-adic valuation of a rational; zero maps to +infinity."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _v2(q.numerator) - _v2(q.denominator)


@dataclass(frozen=True)
class PstVerdict:
    """Decision record for one ordered vertex pair.

    status "yes" carries the least witnessing time (as an exact multiple of
    2*pi and as a float) and the numeric confirmation magnitudes from both
    transfer paths; "no" carries the condition that failed.
    """

    source: Vertex
    target: Vertex
    status: str
    time: float | None = None
    time_two_pi: Fraction | None = None
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "from": [list(self.source.element), self.source.layer],
            "to": [list(self.target.element), self.target.layer],
            "status": self.status,
            "time": None,
            "certificate": self.certificate,
        }
        if self.time is not None:
            pi_multiple = self.time_two_pi * 2 if self.time_two_pi is not None else None
            out["time"] = {
                "value": self.time,
                "pi_multiple": str(pi_multiple) if pi_multiple is not None else None,
            }
        return out


@dataclass(frozen=True)
class PeriodReport:
    """Periodicity of a whole graph, decided exactly.

    periodic is True with the minimum period (as an exact multiple of 2*pi
    and as a float; None for the empty graph, where every t is a period), or
    False; method names the rule, "theorem" or "degenerate".
    """

    periodic: bool
    min_period_two_pi: Fraction | None = None
    min_period: float | None = None
    method: str = "theorem"
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "periodic": self.periodic,
            "min_period": self.min_period,
            "min_period_pi_multiple": (
                str(self.min_period_two_pi * 2) if self.min_period_two_pi is not None else None
            ),
            "method": self.method,
            "certificate": self.certificate,
        }


# -- necessary conditions ------------------------------------------------------


def necessary_conditions(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> str | None:
    """Cheap exact pre-filters; returns the failure reason or None.

    Same-layer transfer between distinct vertices needs a connecting element
    of order 2 (impossible in odd-order groups); cross-layer transfer with an
    inverse-closed S needs order 1 or 2.
    """
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    if u == v:
        raise ValidationError("vertices must be distinct; the diagonal is the periodicity question")
    group = spec.group
    order = group.element_order(spec.connecting_element(u, v))
    if u.layer == v.layer:
        if group.order % 2 == 1:
            return "same-layer transfer is impossible over an odd-order group"
        if order != 2:
            return f"connecting element has order {order}, not 2"
    else:
        if spec.s_inverse_closed and order not in (1, 2):
            return f"S is inverse-closed but the connecting element has order {order}"
    return None


# -- exact deciders ----------------------------------------------------------------


def refute_phases(gaps: np.ndarray, minus: np.ndarray) -> str | None:
    """Why no t > 0 has gaps * t in pi * (2Z + minus), or None if one does.

    gaps are integers and minus flags the chi(a) = -1 entries.  A solution
    needs one 2-adic valuation k on the flagged gaps, none of them zero, and
    a valuation above k on the other nonzero gaps; that is also enough.
    """
    flagged = gaps[minus]
    if not flagged.all():
        return "zero eigenvalue gap on a chi(a) = -1 character"
    valuations = _v2_array(flagged)
    if valuations.size == 0 or np.any(valuations != valuations[0]):
        distinct = np.flatnonzero(np.bincount(valuations)).tolist()
        return f"chi(a) = -1 gaps carry several 2-adic valuations {distinct}"
    other = gaps[~minus]
    clash = other[(other != 0) & (_v2_array(other) <= valuations[0])]
    if clash.size:
        return f"chi(a) = +1 gap {clash[0]} has 2-adic valuation <= {valuations[0]}"
    return None


def _confirmed(spec, u, v, t) -> dict:
    check = verify_at_time(spec, u, v, t, tol=MAGNITUDE_TOL)
    if not check["pass"]:
        raise ConsistencyError(
            f"synthesized transfer time failed numeric confirmation: |H| = {check['magnitude']}"
        )
    return {
        "magnitude_spectral": check["magnitude_spectral"],
        "magnitude_oracle": check["magnitude_oracle"],
    }


def decide_same_layer_rl(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> PstVerdict:
    """Exact same-layer decision, for every spec (R = L or not).

    Transfer exists iff the connecting element a has order 2, the support of
    the layer is integral, and its gaps from the first support eigenvalue
    share one 2-adic valuation k where chi(a) = -1 while exceeding k on the
    other nonzero gaps; the least witnessing time is then pi / G, G the gcd
    of the gaps (pi / 2^k when G has no odd factor).
    """
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    if u.layer != v.layer:
        raise ValidationError("same-layer decision needs vertices on one layer")
    if u == v:
        raise ValidationError("vertices must be distinct")
    group = spec.group
    a = spec.connecting_element(u, v)

    order = group.element_order(a)
    if order != 2:
        return PstVerdict(u, v, "no", certificate={
            "rule": "order-2", "detail": f"connecting element has order {order}, not 2"})
    support = spec.spectrum.layer_gaps[u.layer]
    if support is None:
        detail = ("spectrum is not integral (chi(R) or |chi(S)| irrational for some character)"
                  if spec.R == spec.L else
                  f"the support of layer {u.layer} is not integral, so its vertices are not periodic")
        return PstVerdict(u, v, "no", certificate={"rule": "non-integral", "detail": detail})
    gaps, chars = support
    minus = group.char_exponents[chars, group.index(a)] != 0
    obstruction = refute_phases(gaps, minus)
    if obstruction is not None:
        return PstVerdict(u, v, "no", certificate={"rule": "valuation", "detail": obstruction})
    k = _v2(gaps[minus][0])
    gcd = int(np.gcd.reduce(gaps))
    t = math.pi / gcd
    certificate = {"rule": "valuation-profile", "k": k, "confirmation": _confirmed(spec, u, v, t)}
    return PstVerdict(u, v, "yes", time=t, time_two_pi=Fraction(1, 2 * gcd), certificate=certificate)


def decide_cross_layer(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> PstVerdict:
    """Exact cross-layer decision (complete for every spec).

    Transfer between layers forces R = L, no character may vanish on S, the
    spectrum must be integral with nu2(|chi(S)|) constant equal to nu2(|S|),
    and the sign chi(a) chi(S)/|chi(S)| (conjugated for layer 1 -> 0) must be
    +-1 in the cyclotomic ring with the matching valuation of the top gap;
    the witnessing time is then pi / 2^(k+1) with k = nu2(|S|).

    A graph admitting such transfer is in fact a Cayley graph over the
    extension of G by the inverting involution; that is a structural aside,
    not something this decision needs.
    """
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    if u.layer == v.layer:
        raise ValidationError("cross-layer decision needs vertices on different layers")
    spect = spec.spectrum
    group = spec.group

    zero_indices = sorted(spect.chi_s_zero_indices)
    if zero_indices:
        return PstVerdict(u, v, "no", certificate={
            "rule": "chi-s-zero",
            "detail": f"chi(S) = 0 for character indices {zero_indices}"})
    if spec.R != spec.L:
        return PstVerdict(u, v, "no", certificate={
            "rule": "r-neq-l", "detail": "cross-layer transfer forces R = L"})
    if not spect.is_integral:
        return PstVerdict(u, v, "no", certificate={
            "rule": "non-integral",
            "detail": "spectrum is not integral (chi(R) or |chi(S)| irrational for some character)"})
    k = _v2(len(spec.S))
    if spect.spoke_valuation_break is not None:
        return PstVerdict(u, v, "no", certificate={
            "rule": "spoke-valuation",
            "detail": f"nu2|chi(S)| differs from nu2|S| = {k} at character {spect.spoke_valuation_break}"})
    top = spect.pairs[0].lambda_plus_int
    chi_a_exponents = group.char_exponents[:, group.index(spec.connecting_element(u, v))]
    for pair in spect.pairs:
        abs_s = (pair.lambda_plus_int - pair.lambda_minus_int) // 2
        chi_a = CycloValue.root(chi_a_exponents[pair.index], group.exponent)
        spoke = pair.chi_s.conj() if u.layer == 0 else pair.chi_s
        w = (chi_a * spoke).as_integer()
        if w == abs_s:
            sign = 1
        elif w == -abs_s:
            sign = -1
        else:
            return PstVerdict(u, v, "no", certificate={
                "rule": "sign",
                "detail": f"chi(a) chi(S) is not +-|chi(S)| at character {pair.index}"})
        gap = top - pair.lambda_plus_int
        if sign < 0:
            if gap == 0 or _v2(gap) != k + 1:
                return PstVerdict(u, v, "no", certificate={
                    "rule": "valuation",
                    "detail": f"-1-sign gap {gap} misses 2-adic valuation {k + 1}"})
        else:
            if gap != 0 and _v2(gap) < k + 2:
                return PstVerdict(u, v, "no", certificate={
                    "rule": "valuation",
                    "detail": f"+1-sign gap {gap} has 2-adic valuation < {k + 2}"})
    t = math.pi / 2 ** (k + 1)
    certificate = {"rule": "valuation-profile", "k": k, "confirmation": _confirmed(spec, u, v, t)}
    return PstVerdict(u, v, "yes", time=t, time_two_pi=Fraction(1, 2 ** (k + 2)), certificate=certificate)


# -- numeric confirmation and scans ----------------------------------------------


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
    than its integer part has.
    """
    if not spec.spectrum.is_integral:
        return t
    if pi_multiple is not None:
        return float(pi_multiple % 2) * math.pi
    if t < 2 * math.pi:  # math.pi < pi: already reduced
        return t
    exact = Decimal(t)
    digits = exact.adjusted() + 40
    with localcontext() as ctx:
        ctx.prec = digits + 2
        return float(exact % (2 * _pi(digits)))


def verify_at_time(spec: SemiCayleySpec, u: Vertex, v: Vertex, t: float, tol: float = MAGNITUDE_TOL) -> dict:
    """|H_uv(t)| through both transfer paths; passes iff both reach 1 - tol.

    An integral spectrum reduces t exactly modulo 2*pi first.  The oracle
    path is the column exp(-itA) e_u, which refuses t * rho beyond
    transfer.COLUMN_HORIZON (rho the largest degree) with a ValidationError.
    """
    if not 0 <= t < math.inf:
        raise ValidationError("time must be finite and nonnegative")
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    t = reduce_time(spec, t)
    column = oracle_column(spec, spec.vertex_index(u), t)
    mag_oracle = float(abs(column[spec.vertex_index(v)]))
    mag_spectral = float(abs(transfer_entry(spec, u, v, t)))
    if abs(mag_spectral - mag_oracle) > PATH_AGREEMENT_TOL:
        raise ConsistencyError(
            f"spectral and oracle paths disagree: {mag_spectral} vs {mag_oracle} at t = {t}"
        )
    magnitude = min(mag_spectral, mag_oracle)
    return {
        "magnitude": magnitude,
        "magnitude_spectral": mag_spectral,
        "magnitude_oracle": mag_oracle,
        "pass": magnitude >= 1.0 - tol,
    }


def scan_pair(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> dict:
    """Max |H_uv| over a uniform time grid: numeric evidence, not proof.

    No decision reads it; the tests use it as a numeric referee.  The grid
    has SCAN_SAMPLES points up to one period 2*pi / eigen_gcd when the
    spectrum is integral, else up to 2*pi.
    """
    try:
        horizon, note = 2 * math.pi / eigen_gcd(spec), "2*pi / gcd of eigenvalue gaps"
    except ValidationError:
        horizon, note = 2 * math.pi, "2*pi (no exact period available)"
    ts = np.linspace(horizon / SCAN_SAMPLES, horizon, SCAN_SAMPLES)
    mags = np.abs(transfer_sums(spec, u, v, ts)) / spec.n
    best = int(np.argmax(mags))
    return {
        "max_magnitude": float(mags[best]),
        "argmax_time": float(ts[best]),
        "samples": SCAN_SAMPLES,
        "horizon": horizon,
        "horizon_rule": note,
    }


# -- top-level analyses ------------------------------------------------------------


def decide_pair(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> PstVerdict:
    """Full decision stack for one ordered pair of distinct vertices."""
    reason = necessary_conditions(spec, u, v)
    if reason is not None:
        return PstVerdict(u, v, "no", certificate={"rule": "necessary-condition", "detail": reason})
    if u.layer != v.layer:
        return decide_cross_layer(spec, u, v)
    return decide_same_layer_rl(spec, u, v)


def find_pst(spec: SemiCayleySpec) -> list[PstVerdict]:
    """Decide every vertex pair up to translation symmetry.

    H_uv(t) depends only on (g^{-1} h, layers), so one representative per
    (connecting element, layer pair) is decided, ordered by layer pair
    (0,0), (1,1), (0,1), (1,0) and then by element enumeration index.
    """
    group = spec.group
    verdicts = []
    for r, s in ((0, 0), (1, 1), (0, 1), (1, 0)):
        for a in group.elements():
            if r == s and a == group.identity:
                continue
            u = Vertex(group.identity, r)
            v = Vertex(a, s)
            verdicts.append(decide_pair(spec, u, v))
    return verdicts


def periodicity(spec: SemiCayleySpec) -> PeriodReport:
    """Periodicity of the whole graph.

    The graph is periodic iff its spectrum is integral (the theorem of the
    module docstring): |H_uu(t)| = 1 on layer r exactly at the multiples of
    2*pi / g_r, g_r the gcd of the gaps in its support, so the minimum
    period is 2*pi / gcd(g_0, g_1).
    """
    if not spec.R and not spec.L and not spec.S:
        return PeriodReport(
            periodic=True, min_period_two_pi=None, min_period=None, method="degenerate",
            certificate={"detail": "empty graph: H(t) is the identity at every t, so every t is a period"},
        )
    if not spec.spectrum.is_integral:
        return PeriodReport(
            periodic=False, method="theorem",
            certificate={"detail": "spectrum is not integral, which is equivalent to aperiodicity"},
        )
    gcds = [int(np.gcd.reduce(spec.spectrum.layer_gaps[layer][0])) for layer in (0, 1)]
    m = math.gcd(*gcds)
    return PeriodReport(
        periodic=True, min_period_two_pi=Fraction(1, m), min_period=2 * math.pi / m,
        method="theorem", certificate={"eigen_gcd": m} if spec.R == spec.L else {"layer_gap_gcds": gcds},
    )
