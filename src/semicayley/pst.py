"""Perfect state transfer and periodicity decisions for semi-Cayley graphs.

The exact characterizations cover R = L completely: same-layer transfer is
decided by 2-adic valuation profiles of eigenvalue gaps, cross-layer transfer
by sign conditions in the cyclotomic ring plus valuations, and periodicity is
equivalent to spectral integrality with minimum period 2*pi / gcd of the gaps.

For R != L the theorems only constrain: cross-layer pairs are still decided
exactly (transfer forces R = L) and an integral spectrum proves periodicity,
while same-layer pairs and non-integral periodicity fall back to a sound-but-
incomplete exact refuter (incommensurable or parity-contradictory phase
constraints) and, failing that, to numeric evidence from a time scan --
reported as undecided, never guessed.

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
from .groups import Element
from .spectra import eigen_gcd
from .transfer import oracle_column, transfer_entry, transfer_sums

MAGNITUDE_TOL = 1e-8
PATH_AGREEMENT_TOL = 1e-8
DEFAULT_SCAN_SAMPLES = 10_000


def _v2(n: int) -> int:
    n = abs(int(n))
    return (n & -n).bit_length() - 1


def nu2(q) -> int | float:
    """Exact 2-adic valuation of a rational; zero maps to +infinity."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    return _v2(q.numerator) - _v2(q.denominator)


@dataclass(frozen=True)
class PstVerdict:
    """Decision record for one ordered vertex pair.

    status "yes" carries the witnessing time (as an exact multiple of 2*pi
    and as a float) and the numeric confirmation magnitudes from both
    transfer paths; "no" carries the condition that failed; "undecided"
    carries scan evidence.
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
    periodic: bool | None
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


# -- exact phase-constraint refuter (R != L fallback) ---------------------------


def _vec_render(vec: dict[int, Fraction]) -> str:
    parts = []
    for key in sorted(vec):
        coeff = vec[key]
        parts.append(str(coeff) if key == 1 else f"{coeff}*sqrt({key})")
    return " + ".join(parts) if parts else "0"


def _phase_conditions(spec: SemiCayleySpec, a: Element, layer: int) -> list[tuple[dict, int]]:
    """Alignment constraints d*t in pi*(2Z + parity) implied by |H_uv(t)| = 1.

    Each certified eigenvalue gap from the reference eigenvalue of the layer
    is expressed exactly over the Q-basis {1} u {sqrt(squarefree)}, from the
    surd vectors the spectrum certified; uncertified characters are skipped,
    which keeps the refuter sound (the trivial character is always certified).
    Only valid for connecting elements of order 1 or 2.
    """
    spect = spec.spectrum
    group = spec.group
    n_exp = group.exponent
    chi_a = group.char_exponents[:, group.index(a)]

    top = spect.pairs[0]
    reference = top.lambda_plus_surd if layer == 0 else top.lambda_minus_surd
    conditions = []
    for pair in spect.pairs:
        numerator = chi_a[pair.index]
        if numerator == 0:
            parity = 0
        elif 2 * numerator % n_exp == 0:
            parity = 1
        else:
            raise ValidationError("phase conditions need a connecting element of order 1 or 2")
        vecs = pair.layer_surds(layer)
        if None in vecs:
            continue
        for vec in vecs:
            gap = dict(reference)
            for key, coeff in vec.items():
                gap[key] = gap.get(key, Fraction(0)) - coeff
                if gap[key] == 0:
                    del gap[key]
            conditions.append((gap, parity))
    return conditions


def refute_phases(conditions: list[tuple[dict, int]]) -> str | None:
    """Certificate that no t > 0 satisfies all constraints, or None.

    Distinct squarefree surds are linearly independent over Q, so two
    constraint values with non-proportional coordinate vectors are
    incommensurable and their time grids meet only at t = 0; proportional
    values can still clash through their +-1 parities.
    """
    nonzero = []
    for vec, parity in conditions:
        if not vec:
            if parity:
                return "a vanishing eigenvalue gap is forced to a -1 phase"
            continue
        nonzero.append((vec, parity))
    for i, (v1, p1) in enumerate(nonzero):
        for v2, p2 in nonzero[i + 1 :]:
            if set(v1) != set(v2):
                return (
                    f"incommensurable eigenvalue gaps {_vec_render(v1)} and {_vec_render(v2)}"
                )
            ratios = {v1[key] / v2[key] for key in v1}
            if len(ratios) != 1:
                return (
                    f"incommensurable eigenvalue gaps {_vec_render(v1)} and {_vec_render(v2)}"
                )
            ratio = ratios.pop()
            if (ratio.denominator * p1 - ratio.numerator * p2) % 2 != 0:
                return (
                    f"phase parity clash between gaps {_vec_render(v1)} and {_vec_render(v2)}"
                )
    return None


# -- exact deciders (R = L) ------------------------------------------------------


def _character_signs(group, a: Element) -> np.ndarray:
    """chi(a) = +-1 for every character, in enumeration order."""
    chi_a = group.char_exponents[:, group.index(a)]
    if np.any(2 * chi_a % group.exponent):
        raise ValidationError("character sign requires an element of order 1 or 2")
    return np.where(chi_a == 0, 1, -1)


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
    """Exact same-layer decision for R = L graphs.

    Transfer exists iff the connecting element has order 2, the spectrum is
    integral, and the gaps from the top eigenvalue all share one 2-adic
    valuation k on the chi(a) = -1 characters while exceeding k on the
    chi(a) = +1 characters; the minimal witnessing time is then pi / 2^k.
    """
    if spec.R != spec.L:
        raise ValidationError("same-layer decision procedure requires R = L")
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
    spect = spec.spectrum
    if not spect.is_integral:
        return PstVerdict(u, v, "no", certificate={
            "rule": "non-integral",
            "detail": "spectrum is not integral (chi(R) or |chi(S)| irrational for some character)"})
    top = spect.pairs[0].lambda_plus_exact
    minus_vals: set[int] = set()
    plus_gaps: list[int] = []
    for sign, pair in zip(_character_signs(group, a), spect.pairs):
        for lam in (pair.lambda_plus_exact, pair.lambda_minus_exact):
            gap = top - lam
            if sign < 0:
                if gap == 0:
                    return PstVerdict(u, v, "no", certificate={
                        "rule": "valuation",
                        "detail": "zero eigenvalue gap on a chi(a) = -1 character"})
                minus_vals.add(_v2(gap))
            else:
                plus_gaps.append(gap)
    if len(minus_vals) != 1:
        return PstVerdict(u, v, "no", certificate={
            "rule": "valuation",
            "detail": f"chi(a) = -1 gaps carry several 2-adic valuations {sorted(minus_vals)}"})
    k = minus_vals.pop()
    for gap in plus_gaps:
        if gap != 0 and _v2(gap) <= k:
            return PstVerdict(u, v, "no", certificate={
                "rule": "valuation",
                "detail": f"chi(a) = +1 gap {gap} has 2-adic valuation <= {k}"})
    t = math.pi / 2**k
    certificate = {"rule": "valuation-profile", "k": k, "confirmation": _confirmed(spec, u, v, t)}
    return PstVerdict(u, v, "yes", time=t, time_two_pi=Fraction(1, 2 ** (k + 1)), certificate=certificate)


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
    for pair in spect.pairs:
        if _v2((pair.lambda_plus_exact - pair.lambda_minus_exact) // 2) != k:
            return PstVerdict(u, v, "no", certificate={
                "rule": "spoke-valuation",
                "detail": f"nu2|chi(S)| differs from nu2|S| = {k} at character {pair.index}"})
    top = spect.pairs[0].lambda_plus_exact
    chi_a_exponents = group.char_exponents[:, group.index(spec.connecting_element(u, v))]
    for pair in spect.pairs:
        abs_s = (pair.lambda_plus_exact - pair.lambda_minus_exact) // 2
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
        gap = top - pair.lambda_plus_exact
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


def _scan_times(spec: SemiCayleySpec) -> tuple[np.ndarray, float, str]:
    # beyond one period the magnitudes repeat; without an exact period use 2*pi
    try:
        horizon, note = 2 * math.pi / eigen_gcd(spec), "2*pi / gcd of eigenvalue gaps"
    except ValidationError:
        horizon, note = 2 * math.pi, "2*pi (no exact period available)"
    return np.linspace(horizon / DEFAULT_SCAN_SAMPLES, horizon, DEFAULT_SCAN_SAMPLES), horizon, note


def _scan_magnitudes(spec: SemiCayleySpec, u: Vertex, v: Vertex, ts: np.ndarray) -> np.ndarray:
    return np.abs(transfer_sums(spec, u, v, ts)) / spec.n


def scan_pair(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> dict:
    """Max |H_uv| over a uniform time grid: numeric evidence, not proof."""
    ts, horizon, horizon_note = _scan_times(spec)
    mags = _scan_magnitudes(spec, u, v, ts)
    best = int(np.argmax(mags))
    return {
        "max_magnitude": float(mags[best]),
        "argmax_time": float(ts[best]),
        "samples": DEFAULT_SCAN_SAMPLES,
        "horizon": horizon,
        "horizon_rule": horizon_note,
    }


# -- top-level analyses ------------------------------------------------------------


def decide_pair(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> PstVerdict:
    """Full decision stack for one ordered pair of distinct vertices."""
    reason = necessary_conditions(spec, u, v)
    if reason is not None:
        return PstVerdict(u, v, "no", certificate={"rule": "necessary-condition", "detail": reason})
    if u.layer != v.layer:
        return decide_cross_layer(spec, u, v)
    if spec.R == spec.L:
        return decide_same_layer_rl(spec, u, v)
    obstruction = refute_phases(_phase_conditions(spec, spec.connecting_element(u, v), u.layer))
    if obstruction is not None:
        return PstVerdict(u, v, "no", certificate={"rule": "phase-obstruction", "detail": obstruction})
    return PstVerdict(u, v, "undecided", certificate={
        "rule": "numeric-scan",
        "detail": "same-layer pair with R != L is outside the exact characterizations",
        "scan": scan_pair(spec, u, v),
    })


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


def _support_gap_gcd(spec: SemiCayleySpec, layer: int) -> int:
    # gcd of the eigenvalue gaps in the support of a layer vertex (integral spectrum)
    values = [int(vec.get(1, 0)) for p in spec.spectrum.pairs for vec in p.layer_surds(layer)]
    return math.gcd(*(lam - values[0] for lam in values))


def periodicity(spec: SemiCayleySpec) -> PeriodReport:
    """Periodicity of the whole graph.

    An integral spectrum is periodic: |H_uu(t)| = 1 on layer r exactly at the
    multiples of 2*pi / g_r, g_r the gcd of the gaps in its support, so the
    minimum period is 2*pi / gcd(g_0, g_1).  A non-integral R = L spectrum is
    aperiodic; for R != L the exact refuter may certify non-periodicity,
    otherwise the question is reported undecided with scan evidence (max over
    t of the worse of the two diagonal entries).
    """
    group = spec.group
    if not spec.R and not spec.L and not spec.S:
        return PeriodReport(
            periodic=True, min_period_two_pi=None, min_period=None, method="degenerate",
            certificate={"detail": "empty graph: H(t) is the identity at every t, so every t is a period"},
        )
    if spec.spectrum.is_integral:
        gcds = [_support_gap_gcd(spec, layer) for layer in (0, 1)]
        m = math.gcd(*gcds)
        return PeriodReport(
            periodic=True, min_period_two_pi=Fraction(1, m), min_period=2 * math.pi / m,
            method="theorem", certificate={"eigen_gcd": m} if spec.R == spec.L else {"layer_gap_gcds": gcds},
        )
    if spec.R == spec.L:
        return PeriodReport(
            periodic=False, method="theorem",
            certificate={"detail": "spectrum is not integral, which is equivalent to aperiodicity when R = L"},
        )
    for layer in (0, 1):
        obstruction = refute_phases(_phase_conditions(spec, group.identity, layer))
        if obstruction is not None:
            return PeriodReport(
                periodic=False, method="phase-obstruction",
                certificate={"layer": layer, "detail": obstruction},
            )
    ts, horizon, horizon_note = _scan_times(spec)
    diag0 = _scan_magnitudes(spec, Vertex(group.identity, 0), Vertex(group.identity, 0), ts)
    diag1 = _scan_magnitudes(spec, Vertex(group.identity, 1), Vertex(group.identity, 1), ts)
    worst = np.minimum(diag0, diag1)
    # |H_uu| ~ 1 near t = 0 for every graph; revival evidence only counts
    # after the diagonal has genuinely left its initial neighbourhood
    departed = np.nonzero(worst < 0.9)[0]
    scan: dict = {"samples": DEFAULT_SCAN_SAMPLES, "horizon": horizon, "horizon_rule": horizon_note}
    if departed.size:
        start = int(departed[0])
        while start + 1 < worst.size and worst[start + 1] <= worst[start]:
            start += 1
        best = start + int(np.argmax(worst[start:]))
        scan["max_min_diagonal_magnitude"] = float(worst[best])
        scan["argmax_time"] = float(ts[best])
        scan["departure_time"] = float(ts[start])
    else:
        scan["max_min_diagonal_magnitude"] = 1.0
        scan["note"] = "diagonal magnitudes never left the initial neighbourhood"
    return PeriodReport(
        periodic=None, method="numeric-scan",
        certificate={
            "detail": "R != L periodicity is outside the exact characterizations",
            "scan": scan,
        },
    )
