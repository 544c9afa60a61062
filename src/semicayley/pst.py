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
solutions are then s in (1 + 2Z) / G, G the gcd of the gaps.

One law gives every transfer time, same-layer or cross-layer: transfer from
a layer-r vertex u happens first at pi / g_r.  Let P be the least period of
u and tau the least transfer time to v.  If t1 and t2 are transfer times,
t1 - t2 is a period of u; so tau < P, else tau - P would be an earlier one.
H is symmetric, so H(tau) e_u = gamma e_v gives H(tau) e_v = gamma e_u and
H(2 tau) e_u = gamma^2 e_u: P divides 2 tau, and tau < P forces P = 2 tau.
With P = 2 pi / g_r, tau = pi / g_r.  The deciders therefore only decide
whether transfer exists; the time is the layer's.

When R = L, layer 1 is layer 0 seen through phi: (g, r) -> (g^-1, 1 - r).
First, phi is an automorphism of SC(G, R, R, S).  It maps the R-edge
(g, 0) ~ (g x, 0) onto (g^-1, 1) ~ (g^-1 x^-1, 1), an L-edge because R is
inverse-closed and L = R, and back in the same way; it maps the spoke
(g, 0) ~ (g x, 1) onto (g^-1, 1) ~ (g^-1 x^-1, 0), which is the spoke
(h, 0) ~ (h x, 1) at h = g^-1 x^-1, with the same x in S.  So its
permutation matrix P has P A P^T = A, hence P H(t) P^T = H(t) and
H_phi(u),phi(v) = H_uv, S inverse-closed or not.  So the pair (e, 1) -> (a, s)
transfers exactly as (e, 0) -> (a^-1, 1 - s) does: layer 1's pair at a is
layer 0's at a^-1, which is a itself for a same-layer pair whose a has
order 2, as transfer needs.  Second, the deciders give the mirrored pair
the same certificate, not just the same answer.  The necessary conditions
read the order of a, which a^-1 shares.  R = L makes layer_gaps[0] and
layer_gaps[1] equal arrays, so g_1 = g_0, the same-layer checks read the
same gaps on the same column, and the cross-layer rules that read only the
spec are shared.  Layer 1's
sign exponents are layer 0's negated modulo N (-1, no exponent, stays -1),
and E[chi, a^-1] = -E[chi, a] modulo N, so E[chi, a] = -e exactly when
E[chi, a^-1] = e: every character gets the same code at a from layer 1 as
at a^-1 from layer 0, so the first failing character, its rule and its
detail (which read only layer 0's gaps and k) are the same.  find_pst
therefore decides layer 0 only when R = L and reads layer 1's verdicts
through phi.

Every positive verdict is mandatorily confirmed by both the spectral path and
the independent column oracle (exp(-itA) e_u by Lanczos on the graph's edges),
so a wrong verdict or time would be caught immediately.  With an
integral spectrum H(t + 2*pi) = H(t), so a checked time is first reduced
exactly modulo 2*pi, which keeps both paths accurate and cheap at any t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .characters import character_matrix
from .errors import ConsistencyError, ValidationError
from .graphs import SemiCayleySpec, Vertex
from .spectra import eigen_gcd
from .transfer import _column, _entry, _entry_sums, _oracle_time, reduce_time

MAGNITUDE_TOL = 1e-8
PATH_AGREEMENT_TOL = 1e-8
SCAN_SAMPLES = 10_000


def _v2_array(gaps: np.ndarray) -> np.ndarray:
    # 2-adic valuations of nonzero int64 entries (-1 for zero): the lowest set
    # bit is a power of two, so its float exponent is exact
    return np.frexp(gaps & -gaps)[1] - 1


def time_json(value: float, pi_multiple: Fraction | None) -> dict:
    """The report form of a time: its float and, where exact, its multiple of pi."""
    return {"value": value, "pi_multiple": str(pi_multiple) if pi_multiple is not None else None}


class PstVerdict(NamedTuple):
    """Decision record for one ordered vertex pair, an immutable named tuple.

    status "yes" carries the least witnessing time pi / g_r, g_r the gap gcd
    of the source's layer (see the module docstring; as an exact multiple of
    pi and as a float) and the numeric confirmation magnitudes from both
    transfer paths; "no" carries the condition that failed, with time and
    pi_multiple None.
    """

    source: Vertex
    target: Vertex
    status: str
    time: float | None
    pi_multiple: Fraction | None
    certificate: dict

    def to_json(self) -> dict:
        return {
            "from": [list(self.source.element), self.source.layer],
            "to": [list(self.target.element), self.target.layer],
            "status": self.status,
            "time": None if self.time is None else time_json(self.time, self.pi_multiple),
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class PeriodReport:
    """Periodicity of a whole graph, decided exactly.

    periodic is True with the minimum period (as an exact multiple of pi
    and as a float; None for the empty graph, where every t is a period), or
    False; method names the rule, "theorem" or "degenerate".
    """

    periodic: bool
    min_period_pi_multiple: Fraction | None = None
    min_period: float | None = None
    method: str = "theorem"
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "periodic": self.periodic,
            "min_period": self.min_period,
            "min_period_pi_multiple": None if self.min_period_pi_multiple is None else str(self.min_period_pi_multiple),
            "method": self.method,
            "certificate": self.certificate,
        }


# -- necessary conditions ------------------------------------------------------


def _screen(spec: SemiCayleySpec, same_layer: bool, columns: np.ndarray) -> list[str | None]:
    # the failure reason of the necessary conditions for the indexed connecting elements, or None:
    # same-layer transfer between distinct vertices needs a connecting element of order 2
    # (none in an odd-order group); cross-layer transfer with an inverse-closed S order 1 or 2
    orders = spec.group.orders(columns)
    if same_layer:
        if spec.group.order % 2 == 1:
            return ["same-layer transfer is impossible over an odd-order group"] * len(orders)
        return [None if o == 2 else f"connecting element has order {o}, not 2" for o in orders.tolist()]
    if spec.s_inverse_closed:
        return [None if o <= 2 else f"S is inverse-closed but the connecting element has order {o}"
                for o in orders.tolist()]
    return [None] * len(orders)


def _pair(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> tuple[Vertex, Vertex, np.ndarray]:
    # the validated distinct vertices and their connecting element's index as an index array
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    if u == v:
        raise ValidationError("vertices must be distinct; the diagonal is the periodicity question")
    return u, v, np.array([spec._connecting_index(u.element, v.element)], dtype=np.int64)


# -- the decision core -------------------------------------------------------------
#
# _verdicts decides layer cases (r, s) of one kind, both same-layer or both
# cross-layer, for an array of connecting-element indices at once: find_pst
# passes two cases and every element, decide_pair one case and one element,
# and the layer deciders call decide_pair.  The cases of one kind share the
# necessary conditions and, across layers, the rules that read only the
# spec.  The per-case deciders see the elements that pass the necessary
# conditions and return one outcome per index, a `no` certificate (a dict)
# or the k of a `yes`, which _verdicts times.  When R = L a call with both
# cases decides layer 0 only and reads layer 1 through phi (see the module
# docstring); decide_pair's one case never mirrors, so it referees that.

_NOT_INTEGRAL = "spectrum is not integral (chi(R) or |chi(S)| irrational for some character)"

# first failing check of a character in the cross-layer sign test
_SIGN, _MINUS_GAP, _PLUS_GAP = 1, 2, 3


def refute_phases(gaps: np.ndarray, minus: np.ndarray) -> tuple[list[str | None], list[int]]:
    """Per column of minus: why no t > 0 has gaps * t in pi * (2Z + minus), or None if one does.

    gaps are integers, a row of two per character (see Spectrum.layer_gaps),
    and minus[i, j] flags chi_i(a_j) = -1 for both gaps of row i.  A solution
    needs one 2-adic valuation k on the flagged gaps, none of them zero, and
    a valuation above k on the other nonzero gaps; that is also enough.  Also
    returns each column's k, the least valuation of a flagged gap (-1 for a
    zero gap), which is the valuation of them all where no obstruction is
    found.
    """
    valuations = _v2_array(gaps).astype(np.int8)  # -1 on zero gaps
    valuations_nonzero = np.where(gaps != 0, valuations, np.int8(127))
    low_nonzero = valuations_nonzero.min(axis=1)
    k = np.where(minus, valuations.min(axis=1)[:, None], np.int8(127)).min(axis=0)
    zero_flagged = k < 0
    uniform = k == np.where(minus, valuations.max(axis=1)[:, None], np.int8(-1)).max(axis=0)
    # the first character with an unflagged nonzero gap of valuation <= k, and
    # its first such gap: the + gap or else the - gap
    clash = ~minus & (low_nonzero[:, None] <= k)
    which = clash.argmax(axis=0)
    branch = (valuations_nonzero[which, 0] > k).astype(np.int64)
    clash_gaps = np.where(clash.any(axis=0), gaps[which, branch], 0).tolist()
    distinct = {}
    mixed = np.flatnonzero(~zero_flagged & ~uniform)
    if mixed.size:
        # each character's gap valuations as bits: a mixed column flags no
        # zero gap, so ORing its flagged characters gives its valuations
        powers = np.left_shift(1, np.maximum(valuations, 0).astype(np.int64))
        bits = powers[:, 0] | powers[:, 1]
        masks = np.bitwise_or.reduce(np.where(minus[:, mixed], bits[:, None], 0), axis=0).tolist()
        distinct = {j: [v for v in range(mask.bit_length()) if mask >> v & 1] for j, mask in zip(mixed.tolist(), masks)}
    out = []
    for j, (k_j, zero) in enumerate(zip(k.tolist(), zero_flagged.tolist())):
        if zero:
            out.append("zero eigenvalue gap on a chi(a) = -1 character")
        elif j in distinct:
            out.append(f"chi(a) = -1 gaps carry several 2-adic valuations {distinct[j]}")
        elif clash_gaps[j]:
            out.append(f"chi(a) = +1 gap {clash_gaps[j]} has 2-adic valuation <= {k_j}")
        else:
            out.append(None)
    return out, k.tolist()


def _same_layer(spec: SemiCayleySpec, layer: int, columns: np.ndarray) -> list:
    # connecting elements of order 2 within one layer
    gaps = spec.spectrum.layer_gaps[layer]
    if gaps is None:
        detail = (_NOT_INTEGRAL if spec.R == spec.L else
                  f"the support of layer {layer} is not integral, so its vertices are not periodic")
        return [{"rule": "non-integral", "detail": detail} for _ in range(len(columns))]
    return [k if obstruction is None else {"rule": "valuation", "detail": obstruction}
            for obstruction, k in zip(*refute_phases(gaps, spec.group.exponent_rows(columns).T != 0))]


def _cross_layer_rule(spec: SemiCayleySpec) -> dict | None:
    # the cross-layer rules that read only the spec, in the order they are checked
    spect = spec.spectrum
    zero_indices = np.flatnonzero(spect.chi_s_zero).tolist()
    if zero_indices:
        return {"rule": "chi-s-zero", "detail": f"chi(S) = 0 for character indices {zero_indices}"}
    if spec.R != spec.L:
        return {"rule": "r-neq-l", "detail": "cross-layer transfer forces R = L"}
    if not spect.is_integral:
        return {"rule": "non-integral", "detail": _NOT_INTEGRAL}
    # here a character's two gaps differ by lambda+ - lambda- = 2 |chi(S)|, which is 2 |S| at the trivial one
    valuations = _v2_array(np.diff(spect.layer_gaps[0])[:, 0] // 2)
    breaks = np.flatnonzero(valuations != valuations[0])
    if breaks.size:
        return {"rule": "spoke-valuation",
                "detail": f"nu2|chi(S)| differs from nu2|S| = {valuations[0]} at character {breaks[0]}"}
    return None


def _cross_layer(spec: SemiCayleySpec, source_layer: int, columns: np.ndarray, rule: dict | None) -> list:
    # connecting elements from one layer to the other, rule being _cross_layer_rule(spec)
    if rule is not None:
        return [dict(rule) for _ in range(len(columns))]
    gaps = spec.spectrum.layer_gaps[source_layer]  # lambda_0 - lambda+-, one row per character
    k = int(_v2_array(gaps[0, 1])) - 1  # the trivial character's lambda_0 - lambda- is 2 |S|
    valuations = _v2_array(gaps[:, 0])
    plus_code = np.where((gaps[:, 0] == 0) | (valuations >= k + 2), 0, _PLUS_GAP).astype(np.int8)
    minus_code = np.where((gaps[:, 0] != 0) & (valuations == k + 1), 0, _MINUS_GAP).astype(np.int8)
    # chi(a) chi(S) / |chi(S)| = +-1 iff E[chi, a] is the sign exponent; from
    # layer 1 the spoke is chi(S) itself, whose exponents are the negated ones
    signs = spec.spectrum.sign_exponents
    if source_layer == 1:
        signs = np.where(signs < 0, -1, -signs % spec.group.exponent)
    chi_a = spec.group.exponent_rows(columns).T  # E is symmetric: column a is row a
    codes = np.where(chi_a == signs[:, :1], plus_code[:, None],
                     np.where(chi_a == signs[:, 1:], minus_code[:, None], _SIGN))
    first = (codes != 0).argmax(axis=0)  # 0 for a column without a failure, whose code is then 0
    out = []
    for i, code in zip(first.tolist(), codes[first, np.arange(len(columns))].tolist()):
        if code == _SIGN:
            out.append({"rule": "sign", "detail": f"chi(a) chi(S) is not +-|chi(S)| at character {i}"})
        elif code == _MINUS_GAP:
            out.append({"rule": "valuation", "detail": f"-1-sign gap {gaps[i, 0]} misses 2-adic valuation {k + 1}"})
        elif code == _PLUS_GAP:
            out.append({"rule": "valuation", "detail": f"+1-sign gap {gaps[i, 0]} has 2-adic valuation < {k + 2}"})
        else:
            out.append(k)
    return out


def _gap_gcd(spec: SemiCayleySpec, layer: int) -> int:
    # g_r: a layer-r vertex has the least period 2 pi / g_r and transfers first at pi / g_r
    return int(np.gcd.reduce(spec.spectrum.layer_gaps[layer], axis=None))


def _confirmed(spec, u, v, t) -> dict:
    check = verify_at_time(spec, u, v, t, tol=MAGNITUDE_TOL)
    if not check["pass"]:
        raise ConsistencyError(f"transfer time {t} failed numeric confirmation: |H| = {check['magnitude']}")
    return {key: check[key] for key in ("magnitude_spectral", "magnitude_oracle")}


def _verdicts(spec: SemiCayleySpec, cases: list, columns: np.ndarray) -> list[PstVerdict]:
    """Verdicts on each case (u, s, targets) in turn, columns[j] indexing the connecting element from u to targets[j].

    The pairs of a case go from its one source u to its targets on layer s,
    and the cases are all same-layer or all cross-layer.  When R = L and
    the call holds two cases, layer 0's and then layer 1's, layer 1's
    outcome at a is layer 0's at a^-1, which is a for every same-layer pair
    that passes the necessary conditions (the module docstring proves it);
    columns then holds a^-1 with each a.  Every `yes` is confirmed
    numerically on its own pair.
    """
    same_layer = cases[0][0].layer == cases[0][1]
    reasons = _screen(spec, same_layer, columns)
    open_ = [j for j, reason in enumerate(reasons) if reason is None]
    rule = _cross_layer_rule(spec) if open_ and not same_layer else None
    mirror = None
    if spec.R == spec.L and len(cases) == 2:
        position = np.empty(spec.group.order, dtype=np.int64)
        position[columns] = np.arange(len(columns))
        mirror = position[spec.group._inverses[columns]].tolist()  # j -> the index of columns[j]^-1
    verdicts = []
    for u, _, targets in cases:
        if u.layer == 1 and mirror is not None:
            outcomes = [outcome if isinstance(outcome, int) else dict(outcome)
                        for outcome in map(outcomes.__getitem__, mirror)]
        else:
            outcomes = [None if reason is None else {"rule": "necessary-condition", "detail": reason}
                        for reason in reasons]
            if open_:
                decided = (_same_layer(spec, u.layer, columns[open_]) if same_layer
                           else _cross_layer(spec, u.layer, columns[open_], rule))
                for j, outcome in zip(open_, decided):
                    outcomes[j] = outcome
        if not all(isinstance(outcome, dict) for outcome in outcomes):
            g = _gap_gcd(spec, u.layer)
            t = math.pi / g
        for v, outcome in zip(targets, outcomes):
            if isinstance(outcome, dict):
                verdicts.append(PstVerdict(u, v, "no", None, None, outcome))
                continue
            certificate = {"rule": "valuation-profile", "k": outcome, "confirmation": _confirmed(spec, u, v, t)}
            verdicts.append(PstVerdict(u, v, "yes", t, Fraction(1, g), certificate))
    return verdicts


# -- exact deciders ----------------------------------------------------------------


def decide_same_layer_rl(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> PstVerdict:
    """Exact same-layer decision, for every spec (R = L or not).

    Transfer exists iff the connecting element a has order 2, the support of
    the layer is integral, and its gaps from the first support eigenvalue
    share one 2-adic valuation k where chi(a) = -1 while exceeding k on the
    other nonzero gaps; the least witnessing time is then pi / G, G the gcd
    of the gaps (pi / 2^k when G has no odd factor).
    """
    if spec.validate_vertex(u).layer != spec.validate_vertex(v).layer:
        raise ValidationError("same-layer decision needs vertices on one layer")
    return decide_pair(spec, u, v)


def decide_cross_layer(spec: SemiCayleySpec, u: Vertex, v: Vertex) -> PstVerdict:
    """Exact cross-layer decision (complete for every spec).

    Transfer between layers forces R = L, no character may vanish on S, the
    spectrum must be integral with nu2(|chi(S)|) constant equal to nu2(|S|),
    and the sign chi(a) chi(S)/|chi(S)| (conjugated for layer 1 -> 0) must be
    +-1 in the cyclotomic ring with the matching valuation of the top gap;
    the least witnessing time is then pi / g, g the gcd of the eigenvalue
    gaps (pi / 2^(k+1), k = nu2(|S|), when g has no odd factor).

    A graph admitting such transfer is in fact a Cayley graph over the
    extension of G by the inverting involution; that is a structural aside,
    not something this decision needs.
    """
    if spec.validate_vertex(u).layer == spec.validate_vertex(v).layer:
        raise ValidationError("cross-layer decision needs vertices on different layers")
    return decide_pair(spec, u, v)


# -- numeric confirmation and scans ----------------------------------------------


def verify_at_time(spec: SemiCayleySpec, u: Vertex, v: Vertex, t: float, tol: float = MAGNITUDE_TOL) -> dict:
    """|H_uv(t)| through both transfer paths; passes iff both reach 1 - tol.

    An integral spectrum reduces t exactly modulo 2*pi first.  The oracle path is the column exp(-itA) e_u
    by Lanczos, within 1e-10 of the exact column (see transfer.oracle_column).  Two magnitudes that are not
    within PATH_AGREEMENT_TOL, a NaN on either path included, are a ConsistencyError.  A ValidationError
    refuses a tol outside [0, 1) or bool, a bad vertex, and a time that reduce_time (a bool, non-real,
    non-finite) or oracle_column (negative, past the horizon) refuses.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < 1:  # NaN fails too
        raise ValidationError(f"tolerance must be a number in [0, 1), got {tol!r}")
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    t = reduce_time(spec, t)
    _oracle_time(t)
    # the spectral entry first: the temporaries of a first read of the
    # spectrum's floats are freed before the oracle builds its product table
    mag_spectral = float(abs(_entry(spec, u, v, t)))
    column = _column(spec, spec._vertex_index(u), t)
    mag_oracle = float(abs(column[spec._vertex_index(v)]))
    if not abs(mag_spectral - mag_oracle) <= PATH_AGREEMENT_TOL:  # a NaN on either path fails too
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
    u = spec.validate_vertex(u)
    v = spec.validate_vertex(v)
    try:
        horizon, note = 2 * math.pi / eigen_gcd(spec), "2*pi / gcd of eigenvalue gaps"
    except ValidationError:
        horizon, note = 2 * math.pi, "2*pi (no exact period available)"
    ts = np.linspace(horizon / SCAN_SAMPLES, horizon, SCAN_SAMPLES)
    chi_a = character_matrix(spec.group)[spec._connecting_index(u.element, v.element)]
    mags = np.abs(_entry_sums(spec, u.layer, v.layer, chi_a, ts)) / spec.n
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
    """Full decision stack for one ordered pair of distinct vertices.

    The necessary conditions come first, then the same-layer or cross-layer
    rules; the verdict is find_pst's for the connecting element of (u, v).
    """
    u, v, column = _pair(spec, u, v)
    return _verdicts(spec, [(u, v.layer, [v])], column)[0]


def find_pst(spec: SemiCayleySpec) -> list[PstVerdict]:
    """Decide every vertex pair up to translation symmetry.

    H_uv(t) depends only on (g^{-1} h, layers), so one representative pair
    (e, r) -> (a, s) per connecting element a and layer pair is decided,
    ordered by layer pair (0,0), (1,1), (0,1), (1,0) and then by element
    enumeration index.  The verdicts are decide_pair's, but each layer pair
    decides all its elements at once on the index arrays of the group and
    the spectrum.  When R = L, layer 1's verdicts are layer 0's read through
    the automorphism (g, r) -> (g^-1, 1 - r) (see the module docstring), so
    each kind is decided once.  The one per-pair computation left is the
    oracle confirmation of a `yes`, which every `yes` gets on its own pair.
    """
    group = spec.group
    elements = group.elements()
    verdicts = []
    # the same-layer cases, which skip a = e (u = v), then the cross-layer cases
    for start, layers in ((1, ((0, 0), (1, 1))), (0, ((0, 1), (1, 0)))):
        columns = np.arange(start, group.order)
        cases = [(Vertex(group.identity, r), s, [Vertex(g, s) for g in elements[start:]]) for r, s in layers]
        verdicts += _verdicts(spec, cases, columns)
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
            periodic=True, min_period_pi_multiple=None, min_period=None, method="degenerate",
            certificate={"detail": "empty graph: H(t) is the identity at every t, so every t is a period"},
        )
    if not spec.spectrum.is_integral:
        return PeriodReport(
            periodic=False, method="theorem",
            certificate={"detail": "spectrum is not integral, which is equivalent to aperiodicity"},
        )
    gcds = [_gap_gcd(spec, layer) for layer in (0, 1)]
    m = math.gcd(*gcds)
    return PeriodReport(
        periodic=True, min_period_pi_multiple=Fraction(2, m), min_period=2 * math.pi / m,
        method="theorem", certificate={"eigen_gcd": m} if spec.R == spec.L else {"layer_gap_gcds": gcds},
    )
