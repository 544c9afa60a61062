import math
from fractions import Fraction

import numpy as np
import pytest

import semicayley as sc
from semicayley import (
    AbelianGroup,
    ValidationError,
    Vertex,
    decide_pair,
    find_pst,
    make_spec,
    periodicity,
    verify_at_time,
)
from semicayley.pst import decide_cross_layer, decide_same_layer_rl
from semicayley.transfer import oracle_expm

from conftest import random_inverse_closed, random_spec, random_subset
from referees import nu2, vertices


def test_nu2_examples():
    assert nu2(12) == 2
    assert nu2(0) == math.inf
    assert nu2(Fraction(3, 8)) == -3
    assert nu2(Fraction(-6, 5)) == 1
    assert nu2(1) == 0


def test_nu2_laws(rng):
    for _ in range(200):
        a = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40)))
        b = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 40)))
        assert nu2(a * b) == nu2(a) + nu2(b)
        lhs = nu2(a + b)
        assert lhs >= min(nu2(a), nu2(b))
        if nu2(a) != nu2(b):
            assert lhs == min(nu2(a), nu2(b))


def test_necessary_conditions():
    def screened(spec, u, v):
        # the reason of a necessary-condition `no`, or None when another rule decides
        certificate = decide_pair(spec, u, v).certificate
        return certificate["detail"] if certificate.get("rule") == "necessary-condition" else None

    sun5 = sc.sunlet(5)
    assert screened(sun5, Vertex((0,), 0), Vertex((1,), 0)) == "same-layer transfer is impossible over an odd-order group"

    z4spec = make_spec(AbelianGroup([4]), [(1,), (3,)], [(1,), (3,)], [(0,)])
    assert screened(z4spec, Vertex((0,), 0), Vertex((1,), 0)) == "connecting element has order 4, not 2"

    c4 = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    assert screened(c4, Vertex((0,), 0), Vertex((1,), 0)) is None

    # cross-layer order gate only applies for inverse-closed S
    sun4 = sc.sunlet(4)
    reason = screened(sun4, Vertex((0,), 0), Vertex((1,), 1))
    assert reason == "S is inverse-closed but the connecting element has order 4"
    directed = make_spec(AbelianGroup([4]), [], [], [(1,)])
    assert screened(directed, Vertex((0,), 0), Vertex((1,), 1)) is None

    with pytest.raises(ValidationError):
        decide_pair(c4, Vertex((0,), 0), Vertex((0,), 0))


def test_same_layer_c4_is_no():
    c4 = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    verdict = decide_same_layer_rl(c4, Vertex((0,), 0), Vertex((1,), 0))
    assert verdict.status == "no"
    assert verdict.certificate["rule"] == "valuation"
    assert "[1, 2]" in verdict.certificate["detail"]


def test_same_layer_complete_bipartite_yes():
    # SC(Z2, {}, {}, Z2) is K_{2,2}; layer mates are antipodal on the 4-cycle
    spec = make_spec(AbelianGroup([2]), [], [], [(0,), (1,)])
    for layer in (0, 1):
        verdict = decide_same_layer_rl(spec, Vertex((0,), layer), Vertex((1,), layer))
        assert verdict.status == "yes"
        assert verdict.time_two_pi == Fraction(1, 4)
        assert abs(verdict.time - math.pi / 2) < 1e-12
        confirmation = verdict.certificate["confirmation"]
        assert confirmation["magnitude_oracle"] >= 1 - 1e-8
        assert confirmation["magnitude_spectral"] >= 1 - 1e-8


def test_same_layer_non_integral_is_no():
    spec = make_spec(AbelianGroup([5]), [(1,), (4,)], [(1,), (4,)], [(0,)])
    # the order-2 necessary condition fails in an odd group before integrality even matters
    verdict = decide_same_layer_rl(spec, Vertex((0,), 0), Vertex((1,), 0))
    assert verdict.status == "no" and verdict.certificate["rule"] == "necessary-condition"
    spec8 = make_spec(AbelianGroup([8]), [(1,), (7,)], [(1,), (7,)], [(0,)])
    verdict = decide_same_layer_rl(spec8, Vertex((0,), 0), Vertex((4,), 0))
    assert verdict.status == "no" and verdict.certificate["rule"] == "non-integral"


def test_same_layer_decides_r_neq_l():
    # sunlet(4) has R != L; its layer-0 support holds 1 +- sqrt(2), so no
    # layer-0 vertex is periodic and no same-layer transfer can start there
    spec = sc.sunlet(4)
    u, v = Vertex((0,), 0), Vertex((2,), 0)
    verdict = decide_same_layer_rl(spec, u, v)
    assert verdict.status == "no" and verdict.certificate["rule"] == "non-integral"
    assert "layer 0" in verdict.certificate["detail"]
    assert decide_pair(spec, u, v) == verdict
    with pytest.raises(ValidationError):
        decide_same_layer_rl(spec, u, Vertex((2,), 1))


def test_cross_layer_k2_and_c4():
    k2 = sc.hypercube(1)
    verdict = decide_cross_layer(k2, Vertex((0,), 0), Vertex((0,), 1))
    assert verdict.status == "yes" and verdict.time_two_pi == Fraction(1, 4)

    c4 = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    verdict = decide_cross_layer(c4, Vertex((0,), 0), Vertex((1,), 1))
    assert verdict.status == "yes"
    assert abs(verdict.time - math.pi / 2) < 1e-12
    # the (0,0) -> (0,1) pair fails the valuation profile
    verdict = decide_cross_layer(c4, Vertex((0,), 0), Vertex((0,), 1))
    assert verdict.status == "no" and verdict.certificate["rule"] == "valuation"


def test_cross_layer_join_is_no():
    join = sc.join_spec(AbelianGroup([3]), [(1,), (2,)], [])
    verdict = decide_cross_layer(join, Vertex((0,), 0), Vertex((0,), 1))
    assert verdict.status == "no"
    assert verdict.certificate["rule"] == "chi-s-zero"


def test_cross_layer_needs_equal_layers_certificate():
    verdict = decide_cross_layer(sc.sunlet(4), Vertex((0,), 0), Vertex((0,), 1))
    assert verdict.status == "no" and verdict.certificate["rule"] == "r-neq-l"


def test_cross_layer_spoke_valuation():
    # SC(Z3, {1, 2}, {1, 2}, {1, 2}): |chi(S)| = |w + w^2| = 1 off the trivial
    # character, and nu2(1) = 0 differs from nu2|S| = 1
    spec = make_spec(AbelianGroup([3]), [(1,), (2,)], [(1,), (2,)], [(1,), (2,)])
    verdict = decide_cross_layer(spec, Vertex((0,), 0), Vertex((0,), 1))
    assert verdict.status == "no" and verdict.certificate == {
        "rule": "spoke-valuation", "detail": "nu2|chi(S)| differs from nu2|S| = 1 at character 1"}


def test_spoke_valuation_names_the_first_differing_character(rng):
    # against the per-character loop, on every R = L draw that reaches the rule
    reached = 0
    for _ in range(400):
        spec = random_spec(rng, equal_layers=True)
        group = spec.group
        verdict = decide_cross_layer(spec, Vertex(group.identity, 0), Vertex(group.identity, 1))
        if verdict.certificate["rule"] in ("chi-s-zero", "non-integral"):
            continue
        reached += 1
        k = nu2(len(spec.S))
        lam_p, lam_m = spec.spectrum.ints.tolist()
        breaks = [i for i, (plus, minus) in enumerate(zip(lam_p, lam_m)) if nu2((plus - minus) // 2) != k]
        if breaks:
            assert verdict.certificate == {
                "rule": "spoke-valuation",
                "detail": f"nu2|chi(S)| differs from nu2|S| = {k} at character {breaks[0]}"}, spec
        else:
            assert verdict.certificate["rule"] != "spoke-valuation", spec
    assert reached > 50


def test_cross_layer_directed_matching():
    # S = {1} over Z4 pairs (x,0) with (x+1,1): four disjoint edges, PST at pi/2.
    # chi(S) is properly complex here, exercising the exact sign orientation.
    spec = make_spec(AbelianGroup([4]), [], [], [(1,)])
    yes = decide_cross_layer(spec, Vertex((0,), 0), Vertex((1,), 1))
    assert yes.status == "yes" and yes.time_two_pi == Fraction(1, 4)
    rev = decide_cross_layer(spec, Vertex((0,), 1), Vertex((3,), 0))
    assert rev.status == "yes"
    non_partner = decide_cross_layer(spec, Vertex((0,), 0), Vertex((2,), 1))
    assert non_partner.status == "no" and non_partner.certificate["rule"] == "sign"


def test_verify_at_time():
    k2 = sc.hypercube(1)
    u, v = Vertex((0,), 0), Vertex((0,), 1)
    good = verify_at_time(k2, u, v, math.pi / 2)
    assert good["pass"] and good["magnitude"] >= 1 - 1e-12
    bad = verify_at_time(k2, u, v, math.pi / 4)
    assert not bad["pass"]
    assert abs(bad["magnitude"] - math.sqrt(0.5)) < 1e-9
    same = verify_at_time(k2, u, u, 0.0)
    assert same["pass"] and abs(same["magnitude"] - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        verify_at_time(k2, u, v, -1.0)


def test_periodicity_examples():
    full4 = sc.dihedral_full_coset(AbelianGroup([4]))
    report = periodicity(full4)
    assert report.periodic is True
    assert report.min_period_two_pi == Fraction(1, 4)
    assert abs(report.min_period - math.pi / 2) < 1e-12

    c4 = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    report = periodicity(c4)
    assert report.periodic is True and report.min_period_two_pi == Fraction(1, 2)

    # R = L with irrational eigenvalues: exactly aperiodic by the theorem
    spec8 = make_spec(AbelianGroup([8]), [(1,), (7,)], [(1,), (7,)], [(0,)])
    report = periodicity(spec8)
    assert report.periodic is False and report.method == "theorem"

    # R != L and irrational eigenvalues 1 +- sqrt(26): aperiodic by the theorem
    report = periodicity(sc.cone(5))
    assert report.periodic is False and report.method == "theorem"

    empty = make_spec(AbelianGroup([3]), [], [], [])
    report = periodicity(empty)
    assert report.periodic is True and report.min_period_two_pi is None


Z5_RL = ((5,), [(1,), (4,)], [(2,), (3,)], [(4,)])
Z2Z4_RL = ((2, 4), [(0, 1), (0, 3), (1, 0)], [(1, 1), (1, 3)], [(0, 0), (1, 2)])


def _spec(data):
    factors, r_set, l_set, s_set = data
    return make_spec(AbelianGroup(factors), r_set, l_set, s_set)


def test_rl_periodicity_from_integral_spectrum():
    # SC(Z5, {+-1}, {+-2}, {4}) has spectrum {3, 1^5, (-2)^4}: both layers see
    # every eigenvalue and the gaps have gcd 1
    report = periodicity(_spec(Z5_RL))
    assert report.periodic is True and report.method == "theorem"
    assert report.min_period_two_pi == 1 and abs(report.min_period - 2 * math.pi) < 1e-12
    assert report.certificate == {"layer_gap_gcds": [1, 1]}
    # K2 u 2K1: layer 0 sees +-1 and layer 1 only 0, so the period is pi
    # although the gaps of the whole spectrum {1, -1, 0, 0} have gcd 1
    report = periodicity(make_spec(AbelianGroup([2]), [(1,)], [], []))
    assert report.periodic is True and report.min_period_two_pi == Fraction(1, 2)
    assert report.certificate == {"layer_gap_gcds": [2, 0]}


def _primes_up_to(m):
    return [q for q in range(2, m + 1) if all(q % d for d in range(2, q))]


def test_rl_integral_periods_are_minimal_under_the_oracle(rng):
    # every period is a multiple of the minimum one, and a shorter period
    # P / k has k at most the spectral spread; so P is the minimum period iff
    # every diagonal entry of H(P) is unimodular and, for each prime q up to
    # the spread, some diagonal entry of H(P / q) is not
    from semicayley import build

    def min_diagonal(adjacency, t):
        return float(np.min(np.abs(np.diag(oracle_expm(adjacency, t)))))

    checked = 0
    for _ in range(1500):
        spec = random_spec(rng)
        if spec.R == spec.L or not spec.spectrum.is_integral:
            continue
        checked += 1
        report = periodicity(spec)
        assert report.periodic is True and report.method == "theorem", spec
        adjacency = build(spec)
        lams = spec.spectrum.lambdas.T.ravel()
        assert min_diagonal(adjacency, report.min_period) > 1 - 1e-8, spec
        for q in _primes_up_to(round(max(lams) - min(lams))):
            assert min_diagonal(adjacency, report.min_period / q) < 1 - 1e-6, (spec, q)
    assert checked >= 20


def test_deciders_read_the_certified_spectrum(monkeypatch):
    # exactness is certified once, when the spectrum is built: deciding every
    # same-layer pair and the periodicity reduces no cyclotomic value again
    from semicayley.characters import CycloValue

    original = CycloValue.residue
    for data in (Z5_RL, Z2Z4_RL):
        spec = _spec(data)
        assert spec.spectrum.is_integral in (True, False)  # built, and certified, before counting
        calls = []
        monkeypatch.setattr(CycloValue, "residue", lambda self: calls.append(self) or original(self))
        group = spec.group
        for layer in (0, 1):
            for a in group.elements()[1:]:
                decide_pair(spec, Vertex(group.identity, layer), Vertex(a, layer))
        periodicity(spec)
        monkeypatch.setattr(CycloValue, "residue", original)
        assert calls == [], data


def test_sunlet_even_same_layer_non_integral():
    for n in (4, 6, 10):
        spec = sc.sunlet(n)
        verdict = decide_pair(spec, Vertex((0,), 0), Vertex((n // 2,), 0))
        assert verdict.status == "no"
        assert verdict.certificate["rule"] == "non-integral"


def test_disjoint_union_r_neq_l_same_layer_yes():
    # SC(Z2, {1}, {}, {}) = K2 u 2K1: the K2 in layer 0 transfers at pi/2
    # (layer-0 support {1, -1}, gap 2), the isolated layer-1 vertices never
    from semicayley import build

    spec = make_spec(AbelianGroup([2]), [(1,)], [], [])
    verdict = decide_pair(spec, Vertex((0,), 0), Vertex((1,), 0))
    assert verdict.status == "yes" and verdict.time_two_pi == Fraction(1, 4)
    assert abs(verdict.time - math.pi / 2) < 1e-12
    h = oracle_expm(build(spec), verdict.time)
    assert abs(h[spec.vertex_index(Vertex((0,), 0)), spec.vertex_index(Vertex((1,), 0))]) > 1 - 1e-12
    verdict = decide_pair(spec, Vertex((0,), 1), Vertex((1,), 1))
    assert verdict.status == "no" and verdict.certificate["rule"] == "valuation"


def test_translation_invariance(rng):
    for equal_layers in (True, False):
        spec = random_spec(rng, equal_layers=equal_layers)
        group = spec.group
        for _ in range(6):
            g = group.element(int(rng.integers(group.order)))
            h = group.element(int(rng.integers(group.order)))
            r = int(rng.integers(2))
            s = int(rng.integers(2))
            if (g, r) == (h, s):
                continue
            shift = group.element(int(rng.integers(group.order)))
            base = decide_pair(spec, Vertex(g, r), Vertex(h, s))
            moved = decide_pair(spec, Vertex(group.mul(shift, g), r), Vertex(group.mul(shift, h), s))
            assert base.status == moved.status
            assert base.time_two_pi == moved.time_two_pi


def test_find_pst_canonical_order():
    c4 = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    verdicts = find_pst(c4)
    keys = [(v.source.layer, v.target.layer, v.target.element) for v in verdicts]
    assert keys == [
        (0, 0, (1,)), (1, 1, (1,)),
        (0, 1, (0,)), (0, 1, (1,)),
        (1, 0, (0,)), (1, 0, (1,)),
    ]
    yes = [v for v in verdicts if v.status == "yes"]
    assert [(v.source.layer, v.target.element, v.target.layer) for v in yes] == [
        (0, (1,), 1), (1, (1,), 0),
    ]


def test_find_pst_q3_antipodal_only():
    verdicts = find_pst(sc.hypercube(3))
    yes = [(v.source, v.target) for v in verdicts if v.status == "yes"]
    assert yes == [
        (Vertex((0, 0), 0), Vertex((1, 1), 1)),
        (Vertex((0, 0), 1), Vertex((1, 1), 0)),
    ]
    for v in verdicts:
        assert v.status in ("yes", "no")


def test_find_pst_builds_the_adjacency_once(monkeypatch):
    # every yes is confirmed on the spec's one adjacency, built on first use
    calls = []
    original = sc.graphs.build

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(sc.graphs, "build", counting)
    verdicts = find_pst(sc.hypercube(3))
    assert sum(v.status == "yes" for v in verdicts) == 2
    assert len(calls) == 1


def test_verdict_json():
    c4 = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    verdict = decide_cross_layer(c4, Vertex((0,), 0), Vertex((1,), 1))
    blob = verdict.to_json()
    assert blob["status"] == "yes"
    assert blob["time"]["pi_multiple"] == "1/2"
    assert abs(blob["time"]["value"] - math.pi / 2) < 1e-12
    assert blob["from"] == [[0], 0] and blob["to"] == [[1], 1]


def test_reversed_pairs_agree(rng):
    # H(t) is symmetric, so transfer u -> v and v -> u are equivalent; the
    # deciders see the reversed pair through the conjugate characters.
    for equal_layers in (True, False):
        spec = random_spec(rng, equal_layers=equal_layers)
        group = spec.group
        forward = {}
        for v in find_pst(spec):
            key = (v.source.layer, v.target.layer, v.target.element)
            forward[key] = (v.status, v.time_two_pi)
        for (r, s, a), outcome in forward.items():
            reverse = forward.get((s, r, group.inverse(a)))
            if reverse is not None:
                assert reverse == outcome


def test_disjoint_union_same_layer_theorem():
    # S = {}: two copies of Cay(Z2, {1}) = K2; the theorem still decides the
    # in-layer pair through the chi(S) = 0 eigenvalue convention
    spec = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [])
    verdict = decide_same_layer_rl(spec, Vertex((0,), 0), Vertex((1,), 0))
    assert verdict.status == "yes"
    assert verdict.time_two_pi == Fraction(1, 4)


def test_hypercube_4_antipodal():
    q4 = sc.hypercube(4)
    yes = [(v.source, v.target) for v in find_pst(q4) if v.status == "yes"]
    assert yes == [
        (Vertex((0, 0, 0), 0), Vertex((1, 1, 1), 1)),
        (Vertex((0, 0, 0), 1), Vertex((1, 1, 1), 0)),
    ]


def test_dihedral_involutions_family_verdicts():
    # Cay(Dih(A), xA u {involutions}): no transfer for these A ...
    for factors in ([2], [3], [2, 2], [6]):
        spec = sc.dihedral_involutions(AbelianGroup(factors))
        assert all(v.status == "no" for v in find_pst(spec))
        assert periodicity(spec).periodic is True
    # ... but for A = Z4 the valuation profile is satisfied and the transfer
    # is real: oracle magnitude 1 at pi/2
    spec = sc.dihedral_involutions(AbelianGroup([4]))
    yes = [v for v in find_pst(spec) if v.status == "yes"]
    assert [(v.source, v.target) for v in yes] == [
        (Vertex((0,), 0), Vertex((2,), 0)),
        (Vertex((0,), 1), Vertex((2,), 1)),
    ]
    for v in yes:
        assert v.time_two_pi == Fraction(1, 4)
        assert v.certificate["confirmation"]["magnitude_oracle"] >= 1 - 1e-8


def test_deciders_match_oracle_scan_on_random_integral_specs(rng):
    # stronger than spot checks: exhaustive oracle time scans over one period
    # must agree with the exact deciders on yes/no for every vertex pair
    from semicayley import build, spectrum
    from semicayley.spectra import eigen_gcd

    from conftest import random_inverse_closed, random_spec, random_subset

    done = 0
    while done < 8:
        spec = random_spec(rng, equal_layers=True)
        spect = spectrum(spec)
        if not spect.is_integral or (not spec.R and not spec.S):
            continue
        done += 1
        period = 2 * math.pi / eigen_gcd(spec)
        samples = 2000
        step = oracle_expm(build(spec), period / samples)
        current = np.eye(2 * spec.n, dtype=complex)
        best = np.zeros((2 * spec.n, 2 * spec.n))
        for _ in range(samples):
            current = current @ step
            np.maximum(best, np.abs(current), out=best)
        verdicts = {
            (v.source.layer, v.target.layer, v.target.element): v.status
            for v in find_pst(spec)
        }
        group = spec.group
        for u in vertices(spec):
            for v in vertices(spec):
                if u == v:
                    continue
                a = group.mul(group.inverse(u.element), v.element)
                decided = verdicts[(u.layer, v.layer, a)]
                observed = best[spec.vertex_index(u), spec.vertex_index(v)] >= 1 - 5e-4
                assert decided == ("yes" if observed else "no"), (spec, u, v)


# -- the random corpus: every verdict decided, each one against a referee ------

# perfbench/check.py accepts a verdict that turns into `no` only when the
# reference time scan stayed below this magnitude
SCAN_REFUTE_MAX = 1.0 - 1e-4
CORPUS_DRAWS = 1000
SCANNED_DRAWS = 150


@pytest.fixture(scope="module")
def corpus():
    # the first conftest draws at PST_SEED, each decided once for all tests below
    from conftest import SEED

    rng = np.random.default_rng(SEED)
    specs = [random_spec(rng) for _ in range(CORPUS_DRAWS)]
    return [(spec, find_pst(spec), periodicity(spec)) for spec in specs]


def _same_layer(verdict):
    return verdict.source.layer == verdict.target.layer


def test_corpus_is_fully_decided(corpus):
    for spec, verdicts, report in corpus:
        assert all(v.status in ("yes", "no") for v in verdicts), spec
        assert report.periodic in (True, False), spec
        assert report.method in ("theorem", "degenerate"), spec


def test_r_neq_l_same_layer_yes_match_the_dense_oracle(corpus):
    from semicayley import build

    checked = 0
    for spec, verdicts, _ in corpus:
        if spec.R == spec.L:
            continue
        for v in verdicts:
            if v.status == "yes" and _same_layer(v):
                h = oracle_expm(build(spec), v.time)
                assert abs(h[spec.vertex_index(v.source), spec.vertex_index(v.target)]) >= 1 - 1e-8, (spec, v)
                checked += 1
    assert checked >= 10


def _layer_scans(spec):
    """|H_uv| on the grid of pst.scan_pair, for u = (e, r) and every v = (a, r).

    Returns one (elements x samples) array per layer r: row a is the scan of
    the pair (e, r) -> (a, r), and row 0 the diagonal.
    """
    from semicayley.characters import character_matrix
    from semicayley.pst import SCAN_SAMPLES
    from semicayley.spectra import eigen_gcd

    try:
        horizon = 2 * math.pi / eigen_gcd(spec)
    except ValidationError:
        horizon = 2 * math.pi
    ts = np.linspace(horizon / SCAN_SAMPLES, horizon, SCAN_SAMPLES)
    spect = spec.spectrum
    phases = [np.exp(-1j * np.outer(spect.lambdas[0], ts)),
              np.exp(-1j * np.outer(spect.lambdas[1], ts))]
    characters = character_matrix(spec.group)
    scans = []
    for layer in (0, 1):
        weights = spect.d if layer else spect.c
        f = weights[0][:, None] * phases[0] + weights[1][:, None] * phases[1]
        scans.append(np.abs(characters.T @ f) / spec.n)
    return scans


def _revival(diagonal):
    # |H_uu| ~ 1 near t = 0 for every graph: the largest value after the
    # diagonal has first dropped below 0.9 and stopped falling, as the scan of
    # non-integral periodicity did
    departed = np.nonzero(diagonal < 0.9)[0]
    if not departed.size:
        return 1.0
    start = int(departed[0])
    while start + 1 < diagonal.size and diagonal[start + 1] <= diagonal[start]:
        start += 1
    return float(diagonal[start:].max())


def test_layer_scans_match_scan_pair(corpus):
    from semicayley.pst import scan_pair

    for spec, _, _ in corpus[:6]:
        scans = _layer_scans(spec)
        group = spec.group
        for layer in (0, 1):
            for index in (1, group.order - 1):
                u, v = Vertex(group.identity, layer), Vertex(group.element(index), layer)
                assert abs(scans[layer][index].max() - scan_pair(spec, u, v)["max_magnitude"]) < 1e-12


def test_r_neq_l_refutations_stay_below_the_scan_bound(corpus):
    # every same-layer `no` of the exact decider and every aperiodic verdict
    # of a non-integral R != L spectrum keeps its time scan below the bound
    pairs = periods = 0
    for spec, verdicts, report in corpus[:SCANNED_DRAWS]:
        refuted = [v for v in verdicts if _same_layer(v) and v.status == "no"
                   and v.certificate["rule"] in ("non-integral", "valuation")]
        if spec.R == spec.L or not (refuted or report.periodic is False):
            continue
        scans = _layer_scans(spec)
        for v in refuted:
            assert scans[v.source.layer][spec.group.index(v.target.element)].max() < SCAN_REFUTE_MAX, (spec, v)
            pairs += 1
        if report.periodic is False:
            assert _revival(np.minimum(scans[0][0], scans[1][0])) < SCAN_REFUTE_MAX, spec
            periods += 1
    assert pairs >= 100 and periods >= 50


def _assert_least_transfer_times(spec, yes):
    # the transfer times of a pair are the odd multiples of the least one,
    # which is at least pi / spread; so the reported t is the least iff H_uv
    # is not unimodular at t / q for each prime q up to the spectral spread
    from semicayley import build

    lams = spec.spectrum.lambdas.T.ravel()
    adjacency = build(spec)
    for v in yes:
        u_index, v_index = spec.vertex_index(v.source), spec.vertex_index(v.target)
        for q in _primes_up_to(round(max(lams) - min(lams))):
            assert abs(oracle_expm(adjacency, v.time / q)[u_index, v_index]) < 1 - 1e-8, (spec, v, q)


def test_same_layer_transfer_times_are_minimal(rng):
    checked = {True: 0, False: 0}
    for draw in range(600):
        spec = random_spec(rng, equal_layers=draw % 2 == 0)
        yes = [v for v in find_pst(spec) if v.status == "yes" and _same_layer(v)]
        _assert_least_transfer_times(spec, yes)
        checked[spec.R == spec.L] += bool(yes)
    assert checked[True] >= 10 and checked[False] >= 1


# SC(G, D, D, D) for a (36, 15, 6) Menon difference set D of G = Z_2^2 x Z_3^2:
# D is inverse-closed, avoids e and has |chi(D)| = 3 at every nontrivial chi.
# The adjacency is J_2 (x) Cay(G, D), so (g, 0) and (g, 1) are twins; the
# spectrum is {30, 6, 0, -6}, and the odd factor 3 of the gap gcd 6 makes the
# least cross-layer time pi / 6, not pi / 2^(k+1).  The random draws cannot
# reach an odd gap gcd: an odd factor q of it divides |chi(S)| at every
# character, which by Parseval (the sum of |chi(S)|^2 is |G| |S|) needs
# |G| >= 35 and q | |G|, while the drawn groups have order <= 12.
MENON = [(0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 2, 0), (0, 0, 2, 2), (0, 1, 0, 0),
         (0, 1, 1, 1), (0, 1, 2, 2), (1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 2, 0), (1, 1, 0, 0), (1, 1, 0, 1),
         (1, 1, 0, 2)]
MENON_TWINS = make_spec(AbelianGroup([2, 2, 3, 3]), MENON, MENON, MENON)


def test_cross_layer_transfer_times_are_minimal(rng):
    checked = 0
    specs = [random_spec(rng, equal_layers=True) for _ in range(600)] + [MENON_TWINS]
    for spec in specs:
        yes = [v for v in find_pst(spec) if v.status == "yes" and not _same_layer(v)]
        _assert_least_transfer_times(spec, yes)
        checked += len(yes)
    assert checked >= 100


# -- the decision core against a per-pair referee ------------------------------


def _referee(spec, u, v):
    """The verdict JSON of one pair, without the numeric confirmation, decided
    rule by rule in Python: per-element orders and character values, and the
    cross-layer sign test as one exact product in Z[zeta_N] per character."""
    from semicayley.characters import char_sum, eval_character

    group, spect = spec.group, spec.spectrum
    chars = group.elements()
    zero_s = spect.chi_s_zero.tolist()
    ints = [[int(x) if ok else None for x, ok in zip(row, mask)] for row, mask in zip(spect.ints, spect.certified)]
    lam_p, lam_m = ints
    a = group.mul(group.inverse(u.element), v.element)
    order = group.element_order(a)
    head = {"from": [list(u.element), u.layer], "to": [list(v.element), v.layer]}

    def no(rule, detail):
        return {**head, "status": "no", "time": None, "certificate": {"rule": rule, "detail": detail}}

    def yes(k, m):
        time = {"value": math.pi / m, "pi_multiple": str(Fraction(1, m))}
        return {**head, "status": "yes", "time": time, "certificate": {"rule": "valuation-profile", "k": k}}

    if u.layer == v.layer:
        if group.order % 2:
            return no("necessary-condition", "same-layer transfer is impossible over an odd-order group")
        if order != 2:
            return no("necessary-condition", f"connecting element has order {order}, not 2")
        # chi(S) = 0 puts chi(R) only in layer 0 and chi(L) only in layer 1
        support = [(chi, lam) for chi, zero, pair in zip(chars, zero_s, zip(lam_p, lam_m))
                   for lam in (pair[u.layer : u.layer + 1] if zero else pair)]
        if any(lam is None for _, lam in support):
            return no("non-integral", "spectrum is not integral (chi(R) or |chi(S)| irrational for some character)"
                      if spec.R == spec.L else
                      f"the support of layer {u.layer} is not integral, so its vertices are not periodic")
        gaps = [support[0][1] - lam for _, lam in support]
        minus = [2 * eval_character(group, chi, a).numerator == group.exponent for chi, _ in support]
        flagged = [g for g, m in zip(gaps, minus) if m]
        if 0 in flagged:
            return no("valuation", "zero eigenvalue gap on a chi(a) = -1 character")
        valuations = sorted({nu2(g) for g in flagged})
        if len(valuations) != 1:
            return no("valuation", f"chi(a) = -1 gaps carry several 2-adic valuations {valuations}")
        k = valuations[0]
        clash = [g for g, m in zip(gaps, minus) if not m and g and nu2(g) <= k]
        if clash:
            return no("valuation", f"chi(a) = +1 gap {clash[0]} has 2-adic valuation <= {k}")
        return yes(k, math.gcd(*gaps))

    if spec.s_inverse_closed and order > 2:
        return no("necessary-condition", f"S is inverse-closed but the connecting element has order {order}")
    zero = [i for i, z in enumerate(zero_s) if z]
    if zero:
        return no("chi-s-zero", f"chi(S) = 0 for character indices {zero}")
    if spec.R != spec.L:
        return no("r-neq-l", "cross-layer transfer forces R = L")
    if None in lam_p + lam_m:
        return no("non-integral", "spectrum is not integral (chi(R) or |chi(S)| irrational for some character)")
    k = nu2(len(spec.S))
    breaks = [i for i, (plus, minus) in enumerate(zip(lam_p, lam_m)) if nu2((plus - minus) // 2) != k]
    if breaks:
        return no("spoke-valuation", f"nu2|chi(S)| differs from nu2|S| = {k} at character {breaks[0]}")
    top = lam_p[0]
    for i, chi in enumerate(chars):
        abs_s = (lam_p[i] - lam_m[i]) // 2
        chi_s = char_sum(group, chi, spec.S)
        spoke = chi_s.conj() if u.layer == 0 else chi_s
        w = (eval_character(group, chi, a).as_cyclo() * spoke).as_integer()
        gap = top - lam_p[i]
        if w not in (abs_s, -abs_s):
            return no("sign", f"chi(a) chi(S) is not +-|chi(S)| at character {i}")
        if w < 0 and (gap == 0 or nu2(gap) != k + 1):
            return no("valuation", f"-1-sign gap {gap} misses 2-adic valuation {k + 1}")
        if w > 0 and gap != 0 and nu2(gap) < k + 2:
            return no("valuation", f"+1-sign gap {gap} has 2-adic valuation < {k + 2}")
    return yes(k, math.gcd(*(top - lam for lam in lam_p + lam_m)))


def _unconfirmed(verdict):
    blob = verdict.to_json()
    blob["certificate"] = {key: value for key, value in blob["certificate"].items() if key != "confirmation"}
    return blob


def _assert_matches_referee(spec, verdicts):
    for verdict in verdicts:
        assert _unconfirmed(verdict) == _referee(spec, verdict.source, verdict.target), (spec, verdict)


def test_find_pst_matches_the_per_pair_referee_on_the_corpus(corpus):
    rules = set()
    for spec, verdicts, _ in corpus:
        _assert_matches_referee(spec, verdicts)
        rules.update(v.certificate["rule"] for v in verdicts)
    assert rules == {"necessary-condition", "non-integral", "valuation", "valuation-profile",
                     "chi-s-zero", "r-neq-l", "spoke-valuation", "sign"}


@pytest.mark.parametrize("spec", [
    sc.hypercube(5),
    sc.dihedral_involutions(AbelianGroup([4])),
    sc.dihedral_involutions(AbelianGroup([2, 4])),
    sc.sunlet(8),
    sc.cone(6),
    sc.join_spec(AbelianGroup([512]), [(1,), (511,)], [(2,), (510,)]),
    MENON_TWINS,
], ids=["hypercube-5", "dihedral-involutions-4", "dihedral-involutions-2x4", "sunlet-8", "cone-6", "join-512",
        "menon-twins-36"])
def test_find_pst_matches_the_per_pair_referee_on_families(spec):
    _assert_matches_referee(spec, find_pst(spec))


def test_decide_pair_from_any_source_is_the_find_pst_verdict(rng):
    # translation invariance: (g, r) -> (g a, s) gets the verdict of (e, r) -> (a, s),
    # reported for the pair that was asked; the layer decider of the pair's
    # layer relation gives decide_pair's verdict, certificate included
    for draw in range(40):
        spec = random_spec(rng, equal_layers=draw % 2 == 0)
        group = spec.group
        for verdict in find_pst(spec):
            g = group.element(int(rng.integers(group.order)))
            u = Vertex(g, verdict.source.layer)
            v = Vertex(group.mul(g, verdict.target.element), verdict.target.layer)
            expected = _unconfirmed(verdict)
            expected["from"], expected["to"] = [list(u.element), u.layer], [list(v.element), v.layer]
            pair_verdict = decide_pair(spec, u, v)
            assert _unconfirmed(pair_verdict) == expected, (spec, u, v)
            layer_decider = decide_same_layer_rl if u.layer == v.layer else decide_cross_layer
            assert layer_decider(spec, u, v) == pair_verdict, (spec, u, v)


def _sign_exponent_specs():
    # R = L with integral character sums and chi(S) != 0 at every character:
    # S = {x} gives chi(S) = zeta^e, S = {0, y} with y of order 3 gives
    # 1 + omega^j in {2, -omega^2, -omega}
    for factors, r_set, shifts, third in (
        ((60,), [(10,), (50,)], [(7,), (30,), (45,)], (20,)),
        ((2, 12), [(1, 3), (1, 9), (0, 6)], [(1, 1), (0, 6), (1, 5)], (0, 4)),
        ((8,), [(2,), (6,), (4,)], [(1,), (4,), (3,)], None),
        ((15,), [(5,), (10,)], [(4,), (6,)], (5,)),  # odd N: -1 is no root, so one sign at most
    ):
        group = AbelianGroup(factors)
        for x in shifts:
            yield make_spec(group, r_set, r_set, [x])
        if third is not None:
            yield make_spec(group, [], [], [group.identity, third])


def test_sign_exponents_match_a_brute_force_over_the_roots():
    from semicayley.characters import CycloValue, char_sum

    for spec in _sign_exponent_specs():
        spect = spec.spectrum
        assert spect.is_integral and not spect.chi_s_zero.any(), spec
        group, order = spec.group, spec.group.exponent
        for i, chi in enumerate(group.elements()):
            abs_s = int(spect.ints[0, i] - spect.ints[1, i]) // 2
            spoke = char_sum(group, chi, spec.S).conj()
            values = [(CycloValue.root(e, order) * spoke).as_integer() for e in range(order)]
            expected = [next((e for e, w in enumerate(values) if w == target), -1) for target in (abs_s, -abs_s)]
            assert spect.sign_exponents[i].tolist() == expected, (spec, i)
            if order % 2:
                assert -1 in expected, (spec, i)


def _sign_edge_specs(rng):
    # Phi_105 has a coefficient -2 and -1 is no 105th root of unity; factors
    # 1 leave the characters unchanged; S = G with R = L = G - {e} vanishes off
    # the trivial character, and so does an empty S everywhere
    z105 = AbelianGroup([105])
    yield make_spec(z105, [], [], [(1,)])
    r_set = random_inverse_closed(z105, rng, 0.1)
    yield make_spec(z105, r_set, r_set, [(0,), (35,)])
    yield make_spec(z105, r_set, r_set, random_subset(z105, rng, 0.1))
    for factors in ((1,), (2, 1)):
        group = AbelianGroup(factors)
        for _ in range(3):
            r_set = random_inverse_closed(group, rng)
            yield make_spec(group, r_set, r_set, random_subset(group, rng))
    for factors in ((12,), (2, 2, 2)):
        group = AbelianGroup(factors)
        yield make_spec(group, group.elements()[1:], group.elements()[1:], group.elements())
        yield make_spec(group, [], [], [])


def test_sign_exponents_match_the_exact_referee_on_edge_groups(rng):
    # where chi(S) = 0 every e gives 0 and any of them may be reported; else
    # the roots zeta^e are distinct and at most one e holds.  The referee
    # decides every e exactly, after floats skip those far from the target
    from semicayley.characters import CycloValue, char_sum

    for spec in _sign_edge_specs(rng):
        spect = spec.spectrum
        group, order = spec.group, spec.group.exponent
        for i, chi in enumerate(group.elements()):
            abs_s = int(spect.ints[0, i] - spect.ints[1, i]) // 2
            spoke = char_sum(group, chi, spec.S).conj()
            for column, target in enumerate((abs_s, -abs_s)):
                valid = {e for e in range(order)
                         if abs(spoke.approx * np.exp(2j * np.pi * e / order) - target) < 1e-6
                         and (CycloValue.root(e, order) * spoke).as_integer() == target}
                got = int(spect.sign_exponents[i, column])
                assert got in valid if valid else got == -1, (spec, i, column, got, valid)


def test_find_pst_validates_elements_per_yes_not_per_pair(monkeypatch):
    # the pairs are built from the group's own elements and decided on index
    # arrays; only the oracle confirmation of a yes validates its vertices
    spec = sc.hypercube(7)
    assert spec.spectrum.is_integral and spec.s_inverse_closed in (True, False)  # per-spec state first
    calls = []
    original = AbelianGroup.validate_element
    monkeypatch.setattr(AbelianGroup, "validate_element", lambda self, g: calls.append(g) or original(self, g))
    verdicts = find_pst(spec)
    yes = [v for v in verdicts if v.status == "yes"]
    assert len(verdicts) == 4 * spec.n - 2 and len(yes) == 2
    assert len(calls) <= 25 * len(yes)
