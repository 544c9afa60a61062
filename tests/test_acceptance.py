"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 classifies PST on Cay(Dih(A), xA) = SC(A, {}, {}, A),
the complete bipartite graph K_{m,m} with m = |A|: for m >= 3 there is no
transfer between distinct vertices, and for m = 2 the graph is the 4-cycle,
whose layer mates are antipodal and have PST at t = pi/2.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import semicayley as sc
from semicayley import (
    AbelianGroup,
    SemiCayleySpec,
    Vertex,
    decide_pair,
    find_pst,
    periodicity,
    transfer_matrix,
)
from semicayley.characters import CycloValue, char_sum, eval_character
from semicayley.graphs import build
from semicayley.spectra import spectrum
from semicayley.transfer import oracle_expm

from conftest import GROUP_POOL, random_spec, random_subset
from referees import block_transfer_rl, nu2, vertices

SCAN_SAMPLES = 10_000
SCAN_YES_THRESHOLD = 1.0 - 1e-4  # grid resolution keeps true peaks above this


@contextmanager
def criterion(num, description, budget=None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds the {budget}s budget")
        ok = True
    finally:
        elapsed = time.monotonic() - start
        print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description} [{elapsed:.1f}s]")


def test_criterion_1_spectral_correctness(rng):
    with criterion(1, "closed-form spectra match numeric eigenvalues on 200 random specs", budget=30):
        for _ in range(200):
            spec = random_spec(rng)
            closed = np.sort(spectrum(spec).lambdas.T.ravel())
            numeric = np.linalg.eigvalsh(build(spec).astype(float))
            assert np.max(np.abs(closed - numeric)) < 1e-9


def test_criterion_2_transfer_equivalence(rng):
    with criterion(2, "spectral, oracle and block transfer paths agree and are unitary", budget=60):
        for trial in range(50):
            spec = random_spec(rng, equal_layers=(trial % 2 == 0))
            adjacency = build(spec)
            size = 2 * spec.n
            for _ in range(5):
                t = float(rng.uniform(0.0, 12.0))
                h_spectral = transfer_matrix(spec, t)
                h_oracle = oracle_expm(adjacency, t)
                assert np.max(np.abs(h_spectral - h_oracle)) < 1e-9
                assert np.max(np.abs(h_spectral @ h_spectral.conj().T - np.eye(size))) < 1e-9
                if spec.R == spec.L:
                    h_block = block_transfer_rl(spec, t)
                    assert np.max(np.abs(h_block - h_oracle)) < 1e-9
                    assert np.max(np.abs(h_block @ h_block.conj().T - np.eye(size))) < 1e-9


def test_criterion_3_sunlets_no_pst_not_periodic():
    with criterion(3, "sunlet(3..12): no transfer anywhere, no periodicity"):
        for n in range(3, 13):
            verdicts = find_pst(sc.sunlet(n))
            assert all(v.status == "no" for v in verdicts), f"sunlet({n}) unexpected verdict"
            # 1 +- sqrt(2) at the trivial character: not integral, so aperiodic
            report = periodicity(sc.sunlet(n))
            assert report.periodic is False, f"sunlet({n}) should be exactly aperiodic"


def test_criterion_4_cone_eigenvalues_and_odd_pst():
    with criterion(4, "cone(n): top eigenvalue formulas, zero minus-branch, no odd-n transfer"):
        for n in range(3, 11):
            spect = spectrum(sc.cone(n))
            lam_p, lam_m = spect.lambdas
            assert abs(lam_p[0] - (1 + math.sqrt(1 + n * n))) < 1e-9
            assert abs(lam_m[0] - (1 - math.sqrt(1 + n * n))) < 1e-9
            for i in range(1, n):
                assert lam_m[i] == 0.0
            if n % 2 == 1:
                verdicts = find_pst(sc.cone(n))
                assert all(v.status == "no" for v in verdicts), f"cone({n}) unexpected verdict"


def test_criterion_5_dihedral_full_coset_periodicity():
    with criterion(5, "Cay(Dih(A), xA) for |A| in {2,3,4,6}: periodic with period 2*pi/|A|"):
        for order in (2, 3, 4, 6):
            spec = sc.dihedral_full_coset(AbelianGroup([order]))
            report = periodicity(spec)
            assert report.periodic is True
            assert report.min_period_pi_multiple == Fraction(2, order)
            assert abs(report.min_period - 2 * math.pi / order) < 1e-12


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_criterion_5_dihedral_full_coset_no_pst(order):
    # K_{m,m}: for m >= 3 every v != u is moved by an automorphism fixing u,
    # which rules out PST from u to v (Godsil, "State transfer on graphs",
    # 2012).  For m = 2 the graph is the 4-cycle, and at t = pi/2 the walk
    # sends every vertex to its antipode, which is its layer mate.
    description = (
        f"Cay(Dih(A), xA) = K_{{{order},{order}}}: "
        + ("PST exactly between layer mates, at t = pi/2" if order == 2
           else "no transfer between distinct vertices")
    )
    with criterion(5, description):
        spec = sc.dihedral_full_coset(AbelianGroup([order]))
        expected = {}
        if order == 2:
            expected = {
                (Vertex((0,), layer), Vertex((1,), layer)): ("yes", Fraction(1, 2))
                for layer in (0, 1)
            }
            # independent of the deciders: the oracle alone shows the transfer
            h = oracle_expm(build(spec), math.pi / 2)
            for u, v in expected:
                assert abs(h[spec.vertex_index(u), spec.vertex_index(v)]) >= 1 - 1e-8
        found = {
            (v.source, v.target): (v.status, v.pi_multiple)
            for v in find_pst(spec)
            if v.status != "no"
        }
        assert found == expected, f"|A| = {order}: found {found}, expected {expected}"


def _oracle_scan_classification(spec, period, samples=SCAN_SAMPLES):
    """Max |H| per ordered pair over a uniform grid, via oracle powers only."""
    adjacency = build(spec)
    step = oracle_expm(adjacency, period / samples)
    size = adjacency.shape[0]
    best = np.zeros((size, size))
    current = np.eye(size, dtype=complex)
    for _ in range(samples):
        current = current @ step
        np.maximum(best, np.abs(current), out=best)
    return best


def test_criterion_6_known_transfer_reproduction():
    with criterion(6, "K2 / C4 / Q3 transfers at pi/2; deciders match exhaustive oracle scans", budget=120):
        k2 = sc.hypercube(1)
        c4 = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
        q3 = sc.hypercube(3)

        named = [
            (k2, Vertex((0,), 0), Vertex((0,), 1)),
            (c4, Vertex((0,), 0), Vertex((1,), 1)),
            (q3, Vertex((0, 0), 0), Vertex((1, 1), 1)),  # graph-antipodal pair
        ]
        for spec, u, v in named:
            verdict = decide_pair(spec, u, v)
            assert verdict.status == "yes"
            assert verdict.pi_multiple == Fraction(1, 2)  # t = pi/2
            assert verdict.certificate["confirmation"]["magnitude_oracle"] >= 1 - 1e-8

        for spec in (k2, c4, q3):
            period = 2 * math.pi / sc.eigen_gcd(spec)
            scan_max = _oracle_scan_classification(spec, period)
            verdicts = {}
            for verdict in find_pst(spec):
                key = (verdict.source.layer, verdict.target.layer, verdict.target.element)
                verdicts[key] = verdict.status
            group = spec.group
            for u in vertices(spec):
                for v in vertices(spec):
                    if u == v:
                        continue
                    a = group.mul(group.inverse(u.element), v.element)
                    decided = verdicts[(u.layer, v.layer, a)]
                    assert decided in ("yes", "no")
                    observed = "yes" if scan_max[spec.vertex_index(u), spec.vertex_index(v)] >= SCAN_YES_THRESHOLD else "no"
                    assert decided == observed, (spec.group.factors, u, v, decided, scan_max[spec.vertex_index(u), spec.vertex_index(v)])


def test_criterion_7_exactness_suite(rng):
    with criterion(7, "cyclotomic integrality agrees with numerics; column orthogonality exact"):
        for factors in GROUP_POOL:
            group = AbelianGroup(factors)
            subsets = [random_subset(group, rng) for _ in range(2)]
            subsets += [set(), set(group.elements())]
            generated = []
            for subset in subsets:
                sums = [char_sum(group, chi, subset) for chi in group.elements()]
                generated.extend(sums)
                generated.extend(v.conj() for v in sums[: 4])
                generated.extend(v * w for v, w in zip(sums, sums[1:]))
                generated.extend(v.abs_squared() for v in sums[: 4])
            for value in generated:
                exact = value.as_integer()
                if exact is not None:
                    assert abs(value.approx - exact) < 1e-9
                else:
                    nearest = round(value.approx.real)
                    assert abs(value.approx - nearest) > 1e-6

            # column orthogonality, exactly, for every group element
            for subset in subsets[:2]:
                members = group.subset(subset)
                for g in group.elements():
                    total = CycloValue.zero(group.exponent)
                    for chi in group.elements():
                        total = total + eval_character(group, chi, group.inverse(g)).as_cyclo() * char_sum(group, chi, members)
                    assert total.as_integer() == (group.order if g in members else 0)


def test_criterion_8_property_suite(rng):
    with criterion(8, "translation invariance, magnitude bound, nu2 laws, block split, coefficient laws"):
        # translation invariance of verdicts
        for equal_layers in (True, False):
            spec = random_spec(rng, equal_layers=equal_layers)
            group = spec.group
            for _ in range(4):
                g = group.element(int(rng.integers(group.order)))
                h = group.element(int(rng.integers(group.order)))
                r, s = int(rng.integers(2)), int(rng.integers(2))
                if (g, r) == (h, s):
                    continue
                shift = group.element(int(rng.integers(group.order)))
                base = decide_pair(spec, Vertex(g, r), Vertex(h, s))
                moved = decide_pair(spec, Vertex(group.mul(shift, g), r), Vertex(group.mul(shift, h), s))
                assert (base.status, base.pi_multiple) == (moved.status, moved.pi_multiple)

        # |H_uv(t)| <= 1 + 1e-9 on random samples
        for _ in range(10):
            spec = random_spec(rng)
            t = float(rng.uniform(0.0, 12.0))
            assert np.max(np.abs(transfer_matrix(spec, t))) <= 1.0 + 1e-9

        # nu2 algebra on 1000 random rationals
        for _ in range(1000):
            a = Fraction(int(rng.integers(-400, 401)), int(rng.integers(1, 300)))
            b = Fraction(int(rng.integers(-400, 401)), int(rng.integers(1, 300)))
            assert nu2(a * b) == nu2(a) + nu2(b)
            total = nu2(a + b)
            assert total >= min(nu2(a), nu2(b))
            if nu2(a) != nu2(b):
                assert total == min(nu2(a), nu2(b))
        assert nu2(0) == math.inf

        # S = {} block-diagonal decomposition
        spec = random_spec(rng)
        spec = SemiCayleySpec(spec.group, spec.R, spec.L, [])
        t = float(rng.uniform(0.0, 6.0))
        h = transfer_matrix(spec, t)
        n = spec.n
        assert np.max(np.abs(h[:n, n:])) < 1e-9 and np.max(np.abs(h[n:, :n])) < 1e-9
        from semicayley.graphs import cay_adjacency

        assert np.max(np.abs(h[:n, :n] - oracle_expm(cay_adjacency(spec.group, spec.R), t))) < 1e-9
        assert np.max(np.abs(h[n:, n:] - oracle_expm(cay_adjacency(spec.group, spec.L), t))) < 1e-9

        # coefficient laws per character
        for _ in range(10):
            spec = random_spec(rng)
            spect = spectrum(spec)
            for i in range(spec.n):
                assert abs(spect.c[0, i] + spect.c[1, i] - 1.0) < 1e-12
                if not spect.chi_s_zero[i]:
                    assert abs(spect.e[0, i] + spect.e[1, i]) < 1e-12
