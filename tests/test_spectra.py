import gc
import math
import weakref

import numpy as np
import pytest

import semicayley as sc
from semicayley import AbelianGroup, ValidationError, build, char_sum, eigen_gcd, make_spec, spectrum
from semicayley.characters import character_matrix

from conftest import random_inverse_closed, random_spec, random_subset


def test_c4_spectrum():
    spec = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    spect = spectrum(spec)
    assert sorted(spect.eigenvalues()) == [-2.0, 0.0, 0.0, 2.0]
    assert spect.is_integral
    assert eigen_gcd(spec) == 2
    exact = [(p.lambda_plus_exact, p.lambda_minus_exact) for p in spect.pairs]
    assert exact == [(2, 0), (0, -2)]


def test_cone_eigenvalue_formulas():
    for n in (3, 4, 5, 6, 7, 8):
        spect = spectrum(sc.cone(n))
        top = spect.pairs[0]
        assert abs(top.lambda_plus - (1 + math.sqrt(1 + n * n))) < 1e-9
        assert abs(top.lambda_minus - (1 - math.sqrt(1 + n * n))) < 1e-9
        for p in spect.pairs[1:]:
            assert p.chi_s_is_zero
            assert abs(p.lambda_plus - 2 * math.cos(2 * math.pi * p.index / n)) < 1e-9
            assert p.lambda_minus == 0.0
    assert not spectrum(sc.cone(5)).is_integral


def test_join_top_eigenvalues(rng):
    for _ in range(5):
        base = random_spec(rng)
        spec = sc.join_spec(base.group, base.R, base.L)
        spect = spectrum(spec)
        n = spec.n
        r_size, l_size = len(spec.R), len(spec.L)
        disc = math.sqrt((r_size - l_size) ** 2 + 4 * n * n)
        assert abs(spect.pairs[0].lambda_plus - (r_size + l_size + disc) / 2) < 1e-9
        assert abs(spect.pairs[0].lambda_minus - (r_size + l_size - disc) / 2) < 1e-9
        for p in spect.pairs[1:]:
            assert p.chi_s_is_zero  # chi(G) = 0 for nontrivial characters


def test_spectrum_matches_numeric(rng):
    for _ in range(25):
        spec = random_spec(rng)
        closed = np.sort(spectrum(spec).eigenvalues())
        numeric = np.linalg.eigvalsh(build(spec).astype(float))
        assert np.max(np.abs(closed - numeric)) < 1e-9


def test_trace_and_determinant_per_character(rng):
    for _ in range(10):
        spec = random_spec(rng)
        for p in spectrum(spec).pairs:
            chi_r = p.chi_r.approx.real
            chi_l = p.chi_l.approx.real
            s2 = p.chi_s.abs_squared().approx.real
            assert abs((p.lambda_plus + p.lambda_minus) - (chi_r + chi_l)) < 1e-9
            assert abs(p.lambda_plus * p.lambda_minus - (chi_r * chi_l - s2)) < 1e-9
            if not p.chi_s_is_zero:
                assert p.lambda_plus >= p.lambda_minus


def test_coefficient_conventions():
    # chi(S) = 0 convention
    spect = spectrum(sc.cone(4))
    for p in spect.pairs[1:]:
        assert (p.c_plus, p.c_minus, p.d_plus, p.d_minus) == (1.0, 0.0, 0.0, 1.0)
        assert p.e_plus == 0 and p.e_minus == 0
    # R = L forces the balanced split
    spec = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    for p in spectrum(spec).pairs:
        assert abs(p.c_plus - 0.5) < 1e-12 and abs(p.c_minus - 0.5) < 1e-12
        assert abs(p.d_plus - 0.5) < 1e-12 and abs(p.d_minus - 0.5) < 1e-12
        assert abs(abs(p.e_plus) - 0.5) < 1e-12
    # derived 2x2 values for the trivial character of C4
    top = spectrum(spec).pairs[0]
    assert abs(top.e_plus - 0.5) < 1e-12


def test_coefficient_identities(rng):
    for _ in range(10):
        spec = random_spec(rng)
        for p in spectrum(spec).pairs:
            assert abs(p.c_plus + p.c_minus - 1.0) < 1e-12
            assert 0.0 < p.d_plus + p.d_minus <= 1.0 + 1e-12
            assert abs(p.e_plus + p.e_minus) < 1e-12 or p.chi_s_is_zero
            assert abs(p.e_plus) <= 0.5 + 1e-12
            if not p.chi_s_is_zero:
                assert p.e_plus != p.e_minus


def eigenvectors(spec):
    """Closed-form orthonormal eigenbasis, a referee for the spectrum.

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


def projectors(spec):
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
            out.append(np.block([[c * gram, e * gram], [np.conj(e) * gram, d * gram]]) / n)
    return out


def test_eigenvectors_and_projectors(rng):
    for _ in range(8):
        spec = random_spec(rng)
        adjacency = build(spec).astype(float)
        size = 2 * spec.n
        values, vectors = eigenvectors(spec)
        assert np.max(np.abs(adjacency @ vectors - vectors * values)) < 1e-9
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(size))) < 1e-9
        projs = projectors(spec)
        total = sum(projs)
        assert np.max(np.abs(total - np.eye(size))) < 1e-9
        for proj in projs[:4]:
            assert np.max(np.abs(proj @ proj - proj)) < 1e-9
            assert np.max(np.abs(proj - proj.conj().T)) < 1e-9
        recon = sum(v * proj for v, proj in zip(values, projs))
        assert np.max(np.abs(recon - adjacency)) < 1e-9


def test_is_integral_examples():
    assert spectrum(make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])).is_integral
    assert not spectrum(sc.cone(5)).is_integral
    full = sc.dihedral_full_coset(AbelianGroup([4]))
    spect = spectrum(full)
    assert spect.is_integral
    lams = sorted(spect.eigenvalues())
    assert lams == [-4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0]
    assert eigen_gcd(full) == 4


def test_integral_spectrum_with_irrational_layer_sums():
    # SC(Z5, {+-1}, {+-2}, {4}): chi(R) - chi(L) = +-sqrt(5) at every
    # nontrivial character, yet sigma = -1 and disc = 5 + 4 = 9
    spec = make_spec(AbelianGroup([5]), [(1,), (4,)], [(2,), (3,)], [(4,)])
    spect = spec.spectrum
    assert spect.is_integral and eigen_gcd(spec) == 1
    exact = sorted(x for p in spect.pairs for x in (p.lambda_plus_exact, p.lambda_minus_exact))
    assert exact == [-2] * 4 + [1] * 5 + [3]
    assert spect.pairs[1].lambda_plus_int == 1 and spect.pairs[1].lambda_minus_int == -2


def test_surd_eigenvalues_of_the_cone():
    # cone(5): the trivial character has eigenvalues 1 +- sqrt(26), surds
    # and not integers; chi(S) = 0 elsewhere, where the branches are certified
    # one by one: chi(L) = 0 is an integer, chi(R) = 2 cos(2 pi k / 5) is not
    spect = spectrum(sc.cone(5))
    top = spect.pairs[0]
    assert top.lambda_plus_int is None and top.lambda_minus_int is None
    assert top.lambda_plus_exact is None and top.lambda_minus_exact is None
    for p in spect.pairs[1:]:
        assert p.lambda_plus_int is None and p.lambda_minus_int == 0
        assert not p.exact and p.lambda_minus_exact is None
    assert spect.layer_gaps == (None, None)


def test_is_integral_matches_eigvalsh(rng):
    # the exact certificate against floats on the random corpus
    for _ in range(1000):
        spec = random_spec(rng)
        numeric = np.linalg.eigvalsh(build(spec).astype(float))
        assert spec.spectrum.is_integral == bool(np.all(np.abs(numeric - np.round(numeric)) < 1e-6)), spec


def test_eigen_gcd_errors():
    with pytest.raises(ValidationError, match="not integral"):
        eigen_gcd(sc.cone(5))
    empty = make_spec(AbelianGroup([3]), [], [], [])
    with pytest.raises(ValidationError, match="constant spectrum"):
        eigen_gcd(empty)


def test_spectrum_json():
    spec = make_spec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    blob = spectrum(spec).to_json()
    assert len(blob["characters"]) == 2
    row = blob["characters"][0]
    assert row["exact"] is True and row["lambda_plus_exact"] == 2


def test_spectrum_character_sums_match_char_sum(rng):
    for _ in range(20):
        spec = random_spec(rng)
        group = spec.group
        for pair, chi in zip(spectrum(spec).pairs, group.elements()):
            assert pair.char_index == chi
            assert pair.chi_r.coeffs == char_sum(group, chi, spec.R).coeffs
            assert pair.chi_l.coeffs == char_sum(group, chi, spec.L).coeffs
            assert pair.chi_s.coeffs == char_sum(group, chi, spec.S).coeffs


def test_spec_keeps_its_spectrum():
    spec = sc.cone(6)
    assert spec.spectrum is spec.spectrum
    assert spec.spectrum == spectrum(spec)
    assert spec == sc.cone(6) and hash(spec) == hash(sc.cone(6))


def test_pst_find_job_computes_one_spectrum(monkeypatch):
    import semicayley.spectra
    from semicayley.cli import run

    calls = []
    original = semicayley.spectra.spectrum

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(semicayley.spectra, "spectrum", counting)
    report, code = run({"command": "pst-find", "graph": {"family": "hypercube", "n": 3}})
    assert code == 0 and report["pst_found"]
    assert len(calls) == 1


def test_spectrum_is_freed_with_its_spec():
    # without the cyclic collector, only refcounting can free the spectrum:
    # a back reference from the spectrum to its spec would keep both alive
    gc.disable()
    try:
        spec = sc.cone(5)
        ref = weakref.ref(spec.spectrum)
        assert ref() is not None
        del spec
        assert ref() is None
    finally:
        gc.enable()


def _referee_ints(group, chi, spec):
    # the certifier applied to this one character, from fresh character sums
    chi_r, chi_l, chi_s = (char_sum(group, chi, xs) for xs in (spec.R, spec.L, spec.S))
    if chi_s.is_zero():
        return True, chi_r.as_integer(), chi_l.as_integer()
    sigma = (chi_r + chi_l).as_integer()
    if sigma is None:
        return False, None, None
    diff = chi_r - chi_l
    disc = (diff * diff + 4 * chi_s.abs_squared()).as_integer()
    if disc is None or math.isqrt(disc) ** 2 != disc:
        return False, None, None
    root = math.isqrt(disc)
    return False, (sigma + root) // 2, (sigma - root) // 2


def _large_exponent_specs(rng, count):
    pool = [(60,), (2, 12), (512,)]
    for k in range(count):
        group = AbelianGroup(pool[k % len(pool)])
        prob = 0.05 if group.order > 100 else 0.3
        r_set = random_inverse_closed(group, rng, prob)
        l_set = r_set if k % 2 else random_inverse_closed(group, rng, prob)
        yield make_spec(group, r_set, l_set, random_subset(group, rng, prob))


def test_class_certificates_match_a_per_character_referee(rng):
    # one representative per rational class is certified and its integers are
    # copied: the Galois conjugates of an integer are that integer
    specs = [random_spec(rng) for _ in range(300)] + list(_large_exponent_specs(rng, 6))
    for spec in specs:
        group = spec.group
        for p in spectrum(spec).pairs:
            expected = _referee_ints(group, p.char_index, spec)
            assert (p.chi_s_is_zero, p.lambda_plus_int, p.lambda_minus_int) == expected, (spec, p.index)


def test_spectrum_certifies_once_per_rational_class(rng, monkeypatch):
    # Z_512 has 10 rational classes (one per divisor of 512); each
    # representative needs at most 3 reductions: is_zero, sigma and disc
    from semicayley.characters import CycloValue

    group = AbelianGroup([512])
    spec = make_spec(group, random_inverse_closed(group, rng, 0.1),
                     random_inverse_closed(group, rng, 0.1), random_subset(group, rng, 0.1))
    assert spec.R != spec.L
    original = CycloValue.residue
    calls = []
    monkeypatch.setattr(CycloValue, "residue", lambda self: calls.append(self) or original(self))
    spectrum(spec)
    assert 10 <= len(calls) <= 3 * 10


_FLOAT_FIELDS = ("x", "lambda_plus", "lambda_minus", "c_plus", "c_minus", "d_plus", "d_minus", "e_plus", "e_minus")


def _referee_floats(group, chi, spec, s_zero):
    # the closed forms evaluated on fresh CycloValue approximations
    chi_r, chi_l, chi_s = (char_sum(group, chi, xs) for xs in (spec.R, spec.L, spec.S))
    r, l = chi_r.approx.real, chi_l.approx.real
    if s_zero:
        return dict(x=r - l, lambda_plus=r, lambda_minus=l, c_plus=1.0, c_minus=0.0,
                    d_plus=0.0, d_minus=1.0, e_plus=0j, e_minus=0j)
    x = r - l
    s2 = chi_s.abs_squared().approx.real
    disc = math.sqrt(x * x + 4.0 * s2)
    p, m = x + disc, x - disc
    den_p, den_m = p * p + 4.0 * s2, m * m + 4.0 * s2
    e_plus = 2.0 * chi_s.approx.conjugate() * p / den_p
    return dict(x=x, lambda_plus=0.5 * (r + l + disc), lambda_minus=0.5 * (r + l - disc),
                c_plus=p * p / den_p, c_minus=m * m / den_m, d_plus=4.0 * s2 / den_p,
                d_minus=4.0 * s2 / den_m, e_plus=e_plus, e_minus=-e_plus)


def _hex(value):
    # float.hex tells 0.0 from -0.0
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return float(value).hex()


def _edge_specs(rng):
    trivial = AbelianGroup([1])
    yield make_spec(trivial, [], [], [])
    yield make_spec(trivial, [], [], [(0,)])
    for factors in ((2, 12), (60,)):
        group = AbelianGroup(factors)
        r_set = random_inverse_closed(group, rng, 0.3)
        l_set = random_inverse_closed(group, rng, 0.3)
        yield make_spec(group, r_set, l_set, [])  # S empty
        yield make_spec(group, r_set, l_set, group.elements())  # S = G
        yield make_spec(group, [], [], random_subset(group, rng, 0.3))  # R = L empty
        yield make_spec(group, r_set, l_set, random_subset(group, rng, 0.3))
        yield make_spec(group, r_set, r_set, random_subset(group, rng, 0.3))


def test_spectrum_floats_are_the_per_character_floats_bit_for_bit(rng):
    for spec in _edge_specs(rng):
        group = spec.group
        for p in spectrum(spec).pairs:
            expected = _referee_floats(group, p.char_index, spec, p.chi_s_is_zero)
            for name in _FLOAT_FIELDS:
                assert _hex(getattr(p, name)) == _hex(expected[name]), (spec, p.index, name)


def test_spectrum_seeds_the_floats_of_its_character_sums(rng):
    # Spectrum.to_json reads chi(S).approx: spectrum hands over its array
    # floats, the ones approx would sum, so no pair recomputes them
    from semicayley.characters import CycloValue

    for spec in _edge_specs(rng):
        for p in spectrum(spec).pairs:
            for value in (p.chi_r, p.chi_l, p.chi_s):
                assert value._approx is not None, (spec, p.index)
                assert _hex(value._approx) == _hex(CycloValue(value.order, value.coeffs).approx), (spec, p.index)
