import dataclasses
import gc
import inspect
import json
import math
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest

import semicayley as sc
from semicayley import AbelianGroup, SemiCayleySpec, ValidationError, eigen_gcd, find_pst, periodicity
from semicayley.characters import char_sum, character_matrix
from semicayley.graphs import build
from semicayley.groups import _rational_classes
from semicayley.spectra import _coefficient_rows, _group_product, _s_s_inverse, spectrum

from conftest import GROUP_POOL, random_inverse_closed, random_spec, random_subset
from referees import rational_classes_by_argmin, same_spectrum


def test_c4_spectrum():
    spec = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    spect = spectrum(spec)
    assert sorted(spect.lambdas.T.ravel()) == [-2.0, 0.0, 0.0, 2.0]
    assert spect.is_integral
    assert eigen_gcd(spec) == 2
    assert spect.certified.all()
    assert spect.ints.T.tolist() == [[2, 0], [0, -2]]


def test_cone_eigenvalue_formulas():
    for n in (3, 4, 5, 6, 7, 8):
        spect = spectrum(sc.cone(n))
        lam_p, lam_m = spect.lambdas
        assert abs(lam_p[0] - (1 + math.sqrt(1 + n * n))) < 1e-9
        assert abs(lam_m[0] - (1 - math.sqrt(1 + n * n))) < 1e-9
        for i in range(1, n):
            assert spect.chi_s_zero[i]
            assert abs(lam_p[i] - 2 * math.cos(2 * math.pi * i / n)) < 1e-9
            assert lam_m[i] == 0.0
    assert not spectrum(sc.cone(5)).is_integral


def test_join_top_eigenvalues(rng):
    for _ in range(5):
        base = random_spec(rng)
        spec = sc.join_spec(base.group, base.R, base.L)
        spect = spectrum(spec)
        n = spec.n
        r_size, l_size = len(spec.R), len(spec.L)
        disc = math.sqrt((r_size - l_size) ** 2 + 4 * n * n)
        assert abs(spect.lambdas[0, 0] - (r_size + l_size + disc) / 2) < 1e-9
        assert abs(spect.lambdas[1, 0] - (r_size + l_size - disc) / 2) < 1e-9
        assert spect.chi_s_zero[1:].all()  # chi(G) = 0 for nontrivial characters


def test_spectrum_matches_numeric(rng):
    for _ in range(25):
        spec = random_spec(rng)
        closed = np.sort(spectrum(spec).lambdas.T.ravel())
        numeric = np.linalg.eigvalsh(build(spec).astype(float))
        assert np.max(np.abs(closed - numeric)) < 1e-9


def test_trace_and_determinant_per_character(rng):
    for _ in range(10):
        spec = random_spec(rng)
        spect = spectrum(spec)
        for i, chi in enumerate(spec.group.elements()):
            chi_r, chi_l, chi_s = (char_sum(spec.group, chi, xs) for xs in (spec.R, spec.L, spec.S))
            chi_r, chi_l, s2 = chi_r.approx.real, chi_l.approx.real, chi_s.abs_squared().approx.real
            lam_p, lam_m = spect.lambdas[:, i]
            assert abs((lam_p + lam_m) - (chi_r + chi_l)) < 1e-9
            assert abs(lam_p * lam_m - (chi_r * chi_l - s2)) < 1e-9
            if not spect.chi_s_zero[i]:
                assert lam_p >= lam_m


def test_coefficient_conventions():
    # chi(S) = 0 convention
    spect = spectrum(sc.cone(4))
    for i in range(1, 4):
        assert (*spect.c[:, i], *spect.d[:, i]) == (1.0, 0.0, 0.0, 1.0)
        assert spect.e[0, i] == 0 and spect.e[1, i] == 0
    # R = L forces the balanced split
    spec = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    spect = spectrum(spec)
    assert np.all(np.abs(spect.c - 0.5) < 1e-12)
    assert np.all(np.abs(spect.d - 0.5) < 1e-12)
    assert np.all(np.abs(np.abs(spect.e[0]) - 0.5) < 1e-12)
    # derived 2x2 values for the trivial character of C4
    assert abs(spect.e[0, 0] - 0.5) < 1e-12


def test_coefficient_identities(rng):
    for _ in range(10):
        spec = random_spec(rng)
        spect = spectrum(spec)
        assert np.all(np.abs(spect.c.sum(axis=0) - 1.0) < 1e-12)
        assert np.all((0.0 < spect.d.sum(axis=0)) & (spect.d.sum(axis=0) <= 1.0 + 1e-12))
        assert np.all((np.abs(spect.e.sum(axis=0)) < 1e-12) | spect.chi_s_zero)
        assert np.all(np.abs(spect.e[0]) <= 0.5 + 1e-12)
        assert np.all((spect.e[0] != spect.e[1]) | spect.chi_s_zero)


def eigenvectors(spec):
    """Closed-form orthonormal eigenbasis, a referee for the spectrum.

    Returns (values, vectors): column 2i of vectors is the +branch of
    character i, column 2i+1 the -branch, with values aligned.
    """
    group = spec.group
    n = group.order
    W = character_matrix(group)
    inv_perm = [group.index(group.inverse(g)) for g in group.elements()]
    spect = spec.spectrum
    values = np.empty(2 * n)
    vectors = np.empty((2 * n, 2 * n), dtype=complex)
    for i, chi in enumerate(group.elements()):
        chi_at_inverse = W[i, inv_perm]
        lam_p, lam_m = spect.lambdas[:, i]
        if spect.chi_s_zero[i]:
            weights = (((1.0, 0.0), lam_p), ((0.0, 1.0), lam_m))
        else:
            x = char_sum(group, chi, spec.R).approx.real - char_sum(group, chi, spec.L).approx.real
            disc = lam_p - lam_m
            b = 2.0 * spect.chi_s[i]
            weights = (
                (((x + disc), b), lam_p),
                (((x - disc), b), lam_m),
            )
        for branch, ((a, b), lam) in enumerate(weights):
            norm = math.sqrt(n * (abs(a) ** 2 + abs(b) ** 2))
            col = 2 * i + branch
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
    spect = spec.spectrum
    out = []
    for i in range(n):
        gram = np.outer(W[i].conj(), W[i])
        for branch in (0, 1):
            c, d, e = spect.c[branch, i], spect.d[branch, i], spect.e[branch, i]
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
    assert spectrum(SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])).is_integral
    assert not spectrum(sc.cone(5)).is_integral
    full = sc.dihedral_full_coset(AbelianGroup([4]))
    spect = spectrum(full)
    assert spect.is_integral
    lams = sorted(spect.lambdas.T.ravel())
    assert lams == [-4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0]
    assert eigen_gcd(full) == 4


def test_integral_spectrum_with_irrational_layer_sums():
    # SC(Z5, {+-1}, {+-2}, {4}): chi(R) - chi(L) = +-sqrt(5) at every
    # nontrivial character, yet sigma = -1 and disc = 5 + 4 = 9
    spec = SemiCayleySpec(AbelianGroup([5]), [(1,), (4,)], [(2,), (3,)], [(4,)])
    spect = spec.spectrum
    assert spect.is_integral and eigen_gcd(spec) == 1
    assert spect.certified.all()
    assert sorted(spect.ints.ravel().tolist()) == [-2] * 4 + [1] * 5 + [3]
    assert spect.ints[:, 1].tolist() == [1, -2]


def test_surd_eigenvalues_of_the_cone():
    # cone(5): the trivial character has eigenvalues 1 +- sqrt(26), surds
    # and not integers; chi(S) = 0 elsewhere, where the branches are certified
    # one by one: chi(L) = 0 is an integer, chi(R) = 2 cos(2 pi k / 5) is not
    spect = spectrum(sc.cone(5))
    rows = spect.to_json()["characters"]
    assert not spect.certified[:, 0].any()
    assert rows[0]["lambda_plus_exact"] is None and rows[0]["lambda_minus_exact"] is None
    for i in range(1, 5):
        assert not spect.certified[0, i] and spect.certified[1, i] and spect.ints[1, i] == 0
        assert not rows[i]["exact"] and rows[i]["lambda_minus_exact"] is None
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
    empty = SemiCayleySpec(AbelianGroup([3]), [], [], [])
    with pytest.raises(ValidationError, match="constant spectrum"):
        eigen_gcd(empty)


def test_eigen_gcd_is_not_the_period_when_s_is_empty():
    # SC(Z_4, {2}, {+-1}, {}) is Cay(Z_4, {2}) = 2K_2, spectrum {+-1}, beside
    # C_4, spectrum {2, 0, 0, -2}: each component has period pi (layer gaps
    # 2 and 2), yet the gaps of the whole spectrum, measured from 1, have gcd 1
    spec = SemiCayleySpec(AbelianGroup([4]), [(2,)], [(1,), (3,)], [])
    assert sorted(spec.spectrum.ints.ravel().tolist()) == [-2, -1, -1, 0, 0, 1, 1, 2]
    assert eigen_gcd(spec) == 1
    report = sc.periodicity(spec)
    assert report.periodic and report.to_json()["min_period_pi_multiple"] == "1"


def test_spectrum_json():
    spec = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    blob = spectrum(spec).to_json()
    assert len(blob["characters"]) == 2
    row = blob["characters"][0]
    assert row["exact"] is True and row["lambda_plus_exact"] == 2


def test_spectrum_character_sums_match_char_sum(rng):
    for _ in range(20):
        spec = random_spec(rng)
        group = spec.group
        spect = spectrum(spec)
        # the spectrum keeps no coefficient rows; they come from the rows it is built on
        subsets = [spec.subset_indices[name] for name in ("R", "L", "S")]
        ones = np.ones(sum(map(len, subsets)), dtype=np.int64)
        rows_rls = _coefficient_rows(group, subsets, ones, np.arange(group.order))
        for i, chi in enumerate(group.elements()):
            assert tuple(spect.char_index[i].tolist()) == chi
            for rows, xs in zip(rows_rls, (spec.R, spec.L, spec.S)):
                assert tuple(rows[i].tolist()) == char_sum(group, chi, xs).coeffs


def test_spec_keeps_its_spectrum():
    spec = sc.cone(6)
    assert spec.spectrum is spec.spectrum
    assert same_spectrum(spec.spectrum, spectrum(spec))
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


def test_spectrum_keeps_no_array_above_n_times_n_entries():
    # n characters by N coefficients bounds every table the spectrum stores:
    # the coefficient rows it is built on are kept at the class
    # representatives only, one m x N block each of chi(R), chi(L), chi(S)
    # and chi(S S^-1), and the float half keeps chi(S) as its nonzero terms
    group = AbelianGroup([3, 6])  # n = 18, N = 6
    spec = SemiCayleySpec(group, [(1, 0), (2, 0)], [(0, 1), (0, 5)], [(1, 2), (0, 3)])
    spect = spec.spectrum
    spect.lambdas  # computes the float half
    names = [f.name for f in dataclasses.fields(spect)] + list(_FLOAT_HALF)
    sizes = {name: getattr(spect, name).size for name in names if isinstance(getattr(spect, name), np.ndarray)}
    sizes.update((f"_floats.{name}", value.size) for name, value in spect._floats._asdict().items())
    sizes.update((f"_rows[{b}]", rows.size) for b, rows in enumerate(spect._rows))
    assert set(_FLOAT_HALF) <= set(sizes) and len(spect._rows) == 4
    assert max(sizes.values()) <= 18 * 6, sizes


# the attributes of a Spectrum computed on their first read
_FLOAT_HALF = ("chi_s", "lambdas", "c", "d", "e")


def _count_float_halves(monkeypatch):
    import semicayley.spectra

    calls = []
    original = semicayley.spectra._float_half
    monkeypatch.setattr(semicayley.spectra, "_float_half", lambda *args: calls.append(1) or original(*args))
    return calls


def _join_z512():
    # the `join` period job of the cyclic-spectra benchmark workload
    return sc.join_spec(AbelianGroup([512]), [(1,), (511,)], [(2,), (510,)])


def test_exact_questions_leave_the_float_half_uncomputed(monkeypatch):
    # none of these specs has a `yes`, so no oracle confirmation reads a float;
    # K_3 x K_2 is integral, so eigen_gcd returns there
    k3_k2 = SemiCayleySpec(AbelianGroup([3]), [(1,), (2,)], [(1,), (2,)], [(0,)])
    calls = _count_float_halves(monkeypatch)
    for spec in (_join_z512(), sc.sunlet(5), k3_k2):
        periodicity(spec)
        try:
            eigen_gcd(spec)
        except ValidationError:
            assert not spec.spectrum.is_integral
        assert [v.status for v in find_pst(spec) if v.status != "no"] == []
        spec.spectrum.sign_exponents  # the cross-layer decider's table is exact too
    assert eigen_gcd(k3_k2) == 1
    assert calls == []


def test_the_float_half_is_computed_once_on_first_read(rng, monkeypatch):
    for spec in (_join_z512(), sc.cone(7), random_spec(rng)):
        fresh = spectrum(spec)
        calls = _count_float_halves(monkeypatch)
        spect = spec.spectrum
        spect.lambdas
        assert len(calls) == 1
        for name in _FLOAT_HALF:
            getattr(spect, name)
        spect.to_json()
        assert len(calls) == 1
        for name in _FLOAT_HALF:
            got, want = getattr(spect, name).ravel().tolist(), getattr(fresh, name).ravel().tolist()
            assert [_hex(x) for x in got] == [_hex(x) for x in want], (spec, name)
        monkeypatch.undo()


def test_the_exact_half_builds_rows_at_class_representatives_only(rng, monkeypatch):
    # Z_512 has 10 rational classes: the exact half builds its coefficient
    # rows (chi(R), chi(L), chi(S), chi(S S^-1) and chi((1_R - 1_L)^2)) for
    # those 10 characters, and the float half derives the other 502
    # characters' rows from the kept ones, building none
    import semicayley.spectra

    group = AbelianGroup([512])
    spec = SemiCayleySpec(group, random_inverse_closed(group, rng, 0.1),
                          random_inverse_closed(group, rng, 0.1), random_subset(group, rng, 0.1))
    shapes = []
    original = semicayley.spectra._coefficient_rows

    def recording(*args, **kwargs):
        rows = original(*args, **kwargs)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(semicayley.spectra, "_coefficient_rows", recording)
    spect = spectrum(spec)
    assert shapes and {shape[1:] for shape in shapes} == {(10, 512)}
    exact = len(shapes)
    spect.lambdas
    assert len(shapes) == exact and {shape[1:] for shape in shapes} == {(10, 512)}


def test_a_spectrum_builds_its_coefficient_rows_once_whatever_is_read(rng, monkeypatch):
    # one _coefficient_rows call per spectrum: the float half, the `spectrum`
    # report, the sign exponents, the entry formula and the confirmation of a
    # `yes` read the read-only blocks that spectrum() keeps
    import semicayley.spectra
    from semicayley.cli import run

    calls = []
    original = semicayley.spectra._coefficient_rows
    monkeypatch.setattr(semicayley.spectra, "_coefficient_rows", lambda *a, **k: calls.append(1) or original(*a, **k))
    group = AbelianGroup([512])
    spec = SemiCayleySpec(group, random_inverse_closed(group, rng, 0.1), random_inverse_closed(group, rng, 0.1),
                          random_subset(group, rng, 0.1))
    spect = spec.spectrum
    spect.lambdas, spect.to_json(), spect.sign_exponents
    sc.transfer_entry(spec, sc.Vertex((0,), 0), sc.Vertex((1,), 1), 1.0)
    assert len(calls) == 1
    assert len(spect._rows) == 4 and not any(rows.flags.writeable for rows in spect._rows)
    # R = L over Z_2^8 with S = {e}, two `yes`; then timed pst-checks
    group = AbelianGroup([2] * 8)
    r = [list(g) for g in sorted(random_subset(group, rng, 16 / 255) - {group.identity})]
    jobs = [
        ({"command": "pst-find", "graph": {"group": {"factors": [2] * 8}, "R": r, "L": r, "S": [[0] * 8]}},
         "pst_found"),
        ({"command": "pst-check", "graph": {"family": "hypercube", "n": 9}, "from": [[0] * 8, 0], "to": [[1] * 8, 1],
          "time": "1/2 pi"}, "time"),
        ({"command": "pst-check", "graph": {"family": "cone", "n": 7}, "from": [[0], 0], "to": [[1], 0],
          "time": "1"}, "time"),
    ]
    for job, key in jobs:
        calls.clear()
        report, code = run(job)
        assert code == 0 and report[key], (job, report)
        assert len(calls) == 1, job


def test_float_reads_over_many_exponents_leave_bounded_memory():
    # what the float half and the sign exponents leave behind once their
    # spectra are gone: the roots of unity of a few exponents, not of every
    # one read (8.8 MB of Python complex for N = 769 .. 1024).  The exact
    # halves are built before tracing starts, and the two reads alternate
    spectra = [SemiCayleySpec(AbelianGroup([n]), [(1,), (n - 1,)], [(2,), (n - 2,)], [(0,), (1,)]).spectrum
               for n in range(769, 1025)]
    tracemalloc.start()
    try:
        for spect in spectra:
            spect.lambdas if spect.order % 2 else spect.sign_exponents
        spectra.clear()
        growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert growth < 1_000_000, growth


def test_exact_halves_over_many_exponents_leave_bounded_memory():
    # the certifier's column orders (AbelianGroup._crt_order) of a few groups,
    # not of every one certified: `period` jobs on the joins over Z_N for 16
    # exponents N, whose orders would leave 16 x 8 kB behind if each were kept;
    # they go with their groups, and the group cache keeps one or two of order ~1000
    from semicayley import groups
    from semicayley.cli import run

    tracemalloc.start(4)  # deep enough to see the builder under np.argsort
    try:
        before = tracemalloc.take_snapshot()
        for n in range(1009, 1025):
            join = {"family": "join", "group": {"factors": [n]}, "R": [[1], [n - 1]], "L": [[2], [n - 2]]}
            assert run({"command": "period", "graph": join})[1] == 0
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    lines, first = inspect.getsourcelines(AbelianGroup.__dict__["_crt_order"].func)
    in_builder = [tracemalloc.Filter(True, groups.__file__, lineno, all_frames=True)
                  for lineno in range(first, first + len(lines))]
    growth = sum(stat.size_diff for stat in
                 after.filter_traces(in_builder).compare_to(before.filter_traces(in_builder), "filename"))
    assert growth < 96_000, growth


def test_each_group_builds_its_crt_order_and_roots_once(monkeypatch, rng):
    # the tables of the exponent N belong to the shared group: both halves and
    # the sign exponents of spectra over the pool's 21 groups, 12 exponents
    # interleaved, twice over, build each group's column order and roots once
    built = {"_crt_order": [], "_roots": []}
    for name, calls in built.items():
        table = AbelianGroup.__dict__[name].func
        counting = cached_property(lambda self, table=table, calls=calls: calls.append(self.factors) or table(self))
        counting.__set_name__(AbelianGroup, name)
        monkeypatch.setattr(AbelianGroup, name, counting)
    shared = {factors: AbelianGroup(factors) for factors in GROUP_POOL}
    assert len({group.exponent for group in shared.values()}) > 8
    for _ in range(2):
        for factors in GROUP_POOL:
            group = AbelianGroup(factors)
            spect = spectrum(SemiCayleySpec(group, random_inverse_closed(group, rng), random_inverse_closed(group, rng),
                                            random_subset(group, rng)))
            spect.lambdas, spect.sign_exponents
    assert built == {"_crt_order": GROUP_POOL, "_roots": GROUP_POOL}
    for factors, group in shared.items():
        assert AbelianGroup(factors)._crt_order is group._crt_order and AbelianGroup(factors)._roots is group._roots


def test_s_s_inverse_from_the_complement_equals_the_pairwise_product(rng):
    # past half the group, S S^-1 = (n - 2|C|) 1_G + C C^-1 with C = G - S
    for factors in ((12,), (2, 6), (512,)):
        group = AbelianGroup(factors)
        n = group.order
        everything = np.arange(n)
        sets = [everything, np.delete(everything, int(rng.integers(n)))]
        sets += [np.sort(rng.choice(n, size=int(rng.integers(n // 2 + 1, n + 1)), replace=False)) for _ in range(5)]
        for s in sets:
            assert 2 * len(s) > n
            pairwise = _group_product(group, s, group.power_indices(s, -1))
            assert np.array_equal(_s_s_inverse(group, s), pairwise), (factors, s)


@pytest.mark.parametrize("factors", [(1024,), (2,) * 10, (2, 512), (4, 256), (3, 5, 7, 9), (32, 32), (12,), (2, 6),
                                     (1000,), (2, 3, 4), (2, 2, 2, 2, 4, 4), (300,), (1,)])
def test_rational_classes_by_sieve_and_by_argmin_match_the_referee(factors, monkeypatch):
    # the sieve and the argmin each on every group, whichever side of the
    # switch it is on: the same representatives and the same powers
    group = AbelianGroup(factors)
    expected = rational_classes_by_argmin(group)
    for units in (0, math.inf):
        monkeypatch.setattr(sc.groups, "_SIEVE_UNITS", units)
        got = _rational_classes(group)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected)), units


def test_spectra_compare_equal_whether_or_not_their_floats_were_read():
    for read_kept, read_fresh in ((False, False), (True, False), (False, True), (True, True)):
        spec = sc.cone(6)
        kept, fresh = spec.spectrum, spectrum(spec)
        if read_kept:
            kept.lambdas
        if read_fresh:
            fresh.lambdas
        assert same_spectrum(kept, fresh)
    # both specs are nowhere certified and never have chi(S) = 0, so their
    # exact halves agree and only the floats (chi_k({+-2}) = chi_2k({+-1})) differ
    z5 = AbelianGroup([5])
    plus_two = SemiCayleySpec(z5, [(2,), (3,)], [], [(0,)])
    assert not sc.sunlet(5).spectrum.certified.any() and not plus_two.spectrum.certified.any()
    assert not same_spectrum(sc.sunlet(5).spectrum, plus_two.spectrum)


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
        yield SemiCayleySpec(group, r_set, l_set, random_subset(group, rng, prob))


def test_class_certificates_match_a_per_character_referee(rng):
    # one representative per rational class is certified and its integers are
    # copied: the Galois conjugates of an integer are that integer
    specs = [random_spec(rng) for _ in range(300)] + list(_large_exponent_specs(rng, 6))
    # R = L, where disc = 4 |chi(S)|^2 comes from the same group-ring rows as for R != L
    specs += [random_spec(rng, equal_layers=True) for _ in range(150)]
    for spec in specs:
        group = spec.group
        spect = spectrum(spec)
        for i, chi in enumerate(group.elements()):
            ints = [int(x) if ok else None for x, ok in zip(spect.ints[:, i], spect.certified[:, i])]
            assert (spect.chi_s_zero[i], *ints) == _referee_ints(group, chi, spec), (spec, i)


def _count_exact_work(monkeypatch):
    # records the rows of every _certify product and every CycloValue built
    import semicayley.spectra
    from semicayley.characters import CycloValue

    products, built = [], []
    certify, init = semicayley.spectra._certify, CycloValue.__init__
    monkeypatch.setattr(semicayley.spectra, "_certify",
                        lambda rows, order: products.append(rows.shape) or certify(rows, order))
    monkeypatch.setattr(CycloValue, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    return products, built


def test_spectrum_certifies_once_per_rational_class(rng, monkeypatch):
    # Z_512 has 10 rational classes (one per divisor of 512); one product
    # reduces chi(R), chi(L), chi(S), sigma and disc of each representative,
    # and no character gets exact work of its own
    group = AbelianGroup([512])
    spec = SemiCayleySpec(group, random_inverse_closed(group, rng, 0.1),
                     random_inverse_closed(group, rng, 0.1), random_subset(group, rng, 0.1))
    assert spec.R != spec.L
    products, built = _count_exact_work(monkeypatch)
    spectrum(spec)
    assert products == [(5 * 10, 512)]
    assert built == []


def test_array_certifier_matches_the_per_character_referee(rng):
    # Phi_105 has a coefficient -2; factors 1 leave the characters unchanged;
    # S = G with R = L = G - {e} vanishes off the trivial character
    z105 = AbelianGroup([105])
    specs = [SemiCayleySpec(z105, random_inverse_closed(z105, rng, 0.1), random_inverse_closed(z105, rng, 0.1),
                       random_subset(z105, rng, 0.1)) for _ in range(3)]
    r_set = random_inverse_closed(z105, rng, 0.1)
    specs.append(SemiCayleySpec(z105, r_set, r_set, random_subset(z105, rng, 0.1)))
    specs.append(SemiCayleySpec(z105, [], [], [(1,)]))
    for factors in ((1,), (2, 1)):
        group = AbelianGroup(factors)
        specs += [SemiCayleySpec(group, random_inverse_closed(group, rng), random_inverse_closed(group, rng),
                            random_subset(group, rng)) for _ in range(3)]
    for factors in ((12,), (2, 2, 2)):
        group = AbelianGroup(factors)
        specs.append(SemiCayleySpec(group, group.elements()[1:], group.elements()[1:], group.elements()))
    for factors in ((1,), (12,), (2, 2, 2), (105,)):
        specs.append(SemiCayleySpec(AbelianGroup(factors), [], [], []))
    for spec in specs:
        group = spec.group
        spect = spectrum(spec)
        for i, chi in enumerate(group.elements()):
            ints = [int(x) if ok else None for x, ok in zip(spect.ints[:, i], spect.certified[:, i])]
            assert (spect.chi_s_zero[i], *ints) == _referee_ints(group, chi, spec), (spec, i)


def test_certify_reduces_exactly_past_2_53():
    from semicayley.spectra import _certify

    # zeta_3 + zeta_3^2 = -1, and 1 + zeta_3 = -zeta_3^2 is no integer
    rational, value = _certify(np.array([[0, 7, 7], [0, 2**40, 2**40], [1, 1, 0]]), AbelianGroup([3]))
    assert rational.tolist() == [True, True, False] and value[:2].tolist() == [-7, -2**40]
    # every coordinate is a signed sum of distinct entries of its row, so
    # int64 stays exact where a float64 sum would round: 2^60 zeta_105^104
    # is no integer, and 2^60 is certified as itself
    rational, value = _certify(np.array([[0] * 104 + [2**60], [2**60] + [0] * 104]), AbelianGroup([105]))
    assert rational.tolist() == [False, True] and value[1] == 2**60


# the float columns of a Spectrum, by their per-character names: (array, branch row)
_FLOAT_FIELDS = {"lambda_plus": ("lambdas", 0), "lambda_minus": ("lambdas", 1), "c_plus": ("c", 0),
                 "c_minus": ("c", 1), "d_plus": ("d", 0), "d_minus": ("d", 1), "e_plus": ("e", 0),
                 "e_minus": ("e", 1)}


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
    yield SemiCayleySpec(trivial, [], [], [])
    yield SemiCayleySpec(trivial, [], [], [(0,)])
    # rational classes of several sizes: each class's floats come from its
    # representative's rows by a Galois permutation of the exponents
    for factors in ((2, 12), (60,), (16,), (3, 9), (2, 8), (5,)):
        group = AbelianGroup(factors)
        r_set = random_inverse_closed(group, rng, 0.3)
        l_set = random_inverse_closed(group, rng, 0.3)
        yield SemiCayleySpec(group, r_set, l_set, [])  # S empty
        yield SemiCayleySpec(group, r_set, l_set, group.elements())  # S = G
        yield SemiCayleySpec(group, [], [], random_subset(group, rng, 0.3))  # R = L empty
        yield SemiCayleySpec(group, r_set, l_set, random_subset(group, rng, 0.3))
        yield SemiCayleySpec(group, r_set, r_set, random_subset(group, rng, 0.3))


def test_spectrum_floats_are_the_per_character_floats_bit_for_bit(rng):
    for spec in _edge_specs(rng):
        group = spec.group
        spect = spectrum(spec)
        for i, chi in enumerate(group.elements()):
            expected = _referee_floats(group, chi, spec, spect.chi_s_zero[i])
            for name, (array, branch) in _FLOAT_FIELDS.items():
                assert _hex(getattr(spect, array)[branch, i].item()) == _hex(expected[name]), (spec, i, name)


def test_the_float_half_is_exact_at_its_largest_sort_keys():
    # S = G on Z_1024: chi_0(S S^-1) = n^2 = 2^20 is the largest coefficient
    # a spectrum meets, so the int32 sort keys (k f mod N) 2^b + c of the
    # float half reach 2^31 - 1, and the other classes' dense rows pad the
    # trivial character's one term with 1023 zero terms
    group = AbelianGroup([1024])
    spec = sc.join_spec(group, [(1,), (1023,)], [(2,), (1022,)])
    spect = spectrum(spec)
    rows = spect.to_json()["characters"]
    for i in (0, 1, 2, 3, 256, 512, 768, 1023):
        chi = group.element(i)
        expected = _referee_floats(group, chi, spec, spect.chi_s_zero[i])
        for name, (array, branch) in _FLOAT_FIELDS.items():
            assert _hex(getattr(spect, array)[branch, i].item()) == _hex(expected[name]), (i, name)
        assert rows[i]["chi_s"] == char_sum(group, chi, spec.S).to_json(), i


def _referee_json(spec):
    # the spectrum report built one character at a time from fresh character
    # sums: chi_s carries CycloValue.approx itself
    group = spec.group
    rows = []
    for i, chi in enumerate(group.elements()):
        s_zero, plus, minus = _referee_ints(group, chi, spec)
        floats = _referee_floats(group, chi, spec, s_zero)
        exact = plus is not None and minus is not None
        e_plus, e_minus = floats["e_plus"], floats["e_minus"]
        rows.append({
            "index": i,
            "char_index": list(chi),
            "lambda_plus": floats["lambda_plus"],
            "lambda_minus": floats["lambda_minus"],
            "exact": exact,
            "lambda_plus_exact": plus if exact else None,
            "lambda_minus_exact": minus if exact else None,
            "chi_s": char_sum(group, chi, spec.S).to_json(),
            "c_plus": floats["c_plus"],
            "c_minus": floats["c_minus"],
            "d_plus": floats["d_plus"],
            "d_minus": floats["d_minus"],
            "e_plus": {"re": e_plus.real, "im": e_plus.imag},
            "e_minus": {"re": e_minus.real, "im": e_minus.imag},
        })
    return {"characters": rows}


def test_spectrum_json_text_matches_a_per_character_referee(rng):
    # the text tells -0.0 from 0.0 and shows every last bit of a float
    specs = list(_edge_specs(rng)) + [random_spec(rng) for _ in range(200)]
    for spec in specs:
        assert json.dumps(spectrum(spec).to_json()) == json.dumps(_referee_json(spec)), spec


def test_spectrum_json_lists_the_nonzero_terms_of_chi_s(rng):
    # chi(S) is a sum of |S| roots of unity, so a row holds at most
    # min(|S|, N) terms, each with a nonzero coefficient
    z12 = AbelianGroup([12])
    every = SemiCayleySpec(z12, random_inverse_closed(z12, rng), random_inverse_closed(z12, rng), z12.elements())
    specs = list(_edge_specs(rng)) + [random_spec(rng) for _ in range(200)] + [every]
    for spec in specs:
        group = spec.group
        for chi, row in zip(group.elements(), spectrum(spec).to_json()["characters"]):
            terms = row["chi_s"]
            exponents, coefficients = terms["exponents"], terms["coefficients"]
            assert len(exponents) == len(coefficients) <= min(len(spec.S), group.exponent), (spec, chi)
            assert 0 not in coefficients and exponents == sorted(set(exponents)), (spec, chi)
            dense = [0] * group.exponent
            for exponent, coefficient in zip(exponents, coefficients):
                dense[exponent] = coefficient
            assert tuple(dense) == char_sum(group, chi, spec.S).coeffs, (spec, chi)
    # chi_k(Z_12) = sum over j of zeta^(jk): each multiple of d = gcd(k, 12) d times
    for k, row in enumerate(spectrum(every).to_json()["characters"]):
        d = math.gcd(k, 12)
        assert row["chi_s"]["exponents"] == list(range(0, 12, d))
        assert row["chi_s"]["coefficients"] == [d] * (12 // d)


def test_sign_exponents_cost_two_exact_products_per_class(monkeypatch):
    # SC(Z_512, {}, {}, {1}): chi_j(S) = zeta^j, so every character has a sign
    # exponent; each of the 10 rational classes needs one exact product per
    # column, all of them reduced at once, and no character gets a CycloValue
    group = AbelianGroup([512])
    spec = SemiCayleySpec(group, [], [], [(1,)])
    spect = spec.spectrum
    products, built = _count_exact_work(monkeypatch)
    table = spect.sign_exponents
    assert products == [(2 * 10, 512)]  # one rational class per divisor of 512
    assert built == []
    # conj(zeta^j) zeta^e = +1 at e = j and -1 at e = j + 256
    assert table.tolist() == [[j, (j + 256) % 512] for j in range(512)]
