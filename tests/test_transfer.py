import math
from fractions import Fraction

import numpy as np
import pytest

import semicayley as sc
from semicayley import (
    AbelianGroup,
    SemiCayleySpec,
    ValidationError,
    Vertex,
    oracle_column,
    transfer_entry,
    transfer_matrix,
    transfer_rows,
    verify_at_time,
)
from semicayley.characters import character_matrix
from semicayley.graphs import build, cay_adjacency
from semicayley.transfer import _entry_sums, _lanczos_steps, oracle_expm, reduce_time

from conftest import random_spec
from referees import block_transfer_rl, vertices


def test_identity_at_zero(rng):
    spec = random_spec(rng)
    size = 2 * spec.n
    assert np.max(np.abs(transfer_matrix(spec, 0.0) - np.eye(size))) < 1e-12
    u = Vertex(spec.group.identity, 0)
    assert abs(transfer_entry(spec, u, u, 0.0) - 1.0) < 1e-12


def test_k2_closed_form():
    k2 = sc.hypercube(1)
    u, v = Vertex((0,), 0), Vertex((0,), 1)
    for t in (0.3, 1.0, math.pi / 2, 2.5):
        h = transfer_matrix(k2, t)
        expected = np.array([[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]])
        assert np.max(np.abs(h - expected)) < 1e-12
    assert abs(abs(transfer_entry(k2, u, v, math.pi / 2)) - 1.0) < 1e-12
    assert abs(abs(transfer_entry(k2, u, v, math.pi / 4)) - math.sqrt(0.5)) < 1e-12


def test_c4_antipodal_entry():
    c4 = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    value = transfer_entry(c4, Vertex((0,), 0), Vertex((1,), 1), math.pi / 2)
    assert abs(abs(value) - 1.0) < 1e-12


def test_oracle_basics():
    assert np.array_equal(oracle_expm(np.zeros((3, 3)), 1.7), np.eye(3))
    flip = np.array([[0, 1], [1, 0]])
    h = oracle_expm(flip, math.pi / 2)
    assert abs(abs(h[0, 1]) - 1.0) < 1e-12
    assert abs(h[0, 0]) < 1e-12
    with pytest.raises(ValidationError):
        oracle_expm(np.array([[0, 1], [0, 0]]), 1.0)


def test_oracle_semigroup(rng):
    size = 6
    sym = rng.normal(size=(size, size))
    sym = sym + sym.T
    t1, t2 = 0.7, 1.9
    lhs = oracle_expm(sym, t1) @ oracle_expm(sym, t2)
    rhs = oracle_expm(sym, t1 + t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_spectral_path_equals_oracle(rng):
    for _ in range(20):
        spec = random_spec(rng)
        t = float(rng.uniform(0.0, 10.0))
        h_spec = transfer_matrix(spec, t)
        h_oracle = oracle_expm(build(spec), t)
        assert np.max(np.abs(h_spec - h_oracle)) < 1e-9


def test_transfer_matrix_is_one_value_per_connecting_element(rng):
    # H_(g,r),(h,s)(t) depends only on the layers and a = g^{-1} h, so each
    # block must be its first row (g = identity) gathered through index(a)
    for _ in range(50):
        spec = random_spec(rng)
        group, n = spec.group, spec.n
        elems = group.elements()
        differences = np.array([[group.index(group.mul(group.inverse(g), h)) for h in elems] for g in elems])
        h = transfer_matrix(spec, float(rng.uniform(0.0, 10.0)))
        for r in (0, 1):
            for s in (0, 1):
                block = h[r * n : (r + 1) * n, s * n : (s + 1) * n]
                assert np.array_equal(block, block[0][differences]), (spec, r, s)


def test_transfer_rows_gathered_are_the_matrix(rng):
    # rows[r, s, k] = H_(e,r),(g_k,s)(t) holds all of H(t): entry (g, r), (h, s)
    # is rows[r, s, index(g^{-1} h)], gathered here through the group law
    for _ in range(50):
        spec = random_spec(rng)
        group, n = spec.group, spec.n
        elems = group.elements()
        differences = np.array([[group.index(group.mul(group.inverse(g), h)) for h in elems] for g in elems])
        t = float(rng.uniform(0.0, 10.0))
        rows = transfer_rows(spec, t)
        assert rows.shape == (2, 2, n)
        gathered = np.block([[rows[r, s][differences] for s in (0, 1)] for r in (0, 1)])
        assert np.array_equal(gathered, transfer_matrix(spec, t)), spec
        assert np.max(np.abs(gathered - oracle_expm(build(spec), t))) < 1e-9, spec


def test_transfer_matrix_builds_one_character_table(monkeypatch):
    import semicayley.transfer

    calls = []
    counting = lambda group: calls.append(group) or character_matrix(group)  # noqa: E731
    monkeypatch.setattr(semicayley.transfer, "character_matrix", counting)
    transfer_matrix(sc.hypercube(3), 0.7)
    assert len(calls) == 1


def test_entry_formula_equals_oracle(rng):
    # _entry_sums serves transfer_entry (one time) and pst.scan_pair (a grid,
    # with chi(a) a row of the character table); check both in all four
    # layer cases against the independent oracle
    for _ in range(10):
        spec = random_spec(rng)
        group = spec.group
        ts = rng.uniform(0.0, 10.0, size=3)
        oracles = [oracle_expm(build(spec), t) for t in ts]
        for r in (0, 1):
            for s in (0, 1):
                u = Vertex(group.element(int(rng.integers(group.order))), r)
                v = Vertex(group.element(int(rng.integers(group.order))), s)
                want = np.array([h[spec.vertex_index(u), spec.vertex_index(v)] for h in oracles])
                chi_a = character_matrix(group)[spec.connecting_index(u, v)]
                assert np.max(np.abs(_entry_sums(spec, r, s, chi_a, ts) / spec.n - want)) < 1e-9
                for t, w in zip(ts, want):
                    assert abs(transfer_entry(spec, u, v, float(t)) - w) < 1e-9


def test_column_oracle_equals_dense_oracle(rng):
    # a layer-0 and a layer-1 column hold all four (source, target) layer cases
    for draw in range(200):
        spec = random_spec(rng, equal_layers=draw % 2 == 0)
        n = spec.n
        for t in (0.0, math.pi / 8, math.pi / 2, 3.0):
            dense = oracle_expm(build(spec), t)
            for j in (int(rng.integers(n)), n + int(rng.integers(n))):
                assert np.max(np.abs(oracle_column(spec, j, t) - dense[:, j])) < 1e-10


def test_column_oracle_reads_no_spectral_data(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the column oracle must not read eigen or character data")

    monkeypatch.setattr(sc.spectra, "spectrum", forbidden)
    monkeypatch.setattr(AbelianGroup, "char_exponents", property(forbidden))
    spec = SemiCayleySpec(AbelianGroup([3, 4]), [(0, 1), (0, 3), (1, 2), (2, 2)], [(1, 0), (2, 0)], [(0, 0), (1, 3)])
    column = oracle_column(spec, 5, 2.3)
    assert np.max(np.abs(column - oracle_expm(build(spec), 2.3)[:, 5])) < 1e-10
    with pytest.raises(AssertionError):
        spec.spectrum


def test_column_oracle_rejects_bad_times():
    with pytest.raises(ValidationError):
        oracle_column(sc.hypercube(3), 0, -1.0)
    with pytest.raises(ValidationError, match="horizon"):
        oracle_column(sc.sunlet(4), 0, 1e6)  # rho = 3
    empty = SemiCayleySpec(AbelianGroup([3]), [], [], [])
    assert np.array_equal(oracle_column(empty, 1, 1e9), np.eye(6)[1])



def test_column_oracle_refuses_a_time_that_is_not_finite():
    # before the sign rule, which NaN fails too, and the horizon, which inf fails too
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="time must be finite"):
            oracle_column(sc.hypercube(3), 0, t)


def test_every_real_time_is_read_as_its_float():
    # past 2 pi, so an integral spectrum reduces it exactly; 10^400 is no float
    c4 = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    u, v = Vertex((0,), 0), Vertex((1,), 1)
    for spec in (c4, sc.sunlet(4)):
        for t in (Fraction(21, 2), np.int64(10), np.float32(10.5), 10):
            assert transfer_entry(spec, u, v, t) == transfer_entry(spec, u, v, float(t)), (spec, t)
            assert verify_at_time(spec, u, v, t) == verify_at_time(spec, u, v, float(t)), (spec, t)
            assert np.array_equal(oracle_column(spec, 0, t), oracle_column(spec, 0, float(t))), (spec, t)
    for t in (10**400, Fraction(10**400, 3)):
        with pytest.raises(ValidationError, match="time must be finite"):
            transfer_entry(c4, u, v, t)
        with pytest.raises(ValidationError, match="time must be finite"):
            oracle_column(c4, 0, t)


def test_transfer_entry_validates_each_vertex_once(monkeypatch):
    cube = sc.hypercube(3)
    calls = []
    validate = AbelianGroup.validate_element
    monkeypatch.setattr(AbelianGroup, "validate_element", lambda self, g: calls.append(g) or validate(self, g))
    value = transfer_entry(cube, Vertex((0, 0), 0), Vertex((1, 1), 1), math.pi / 2)
    assert abs(abs(value) - 1.0) < 1e-12
    assert len(calls) == 2

def _eigh_column(spec, j, t):
    values, vectors = np.linalg.eigh(build(spec))
    return vectors @ (np.exp(-1j * t * values) * vectors[j])


def test_column_oracle_at_the_horizon():
    # non-integral spectra, so no reduction: t * rho = 9.9e5 straight through
    for spec in (sc.cone(256), sc.sunlet(256)):
        t = 9.9e5 / spec.adjacency.sum(axis=1).max()
        for j in (0, spec.n):
            assert np.max(np.abs(oracle_column(spec, j, t) - _eigh_column(spec, j, t))) < 1e-9


def test_capped_column_oracle():
    # sunlet(256) from a cycle vertex has a Krylov space of about n / 2
    # dimensions, far beyond the cap of 35 steps at t * rho = 10
    spec = sc.sunlet(256)
    assert _lanczos_steps(10.0, 2 * spec.n) < 2 * spec.n
    t = 10.0 / 3
    for j in (0, spec.n):
        assert np.max(np.abs(oracle_column(spec, j, t) - _eigh_column(spec, j, t))) < 1e-12


class _CountingMatrix(np.ndarray):
    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ other


def test_column_oracle_products_stop_at_the_krylov_dimension():
    # the column of e_j spans as many dimensions as e_j has distinct
    # eigenvalues in its support: 10 on the 9-cube, at most 5 on the dihedral
    # graph, although t * rho is about 450 at t = 50 pi / 2
    t = 50 * math.pi / 2
    for spec, most in ((sc.hypercube(9), 10), (sc.dihedral_involutions(AbelianGroup([256])), 5)):
        adjacency = build(spec).view(_CountingMatrix)
        adjacency.flags.writeable = False
        spec.__dict__["adjacency"] = adjacency
        for j in (0, spec.n):
            _CountingMatrix.products = 0
            column = oracle_column(spec, j, t)
            assert _CountingMatrix.products <= most
            assert np.max(np.abs(column - _eigh_column(spec, j, t))) < 1e-10


def _bessel_series(x):
    """J_0(x), ..., J_K(x) by Miller's backward recurrence, up to the last above 1e-18.

    J_{k-1} = (2k / x) J_k - J_{k+1} from k ~ x + 10 x^(1/3) + 30, where J_k(x)
    is negligible, rescaled before it can overflow and normalised by
    J_0 + 2 (J_2 + J_4 + ...) = 1: the series the Chebyshev column oracle summed.
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
    last = max(k for k, value in enumerate(values) if abs(value) > 1e-18 * abs(scale))
    return [value / scale for value in values[: last + 1]]


def test_lanczos_cap_bounds_the_bessel_tail():
    # the cap m leaves a tail 4 sum_{k >= m} |J_k(x)| under 1e-14, and it never
    # takes more products (m - 1: the first step reads a column) than the
    # Chebyshev series, which took one per Bessel term from J_2 on
    for x in np.geomspace(0.05, 3000, 60):
        bessel = _bessel_series(x)
        steps = _lanczos_steps(x, 10**5)
        assert 4 * math.fsum(abs(b) for b in bessel[steps:]) <= 1e-14, x
        assert steps - 1 <= len(bessel) - 2, x
    assert _lanczos_steps(3000.0, 512) == 512


def test_reduced_time_gives_the_unreduced_magnitudes(rng):
    # integer eigenvalues: H(t + 2 pi) = H(t), so (6 + 1/2) pi reduces to pi/2
    pi_multiple = Fraction(13, 2)
    t = float(pi_multiple) * math.pi
    specs = [sc.hypercube(3), sc.dihedral_full_coset(AbelianGroup([4]))]
    while len(specs) < 6:
        spec = random_spec(rng, equal_layers=True)
        if spec.spectrum.is_integral:
            specs.append(spec)
    for spec in specs:
        assert reduce_time(spec, t, pi_multiple) == math.pi / 2
        assert abs(reduce_time(spec, t) - math.pi / 2) < 1e-14
        want = np.abs(oracle_expm(build(spec), t))
        for j in (0, spec.n):
            got = np.abs(oracle_column(spec, j, reduce_time(spec, t, pi_multiple)))
            assert np.max(np.abs(got - want[:, j])) < 1e-10
    # a non-integral spectrum has no exact period: the time stays as given
    assert reduce_time(sc.sunlet(4), t, pi_multiple) == t


def test_the_spectral_path_reduces_large_times_itself():
    # (2 * 10^8 + 1) pi / 2 is pi / 2 modulo 2 pi, where both graphs' antipodal pairs exchange
    t = (2 * 10**8 + 1) * math.pi / 2
    c4 = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    for spec in (c4, sc.hypercube(3)):
        u, v = Vertex(spec.group.identity, 0), Vertex((1,) * len(spec.group.factors), 1)
        value = transfer_entry(spec, u, v, t)
        assert value == transfer_entry(spec, u, v, reduce_time(spec, t))  # bit for bit
        assert abs(abs(value) - 1) < 1e-9
    # t * lambda would overflow without the exact reduction
    assert np.isfinite(transfer_rows(c4, 1e308)).all()


def test_block_path_equals_oracle(rng):
    for _ in range(20):
        spec = random_spec(rng, equal_layers=True)
        t = float(rng.uniform(0.0, 10.0))
        h_block = block_transfer_rl(spec, t)
        h_oracle = oracle_expm(build(spec), t)
        assert np.max(np.abs(h_block - h_oracle)) < 1e-9


def test_block_requires_equal_layers():
    with pytest.raises(ValidationError):
        block_transfer_rl(sc.sunlet(4), 1.0)


def test_block_structure_with_identity_spokes(rng):
    # S = {identity}: the spoke factor collapses to scalar cos/sin
    group = AbelianGroup([4])
    spec = SemiCayleySpec(group, [(1,), (3,)], [(1,), (3,)], [(0,)])
    t = 1.234
    layer = cay_adjacency(group, spec.R).astype(float)
    vals, vecs = np.linalg.eigh(layer)
    h_layer = (vecs * np.exp(-1j * vals * t)) @ vecs.T
    expected = np.block(
        [
            [math.cos(t) * h_layer, -1j * math.sin(t) * h_layer],
            [-1j * math.sin(t) * h_layer, math.cos(t) * h_layer],
        ]
    )
    assert np.max(np.abs(block_transfer_rl(spec, t) - expected)) < 1e-12
    # cross-layer carry-over: at odd multiples of pi/2 the diagonal blocks die
    # and the off-diagonal block is the layer walk up to phase
    h = block_transfer_rl(spec, math.pi / 2)
    n = spec.n
    h_layer_half = (vecs * np.exp(-1j * vals * (math.pi / 2))) @ vecs.T
    assert np.max(np.abs(h[:n, :n])) < 1e-12
    assert np.max(np.abs(np.abs(h[:n, n:]) - np.abs(h_layer_half))) < 1e-12


def test_block_permutation_spokes_at_pi():
    # any single-element S gives a permutation C with CC^T = I; at t = pi the
    # spokes vanish and each layer carries -H_B(t): in-layer inheritance
    group = AbelianGroup([4])
    spec = SemiCayleySpec(group, [(1,), (3,)], [(1,), (3,)], [(1,)])
    h = block_transfer_rl(spec, math.pi)
    n = spec.n
    layer = cay_adjacency(group, spec.R).astype(float)
    vals, vecs = np.linalg.eigh(layer)
    h_layer = (vecs * np.exp(-1j * vals * math.pi)) @ vecs.T
    assert np.max(np.abs(h[:n, n:])) < 1e-12
    assert np.max(np.abs(h[n:, :n])) < 1e-12
    assert np.max(np.abs(h[:n, :n] + h_layer)) < 1e-12
    assert np.max(np.abs(h[n:, n:] + h_layer)) < 1e-12


def test_entry_matches_matrix(rng):
    for _ in range(5):
        spec = random_spec(rng)
        t = float(rng.uniform(0.0, 6.0))
        h = transfer_matrix(spec, t)
        for _ in range(6):
            i = int(rng.integers(2 * spec.n))
            j = int(rng.integers(2 * spec.n))
            listed = vertices(spec)
            entry = transfer_entry(spec, listed[i], listed[j], t)
            assert abs(entry - h[i, j]) < 1e-10


def test_unitarity_and_probability(rng):
    for _ in range(10):
        spec = random_spec(rng)
        t = float(rng.uniform(0.0, 10.0))
        h = transfer_matrix(spec, t)
        size = 2 * spec.n
        assert np.max(np.abs(h @ h.conj().T - np.eye(size))) < 1e-9
        rows = np.sum(np.abs(h) ** 2, axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-9
        assert np.max(np.abs(h)) <= 1.0 + 1e-9


def test_time_reversal(rng):
    spec = random_spec(rng)
    t = 2.2
    forward = transfer_matrix(spec, t)
    backward = transfer_matrix(spec, -t)
    assert np.max(np.abs(backward - forward.conj().T)) < 1e-9


def test_s_empty_block_diagonal_transfer(rng):
    spec = random_spec(rng)
    spec = SemiCayleySpec(spec.group, spec.R, spec.L, [])
    t = 1.6
    h = transfer_matrix(spec, t)
    n = spec.n
    assert np.max(np.abs(h[:n, n:])) < 1e-9
    assert np.max(np.abs(h[n:, :n])) < 1e-9
    for connection, block in ((spec.R, h[:n, :n]), (spec.L, h[n:, n:])):
        cay = cay_adjacency(spec.group, connection)
        assert np.max(np.abs(block - oracle_expm(cay, t))) < 1e-9
