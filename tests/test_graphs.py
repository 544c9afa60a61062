import json
from itertools import permutations, product

import numpy as np
import pytest

import semicayley as sc
from semicayley import AbelianGroup, SemiCayleySpec, ValidationError, Vertex
from semicayley.graphs import (
    build,
    cay_adjacency,
    from_cayley_index2,
    identity_action,
    inversion,
)

from conftest import GROUP_POOL, NONTRIVIAL_POOL, random_inverse_closed, random_spec, random_subset
from referees import vertices


def test_sunlet_3():
    spec = sc.sunlet(3)
    adjacency = build(spec)
    assert adjacency.shape == (6, 6)
    degrees = sorted(adjacency.sum(axis=0), reverse=True)
    assert degrees == [3, 3, 3, 1, 1, 1]
    assert adjacency.sum() // 2 == 6  # 3 cycle edges + 3 pendant edges


def test_sunlet_4_sets():
    spec = sc.sunlet(4)
    assert spec.group.factors == (4,)
    assert spec.R == spec.group.subset([(1,), (3,)])
    assert spec.L == frozenset()
    assert spec.S == spec.group.subset([(0,)])


def test_c4_by_hand():
    spec = SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])
    adjacency = build(spec)
    edges = {(i, j) for i in range(4) for j in range(4) if i < j and adjacency[i, j]}
    # vertex order: (0,0), (1,0), (0,1), (1,1)
    assert edges == {(0, 1), (2, 3), (0, 2), (1, 3)}
    assert (adjacency.sum(axis=0) == 2).all()


def test_s_empty_is_disjoint_union(rng):
    spec = random_spec(rng)
    spec = SemiCayleySpec(spec.group, spec.R, spec.L, [])
    adjacency = build(spec)
    n = spec.n
    assert np.array_equal(adjacency[:n, :n], cay_adjacency(spec.group, spec.R))
    assert np.array_equal(adjacency[n:, n:], cay_adjacency(spec.group, spec.L))
    assert not adjacency[:n, n:].any()
    assert not adjacency[n:, :n].any()


def test_edge_rules_independent_recomputation(rng):
    for _ in range(10):
        spec = random_spec(rng)
        adjacency = build(spec)
        group = spec.group
        elems = group.elements()
        n = group.order
        for xi, x in enumerate(elems):
            for yi, y in enumerate(elems):
                diff = group.mul(y, group.inverse(x))
                u, v = Vertex(x, xi % 2), Vertex(y, yi // 2 % 2)
                assert spec.connecting_index(u, v) == group.index(group.mul(group.inverse(x), y))
                assert adjacency[xi, yi] == (1 if diff in spec.R else 0)
                assert adjacency[n + xi, n + yi] == (1 if diff in spec.L else 0)
                assert adjacency[xi, n + yi] == (1 if diff in spec.S else 0)
                assert adjacency[n + yi, xi] == adjacency[xi, n + yi]


def _cayley_by_definition(factors, connection):
    # (x, y) = 1 iff y * x^{-1} is in the set, by plain modular arithmetic
    elems = list(product(*(range(n) for n in factors)))
    members = {tuple(c) for c in connection}
    out = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for xi, x in enumerate(elems):
        for yi, y in enumerate(elems):
            out[xi, yi] = tuple((b - a) % n for a, b, n in zip(x, y, factors)) in members
    return out


def test_cay_adjacency_matches_definition(rng):
    for factors in GROUP_POOL + [(3, 1, 2)]:
        group = AbelianGroup(factors)
        elems = group.elements()
        one_sided = [g for g in elems if group.element_order(g) > 2][:1]
        connections = [
            [],
            [group.identity],
            random_inverse_closed(group, rng),
            random_subset(group, rng) | {group.identity},
            one_sided,
            elems,
        ]
        for connection in connections:
            expected = _cayley_by_definition(factors, connection)
            assert np.array_equal(cay_adjacency(group, connection), expected), (factors, connection)
    group = AbelianGroup([3, 1, 2])
    with pytest.raises(ValidationError):
        cay_adjacency(group, [(3, 0, 0)])
    with pytest.raises(ValidationError):
        cay_adjacency(group, [(0, 1, 0)])
    with pytest.raises(ValidationError):
        cay_adjacency(group, [(0, 0)])


def test_symmetry_and_degrees(rng):
    families = [
        sc.sunlet(5), sc.cone(6), sc.hypercube(1), sc.hypercube(4),
        sc.dihedral_full_coset(AbelianGroup([3])), sc.dihedral_involutions(AbelianGroup([2, 4])),
        sc.dicyclic_full_coset(AbelianGroup([4]), (2,)), sc.join_spec(AbelianGroup([5]), [(1,), (4,)], []),
    ]
    for spec in [random_spec(rng) for _ in range(10)] + families:
        adjacency = build(spec)
        assert np.array_equal(adjacency, adjacency.T)
        n = spec.n
        degrees = adjacency.sum(axis=0)
        assert (degrees[:n] == len(spec.R) + len(spec.S)).all()
        assert (degrees[n:] == len(spec.L) + len(spec.S)).all()
        assert spec.max_degree == adjacency.sum(axis=1).max()


def _neighbours_by_the_tuple_law(spec):
    # the neighbour indices of every vertex from AbelianGroup.mul: (g, 0) ~ (g r, 0)
    # and (g s, 1); (h, 1) ~ (h l, 1) and (h s^-1, 0)
    group, n = spec.group, spec.n
    rows = []
    for layer, within in ((0, spec.R), (1, spec.L)):
        for g in group.elements():
            across = [s if layer == 0 else group.inverse(s) for s in spec.S]
            rows.append({layer * n + group.index(group.mul(g, x)) for x in within}
                        | {(1 - layer) * n + group.index(group.mul(g, x)) for x in across})
    return rows


def test_neighbour_table_is_the_tuple_law(rng):
    z3, z4, z6, z33 = (AbelianGroup(factors) for factors in ((3,), (4,), (6,), (3, 3)))
    swap = [3 * (i % 3) + i // 3 for i in range(9)]  # (a, b) -> (b, a) on Z_3 x Z_3
    index2 = [
        from_cayley_index2(z6, inversion(z6), z6.identity, [(1,), (5,)], [(0,), (2,)]),
        from_cayley_index2(z4, inversion(z4), (2,), [(1,), (3,)], [(1,), (3,)]),
        from_cayley_index2(z3, identity_action(z3), (1,), [(1,), (2,)], [(0,), (2,)]),
        from_cayley_index2(z33, swap, z33.identity, [(1, 0), (2, 0)], [(1, 2)]),
    ]
    for factors in NONTRIVIAL_POOL[::4]:
        group = AbelianGroup(factors)
        index2.append(from_cayley_index2(group, inversion(group), group.identity,
                                         random_inverse_closed(group, rng), random_subset(group, rng)))
    families = [
        sc.sunlet(5), sc.cone(6), sc.hypercube(1), sc.hypercube(4), sc.dihedral_full_coset(AbelianGroup([3])),
        sc.dihedral_involutions(AbelianGroup([2, 4])), sc.dicyclic_full_coset(AbelianGroup([4]), (2,)),
        sc.join_spec(AbelianGroup([5]), [(1,), (4,)], []),
    ]
    for spec in [random_spec(rng) for _ in range(20)] + families + index2:
        size = 2 * spec.n
        table = spec.neighbours
        assert table.shape == (size, spec.max_degree) and not table.flags.writeable
        for row, expected in zip(table.tolist(), _neighbours_by_the_tuple_law(spec)):
            neighbours = [v for v in row if v != size]
            assert len(neighbours) == len(expected) and set(neighbours) == expected, spec


def test_vertex_indexing():
    spec = sc.sunlet(4)
    assert len(vertices(spec)) == 8
    for i, v in enumerate(vertices(spec)):
        assert spec.vertex_index(v) == i
    for layer in (2, 1.5, "x", 1.0, True):  # 1.5 is refused, not truncated; 1.0 and True equal 1 but are no layer
        with pytest.raises(ValidationError, match="layer must be 0 or 1"):
            spec.validate_vertex(Vertex((0,), layer))


def test_spec_validation():
    z5 = AbelianGroup([5])
    with pytest.raises(ValidationError):
        SemiCayleySpec(z5, [(1,)], [], [])  # not inverse-closed
    with pytest.raises(ValidationError):
        SemiCayleySpec(z5, [(0,)], [], [])  # identity in R
    spec = SemiCayleySpec(z5, [(1,), (4,)], [], [(0,), (1,)])  # S unconstrained
    assert spec.S == z5.subset([(0,), (1,)])


def _extension_relabel_matches(subgroup, sigma, x_square, t1, t2):
    # the referee's own group law; returns None when it finds xT2 not
    # inverse-closed, after checking that from_cayley_index2 rejects it too
    def emul(p, q):
        (e1, h1), (e2, h2) = p, q
        moved = subgroup.element(sigma[subgroup.index(h1)]) if e2 else h1
        out = subgroup.mul(moved, h2)
        if e1 and e2:
            out = subgroup.mul(x_square, out)
        return ((e1 + e2) % 2, out)

    def einv(p):
        for q in [(e, h) for e in (0, 1) for h in subgroup.elements()]:
            if emul(p, q) == (0, subgroup.identity):
                return q
        raise AssertionError("no inverse found")

    connection = [(0, t) for t in subgroup.subset(t1)]
    connection += [emul((1, subgroup.identity), (0, t)) for t in subgroup.subset(t2)]
    if not all(einv(t) in connection for t in connection):
        with pytest.raises(ValidationError, match="xT2 is not inverse-closed"):
            from_cayley_index2(subgroup, sigma, x_square, t1, t2)
        return None
    spec = from_cayley_index2(subgroup, sigma, x_square, t1, t2)

    # the spec's vertex order: H, then xH
    elems = [(0, h) for h in subgroup.elements()] + [(1, h) for h in subgroup.elements()]
    size = len(elems)
    cayley = np.zeros((size, size), dtype=int)
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            if emul(h, einv(g)) in connection:
                cayley[i, j] = 1
    assert np.array_equal(cayley, build(spec))
    return spec


def test_index2_dihedral_relabel():
    z6 = AbelianGroup([6])
    spec = _extension_relabel_matches(z6, inversion(z6), z6.identity, [(1,), (5,)], [(0,), (2,)])
    assert spec.R == spec.L == z6.subset([(1,), (5,)])


def test_index2_dicyclic_relabel():
    z4 = AbelianGroup([4])
    assert _extension_relabel_matches(z4, inversion(z4), (2,), [(1,), (3,)], [(1,), (3,)]) is not None
    assert _extension_relabel_matches(z4, inversion(z4), (2,), [(2,)], z4.elements()) is not None


def test_index2_abelian_relabel():
    z3 = AbelianGroup([3])
    spec = _extension_relabel_matches(z3, identity_action(z3), (1,), [(1,), (2,)], [(0,), (2,)])
    # central x: both layers carry the same connection set
    assert spec.R == spec.L
    # C6 built as an extension of Z3: cycle eigenvalues
    spec6 = from_cayley_index2(z3, identity_action(z3), (1,), [], [(0,), (2,)])
    eigs = np.sort(np.linalg.eigvalsh(build(spec6).astype(float)))
    expected = np.sort([2 * np.cos(2 * np.pi * k / 6) for k in range(6)])
    assert np.allclose(eigs, expected, atol=1e-9)


def test_index2_random_dihedral(rng):
    for _ in range(5):
        factors = NONTRIVIAL_POOL[int(rng.integers(len(NONTRIVIAL_POOL)))]
        group = AbelianGroup(factors)
        t1 = random_inverse_closed(group, rng)
        t2 = random_subset(group, rng)
        assert _extension_relabel_matches(group, inversion(group), group.identity, t1, t2) is not None


def test_abelian_index2_is_the_central_case(rng):
    accepted = {True: 0, False: 0}
    for _ in range(10):
        group = AbelianGroup(NONTRIVIAL_POOL[int(rng.integers(len(NONTRIVIAL_POOL)))])
        x_square = group.element(int(rng.integers(group.order)))
        t1 = random_inverse_closed(group, rng)
        # with x central, (x t)^{-1} = x t^{-1} x^{-2}: close T2 under that involution
        t2 = set()
        for t in random_subset(group, rng):
            t2 |= {t, group.mul(group.inverse(t), group.inverse(x_square))}
        spec = from_cayley_index2(group, identity_action(group), x_square, t1, t2)
        assert spec == from_cayley_index2(group, identity_action(group), x_square, t1, t2)
        assert spec.R == spec.L == group.subset(t1)
        assert _extension_relabel_matches(group, identity_action(group), x_square, t1, t2) == spec
        raw = random_subset(group, rng)
        accepted[_extension_relabel_matches(group, identity_action(group), x_square, t1, raw) is not None] += 1
    assert accepted[False] >= 1


def test_index2_validation():
    z4 = AbelianGroup([4])
    with pytest.raises(ValidationError):
        from_cayley_index2(z4, [0, 0, 0, 0], (0,), [], [])  # not a bijection
    with pytest.raises(ValidationError):
        # shift by 1 is a bijection but not an automorphism
        from_cayley_index2(z4, [1, 2, 3, 0], (0,), [], [])
    with pytest.raises(ValidationError):
        from_cayley_index2(z4, inversion(z4), (1,), [], [])  # sigma does not fix x^2
    with pytest.raises(ValidationError, match="involution"):
        # g -> 2g is an automorphism of Z5 fixing x^2 = 0, but has order 4
        from_cayley_index2(AbelianGroup([5]), [0, 2, 4, 1, 3], (0,), [], [])
    with pytest.raises(ValidationError):
        from_cayley_index2(z4, inversion(z4), (2,), [], [(0,)])  # xT2 not inverse-closed
    with pytest.raises(ValidationError):
        from_cayley_index2(z4, identity_action(z4), (0,), [(1,)], [])  # T1 not inverse-closed
    with pytest.raises(ValidationError):
        sc.generalized_dicyclic(z4, (1,), [], [])  # x^2 must be an involution


@pytest.mark.parametrize("factors, automorphisms", [((2, 2), 6), ((4,), 2), ((6,), 2), ((2, 3), 2)])
def test_index2_automorphism_check_agrees_with_the_addition_table(factors, automorphisms):
    # the check on the factor generators against the full n x n addition
    # table, on every bijection; an automorphism may still fail a later rule.
    # On Z_2^2 every bijection fixing 0 is additive, so Z_2 x Z_3 is the one
    # that needs both generators checked
    group = AbelianGroup(factors)
    everything = np.arange(group.order)
    sums = group.add_indices(everything[:, None], everything[None, :])
    additive = []
    for sigma in permutations(range(group.order)):
        perm = np.array(sigma)
        by_table = np.array_equal(perm[sums], sums[np.ix_(perm, perm)])
        try:
            from_cayley_index2(group, perm, group.identity, [], [])
            refused = False
        except ValidationError as exc:
            refused = str(exc) == "x-action is not an automorphism of the subgroup"
        assert refused != by_table, sigma
        additive.append(by_table)
    assert sum(additive) == automorphisms


@pytest.mark.parametrize(
    "factors, sigma",
    [([4], [0.0, 3.0, 2.0, 1.0]), ([2], [False, True]), ([4], [0, 3, 2]), ([4], [0, 3, 2, 1, 4]),
     ([4], [0, 4, 2, 1]), ([4], [0, 3, 3, 1]), ([4], [[0], [3], [2], [1]]), ([4], [[0], [3, 2], [1]]),
     ([1], 0), ([4], {0: 0, 1: 3, 2: 2, 3: 1}), ([4], "inversion")],
    ids=["float", "bool", "short", "long", "out-of-range", "repeated", "column", "ragged", "scalar", "dict", "name"],
)
def test_index2_sigma_must_be_an_index_permutation(factors, sigma):
    # sigma is n enumeration indices; a float or bool sigma is refused, not truncated to one
    with pytest.raises(ValidationError, match="x-action is not a bijection of the subgroup"):
        from_cayley_index2(AbelianGroup(factors), sigma, (0,), [], [])


@pytest.mark.parametrize("factors", GROUP_POOL)
def test_named_actions_are_the_tuple_law(factors):
    group = AbelianGroup(factors)
    assert inversion(group).tolist() == [group.index(group.inverse(g)) for g in group.elements()]
    assert identity_action(group).tolist() == list(range(group.order))


def test_named_families():
    cone3 = sc.cone(3)
    assert cone3.S == cone3.group.subset(cone3.group.elements())
    assert cone3.R == cone3.group.subset([(1,), (2,)])
    assert cone3.L == frozenset()

    full = sc.dihedral_full_coset(AbelianGroup([3]))
    assert (full.R, full.L) == (frozenset(), frozenset())
    assert full.S == full.group.subset(full.group.elements())

    invs = sc.dihedral_involutions(AbelianGroup([4]))
    assert invs.R == invs.L == invs.group.subset([(2,)])
    assert invs.S == invs.group.subset(invs.group.elements())

    dic = sc.dicyclic_full_coset(AbelianGroup([4]), (2,))
    assert dic.S == dic.group.subset(dic.group.elements())

    q1 = sc.hypercube(1)
    assert build(q1).tolist() == [[0, 1], [1, 0]]
    q3 = sc.hypercube(3)
    adjacency = build(q3)
    assert adjacency.shape == (8, 8)
    assert (adjacency.sum(axis=0) == 3).all()

    with pytest.raises(ValidationError):
        sc.sunlet(2)
    with pytest.raises(ValidationError):
        sc.cone(2)
    with pytest.raises(ValidationError):
        sc.hypercube(0)
    with pytest.raises(ValidationError, match="group order 2048 exceeds the supported maximum 1024"):
        sc.hypercube(12)
    # refused before the list of 10^12 - 1 factors is built
    with pytest.raises(ValidationError, match=r"group order 2\^999999999999 exceeds"):
        sc.hypercube(10**12)


def test_spec_json_round_trip(rng):
    for _ in range(5):
        spec = random_spec(rng)
        blob = json.loads(json.dumps(spec.to_json()))
        again = SemiCayleySpec.from_json(blob)
        assert again == spec
    with pytest.raises(ValidationError):
        SemiCayleySpec.from_json({"group": {"factors": [2]}})


def test_spoke_matrix_orientation():
    spec = SemiCayleySpec(AbelianGroup([4]), [], [], [(1,)])
    spokes = cay_adjacency(spec.group, spec.S)
    for x in range(4):
        for y in range(4):
            assert spokes[x, y] == (1 if (y - x) % 4 == 1 else 0)
