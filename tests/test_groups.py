import copy
import json
import math
import pickle
import threading

import numpy as np
import pytest

import semicayley as sc
from semicayley import AbelianGroup, ValidationError

from conftest import GROUP_POOL, random_spec
from referees import is_inverse_closed, same_spectrum


def test_mul_examples():
    z4 = AbelianGroup([4])
    assert z4.mul((1,), (3,)) == (0,)
    z23 = AbelianGroup([2, 3])
    assert z23.mul((1, 2), (1, 2)) == (0, 1)


def test_identity_law(rng):
    for factors in GROUP_POOL:
        group = AbelianGroup(factors)
        for _ in range(5):
            x = group.element(int(rng.integers(group.order)))
            assert group.mul(group.identity, x) == x
            assert group.mul(x, group.identity) == x


def test_inverse_and_order():
    assert AbelianGroup([4]).element_order((2,)) == 2
    assert AbelianGroup([6]).element_order((1,)) == 6
    assert AbelianGroup([2, 3]).element_order((1, 1)) == 6
    z4 = AbelianGroup([4])
    assert z4.mul((3,), z4.inverse((3,))) == (0,)


def test_inverse_closed_examples():
    z5 = AbelianGroup([5])
    assert is_inverse_closed(z5, [(1,), (4,)])
    assert not is_inverse_closed(z5, [(1,)])
    assert is_inverse_closed(z5, [])
    # the spec's index-array law agrees
    for xs in ([(1,), (4,)], [(1,)], []):
        assert sc.SemiCayleySpec(z5, [], [], xs).s_inverse_closed == is_inverse_closed(z5, xs)


def test_group_axioms_random(rng):
    for _ in range(30):
        factors = GROUP_POOL[int(rng.integers(len(GROUP_POOL)))]
        group = AbelianGroup(factors)
        a, b, c = (group.element(int(rng.integers(group.order))) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.inverse(a)) == group.identity
        assert group.mul(a, b) == group.mul(b, a)


def test_enumeration_bijection():
    for factors in [*GROUP_POOL, (3, 1, 1, 4, 1)]:
        group = AbelianGroup(factors)
        # the mixed-radix stride of factor l is the product of the factors after it
        assert group.strides == tuple(math.prod(factors[l + 1 :]) for l in range(len(factors)))
        assert len(group.elements()) == group.order
        for i in range(group.order):
            assert group.index(group.element(i)) == i


def test_order_divides_exponent():
    for factors in GROUP_POOL:
        group = AbelianGroup(factors)
        for g in group.elements():
            assert group.exponent % group.element_order(g) == 0


def test_index_array_law_is_the_tuple_law():
    for factors in GROUP_POOL:
        group = AbelianGroup(factors)
        everything = np.arange(group.order)
        assert group.power_indices(everything, -1).tolist() == [group.index(group.inverse(g)) for g in group.elements()]
        assert group.orders(everything).tolist() == [group.element_order(g) for g in group.elements()]
        # g^k as the k-fold tuple product, for k = -1, 0, 2 and a unit modulo the exponent
        unit = next(k for k in range(3, 3 + 2 * group.exponent) if math.gcd(k, group.exponent) == 1)
        ks = [-1, 0, 2, unit]
        expected = [[group.index(_tuple_power(group, g, k)) for g in group.elements()] for k in ks]
        assert [group.power_indices(everything, k).tolist() for k in ks] == expected
        assert group.power_indices(everything, np.array(ks)).tolist() == expected
        # index_array of a subset: sorted, deduplicated, and index() element by element
        xs = group.elements()[::-2] + group.elements()[::3]
        assert group.index_array(group.subset(xs)).tolist() == sorted({group.index(g) for g in xs})
        assert group.index_array(group.subset([])).tolist() == []


@pytest.mark.parametrize("factors", [*GROUP_POOL, (2,) * 10, (4, 8, 8), (1000,), (3, 5, 7, 9)])
def test_add_indices_is_the_tuple_law(factors, rng):
    # index(g_i * g_j) as the tuple product, on 2000 random index pairs: as
    # broadcast arrays, and one pair at a time as scalars
    group = AbelianGroup(factors)
    i, j = rng.integers(group.order, size=(2, 2000))
    expected = [group.index(group.mul(group.element(a), group.element(b))) for a, b in zip(i.tolist(), j.tolist())]
    assert group.add_indices(i, j).tolist() == expected
    product = [[group.index(group.mul(group.element(a), group.element(b))) for b in j[:5].tolist()]
               for a in i[:50].tolist()]
    assert group.add_indices(i[:50, None], j[None, :5]).tolist() == product
    assert [int(group.add_indices(int(a), b)) for a, b in zip(i[:20].tolist(), j[:20])] == expected[:20]


def _tuple_power(group, g, k):
    out = group.identity
    for _ in range(abs(k)):
        out = group.mul(out, g if k > 0 else group.inverse(g))
    return out


def test_trivial_factor_allowed():
    group = AbelianGroup([1, 3, 1])
    assert group.order == 3
    assert group.exponent == 3
    assert group.mul((0, 2, 0), (0, 2, 0)) == (0, 1, 0)


def test_validation_errors():
    with pytest.raises(ValidationError):
        AbelianGroup([])
    with pytest.raises(ValidationError):
        AbelianGroup([0, 2])
    group = AbelianGroup([2, 3])
    with pytest.raises(ValidationError):
        group.mul((1,), (0, 0))
    with pytest.raises(ValidationError):
        group.validate_element((2, 0))


def test_exponent_rows_build_the_table_only_for_more_than_half_the_rows():
    group = AbelianGroup([3, 6])  # 18 characters
    chars = np.array([5, 0, 17, 7])
    rows = group.exponent_rows(chars)
    half = group.exponent_rows(np.arange(9)[::-1])
    assert "char_exponents" not in group.__dict__
    most = group.exponent_rows(np.arange(10)[::-1])
    assert "char_exponents" in group.__dict__
    table = group.char_exponents
    assert np.array_equal(table, table.T)
    assert np.array_equal(rows, table[chars])
    assert np.array_equal(half, table[8::-1]) and np.array_equal(most, table[9::-1])
    assert np.array_equal(group.exponent_rows([3]), table[[3]])


def test_order_cap():
    # refused before the element list or any index table is allocated
    with pytest.raises(ValidationError, match="exceeds"):
        AbelianGroup([10**12])
    with pytest.raises(ValidationError):
        AbelianGroup([2] * 11)
    with pytest.raises(ValidationError):
        sc.hypercube(12)
    assert AbelianGroup([sc.groups.MAX_ORDER]).order == 1024


def test_json_round_trip():
    group = AbelianGroup([2, 6])
    again = AbelianGroup.from_json(json.loads(json.dumps(group.to_json())))
    assert again == group
    xs = group.subset([(1, 5), (0, 3)])
    dumped = sc.groups.subset_to_json(xs)
    assert group.subset(dumped) == xs
    assert dumped == sorted(dumped)


def test_one_shared_group_per_factor_tuple():
    group = AbelianGroup([2, 3])
    assert AbelianGroup((2, 3)) is group
    assert AbelianGroup([np.int64(2), 3]) is group
    assert AbelianGroup.from_json({"factors": [2, 3]}) is group
    assert AbelianGroup([3, 2]) is not group and AbelianGroup([3, 2]) != group
    # its tables are built once and are read-only
    assert AbelianGroup([2, 3])._inverses is group._inverses
    for table in (group.coords, group._inverses, group._orders, *group._classes, group._crt_order, group._roots):
        with pytest.raises(ValueError):
            table[0] = 1


def test_factors_are_validated_before_the_cache_is_read():
    # True == 1 and 2.0 == 2 hash alike, so a lookup first would return (1, 3) or (2, 3)
    AbelianGroup([1, 3])
    AbelianGroup([2, 3])
    for factors, message in (([True, 3], "integers"), ([2.0, 3], "integers"), (["3"], "integers"),
                             ([0], ">= 1"), ([1025], "exceeds"), ([2, 513], "exceeds")):
        with pytest.raises(ValidationError, match=message):
            AbelianGroup(factors)


def test_the_cache_holds_at_most_max_order_squared_entries():
    cached = sc.groups._cache.values()
    for factors in ([1024], [512], [2]):
        AbelianGroup(factors)
        assert sum(g.order**2 for g in cached) <= sc.groups.MAX_ORDER**2
        assert sum(g.order * (g.order + len(g.factors)) for g in cached) == sc.groups._cached_entries
    assert [g.factors for g in cached] == [(512,), (2,)]
    z2 = AbelianGroup([2])
    big = AbelianGroup([1024])  # evicts both
    assert list(cached) == [big]
    again = AbelianGroup([2])  # evicts Z_1024 and builds a new, equal Z_2
    assert again is not z2 and again == z2 and hash(again) == hash(z2)
    assert np.array_equal(again._inverses, z2._inverses) and again.elements() == z2.elements()
    assert list(cached) == [again]


def test_threads_building_one_group_get_one_object():
    barrier = threading.Barrier(4)
    built = []

    def build():
        barrier.wait()
        built.append(AbelianGroup([4, 8, 8]))

    threads = [threading.Thread(target=build) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(built) == 4 and all(group is built[0] for group in built)


def test_groups_and_specs_round_trip_through_pickle_and_deepcopy(rng):
    spec = random_spec(rng)
    spec.spectrum.lambdas  # both halves, and the group's tables, built before the copies
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert copied == spec and copied.group is spec.group
        assert same_spectrum(copied.spectrum, spec.spectrum)
    group = AbelianGroup([2, 6])
    group.char_exponents
    for copied in (pickle.loads(pickle.dumps(group)), copy.deepcopy(group), copy.copy(group)):
        assert copied is group and not group.char_exponents.flags.writeable
    # an evicted group unpickles to an equal new one
    data = pickle.dumps(group)
    AbelianGroup([1024])
    again = pickle.loads(data)
    assert again == group and again is not group
