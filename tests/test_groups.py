import json
import math

import numpy as np
import pytest

import semicayley as sc
from semicayley import AbelianGroup, ValidationError

from conftest import GROUP_POOL
from referees import is_inverse_closed


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
        assert sc.make_spec(z5, [], [], xs).s_inverse_closed == is_inverse_closed(z5, xs)


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
