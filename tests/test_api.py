"""The package namespace is its API, and each library entrance refuses bad input with a ValidationError."""

import numpy as np
import pytest

import semicayley as sc
from semicayley import AbelianGroup, ValidationError, Vertex, from_cayley_index2
from semicayley.characters import cyclotomic_polynomial
from semicayley.graphs import identity_action
from semicayley.pst import decide_cross_layer
from semicayley.transfer import oracle_expm

# the tests' referees: reached through their modules, never through the package
REFEREES = ("CycloValue", "Root", "char_sum", "eval_character", "decide_same_layer_rl", "decide_cross_layer",
            "scan_pair", "oracle_expm")


def test_the_namespace_is_all_and_holds_no_referee():
    assert [name for name in REFEREES if hasattr(sc, name)] == []
    assert [name for name in sc.__all__ if not hasattr(sc, name)] == []
    assert len(sc.__all__) == len(set(sc.__all__)) == 32


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: decide_cross_layer(sc.sunlet(4), Vertex((0,), 0), Vertex((1,), 0)), "different layers"),
        (lambda: AbelianGroup.from_json({}), "group JSON must be"),
        (lambda: oracle_expm(np.zeros((2, 3)), 1.0), "must be square"),
        (lambda: cyclotomic_polynomial(0), "must be >= 1"),
        (lambda: from_cayley_index2(AbelianGroup([4]), identity_action(AbelianGroup([4])), (0,), [(0,)], []),
         "connection set must not contain the identity"),
    ],
    ids=["cross-layer-on-one-layer", "group-json-without-factors", "non-square-oracle", "cyclotomic-0",
         "index2-identity-in-T1"],
)
def test_library_refusals(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
