"""The package namespace is its API, and each library entrance refuses bad input with a ValidationError."""

import math

import numpy as np
import pytest

import semicayley as sc
from semicayley import (
    AbelianGroup,
    ValidationError,
    Vertex,
    from_cayley_index2,
    oracle_column,
    transfer_entry,
    transfer_matrix,
    transfer_rows,
)
from semicayley.characters import cyclotomic_polynomial
from semicayley.graphs import identity_action
from semicayley.pst import decide_cross_layer
from semicayley.transfer import oracle_expm

C4 = sc.SemiCayleySpec(AbelianGroup([2]), [(1,)], [(1,)], [(0,)])  # the 4-cycle

# the tests' referees: reached through their modules, never through the package
REFEREES = ("CycloValue", "Root", "char_sum", "eval_character", "decide_same_layer_rl", "decide_cross_layer",
            "scan_pair", "oracle_expm")


def test_the_namespace_is_all_and_holds_no_referee():
    assert [name for name in REFEREES if hasattr(sc, name)] == []
    assert [name for name in sc.__all__ if not hasattr(sc, name)] == []
    assert len(sc.__all__) == len(set(sc.__all__)) == 31


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: decide_cross_layer(sc.sunlet(4), Vertex((0,), 0), Vertex((1,), 0)), "different layers"),
        (lambda: AbelianGroup.from_json({}), "group JSON must be"),
        (lambda: oracle_expm(np.zeros((2, 3)), 1.0), "must be square"),
        (lambda: cyclotomic_polynomial(0), "must be >= 1"),
        (lambda: from_cayley_index2(AbelianGroup([4]), identity_action(AbelianGroup([4])), (0,), [(0,)], []),
         "connection set must not contain the identity"),
        # oracle_column reads a vertex index of the 4-cycle, 0 <= j < 2n = 4
        (lambda: oracle_column(C4, -1, 1.0), "outside"),
        (lambda: oracle_column(C4, 4, 1.0), "outside"),
        (lambda: oracle_column(C4, True, 1.0), "must be an integer"),
        (lambda: oracle_column(C4, 1.0, 1.0), "must be an integer"),
        # the entry formula at a time that is not finite
        (lambda: transfer_entry(C4, Vertex((0,), 0), Vertex((1,), 1), math.inf), "finite"),
        (lambda: transfer_entry(C4, Vertex((0,), 0), Vertex((1,), 1), math.nan), "finite"),
        (lambda: transfer_rows(C4, math.inf), "finite"),
        (lambda: transfer_matrix(C4, math.nan), "finite"),
    ],
    ids=["cross-layer-on-one-layer", "group-json-without-factors", "non-square-oracle", "cyclotomic-0",
         "index2-identity-in-T1", "oracle-column-j-negative", "oracle-column-j-2n", "oracle-column-j-bool",
         "oracle-column-j-float", "transfer-entry-inf", "transfer-entry-nan", "transfer-rows-inf",
         "transfer-matrix-nan"],
)
def test_library_refusals(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
