"""The package namespace is its API, and each library entrance refuses bad input with a ValidationError."""

import math

import numpy as np
import pytest

import semicayley as sc
from semicayley import (
    AbelianGroup,
    ValidationError,
    Vertex,
    decide_pair,
    from_cayley_index2,
    oracle_column,
    transfer_entry,
    transfer_matrix,
    transfer_rows,
    verify_at_time,
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
    assert len(sc.__all__) == len(set(sc.__all__)) == 28


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: decide_cross_layer(sc.sunlet(4), Vertex((0,), 0), Vertex((1,), 0)), "different layers"),
        (lambda: AbelianGroup.from_json({}), "group JSON must be"),
        (lambda: oracle_expm(np.zeros((2, 3)), 1.0), "must be square"),
        (lambda: cyclotomic_polynomial(0), "must be >= 1"),
        # read as an integer like every other index: True is not 1, nor 2.0 two
        (lambda: cyclotomic_polynomial(True), "must be an integer"),
        (lambda: cyclotomic_polynomial(2.0), "must be an integer"),
        (lambda: cyclotomic_polynomial(2.5), "must be an integer"),
        (lambda: cyclotomic_polynomial("3"), "must be an integer"),
        (lambda: cyclotomic_polynomial(None), "must be an integer"),
        (lambda: cyclotomic_polynomial(1025), "<= 1024"),
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
        # a vertex that is not a pair of an exponent list and a layer
        (lambda: decide_pair(C4, 5, Vertex((1,), 1)), "vertex must be"),
        (lambda: transfer_entry(C4, None, Vertex((1,), 1), 1.0), "vertex must be"),
        (lambda: verify_at_time(C4, Vertex((0,), 0), ((1,), 1, 0), 1.0), "vertex must be"),
        # a tolerance outside [0, 1), where every |H_uv| would pass
        (lambda: verify_at_time(C4, Vertex((0,), 0), Vertex((1,), 1), 0.1, tol=2), "tolerance"),
        (lambda: verify_at_time(C4, Vertex((0,), 0), Vertex((1,), 1), 0.1, tol=True), "tolerance"),
        (lambda: verify_at_time(C4, Vertex((0,), 0), Vertex((1,), 1), 0.1, tol=math.nan), "tolerance"),
        # sunlet(5) is not integral: t * rho = 3e20 has no exact reduction
        (lambda: transfer_entry(sc.sunlet(5), Vertex((0,), 0), Vertex((1,), 0), 1e20), "horizon"),
        (lambda: sc.SemiCayleySpec(AbelianGroup([2]), 5, [], []), "R: a subset"),
    ],
    ids=["cross-layer-on-one-layer", "group-json-without-factors", "non-square-oracle", "cyclotomic-0",
         "cyclotomic-bool", "cyclotomic-float", "cyclotomic-fraction", "cyclotomic-str", "cyclotomic-none",
         "cyclotomic-above-max",
         "index2-identity-in-T1", "oracle-column-j-negative", "oracle-column-j-2n", "oracle-column-j-bool",
         "oracle-column-j-float", "transfer-entry-inf", "transfer-entry-nan", "transfer-rows-inf",
         "transfer-matrix-nan", "decide-pair-vertex-int", "transfer-entry-vertex-none",
         "verify-vertex-triple", "verify-tol-2", "verify-tol-bool", "verify-tol-nan", "transfer-entry-horizon",
         "spec-subset-int"],
)
def test_library_refusals(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
