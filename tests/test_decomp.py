"""Decompositions of the identity: generation, verification, regularization,
hull margins, weight recovery, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcjohn import (
    FunctionalJohnDecomposition,
    InfeasibleWeightsError,
    InvalidDecompositionError,
    decomposition_from_records,
    decomposition_to_records,
    generate_decomposition,
    hbar,
    hull_ball_margin,
    regularize_decomposition,
    verify_decomposition,
    weights_from_points,
)

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT = FunctionalJohnDecomposition(points=((R2,), (-R2,)),
                                        weights=(1.0, 1.0))


def test_two_point_decomposition_verifies():
    res = verify_decomposition(TWO_POINT)
    assert res.passes(1e-14)
    assert res.weight_sum == 0.0  # 1 + 1 = d + 1 exactly


def test_generated_decompositions_verify():
    for d in (1, 2, 3):
        for seed in range(50):
            dec = generate_decomposition(d, seed)
            assert dec.size == 2 * (d + 1)
            res = verify_decomposition(dec)
            assert res.passes(1e-10), (d, seed, res)
            assert abs(sum(dec.weights) - (d + 1)) <= 1e-9


def test_generated_decompositions_are_seeded():
    a = generate_decomposition(2, 5)
    b = generate_decomposition(2, 5)
    c = generate_decomposition(2, 6)
    assert a == b
    assert a != c


def test_bad_decomposition_fails_verification():
    dec = FunctionalJohnDecomposition(points=((0.5,), (-0.5,)),
                                      weights=(1.0, 1.0))
    assert not verify_decomposition(dec).passes(1e-8)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FunctionalJohnDecomposition(points=((0.5,),), weights=(-1.0,))
    with pytest.raises(ValueError):
        FunctionalJohnDecomposition(points=((1.5,),), weights=(1.0,))


def test_boundary_points_snap_onto_sphere():
    eps = 1e-13
    dec = FunctionalJohnDecomposition(points=((1.0 + eps, 0.0), (0.0, 1.0)),
                                      weights=(1.0, 1.0))
    assert abs(np.linalg.norm(dec.point_array()[0]) - 1.0) < 1e-15


def test_regularization_moves_points_inside():
    # the cross-polytope decomposition of R^d lifted flat has boundary points
    dec = FunctionalJohnDecomposition(
        points=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)),
        weights=(0.5, 0.5, 0.5, 0.5, 1.0))
    assert verify_decomposition(dec).passes(1e-12)
    reg = regularize_decomposition(dec, 100)
    res = verify_decomposition(reg)
    assert res.passes(1e-9)
    norms = np.linalg.norm(reg.point_array(), axis=1)
    assert np.all(norms < 1.0)
    assert np.all(hbar(reg.point_array()) > 0.0)


def test_regularization_preserves_identities_for_generated():
    for d in (1, 2, 3):
        dec = generate_decomposition(d, 3)
        reg = regularize_decomposition(dec, 64)
        assert verify_decomposition(reg).passes(1e-9)
        assert reg.size == 2 * dec.size  # interior points split in two


def test_regularization_rejects_bad_input():
    dec = FunctionalJohnDecomposition(points=((0.5,), (-0.5,)),
                                      weights=(1.0, 1.0))
    with pytest.raises(InvalidDecompositionError):
        regularize_decomposition(dec, 10)
    with pytest.raises(ValueError):
        regularize_decomposition(TWO_POINT, 0)


def test_hull_margin_two_point_exact():
    rep = hull_ball_margin(TWO_POINT)
    assert abs(rep.margin - (R2 - 0.5)) < 1e-12


def test_hull_margin_nonnegative_on_generated():
    for d in (1, 2, 3):
        for seed in range(20):
            rep = hull_ball_margin(generate_decomposition(d, seed))
            assert rep.margin >= -1e-9
            assert abs(np.linalg.norm(rep.witness_direction) - 1.0) < 1e-9


def test_weights_from_points_recovers_two_point():
    w = weights_from_points(np.array([[R2], [-R2]]), 1e-10)
    assert np.allclose(w, [1.0, 1.0], atol=1e-10)


def test_weights_from_points_generated():
    # 2(d+1) points make the identity system underdetermined, so recovery
    # may differ from the generator's weights but must satisfy the identities
    for d in (1, 2, 3):
        dec = generate_decomposition(d, 9)
        U = dec.point_array()
        w = weights_from_points(U, 1e-8)
        assert w.shape == (dec.size,)
        assert np.all(w >= 0.0)
        assert np.max(np.abs(np.einsum("i,ij,ik->jk", w, U, U)
                             - np.eye(d))) < 1e-8
        h2 = 1.0 - np.einsum("ij,ij->i", U, U)
        assert abs(w @ h2 - 1.0) < 1e-8
        assert np.linalg.norm(w @ U) < 1e-8
        assert abs(w.sum() - (d + 1)) < 1e-7


def test_weights_from_points_infeasible():
    with pytest.raises(InfeasibleWeightsError):
        weights_from_points(np.array([[0.2], [0.3]]), 1e-10)


def test_serialization_roundtrip_exact():
    for d in (1, 2, 3):
        dec = generate_decomposition(d, 4)
        data = decomposition_to_records(dec)
        back = decomposition_from_records(data)
        assert back == dec  # bit-exact float round trip


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 200))
def test_records_round_trip_through_json_bit_equal(d, seed, n):
    dec = generate_decomposition(d, seed)
    for rec in (dec, regularize_decomposition(dec, n, seed=seed)):
        text = json.dumps(decomposition_to_records(rec))
        back = decomposition_from_records(json.loads(text))
        assert back == rec
        for got, want in ((back.point_array(), rec.point_array()),
                          (back.weight_array(), rec.weight_array())):
            assert got.tobytes() == want.tobytes()


def test_serialization_rejects_wrong_type():
    with pytest.raises(ValueError):
        decomposition_from_records({"type": "noise", "dimension": 1,
                                    "records": []})
