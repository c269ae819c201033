"""Bump construction from decompositions, the norm-gap probe, and the polar
atom floor."""

import math

import numpy as np
import pytest

from funcjohn import (
    Bump,
    FunctionalJohnDecomposition,
    InvalidDecompositionError,
    JohnBumpFunction,
    NormBoundError,
    bump_from_decomposition,
    generate_decomposition,
    hbar,
    norm_gap_probe,
    polar_atom_floor_check,
    polar_eval,
)

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT = FunctionalJohnDecomposition(points=((R2,), (-R2,)),
                                        weights=(1.0, 1.0))


def test_bump_construction_two_point():
    bf = bump_from_decomposition(TWO_POINT)
    assert bf.regular
    assert bf.dim == 1
    assert abs(bf.function.sup_norm() - math.e / math.sqrt(2.0)) < 1e-12


def test_bump_dominates_height():
    for d in (1, 2, 3):
        bf = bump_from_decomposition(generate_decomposition(d, 17))
        rng = np.random.default_rng(17)
        X = rng.uniform(-1.0, 1.0, size=(2000, d))
        X = X[np.linalg.norm(X, axis=1) < 1.0]
        assert np.all(bf.function.evaluate_many(X) >= hbar(X) - 1e-12)


def test_bump_touches_height_at_anchors():
    bf = bump_from_decomposition(TWO_POINT)
    for u in bf.decomposition.point_array():
        assert abs(bf.function.evaluate(u) - hbar(u)) < 1e-14


def test_bump_rejects_invalid_decomposition():
    dec = FunctionalJohnDecomposition(points=((0.5,), (-0.5,)),
                                      weights=(1.0, 1.0))
    with pytest.raises(InvalidDecompositionError):
        bump_from_decomposition(dec)


def test_norm_gap_probe_two_point():
    rec = norm_gap_probe(bump_from_decomposition(TWO_POINT))
    assert abs(rec.sup_norm - math.e / math.sqrt(2.0)) < 1e-12
    assert abs(rec.gap - (math.e - math.e / math.sqrt(2.0))) < 1e-12
    # hand value of the analytic bound: exp(-d - sum c h^2 log h) = sqrt(2)/e,
    # which here coincides with the bump's polar value at the origin
    expect = math.sqrt(2.0) / math.e
    assert abs(rec.polar_zero_lower_bound - expect) < 1e-12
    assert rec.sup_norm <= 1.0 / rec.polar_zero_lower_bound + 1e-12


def test_norm_gap_probe_rejects_mismatched_function():
    # a single interior anchor u != 0 gives an unbounded bump: its sup norm
    # is infinite, far above the e^d its claimed decomposition guarantees
    bf = JohnBumpFunction(decomposition=TWO_POINT,
                          function=Bump(anchors=((0.5,),)), regular=True)
    with pytest.raises(NormBoundError):
        norm_gap_probe(bf)


def test_norm_gap_strictly_positive_on_generated():
    for d in (1, 2, 3):
        for seed in range(10):
            bf = bump_from_decomposition(generate_decomposition(d, seed))
            rec = norm_gap_probe(bf)
            assert rec.gap > 0.0
            assert rec.sup_norm <= math.exp(d)


def test_polar_atom_floor_two_point():
    bf = bump_from_decomposition(TWO_POINT)
    assert polar_atom_floor_check(bf)
    # directly: the bump polar at the atom location of either anchor is at
    # least the atom mass (order reversal of the polar transform)
    from funcjohn import polar_of_ell
    atom = polar_of_ell(np.array([R2]))
    val = polar_eval(bf.function, np.asarray(atom.location))
    assert val >= atom.mass - 1e-12


def test_polar_atom_floor_generated():
    for d in (1, 2, 3):
        bf = bump_from_decomposition(generate_decomposition(d, 23))
        assert polar_atom_floor_check(bf)
