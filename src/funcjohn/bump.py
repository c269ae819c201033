"""John bump functions built from decompositions, and the norm-gap probe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polar
from .decomp import (
    DEFAULT_VERIFY_TOL,
    FunctionalJohnDecomposition,
    InvalidDecompositionError,
    verify_decomposition,
)
from .lcfunc import Bump, hbar
from .verify import exact_height_passes, height_below


class NormBoundError(ValueError):
    """A bump's sup norm breaks a bound its decomposition guarantees, so the
    bump does not come from that decomposition."""


@dataclass(frozen=True)
class JohnBumpFunction:
    decomposition: FunctionalJohnDecomposition
    function: Bump
    regular: bool

    @property
    def dim(self) -> int:
        return self.function.dim


@dataclass(frozen=True)
class NormGapRecord:
    sup_norm: float
    gap: float  # e^d - sup_norm
    polar_zero_lower_bound: float


def bump_from_decomposition(dec: FunctionalJohnDecomposition) -> JohnBumpFunction:
    """min of the majorants over the decomposition's points; checks the
    hbar <= f guarantee exactly (verify.height_below), within the pass
    tolerance of verify.exact_height_passes."""
    res = verify_decomposition(dec)
    if not res.passes(DEFAULT_VERIFY_TOL):
        raise InvalidDecompositionError(f"decomposition fails verification: {res}")
    f = Bump(anchors=dec.points)
    if not exact_height_passes(f.normal_form(), height_below(f)[0]):
        raise InvalidDecompositionError(
            "constructed bump dips below the height function")
    return JohnBumpFunction(decomposition=dec, function=f,
                            regular=f.is_regular)


def norm_gap_probe(bf: JohnBumpFunction) -> NormGapRecord:
    """Exact sup norm, the gap to e^d, and the analytic lower bound
    e^{-d} * prod hbar(u_i)^{-c_i hbar^2(u_i)} on the polar at the origin."""
    if not bf.regular:
        raise ValueError("norm gap probe requires a regular bump")
    d = bf.dim
    s = bf.function.sup_norm()
    U = bf.decomposition.point_array()
    c = bf.decomposition.weight_array()
    h = hbar(U)
    log_bound = -d - np.sum(c * h * h * np.log(h))
    bound = math.exp(log_bound)
    if not s <= math.exp(d):
        raise NormBoundError(f"sup norm {s} exceeds e^d = {math.exp(d)}")
    if not s <= 1.0 / bound + 1e-9:
        raise NormBoundError(
            f"sup norm {s} exceeds the reciprocal polar bound {1.0 / bound}")
    return NormGapRecord(sup_norm=s, gap=math.exp(d) - s,
                         polar_zero_lower_bound=bound)


def polar_atom_floor_check(bf: JohnBumpFunction) -> bool:
    """polar(f)(u_i / hbar^2(u_i)) >= mass of the majorant atom, per anchor,
    up to 1e-9."""
    if not bf.regular:
        raise ValueError("atom floor check requires a regular bump")
    atoms = [polar.polar_of_ell(u) for u in bf.decomposition.point_array()]
    values = polar.polar_eval_many(
        bf.function, np.asarray([atom.location for atom in atoms]))
    return all(value >= atom.mass - 1e-9
               for value, atom in zip(values, atoms))
