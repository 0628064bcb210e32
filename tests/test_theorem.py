"""The paper's theorem as a property of split cats.

On the EPR line A1 + A2 = 1 Bell's bound and the stochastic-field box are
one constraint, so a split cat whose excess over the box is resolved must
read Bell-violating. ``cat_predictions`` gives the closed-form excess,
e^{-4 alpha^2}/2 at phi 0 and pi; at phi = pi/2 it is 0.
"""

import math

import numpy as np
import pytest

from eprsim import CatParams, bell_max, cat_predictions, classify, signal_amplitudes, split_cat
from eprsim.inequalities import BOUND_TOL

CAT_ALPHAS = np.round(np.arange(0.1, 3.26, 0.05), 2).tolist()
# the excess runs from 8.0e-10 down to 1.2e-14 here, below BOUND_TOL, and the
# numeric excess agrees with it to 1 %. From 2.85 on it is a few ulps of 1/2
# and, at phi = 0, off by more than 10 %: no verdict is resolved, none asserted
WEAK_ALPHAS = [a for a in CAT_ALPHAS if 2.25 <= a <= 2.80]


def _cat(alpha, phi):
    """(closed-form excess over the box, numeric excess, report) of a split cat."""
    params = CatParams(alpha, phi)
    pred, amps = cat_predictions(params), signal_amplitudes(split_cat(params))
    return max(pred.a1, pred.a2) - 0.5, max(amps.a1, amps.a2) - 0.5, classify(amps, bell_max(amps).b_max)


@pytest.mark.parametrize("phi", [0.0, math.pi], ids=["0", "pi"])
def test_an_excess_over_the_box_above_bound_tol_violates_bell(phi):
    for alpha in CAT_ALPHAS:
        if alpha < WEAK_ALPHAS[0]:
            excess, numeric, rep = _cat(alpha, phi)
            assert rep.epr_boundary and numeric == pytest.approx(excess, rel=0.1), alpha
            assert excess > BOUND_TOL and (alpha, rep.bell_ok) == (alpha, False)


def test_cats_at_phi_pi_half_sit_on_the_corner_the_bounds_share():
    for alpha in CAT_ALPHAS:
        _, _, rep = _cat(alpha, math.pi / 2)
        assert rep.epr_boundary and (alpha, rep.region) == (alpha, "classical")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: a resolved excess below BOUND_TOL reads classical")
@pytest.mark.parametrize("phi", [0.0, math.pi], ids=["0", "pi"])
@pytest.mark.parametrize("alpha", WEAK_ALPHAS)
def test_a_resolved_excess_below_bound_tol_violates_bell(alpha, phi):
    excess, numeric, rep = _cat(alpha, phi)
    assert rep.epr_boundary and 0.0 < excess <= BOUND_TOL and numeric == pytest.approx(excess, rel=0.01)
    assert rep.bell_ok is False
