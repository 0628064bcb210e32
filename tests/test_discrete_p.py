"""The quantum and classical engines agree exactly on P-representable states.

A state with a nonnegative Glauber-Sudarshan P function is a mixture of
coherent states. Every moment in A1, A2 and their denominator is a product
over distinct modes, so it is normally ordered, and its quantum value is
the average of the classical fields over P with (alpha1, alpha2, beta1,
beta2) = (a1, a2, b1, b2) (R. J. Glauber, Phys. Rev. 131, 2766 (1963);
E. C. G. Sudarshan, Phys. Rev. Lett. 10, 277 (1963)). For a discrete P,
a mixture of delta ensembles holds each point as one exact sample, so the
classical estimate has no sampling error and the two sides must agree up
to the quantum side's truncation and roundoff.
"""

import cmath
import math

import numpy as np
import pytest

from eprsim import (
    LOConfig,
    MixedState,
    ModeLayout,
    amplitudes,
    coherent_cutoff,
    estimate_amplitudes,
    homodyne_network_state,
    make_coherent,
    make_ensemble,
)
from eprsim.fock import TAIL_TOL
from eprsim.homodyne import SIGNAL_MODES
from eprsim.network import STATION_MODES

# each coherent product is cut where it keeps all but at most TAIL_TOL of its
# probability (fock's tail check); the rest is roundoff of sums over a few
# thousand kets, a few ulps at these amplitudes
TOL = TAIL_TOL + 1e-15


def _discrete_p(seed, arms, scale):
    """1-3 weights summing to 1 and as many complex points on ``arms`` arms,
    each arm a circular Gaussian of E|z|^2 = scale^2: small amplitudes keep
    the cutoffs, and so the kets, few."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    weights = rng.uniform(0.2, 1.0, k)
    points = scale * (rng.standard_normal((k, arms)) + 1j * rng.standard_normal((k, arms))) / math.sqrt(2.0)
    return (weights / weights.sum()).tolist(), points


def _classical(weights, points, seed):
    """estimate_amplitudes of a mixture of one delta per (alpha1, alpha2, beta1, beta2) point."""
    comps = [(w, "delta", {"point": tuple(p)}) for w, p in zip(weights, points)]
    est = estimate_amplitudes(make_ensemble("mixture", {"components": comps}, 1, seed))
    # every stratum is one exact sample
    assert est.se1 == 0.0 and est.se2 == 0.0
    return est


@pytest.mark.parametrize("seed", range(8))
def test_coherent_mixtures_on_the_station_modes(seed):
    weights, points = _discrete_p(seed, 4, 0.35)
    cutoff = coherent_cutoff(max(np.linalg.norm(p) for p in points))
    # the station modes run (a1, b1, a2, b2), the classical point (alpha1, alpha2, beta1, beta2)
    state = MixedState([(w, make_coherent(ModeLayout(STATION_MODES, cutoff), [a1, b1, a2, b2]))
                        for w, (a1, a2, b1, b2) in zip(weights, points)])
    quantum = amplitudes(state)
    est = _classical(weights, points, seed)
    assert abs(quantum.a1 - est.a1_hat) <= TOL and abs(quantum.a2 - est.a2_hat) <= TOL


@pytest.mark.parametrize("seed", range(4))
def test_coherent_signal_mixtures_through_the_oscillator_network(seed):
    weights, signals = _discrete_p(100 + seed, 2, 0.4)
    rng = np.random.default_rng(200 + seed)
    lo = LOConfig(*rng.uniform(0.2, 0.6, 2), *rng.uniform(-math.pi, math.pi, 2))
    cutoff = coherent_cutoff(max(np.linalg.norm(p) for p in signals))
    signal = MixedState([(w, make_coherent(ModeLayout(SIGNAL_MODES, cutoff), list(p)))
                         for w, p in zip(weights, signals)])
    quantum = amplitudes(homodyne_network_state(signal, lo))
    # every point shares the oscillator fields b_k = beta_k e^{i theta_k}
    b1, b2 = cmath.rect(lo.beta1, lo.theta1), cmath.rect(lo.beta2, lo.theta2)
    est = _classical(weights, [(a1, a2, b1, b2) for a1, a2 in signals], seed)
    assert abs(quantum.a1 - est.a1_hat) <= TOL and abs(quantum.a2 - est.a2_hat) <= TOL
