"""Numeric inputs are checked where they are made.

Every public constructor and numeric parameter listed here either gives a
finite result or raises one of the package's own errors, whatever number,
boolean or string it is handed: never a bare OverflowError, TypeError or
ValueError from inside the library.
"""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprsim import (
    BellSettings,
    CatParams,
    ClassicalEnsemble,
    CoherenceFunctions,
    CorrelationAmplitudes,
    EprSimError,
    LOConfig,
    MixedState,
    ModeLayout,
    PhaseSetting,
    StateError,
    coherent_cutoff,
    coherent_pair,
    entangled,
    estimate_amplitudes,
    figure3_boundaries,
    make_coherent,
    make_ensemble,
    make_pure,
    mixture_from_density,
    normal_moment,
    phase_shift,
    sinusoid_residual,
    two_photon_network,
)

PAIR = make_pure(ModeLayout(("a1", "b1"), 2), [((1, 0), 0.6), ((0, 1), 0.8)])
FIELD = np.ones(4)


def _calls(x):
    """(name, call) for each checked constructor or parameter, handed ``x``."""
    return [
        ("make_coherent", lambda: make_coherent(ModeLayout(("a", "b"), 4), [0.5, x]).norm_sq()),
        ("coherent_pair", lambda: coherent_pair(x, 0.5).norm_sq()),
        ("coherent_cutoff", lambda: coherent_cutoff(x)),
        ("MixedState weight", lambda: MixedState(((x, PAIR),)).components[0][0]),
        ("LOConfig", lambda: LOConfig(1.0, x)),
        ("CorrelationAmplitudes", lambda: CorrelationAmplitudes(x, 0.2, 0.0, 0.0)),
        ("PhaseSetting", lambda: PhaseSetting(0.1, x)),
        ("BellSettings", lambda: BellSettings(0.0, 1.0, x, -0.5)),
        ("CatParams", lambda: CatParams(x, 0.0)),
        ("CoherenceFunctions", lambda: CoherenceFunctions(1.0, x, 1.0)),
        ("CoherenceFunctions g22", lambda: CoherenceFunctions(1.0, 0.5, x)),
        ("phase_shift", lambda: phase_shift(PAIR, "b1", x).norm_sq()),
        ("make_ensemble n", lambda: estimate_amplitudes(make_ensemble("thermal", {"nbar": 1.0}, x, 1))),
        ("make_ensemble seed", lambda: estimate_amplitudes(make_ensemble("thermal", {"nbar": 1.0}, 16, x))),
        ("ClassicalEnsemble seed", lambda: estimate_amplitudes(ClassicalEnsemble((0.25,), *[FIELD] * 4, seed=x))),
        ("normal_moment exponent", lambda: normal_moment(PAIR, [("a1", x, 0)])),
        ("mixture_from_density", lambda: mixture_from_density([[x]]).components[0][0]),
        ("two_photon_network", lambda: two_photon_network(x).norm_sq()),
        ("amplitude lookup", lambda: PAIR.amplitude((x, 0))),
        ("make_pure occupation", lambda: make_pure(ModeLayout(("a",), 2), [((x,), 1.0)]).norm_sq()),
        ("stratum bound", lambda: estimate_amplitudes(ClassicalEnsemble(
            (0.25, 0.25), *[FIELD] * 4, seed=0, strata=((0, x), (x, 4))))),
    ]


def _finite(result) -> bool:
    values = vars(result).values() if dataclasses.is_dataclass(result) else [result]
    return all(cmath.isfinite(v) for v in values if isinstance(v, (float, complex)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 10**400, True, "1"])
       | st.floats() | st.integers() | st.text(max_size=2))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(1e308)
@example(10**400)
@example(-(10**400))
@example(10**5000)
@example(-(10**5000))
@example(True)
@example("1")
def test_checked_inputs_give_a_finite_result_or_a_domain_error(x):
    _check(x)


# hypothesis prints every explicit example, and repr refuses a Fraction of
# more than 4300 digits, so these examples run without it
@pytest.mark.parametrize("x", [Fraction(10**5000), Fraction(-(10**5000), 3), Fraction(1, 10**5000)],
                         ids=["10**5000", "-(10**5000)/3", "10**-5000"])
def test_huge_fractions_give_a_finite_result_or_a_domain_error(x):
    _check(x)


def _check(x):
    for name, call in _calls(x):
        try:
            result = call()
        except EprSimError as err:
            assert len(str(err)) < 200, (name, str(err)[:200])
            continue
        assert _finite(result), (name, result)


# each integer a caller passes, as a function of it; ``PAIR.amplitude``
# gets (x, x) because numpy upcasts a bool beside an int before any check
INTEGER_INPUTS = {
    "ModeLayout cutoff": lambda x: ModeLayout(("a",), x),
    "amplitude lookup": lambda x: PAIR.amplitude((x, x)),
    "make_pure occupation": lambda x: make_pure(ModeLayout(("a",), 2), [((x,), 1.0)]),
    "stratum bound": lambda x: ClassicalEnsemble((0.25, 0.25), *[FIELD] * 4, seed=0, strata=((0, x), (x, 4))),
    "ClassicalEnsemble seed": lambda x: ClassicalEnsemble((0.25,), *[FIELD] * 4, seed=x),
    "make_ensemble n": lambda x: make_ensemble("thermal", {"nbar": 1.0}, x, 1),
    "make_ensemble seed": lambda x: make_ensemble("thermal", {"nbar": 1.0}, 16, x),
    "normal_moment exponent": lambda x: normal_moment(PAIR, [("a1", x, 0)]),
    "two_photon_network cutoff": lambda x: two_photon_network(x),
    "sinusoid_residual grid_size": lambda x: sinusoid_residual(entangled("diff"), grid_size=x),
    "figure3_boundaries samples": lambda x: figure3_boundaries(x),
}


@pytest.mark.parametrize("x", [True, 2.5, "1"])
@pytest.mark.parametrize("name", list(INTEGER_INPUTS))
def test_an_integer_input_refuses_a_bool_a_float_and_a_string(name, x):
    with pytest.raises(StateError):
        INTEGER_INPUTS[name](x)


# each real or complex number a caller passes, as a function of it: a bool
# is a ``numbers.Number`` too, and the one real-number rule refuses it
REAL_INPUTS = {
    "LOConfig": lambda x: LOConfig(x, 1.0),
    "PhaseSetting": lambda x: PhaseSetting(x, 0.0),
    "BellSettings": lambda x: BellSettings(0.0, 1.0, x, -0.5),
    "CorrelationAmplitudes": lambda x: CorrelationAmplitudes(0.3, x, 0.0, 0.0),
    "CatParams alpha": lambda x: CatParams(x, 0.0),
    "CatParams phi": lambda x: CatParams(1.0, x),
    "CoherenceFunctions": lambda x: CoherenceFunctions(1.0, x, 1.0),
    "CoherenceFunctions g22": lambda x: CoherenceFunctions(1.0, 0.5, x),
    "MixedState weight": lambda x: MixedState(((x, PAIR),)),
    "make_coherent": lambda x: make_coherent(ModeLayout(("a", "b"), 30), [0.5, x]),
    "coherent_pair": lambda x: coherent_pair(x, 0.5),
    "coherent_cutoff": lambda x: coherent_cutoff(x),
    "phase_shift": lambda x: phase_shift(PAIR, "b1", x),
    "thermal nbar": lambda x: make_ensemble("thermal", {"nbar": x}, 16, 1),
    "correlated_lo nbar": lambda x: make_ensemble("correlated_lo", {"nbar": x}, 16, 1),
    "delta point": lambda x: make_ensemble("delta", {"point": (x, 1, 1, 1)}, 16, 1),
    "mixture weight": lambda x: make_ensemble("mixture", {"components": [(x, "thermal", {"nbar": 1.0})]}, 16, 1),
    "stratum weight": lambda x: ClassicalEnsemble((x,), *[np.ones(1)] * 4, seed=0),
}


@pytest.mark.parametrize("name", list(REAL_INPUTS))
def test_a_real_input_refuses_a_bool(name):
    with pytest.raises(StateError):
        REAL_INPUTS[name](True)
