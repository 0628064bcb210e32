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

import pytest
from hypothesis import example, given, settings, strategies as st

from eprsim import (
    BellSettings,
    CatParams,
    CoherenceFunctions,
    CorrelationAmplitudes,
    EprSimError,
    LOConfig,
    MixedState,
    ModeLayout,
    PhaseSetting,
    coherent_cutoff,
    coherent_pair,
    epr_holds,
    estimate_amplitudes,
    make_coherent,
    make_ensemble,
    make_pure,
    phase_shift,
)

AMPS = CorrelationAmplitudes(0.3, 0.2, 0.0, 0.0, 2.0)
PAIR = make_pure(ModeLayout(("a1", "b1"), 2), [((1, 0), 0.6), ((0, 1), 0.8)])


def _calls(x):
    """(name, call) for each checked constructor or parameter, handed ``x``."""
    return [
        ("epr_holds tol", lambda: epr_holds(AMPS, x)),
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
