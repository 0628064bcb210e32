"""Local-oscillator measurement of a two-mode signal.

A two-mode signal on (a1, a2) is analyzed by mixing each arm with a
coherent local oscillator |beta_k e^{i theta_k}> on the station
beamsplitter. The correlation amplitudes then depend on the signal only
through three normalized coherence functions

    g11 = <a1^dag a2> / sqrt(<n1><n2>)        (first order, cross)
    g20 = <a1^dag a2^dag> / sqrt(<n1><n2>)    (anomalous)
    g22 = <a1^dag a2^dag a2 a1> / (<n1><n2>)  (intensity cross-correlation)

and, at the oscillator amplitudes of ``optimal_lo``,

    A1 = |g11| / (1 + sqrt(g22)),   A2 = |g20| / (1 + sqrt(g22)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .correlation import CorrelationAmplitudes, _phase
from .errors import DegenerateLO, StateError, ZeroIntensity, _nonnegative, _require_finite, _shown
from .fock import (
    AnyState,
    ModeLayout,
    ZERO_TOL,
    coherent_cutoff,
    make_coherent,
    normal_moment,
    per_component,
    require_modes,
    _product,
)
from .network import STATION_MODES

__all__ = [
    "CoherenceFunctions",
    "LOConfig",
    "coherence_functions",
    "optimal_lo",
    "amplitudes_from_g",
    "signal_amplitudes",
    "homodyne_network_state",
    "SIGNAL_MODES",
]

SIGNAL_MODES = ("a1", "a2")


@dataclass(frozen=True)
class CoherenceFunctions:
    g11: complex
    g20: complex
    g22: float

    def __post_init__(self) -> None:
        _require_finite(g11=self.g11, g20=self.g20)
        if not _nonnegative(self.g22):
            raise StateError(f"g22 must be finite and nonnegative, got {_shown(self.g22)}")


@dataclass(frozen=True)
class LOConfig:
    """Real oscillator amplitudes; phases carry the measurement settings."""

    beta1: float
    beta2: float
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("oscillator ", **vars(self))
        if self.beta1 < 0.0 or self.beta2 < 0.0:
            raise StateError("oscillator amplitudes must be nonnegative")


def _intensities(state: AnyState) -> tuple[float, float, float]:
    """<n1>, <n2> and <a1^dag a2^dag a2 a1> of a signal state; both means
    must be nonzero."""
    require_modes(state, SIGNAL_MODES, "signal state")
    n1 = normal_moment(state, [("a1", 1, 1)]).real
    n2 = normal_moment(state, [("a2", 1, 1)]).real
    if n1 <= ZERO_TOL or n2 <= ZERO_TOL:
        raise ZeroIntensity(f"mean photon numbers ({n1!r}, {n2!r}) too small to normalize")
    return n1, n2, normal_moment(state, [("a1", 1, 1), ("a2", 1, 1)]).real


def coherence_functions(state: AnyState) -> CoherenceFunctions:
    """Normalized first/second order cross-coherences of the signal arms."""
    n1, n2, nn = _intensities(state)
    scale = math.sqrt(n1 * n2)
    g11 = normal_moment(state, [("a1", 1, 0), ("a2", 0, 1)]) / scale
    g20 = normal_moment(state, [("a1", 1, 0), ("a2", 1, 0)]) / scale
    return CoherenceFunctions(g11=g11, g20=g20, g22=max(0.0, nn / (n1 * n2)))


def optimal_lo(state: AnyState) -> tuple[float, float]:
    """Oscillator amplitudes maximizing the correlation:

    beta1 * beta2 = sqrt(<n1 n2>) and beta1 / beta2 = sqrt(<n1> / <n2>).
    """
    n1, n2, nn = _intensities(state)
    if nn <= ZERO_TOL:
        raise DegenerateLO(
            f"<n1 n2> = {nn!r}: optimal oscillator amplitudes vanish "
            "(single shared photon between the arms)"
        )
    prod, ratio = math.sqrt(nn), math.sqrt(n1 / n2)
    return math.sqrt(prod * ratio), math.sqrt(prod / ratio)


def amplitudes_from_g(g: CoherenceFunctions) -> tuple[float, float]:
    """Correlation amplitudes at the optimal oscillator setting."""
    denom = 1.0 + math.sqrt(g.g22)
    return abs(g.g11) / denom, abs(g.g20) / denom


def signal_amplitudes(state: AnyState) -> CorrelationAmplitudes:
    """The oscillator-measured amplitudes of a signal state in the standard form.

    With both oscillator phases at zero the interference moments are
    proportional to g11 and g20, so the phase offsets are their arguments.
    """
    g = coherence_functions(state)
    return CorrelationAmplitudes(*amplitudes_from_g(g), _phase(g.g11), _phase(g.g20))


def homodyne_network_state(
    state: AnyState, lo: LOConfig, lo_cutoff: Optional[int] = None
):
    """Four-mode state on (a1, b1, a2, b2): signal plus oscillators.

    The oscillator pair is a truncated two-mode coherent state; its cutoff
    defaults to the sizing rule for the combined amplitude
    sqrt(beta1^2 + beta2^2).
    """
    require_modes(state, SIGNAL_MODES, "signal state")
    if lo_cutoff is None:
        lo_cutoff = coherent_cutoff(math.hypot(lo.beta1, lo.beta2))
    lo_pair = make_coherent(
        ModeLayout(("b1", "b2"), lo_cutoff),
        [cmath.rect(lo.beta1, lo.theta1), cmath.rect(lo.beta2, lo.theta2)],
    )
    return _with_oscillators(state, lo_pair)


@per_component
def _with_oscillators(state: AnyState, lo_pair) -> AnyState:
    return _product(state, lo_pair, STATION_MODES)
