"""Two-station interference correlators and their two-amplitude form.

Each measurement station k receives two arms (a_k, b_k), applies an
analyzer phase theta_k to the b arm, and mixes the arms on a 50:50
splitter; detectors count photons in the outputs (c_k, d_k). The
correlation function is

    E = (cc - cd - dc + dd) / (cc + cd + dc + dd)

with cc = <n_c1 n_c2> and so on. Writing the output numbers as
n_c = (S + D)/2, n_d = (S - D)/2 with S = n_a + n_b and
D(theta) = e^{i theta} a^dag b + h.c. gives the closed form

    E(theta1, theta2) = A1 cos(theta1 - theta2 + xi)
                      + A2 cos(theta1 + theta2 + zeta)

where A1 = 2|M1|/den, A2 = 2|M2|/den, xi = arg M1, zeta = arg M2, with
M1 = <a1^dag b1 a2 b2^dag>, M2 = <a1^dag b1 a2^dag b2> and
den = <(n_a1 + n_b1)(n_a2 + n_b2)>.

Two backends compute the correlators: ``expansion`` evaluates the input
moments directly; ``evolution`` pushes the state through the analyzer
optics and reads number-number moments at the outputs. They agree to
float precision and are cross-checked in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import EprSimError, StateError, ZeroCoincidence
from .fock import AnyState, normal_moment
from .network import PhaseSetting, beamsplitter, phase_shift

ZERO_TOL = 1e-12
NEGATIVE_RATE_TOL = 1e-12

__all__ = [
    "OutputCorrelators",
    "CorrelationAmplitudes",
    "EprReport",
    "output_correlators",
    "correlation_E",
    "amplitudes",
    "predict_E",
    "sinusoid_residual",
    "epr_check",
    "epr_holds",
    "STATION_MODES",
]

STATION_MODES = ("a1", "b1", "a2", "b2")


def _require_station_layout(state: AnyState) -> None:
    labels = state.layout.labels
    if labels != STATION_MODES:
        raise StateError(f"state must live on modes {STATION_MODES} in order, got {labels}")


def _clip_rate(value: float, name: str) -> float:
    """Coincidence rates are nonnegative; swallow roundoff, not sign bugs or NaN."""
    if not value >= -NEGATIVE_RATE_TOL:
        raise EprSimError(f"correlator {name} = {value!r} is negative beyond roundoff or not a number")
    return max(0.0, value)


@dataclass(frozen=True)
class OutputCorrelators:
    """Coincidence rates between the four detector pairings."""

    cc: float
    cd: float
    dc: float
    dd: float

    @property
    def total(self) -> float:
        return self.cc + self.cd + self.dc + self.dd

    def E(self) -> float:
        total = self.total
        if abs(total) <= ZERO_TOL:
            raise ZeroCoincidence(f"coincidence total {total!r} below {ZERO_TOL}")
        return (self.cc - self.cd - self.dc + self.dd) / total


@dataclass(frozen=True)
class CorrelationAmplitudes:
    """The (A1, A2, xi, zeta) parameters of the two-cosine correlation.

    The interference moments and denominator are kept alongside when the
    instance came from a state; for bare (a1, a2, xi, zeta) pairs they
    default to the convention m_k = a_k e^{i phase}, denominator 2.
    """

    a1: float
    a2: float
    xi: float
    zeta: float
    m1: Optional[complex] = None
    m2: Optional[complex] = None
    denominator: float = 2.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.a1, self.a2, self.xi, self.zeta)):
            raise StateError(
                f"amplitudes and phases must be finite, got "
                f"({self.a1}, {self.a2}, {self.xi}, {self.zeta})"
            )
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise StateError(f"amplitudes must be nonnegative, got ({self.a1}, {self.a2})")
        if self.m1 is None:
            object.__setattr__(self, "m1", 0.5 * self.denominator * self.a1 * cmath.exp(1j * self.xi))
        if self.m2 is None:
            object.__setattr__(self, "m2", 0.5 * self.denominator * self.a2 * cmath.exp(1j * self.zeta))


@dataclass(frozen=True)
class EprReport:
    """Result of the perfect-correlation test A1 + A2 = 1.

    ``phases`` and ``witness`` are filled only when the test passes: the
    phase pair drives both cosines to +1, and the witness correlators at
    that setting (evolution backend, so independently of the moment
    expansion) show the cross coincidences vanishing.
    """

    is_epr: bool
    amplitudes: CorrelationAmplitudes
    phases: Optional[PhaseSetting]
    witness: Optional[OutputCorrelators]


def _station_moments(state: AnyState) -> dict[str, complex]:
    """The input moments that determine every correlator."""
    mm = lambda spec: normal_moment(state, spec)
    out: dict[str, complex] = {}
    out["ss"] = (
        mm([("a1", 1, 1), ("a2", 1, 1)])
        + mm([("a1", 1, 1), ("b2", 1, 1)])
        + mm([("b1", 1, 1), ("a2", 1, 1)])
        + mm([("b1", 1, 1), ("b2", 1, 1)])
    )
    out["m1"] = mm([("a1", 1, 0), ("b1", 0, 1), ("a2", 0, 1), ("b2", 1, 0)])
    out["m2"] = mm([("a1", 1, 0), ("b1", 0, 1), ("a2", 1, 0), ("b2", 0, 1)])
    out["s1d2"] = (
        mm([("a1", 1, 1), ("a2", 1, 0), ("b2", 0, 1)])
        + mm([("b1", 1, 1), ("a2", 1, 0), ("b2", 0, 1)])
    )
    out["d1s2"] = (
        mm([("a1", 1, 0), ("b1", 0, 1), ("a2", 1, 1)])
        + mm([("a1", 1, 0), ("b1", 0, 1), ("b2", 1, 1)])
    )
    return out


def output_correlators(state: AnyState, setting: PhaseSetting, backend: str = "expansion") -> OutputCorrelators:
    """Coincidence rates <n_x1 n_x2> for the four output pairings."""
    _require_station_layout(state)
    t1, t2 = float(setting.theta1), float(setting.theta2)
    if backend == "expansion":
        mom = _station_moments(state)
        ss = mom["ss"].real
        sd = 2.0 * (cmath.exp(1j * t2) * mom["s1d2"]).real
        ds = 2.0 * (cmath.exp(1j * t1) * mom["d1s2"]).real
        dd = (
            2.0 * (cmath.exp(1j * (t1 + t2)) * mom["m2"]).real
            + 2.0 * (cmath.exp(1j * (t1 - t2)) * mom["m1"]).real
        )
        return OutputCorrelators(
            cc=_clip_rate(0.25 * (ss + sd + ds + dd), "cc"),
            cd=_clip_rate(0.25 * (ss - sd + ds - dd), "cd"),
            dc=_clip_rate(0.25 * (ss + sd - ds - dd), "dc"),
            dd=_clip_rate(0.25 * (ss - sd - ds + dd), "dd"),
        )
    if backend == "evolution":
        s = phase_shift(state, "b1", t1)
        s = phase_shift(s, "b2", t2)
        s = beamsplitter(s, "a1", "b1")   # outputs: a1 -> c1, b1 -> d1
        s = beamsplitter(s, "a2", "b2")   # outputs: a2 -> c2, b2 -> d2
        pair = lambda m1_, m2_: normal_moment(s, [(m1_, 1, 1), (m2_, 1, 1)]).real
        return OutputCorrelators(
            cc=_clip_rate(pair("a1", "a2"), "cc"),
            cd=_clip_rate(pair("a1", "b2"), "cd"),
            dc=_clip_rate(pair("b1", "a2"), "dc"),
            dd=_clip_rate(pair("b1", "b2"), "dd"),
        )
    raise StateError(f"unknown backend {backend!r}; use 'expansion' or 'evolution'")


def correlation_E(state: AnyState, setting: PhaseSetting, backend: str = "expansion") -> float:
    return output_correlators(state, setting, backend=backend).E()


def amplitudes(state: AnyState) -> CorrelationAmplitudes:
    """Extract (A1, A2, xi, zeta) from the state's input moments."""
    _require_station_layout(state)
    mom = _station_moments(state)
    den = mom["ss"].real
    if den <= ZERO_TOL:
        raise ZeroCoincidence(
            f"coincidence denominator <(n_a1+n_b1)(n_a2+n_b2)> = {den!r} below {ZERO_TOL}"
        )
    m1, m2 = mom["m1"], mom["m2"]
    xi = cmath.phase(m1) if abs(m1) > ZERO_TOL else 0.0
    zeta = cmath.phase(m2) if abs(m2) > ZERO_TOL else 0.0
    return CorrelationAmplitudes(
        a1=2.0 * abs(m1) / den,
        a2=2.0 * abs(m2) / den,
        xi=xi,
        zeta=zeta,
        m1=m1,
        m2=m2,
        denominator=den,
    )


def predict_E(amps: CorrelationAmplitudes, setting: PhaseSetting) -> float:
    t1, t2 = float(setting.theta1), float(setting.theta2)
    return amps.a1 * math.cos(t1 - t2 + amps.xi) + amps.a2 * math.cos(t1 + t2 + amps.zeta)


def sinusoid_residual(state: AnyState, grid_size: int = 8,
                      amps: Optional[CorrelationAmplitudes] = None) -> float:
    """Worst |E_network - E_two_cosine| over a grid_size^2 phase grid.

    The network value is computed with the ``evolution`` backend (actual
    optics applied to the state) so the comparison is independent of the
    moment expansion behind ``predict_E``. The grid is uniformly spaced
    with a fixed offset so it does not sit only on symmetry points, where
    a phase-sign error would be invisible. Grid points without
    coincidences are skipped; if all are degenerate the error propagates.
    """
    if grid_size < 4:
        raise StateError("sinusoid_residual needs grid_size >= 4")
    if amps is None:
        amps = amplitudes(state)
    worst = None
    for i in range(grid_size):
        t1 = 2.0 * math.pi * i / grid_size + 0.1234
        for j in range(grid_size):
            t2 = 2.0 * math.pi * j / grid_size + 0.4321
            setting = PhaseSetting(t1, t2)
            try:
                e_net = correlation_E(state, setting, backend="evolution")
            except ZeroCoincidence:
                continue
            dev = abs(e_net - predict_E(amps, setting))
            worst = dev if worst is None else max(worst, dev)
    if worst is None:
        raise ZeroCoincidence("no coincidences at any grid point")
    return worst


def epr_holds(amps: CorrelationAmplitudes, tol: float) -> bool:
    """A1 + A2 = 1 within tol; tol must be finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise StateError(f"tol must be finite and >= 0, got {tol!r}")
    return abs(amps.a1 + amps.a2 - 1.0) <= tol


def epr_check(state: AnyState, tol: float = 1e-9) -> EprReport:
    """Test A1 + A2 = 1 and, when it holds, exhibit the matching phases.

    At theta1 = -(xi + zeta)/2, theta2 = (xi - zeta)/2 both cosines hit 1
    (a vanishing amplitude reports phase 0, which makes its constraint
    vacuous), so E = A1 + A2 there. For a perfectly correlated state the
    cross coincidences cd and dc vanish at that setting; they are returned
    as the witness, computed with the evolution backend.
    """
    amps = amplitudes(state)
    if not epr_holds(amps, tol):
        return EprReport(is_epr=False, amplitudes=amps, phases=None, witness=None)
    phases = PhaseSetting(-(amps.xi + amps.zeta) / 2.0, (amps.xi - amps.zeta) / 2.0)
    witness = output_correlators(state, phases, backend="evolution")
    return EprReport(is_epr=True, amplitudes=amps, phases=phases, witness=witness)
