"""Bell/CHSH combinations, bound classification, and boundary curves.

The CHSH quantity uses the sign pattern

    B = E(t1, t2) - E(t1', t2) + E(t1, t2') + E(t1', t2')

With the two-cosine correlation E = A1 cos(t1 - t2 + xi)
+ A2 cos(t1 + t2 + zeta) the maximum of |B| over all settings is
2 sqrt(2) sqrt(A1^2 + A2^2) (Clauser-Horne-Shimony-Holt 1969, Tsirelson
1980). ``bell_max`` computes the optimal phases in closed form, evaluates B
there, and checks that value from both sides: it must reach the analytic
maximum, and no point of a grid over the four phases may beat it. Failing
either check signals a bug, not a physics result.

Bounds on the amplitude pair (first quadrant):
    stochastic-field:  A1 <= 1/2 and A2 <= 1/2
    Bell (local):      A1^2 + A2^2 <= 1/2      (equivalent to b_max <= 2)
    Tsirelson:         A1^2 + A2^2 <= 1
    quantum states:    A1 + A2 <= 1             (= 1 for perfect correlation)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationAmplitudes, amplitudes, epr_holds, predict_E
from .errors import OptimizerShortfall, StateError
from .network import PhaseSetting

BOUND_TOL = 1e-9
SHORTFALL_TOL = 1e-12   # relative to max(1, analytic): roundoff, not optimizer slack
CURVE_BUDGET = 100_000  # most samples per figure3 curve
GRID_POINTS = 24        # phases per setting in bell_max's grid check

__all__ = [
    "BellSettings",
    "BellMaxResult",
    "InequalityReport",
    "bell_B",
    "bell_max",
    "classify",
    "figure3_boundaries",
]


@dataclass(frozen=True)
class BellSettings:
    """Two analyzer phases per station: (theta1, theta1p) x (theta2, theta2p)."""

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float


@dataclass(frozen=True)
class BellMaxResult:
    b_max: float
    settings: BellSettings
    analytic: float


@dataclass(frozen=True)
class InequalityReport:
    """Region and margins of a pair (positive = inside); bell_ok: its B_max <= 2."""

    region: str
    epr_boundary: bool
    stochastic_margin: float
    bell_margin: float
    tsirelson_margin: float
    quantum_margin: float
    bell_ok: bool


def _coerce_amps(source) -> CorrelationAmplitudes:
    if isinstance(source, CorrelationAmplitudes):
        return source
    return amplitudes(source)


def bell_B(source, settings: BellSettings) -> float:
    """CHSH combination of four correlation values."""
    amps = _coerce_amps(source)
    e = lambda t1, t2: predict_E(amps, PhaseSetting(t1, t2))
    return (
        e(settings.theta1, settings.theta2)
        - e(settings.theta1p, settings.theta2)
        + e(settings.theta1, settings.theta2p)
        + e(settings.theta1p, settings.theta2p)
    )


def _optimal_settings(amps: CorrelationAmplitudes) -> BellSettings:
    """The phases that maximize B, in closed form.

    E(t1, t2) = Re[e^{i t1} w(t2)] with w(t) = A1 e^{i(xi - t)} + A2 e^{i(zeta + t)},
    so B = Re[e^{i t1} (w(t2) + w(t2'))] + Re[e^{i t1'} (w(t2') - w(t2))] and
    t1, t1' undo the phases of the two sums. At t2 = delta, t2' = delta - pi/2
    with delta = (xi - zeta)/2 the values w(t2), w(t2') are orthogonal with
    squared norms (A1 + A2)^2 and (A1 - A2)^2, so both sums have modulus
    sqrt(2 (A1^2 + A2^2)).
    """

    def w(t: float) -> complex:
        return amps.a1 * cmath.exp(1j * (amps.xi - t)) + amps.a2 * cmath.exp(1j * (amps.zeta + t))

    t2 = 0.5 * (amps.xi - amps.zeta)
    t2p = t2 - 0.5 * math.pi
    u, v = w(t2), w(t2p)
    return BellSettings(-cmath.phase(u + v), math.pi - cmath.phase(u - v), t2, t2p)


def _b_grid(amps: CorrelationAmplitudes, n: int) -> float:
    """Best B on the n^4 grid over the settings torus, in O(n^3).

    B = [E(t1, t2) + E(t1, t2')] + [E(t1', t2') - E(t1', t2)], so for each
    (t2, t2') the best t1 and the best t1' are found separately.
    """
    t = 2.0 * math.pi * np.arange(n) / n
    e = amps.a1 * np.cos(t[:, None] - t[None, :] + amps.xi) + amps.a2 * np.cos(
        t[:, None] + t[None, :] + amps.zeta
    )  # e[i, k] = E(t_i, t_k)
    plus = (e[:, :, None] + e[:, None, :]).max(axis=0)   # [k, l]: E(t1, t_k) + E(t1, t_l)
    minus = (e[:, None, :] - e[:, :, None]).max(axis=0)  # [k, l]: E(t1', t_l) - E(t1', t_k)
    return float((plus + minus).max())


def bell_max(source) -> BellMaxResult:
    """Maximize B over settings; checked against 2 sqrt(2) |A| and a grid.

    ``b_max`` is B evaluated at the closed-form settings, not the analytic
    value itself. It must reach ``analytic`` and no point of the
    ``GRID_POINTS``^4 grid may beat it, each within ``SHORTFALL_TOL`` times
    max(1, analytic); the comparisons are written so that NaN fails them.
    """
    amps = _coerce_amps(source)
    analytic = 2.0 * math.sqrt(2.0) * math.hypot(amps.a1, amps.a2)
    settings = _optimal_settings(amps)
    b_max = float(bell_B(amps, settings))
    grid = _b_grid(amps, GRID_POINTS)
    tol = SHORTFALL_TOL * max(1.0, analytic)
    problems = []
    if not b_max >= analytic - tol:
        problems.append(f"falls below the analytic maximum {analytic!r}")
    if not grid <= b_max + tol:
        problems.append(f"is beaten by the {GRID_POINTS}^4 grid maximum {grid!r}")
    if problems:
        raise OptimizerShortfall(
            f"closed-form Bell value {b_max!r} at {settings} " + " and ".join(problems)
        )
    return BellMaxResult(b_max=b_max, settings=settings, analytic=analytic)


def classify(amps: CorrelationAmplitudes, state_b_max: float) -> InequalityReport:
    """Place an amplitude pair in the bound geometry.

    The three bound regions (classical, bell-violating, unphysical) do not
    tile the quadrant: a pair can exceed an individual A_k <= 1/2 bound
    while staying inside the Bell circle. That gap is labeled
    ``nonclassical-local`` so every pair gets exactly one region.
    """
    a1, a2 = float(amps.a1), float(amps.a2)
    circle = a1 * a1 + a2 * a2
    total = a1 + a2
    if total > 1.0 + BOUND_TOL:
        region = "unphysical"
    elif circle > 0.5 + BOUND_TOL:
        region = "bell-violating"
    elif a1 <= 0.5 + BOUND_TOL and a2 <= 0.5 + BOUND_TOL:
        region = "classical"
    else:
        region = "nonclassical-local"
    return InequalityReport(
        region=region,
        epr_boundary=epr_holds(amps, BOUND_TOL),
        stochastic_margin=0.5 - max(a1, a2),
        bell_margin=0.5 - circle,
        tsirelson_margin=1.0 - circle,
        quantum_margin=1.0 - total,
        bell_ok=state_b_max <= 2.0 + BOUND_TOL,
    )


def figure3_boundaries(samples_per_curve: int) -> list[tuple[str, float, float]]:
    """First-quadrant samples of the four bound curves.

    Curves: ``quantum`` (a1 + a2 = 1), ``bell`` (a1^2 + a2^2 = 1/2),
    ``stochastic`` (outer edge of the [0, 1/2]^2 box), ``tsirelson``
    (a1^2 + a2^2 = 1). With an odd sample count the midpoint of the first
    three curves lands exactly on (1/2, 1/2), where they intersect.
    """
    m = int(samples_per_curve)
    if not 2 <= m <= CURVE_BUDGET:
        raise StateError(f"figure3_boundaries needs 2 <= samples_per_curve <= {CURVE_BUDGET}")
    s = [i / (m - 1) for i in range(m)]                    # quantum and stochastic
    t = [0.5 * math.pi * i / (m - 1) for i in range(m)]    # bell and tsirelson
    r_bell = math.sqrt(0.5)
    return ([("quantum", x, 1.0 - x) for x in s]
            + [("bell", r_bell * math.cos(a), r_bell * math.sin(a)) for a in t]
            + [("stochastic", min(x, 0.5), min(1.0 - x, 0.5)) for x in s]
            + [("tsirelson", math.cos(a), math.sin(a)) for a in t])
