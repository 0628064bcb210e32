"""Bell/CHSH combinations, bound classification, and boundary curves.

Read ``bell_B`` and ``bell_max`` for the CHSH combination and its maximum,
and ``classify`` for the bounds on the amplitude pair (first quadrant):

    stochastic-field:  A1 <= 1/2 and A2 <= 1/2
    Bell (local):      A1^2 + A2^2 <= 1/2      (b_max <= 2; on A1 + A2 = 1, the stochastic bound)
    Tsirelson:         A1^2 + A2^2 <= 1
    quantum states:    A1 + A2 <= 1             (= 1 for perfect correlation)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .correlation import BOUND_TOL, CorrelationAmplitudes, amplitudes, epr_holds, predict_E
from .errors import OptimizerShortfall, _require_count, _require_finite
from .network import PhaseSetting

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

    def __post_init__(self) -> None:
        _require_finite(**vars(self))


@dataclass(frozen=True)
class BellMaxResult:
    b_max: float
    settings: BellSettings
    analytic: float


@dataclass(frozen=True)
class InequalityReport:
    """Region and margins of a pair (positive = inside); bell_ok: not bell-violating."""

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
    """CHSH combination B = E(t1, t2) - E(t1', t2) + E(t1, t2') + E(t1', t2')."""
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
    cube = e[:, :, None] + e[:, None, :]
    plus = cube.max(axis=0)     # [k, l]: E(t1, t_k) + E(t1, t_l)
    np.subtract(e[:, None, :], e[:, :, None], out=cube)
    minus = cube.max(axis=0)    # [k, l]: E(t1', t_l) - E(t1', t_k)
    return float((plus + minus).max())


def bell_max(source) -> BellMaxResult:
    """Maximize B over settings; checked against 2 sqrt(2) |A| and a grid.

    Over all settings of the two-cosine correlation, max |B| is
    2 sqrt(2) sqrt(A1^2 + A2^2) (Clauser-Horne-Shimony-Holt 1969, Tsirelson
    1980). ``b_max`` is B evaluated at the closed-form settings, not the
    analytic value itself. It must reach ``analytic`` and no point of the
    ``GRID_POINTS``^4 grid may beat it, each within ``SHORTFALL_TOL`` times
    max(1, analytic); the comparisons are written so that NaN fails them.
    """
    amps = _coerce_amps(source)
    analytic = 2.0 * math.sqrt(2.0) * math.hypot(amps.a1, amps.a2)
    if not math.isfinite(analytic):    # then no setting is finite either
        raise OptimizerShortfall(f"analytic Bell maximum {analytic!r} is not finite")
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


def classify(amps: CorrelationAmplitudes, state_b_max: float | None = None) -> InequalityReport:
    """Place an amplitude pair in the bound geometry, with one Bell verdict.

    A pair violates Bell past the circle, or past the box on the EPR line
    A1 + A2 = 1, where the circle touches the box at (1/2, 1/2) and the paper's
    theorem makes the two bounds one; ``region`` and ``bell_ok`` both read that.
    Off the line, past the box inside the circle is ``nonclassical-local``.
    ``state_b_max`` is unused: it stays for callers that pass it positionally.
    """
    a1, a2 = float(amps.a1), float(amps.a2)
    circle, total, stochastic = a1 * a1 + a2 * a2, a1 + a2, 0.5 - max(a1, a2)
    epr = epr_holds(amps)
    bell = circle > 0.5 + BOUND_TOL or (epr and stochastic < -BOUND_TOL)
    if total > 1.0 + BOUND_TOL:
        region = "unphysical"
    elif bell:
        region = "bell-violating"
    else:
        region = "classical" if stochastic >= -BOUND_TOL else "nonclassical-local"
    return InequalityReport(
        region=region,
        epr_boundary=epr,
        stochastic_margin=stochastic,
        bell_margin=0.5 - circle,
        tsirelson_margin=1.0 - circle,
        quantum_margin=1.0 - total,
        bell_ok=not bell,
    )


def figure3_boundaries(samples_per_curve: int) -> list[tuple[str, float, float]]:
    """First-quadrant samples of the four bound curves.

    Curves: ``quantum`` (a1 + a2 = 1), ``bell`` (a1^2 + a2^2 = 1/2),
    ``stochastic`` (outer edge of the [0, 1/2]^2 box), ``tsirelson``
    (a1^2 + a2^2 = 1). With an odd sample count the midpoint of the first
    three curves lands exactly on (1/2, 1/2), where they intersect.
    """
    m = _require_count("samples_per_curve", samples_per_curve, 2, CURVE_BUDGET)
    s = [i / (m - 1) for i in range(m)]                    # quantum and stochastic
    t = [0.5 * math.pi * i / (m - 1) for i in range(m)]    # bell and tsirelson
    r_bell = math.sqrt(0.5)
    return ([("quantum", x, 1.0 - x) for x in s]
            + [("bell", r_bell * math.cos(a), r_bell * math.sin(a)) for a in t]
            + [("stochastic", min(x, 0.5), min(1.0 - x, 0.5)) for x in s]
            + [("tsirelson", math.cos(a), math.sin(a)) for a in t])
