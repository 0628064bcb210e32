"""Bell/CHSH quantities, bound classification, and the boundary curves."""

import math

import numpy as np
import pytest

from eprsim import (
    BellSettings,
    CorrelationAmplitudes,
    OptimizerShortfall,
    StateError,
    bell_B,
    bell_max,
    classify,
    figure3_boundaries,
)

SQ2 = math.sqrt(2.0)


def pair(a1, a2, xi=0.0, zeta=0.0):
    return CorrelationAmplitudes(a1, a2, xi, zeta)


def test_bell_value_at_textbook_settings():
    settings = BellSettings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    assert bell_B(pair(0.0, 1.0), settings) == pytest.approx(2 * SQ2, abs=1e-12)
    # the single-cosine state with the roles swapped reaches the same value
    # at mirrored settings
    mirrored = BellSettings(0.0, math.pi / 2, -math.pi / 4, math.pi / 4)
    assert bell_B(pair(1.0, 0.0), mirrored) == pytest.approx(2 * SQ2, abs=1e-12)


def test_bell_max_analytic_formula():
    # b_max = 2 sqrt(2) sqrt(a1^2 + a2^2); numeric search must reach it
    cases = [
        (0.0, 1.0, 2.8284271247461903),
        (1.0, 0.0, 2.8284271247461903),
        (0.5, 0.5, 2.0),
        (0.3160602794, 0.6839397206, 2.1310422644871445),
        (0.62, 0.13, 1.7917589123540032),
    ]
    for a1, a2, want in cases:
        res = bell_max(pair(a1, a2))
        assert res.analytic == pytest.approx(want, abs=1e-12)
        assert res.b_max == pytest.approx(want, abs=1e-6)
        assert res.b_max <= want + 1e-6
        # the reported settings actually produce the reported value
        again = bell_B(pair(a1, a2), res.settings)
        assert again == pytest.approx(res.b_max, abs=1e-9)


def test_bell_max_with_interference_phases():
    rng = np.random.default_rng(404)
    cases = [(*rng.uniform(0.0, 0.7, size=2), *rng.uniform(-math.pi, math.pi, size=2))
             for _ in range(12)]
    # amplitudes up to 1 and phases well outside one turn
    cases += [(*rng.uniform(0.0, 1.0, size=2), *rng.uniform(-20.0, 20.0, size=2))
              for _ in range(200)]
    for a1, a2, xi, zeta in cases:
        amps = CorrelationAmplitudes(a1, a2, xi, zeta)
        res = bell_max(amps)
        want = 2 * SQ2 * math.hypot(a1, a2)
        assert res.b_max == pytest.approx(want, abs=1e-12)
        assert bell_B(amps, res.settings) == res.b_max
        # no setting can beat the analytic maximum
        t = rng.uniform(-math.pi, math.pi, size=4)
        val = bell_B(amps, BellSettings(*t))
        assert val <= want + 1e-9


def test_bell_max_grid_check_catches_wrong_settings(monkeypatch):
    from eprsim import inequalities

    wrong = BellSettings(0.0, math.pi / 2, 0.0, math.pi / 2)
    monkeypatch.setattr(inequalities, "_optimal_settings", lambda amps: wrong)
    with pytest.raises(OptimizerShortfall, match="grid maximum"):
        bell_max(pair(0.3, 0.6, 0.4, 1.1))


def test_bell_max_catches_settings_off_by_more_than_roundoff(monkeypatch):
    from eprsim import inequalities

    amps = pair(0.3, 0.6, 0.4, 1.1)
    best = inequalities._optimal_settings(amps)
    off = BellSettings(*(t + 2e-6 for t in (best.theta1, best.theta1p, best.theta2, best.theta2p)))
    # B falls short of the maximum by ~1e-11: far above roundoff, far below
    # any optimizer slack
    shortfall = 2 * SQ2 * math.hypot(0.3, 0.6) - bell_B(amps, off)
    assert 5e-12 < shortfall < 1e-9
    monkeypatch.setattr(inequalities, "_optimal_settings", lambda amps: off)
    with pytest.raises(OptimizerShortfall, match="falls below the analytic maximum"):
        bell_max(amps)


def test_non_finite_amplitudes_are_rejected():
    nan = float("nan")
    for args in [(nan, 0.2, 0.0, 0.0), (0.2, math.inf, 0.0, 0.0),
                 (0.2, 0.2, nan, 0.0), (0.2, 0.2, 0.0, -math.inf)]:
        with pytest.raises(StateError):
            CorrelationAmplitudes(*args)
    with pytest.raises(StateError, match="must be nonnegative"):
        CorrelationAmplitudes(-0.1, 0.2, 0.0, 0.0)
    # a NaN that gets past construction fails the Bell check instead of
    # coming back as b_max = nan
    amps = pair(0.3, 0.2)
    object.__setattr__(amps, "a1", nan)
    with pytest.raises(OptimizerShortfall):
        bell_max(amps)


def test_import_leaves_scipy_out(subprocess_env):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, eprsim; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=subprocess_env)
    assert proc.stdout.strip() == "False"


def test_bell_max_accepts_four_mode_state():
    from eprsim import entangled

    res = bell_max(entangled("sum"))
    assert res.b_max == pytest.approx(2 * SQ2, abs=1e-9)


def test_classify_regions():
    # exactly on the triple point: all three boundary margins vanish
    rep = classify(pair(0.5, 0.5), state_b_max=2.0)
    assert rep.region == "classical"
    assert rep.epr_boundary
    assert rep.stochastic_margin == 0.0
    assert rep.bell_margin == 0.0
    assert rep.quantum_margin == 0.0
    assert rep.tsirelson_margin == pytest.approx(0.5)
    assert rep.bell_ok

    rep = classify(pair(0.0, 1.0), state_b_max=2 * SQ2)
    assert rep.region == "bell-violating"
    assert not rep.bell_ok
    assert rep.tsirelson_margin == pytest.approx(0.0, abs=1e-12)

    rep = classify(pair(0.6, 0.1), state_b_max=1.8)
    assert rep.region == "nonclassical-local"
    assert rep.bell_ok

    rep = classify(pair(0.6, 0.6), state_b_max=2.4)
    assert rep.region == "unphysical"

    rep = classify(pair(0.2, 0.3), state_b_max=1.2)
    assert rep.region == "classical"
    assert not rep.epr_boundary


def test_classify_tolerates_roundoff_on_the_circle():
    eps = 5e-10
    rep = classify(pair(0.5 + eps, 0.5 - eps), state_b_max=2.0)
    assert rep.region == "classical"
    assert rep.epr_boundary


def test_figure3_boundaries_geometry():
    rows = figure3_boundaries(201)
    by_curve = {}
    for curve, a1, a2 in rows:
        by_curve.setdefault(curve, []).append((a1, a2))

    assert set(by_curve) == {"quantum", "bell", "stochastic", "tsirelson"}

    for a1, a2 in by_curve["quantum"]:
        assert a1 + a2 == pytest.approx(1.0, abs=1e-12)
    for a1, a2 in by_curve["bell"]:
        assert a1 * a1 + a2 * a2 == pytest.approx(0.5, abs=1e-12)
    for a1, a2 in by_curve["tsirelson"]:
        assert a1 * a1 + a2 * a2 == pytest.approx(1.0, abs=1e-12)
    for a1, a2 in by_curve["stochastic"]:
        assert max(a1, a2) <= 0.5 + 1e-12

    # odd sample counts land exactly on the shared point (0.5, 0.5)
    for curve in ("quantum", "bell", "stochastic"):
        hit = min(abs(a1 - 0.5) + abs(a2 - 0.5) for a1, a2 in by_curve[curve])
        assert hit < 1e-12

    # intercepts on the a2 axis
    bell_a2 = [a2 for a1, a2 in by_curve["bell"] if abs(a1) < 1e-12]
    quantum_a2 = [a2 for a1, a2 in by_curve["quantum"] if abs(a1) < 1e-12]
    assert bell_a2 and bell_a2[0] == pytest.approx(1 / SQ2, abs=1e-12)
    assert quantum_a2 and quantum_a2[0] == pytest.approx(1.0, abs=1e-12)


def test_figure3_needs_two_samples():
    with pytest.raises(StateError):
        figure3_boundaries(1)
