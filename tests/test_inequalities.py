"""Bell/CHSH quantities, bound classification, and the boundary curves."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprsim import (
    BellSettings,
    CatParams,
    CorrelationAmplitudes,
    OptimizerShortfall,
    StateError,
    bell_B,
    bell_max,
    cat_predictions,
    classify,
    figure3_boundaries,
    signal_amplitudes,
    split_cat,
)
from eprsim.inequalities import BOUND_TOL

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


@pytest.mark.parametrize("n", [4, 6])
def test_b_grid_is_the_maximum_of_every_grid_point(n):
    import itertools

    from eprsim import inequalities
    from eprsim.correlation import predict_E
    from eprsim.network import PhaseSetting

    rng = np.random.default_rng(40 + n)
    t = 2.0 * math.pi * np.arange(n) / n
    for _ in range(5):
        amps = pair(*rng.uniform(0.0, 0.7, 2), *rng.uniform(-3.0, 3.0, 2))
        e = amps.a1 * np.cos(t[:, None] - t[None, :] + amps.xi) + amps.a2 * np.cos(
            t[:, None] + t[None, :] + amps.zeta)
        for i, k in itertools.product(range(n), repeat=2):
            assert e[i, k] == pytest.approx(predict_E(amps, PhaseSetting(t[i], t[k])), abs=1e-15)
        # B = [E(t1, t2) + E(t1, t2')] + [E(t1', t2') - E(t1', t2)] at every (t1, t1', t2, t2')
        grid = max((e[i, k] + e[i, l]) + (e[ip, l] - e[ip, k])
                   for i, ip, k, l in itertools.product(range(n), repeat=4))
        assert inequalities._b_grid(amps, n) == grid


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


def _report(amps):
    """The report the CLI prints: classify given the pair's own Bell maximum."""
    return classify(amps, bell_max(amps).b_max)


phases = st.floats(-math.pi, math.pi)


@settings(max_examples=200, deadline=None)
@given(st.floats(-12.0, math.log10(0.5)), st.booleans(), phases, phases)
@example(-5.0, True, 0.0, 0.0)                      # circle excess 2e-10, B_max within 2 + BOUND_TOL
@example(math.log10(5.63e-8), False, 0.3, -1.2)     # the split cat at alpha 2
@example(math.log10(2.2e-5), True, 0.0, 0.0)        # circle excess 9.7e-10, B_max past 2 + BOUND_TOL
def test_on_the_epr_line_the_stochastic_bound_is_the_bell_bound(log_eps, above, xi, zeta):
    # A1 + A2 = 1 touches the Bell circle at (1/2, 1/2): any stochastic excess
    # there, however small, is a Bell violation
    eps = 10.0 ** log_eps
    a1 = 0.5 + eps if above else 0.5 - eps
    rep = _report(CorrelationAmplitudes(a1, 1.0 - a1, xi, zeta))
    assert rep.epr_boundary
    assert (rep.region == "bell-violating") == (rep.stochastic_margin < -BOUND_TOL)
    assert rep.bell_ok == (rep.region != "bell-violating")


def _off_line(excess):
    """A pair off the EPR line whose circle A1^2 + A2^2 exceeds 1/2 by ``excess``."""
    return CorrelationAmplitudes(0.3, math.sqrt(0.41 + excess), 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), phases, phases)
@example(0.3, math.sqrt(0.41 + 6e-10), 0.0, 0.0)
@example(0.3, math.sqrt(0.41 + 8e-10), 0.0, 0.0)
@example(0.3, math.sqrt(0.41 + 9.9e-10), 0.0, 0.0)
def test_bell_ok_and_region_give_one_bell_verdict(a1, a2, xi, zeta):
    rep = _report(CorrelationAmplitudes(a1, a2, xi, zeta))
    if rep.region != "unphysical":
        assert rep.bell_ok == (rep.region != "bell-violating")


@pytest.mark.parametrize("excess", [6e-10, 8e-10, 9.9e-10])
def test_a_circle_excess_inside_the_tolerance_is_local_on_both_fields(excess):
    # B_max = 2 sqrt(2 (1/2 + excess)) is about 2 + 2 excess, past 2 + BOUND_TOL,
    # but the pair is inside the circle's tolerance, and one test decides both
    rep = _report(_off_line(excess))
    assert not rep.epr_boundary
    assert rep.bell_margin == pytest.approx(-excess, rel=1e-6)
    assert rep.region == "nonclassical-local"
    assert rep.bell_ok


def test_weakly_violating_split_cats_are_bell_violating():
    # a2 - 1/2 = e^{-4 alpha^2} / 2 >= 1.9e-9 here, while the circle's excess
    # 2 (a2 - 1/2)^2 falls below 1e-9 from alpha 1.59 on
    for alpha in np.round(np.linspace(1.0, 2.2, 25), 2).tolist():
        params = CatParams(alpha, 0.0)
        pred = cat_predictions(params)
        amps = signal_amplitudes(split_cat(params))
        assert amps.a1 == pytest.approx(pred.a1, abs=1e-12)
        assert amps.a2 == pytest.approx(pred.a2, abs=1e-12)
        assert pred.a2 - 0.5 > BOUND_TOL
        rep = _report(amps)
        assert rep.stochastic_margin == pytest.approx(0.5 - pred.a2, rel=1e-3)
        assert rep.epr_boundary
        assert (alpha, rep.region, rep.bell_ok) == (alpha, "bell-violating", False)


def test_classify_ignores_the_bell_maximum_it_is_given():
    for b_max in (0.0, 2.0, 2.0 + 2e-9, 3.0, math.nan):
        assert classify(pair(0.2, 0.3), b_max) == classify(pair(0.2, 0.3), 1.2)
        assert classify(pair(0.0, 1.0), b_max).region == "bell-violating"


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 3.0, True, "3", None])
def test_figure3_sample_count_is_an_integer(bad):
    with pytest.raises(StateError, match="samples_per_curve must be an integer"):
        figure3_boundaries(bad)


def test_figure3_takes_numpy_integers():
    assert figure3_boundaries(np.int64(3)) == figure3_boundaries(3)


@pytest.mark.parametrize("field", ["theta1", "theta1p", "theta2", "theta2p"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
def test_bell_settings_must_be_finite(field, bad):
    values = {"theta1": 0.0, "theta1p": 1.0, "theta2": 0.5, "theta2p": -0.5, field: bad}
    with pytest.raises(StateError, match=f"{field} must be finite"):
        bell_B(pair(0.3, 0.6), BellSettings(**values))


@pytest.mark.parametrize("field", ["a1", "a2", "xi", "zeta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
def test_amplitude_fields_must_be_finite(field, bad):
    values = {"a1": 0.3, "a2": 0.2, "xi": 0.0, "zeta": 0.0, field: bad}
    with pytest.raises(StateError, match=f"{field} must be finite"):
        CorrelationAmplitudes(**values)
