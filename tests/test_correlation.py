"""Correlator tests: the two-cosine law, backend agreement, the A1+A2=1 test.

Random four-mode states are built directly from seeded amplitudes so the
checks cover generic inputs, not just the curated examples.
"""

import cmath
import math

import numpy as np
import pytest

from eprsim import (
    CorrelationAmplitudes,
    EprSimError,
    MixedState,
    ModeLayout,
    MultiModeState,
    PhaseSetting,
    StateError,
    ZeroCoincidence,
    amplitudes,
    correlation_E,
    epr_check,
    make_pure,
    output_correlators,
    predict_E,
    relabel,
    reorder,
    sinusoid_residual,
)
from eprsim import ZOO, classify, entangled, two_photon
from eprsim.correlation import GRID_BUDGET, _evolution_rates

STANDARD = ("a1", "b1", "a2", "b2")


def random_four_mode(rng, cutoff=2):
    """Dense random state over all occupations with total <= cutoff."""
    layout = ModeLayout(STANDARD, cutoff)
    terms = []
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1 - n1):
            for n3 in range(cutoff + 1 - n1 - n2):
                for n4 in range(cutoff + 1 - n1 - n2 - n3):
                    terms.append(((n1, n2, n3, n4), rng.normal() + 1j * rng.normal()))
    return make_pure(layout, terms)


def test_entangled_sum_gives_pure_phase_sum_cosine():
    s = entangled("sum")
    amps = amplitudes(s)
    assert amps.a1 == pytest.approx(0.0, abs=1e-14)
    assert amps.a2 == pytest.approx(1.0, abs=1e-14)
    for t1, t2 in [(0.0, 0.0), (0.3, 0.5), (1.0, -2.0), (math.pi, 0.25)]:
        e = correlation_E(s, PhaseSetting(t1, t2))
        assert e == pytest.approx(math.cos(t1 + t2), abs=1e-12)


def test_entangled_diff_gives_pure_phase_difference_cosine():
    s = entangled("diff")
    amps = amplitudes(s)
    assert amps.a1 == pytest.approx(1.0, abs=1e-14)
    assert amps.a2 == pytest.approx(0.0, abs=1e-14)
    e = correlation_E(s, PhaseSetting(0.7, 0.2))
    assert e == pytest.approx(math.cos(0.5), abs=1e-12)


def test_output_correlators_sum_rule():
    s = entangled("sum")
    out = output_correlators(s, PhaseSetting(0.4, 1.3))
    # one photon per station: the four coincidence rates exhaust the pairings
    assert out.total == pytest.approx(1.0, abs=1e-12)
    assert min(out.cc, out.cd, out.dc, out.dd) >= 0.0


def test_backends_agree_on_random_states():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        s = random_four_mode(rng)
        for _ in range(4):
            t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
            a = output_correlators(s, PhaseSetting(t1, t2), backend="expansion")
            b = output_correlators(s, PhaseSetting(t1, t2), backend="evolution")
            for x, y in zip((a.cc, a.cd, a.dc, a.dd), (b.cc, b.cd, b.dc, b.dd)):
                assert x == pytest.approx(y, abs=1e-12)


@pytest.mark.parametrize("n", [60, 80, 100, 120, 150, 200])
def test_backends_agree_in_high_photon_sectors(n):
    h = n // 2
    s = make_pure(ModeLayout(STANDARD, 2 * n),
                  [((h, n - h, h, n - h), 1.0), ((h + 1, n - h - 1, h - 1, n - h + 1), 1.0j)])
    for setting in (PhaseSetting(0.3, -0.9), PhaseSetting(1.7, 0.4)):
        a = output_correlators(s, setting, backend="expansion")
        b = output_correlators(s, setting, backend="evolution")
        gap = max(abs(x - y) for x, y in zip((a.cc, a.cd, a.dc, a.dd), (b.cc, b.cd, b.dc, b.dd)))
        assert gap <= 1e-12 * a.total


def test_backend_name_is_validated():
    with pytest.raises(StateError):
        output_correlators(entangled("sum"), PhaseSetting(0, 0), backend="exact")


def test_predicted_E_matches_network_E():
    rng = np.random.default_rng(99)
    s = random_four_mode(rng)
    amps = amplitudes(s)
    for _ in range(8):
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        setting = PhaseSetting(t1, t2)
        assert predict_E(amps, setting) == pytest.approx(
            correlation_E(s, setting), abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 4.5, 4.0, True, "4", None])
def test_sinusoid_grid_size_is_an_integer(bad):
    with pytest.raises(StateError, match="grid_size must be an integer"):
        sinusoid_residual(entangled("diff"), grid_size=bad)


@pytest.mark.parametrize("big", [GRID_BUDGET + 1, pytest.param(10**5000, id="10**5000")])
def test_sinusoid_grid_size_has_a_budget(big):
    with pytest.raises(StateError, match=f"grid_size <= {GRID_BUDGET}"):
        sinusoid_residual(entangled("diff"), grid_size=big)


def test_sinusoid_grid_size_takes_numpy_integers():
    s = entangled("diff")
    assert sinusoid_residual(s, grid_size=np.int64(5)) == sinusoid_residual(s, grid_size=5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_predict_E_refuses_a_non_finite_phase(bad):
    # predict_E at theta = inf used to raise a bare "math domain error"
    amps = CorrelationAmplitudes(0.3, 0.6, 0.1, 0.2)
    with pytest.raises(StateError, match="theta1 must be finite"):
        predict_E(amps, PhaseSetting(bad, 0.0))


def test_sinusoid_residual_options():
    s = entangled("diff")
    assert sinusoid_residual(s) < 1e-12
    assert sinusoid_residual(s, grid_size=4) < 1e-12
    with pytest.raises(StateError):
        sinusoid_residual(s, grid_size=3)
    # a wrong amplitude set must be detected by the grid
    bad = CorrelationAmplitudes(0.5, 0.5, 0.0, 0.0)
    assert sinusoid_residual(s, amps=bad) > 0.1


def test_global_phase_invariance():
    rng = np.random.default_rng(31)
    s = random_four_mode(rng)
    rotated = MultiModeState(
        s.layout, {occ: cmath.exp(0.77j) * a for occ, a in s.amplitudes().items()})
    a1 = amplitudes(s)
    a2 = amplitudes(rotated)
    assert a1.a1 == pytest.approx(a2.a1, abs=1e-12)
    assert a1.a2 == pytest.approx(a2.a2, abs=1e-12)
    assert a1.xi == pytest.approx(a2.xi, abs=1e-12)
    assert a1.zeta == pytest.approx(a2.zeta, abs=1e-12)


def test_station_swap_conjugates_the_difference_term():
    rng = np.random.default_rng(32)
    s = random_four_mode(rng)
    swapped = reorder(
        relabel(s, {"a1": "a2", "b1": "b2", "a2": "a1", "b2": "b1"}), STANDARD)
    a, b = amplitudes(s), amplitudes(swapped)
    assert b.a1 == pytest.approx(a.a1, abs=1e-12)
    assert b.a2 == pytest.approx(a.a2, abs=1e-12)
    assert b.xi == pytest.approx(-a.xi, abs=1e-12)
    assert b.zeta == pytest.approx(a.zeta, abs=1e-12)


def test_mixture_correlators_average():
    s1, s2 = entangled("sum"), entangled("diff")
    mix = MixedState(((0.25, s1), (0.75, s2)))
    setting = PhaseSetting(0.9, 0.4)
    o1 = output_correlators(s1, setting)
    o2 = output_correlators(s2, setting)
    om = output_correlators(mix, setting)
    assert om.cc == pytest.approx(0.25 * o1.cc + 0.75 * o2.cc, abs=1e-12)
    assert om.dd == pytest.approx(0.25 * o1.dd + 0.75 * o2.dd, abs=1e-12)
    am = amplitudes(mix)
    assert am.a1 == pytest.approx(0.75, abs=1e-12)
    assert am.a2 == pytest.approx(0.25, abs=1e-12)


def test_zero_coincidence_paths():
    layout = ModeLayout(STANDARD, 2)
    lonely = make_pure(layout, [((1, 0, 0, 0), 1.0)])
    with pytest.raises(ZeroCoincidence):
        amplitudes(lonely)
    with pytest.raises(ZeroCoincidence):
        correlation_E(lonely, PhaseSetting(0.0, 0.0))
    with pytest.raises(ZeroCoincidence):
        sinusoid_residual(lonely, amps=CorrelationAmplitudes(0.0, 0.0, 0.0, 0.0))


def test_layout_is_enforced():
    shuffled = reorder(entangled("sum"), ("b2", "b1", "a2", "a1"))
    with pytest.raises(StateError):
        amplitudes(shuffled)
    with pytest.raises(StateError):
        output_correlators(shuffled, PhaseSetting(0, 0))


def test_epr_check_on_perfectly_correlated_state():
    rep = epr_check(entangled("sum"))
    assert rep.is_epr
    assert rep.phases is not None and rep.witness is not None
    assert rep.phases.theta1 == pytest.approx(0.0, abs=1e-12)
    assert rep.phases.theta2 == pytest.approx(0.0, abs=1e-12)
    # matched phases kill the cross coincidences
    assert rep.witness.cd == pytest.approx(0.0, abs=1e-12)
    assert rep.witness.dc == pytest.approx(0.0, abs=1e-12)
    assert rep.witness.cc + rep.witness.dd == pytest.approx(rep.witness.total, abs=1e-12)


@pytest.mark.parametrize("variant", ["sum", "diff"])
@pytest.mark.parametrize("at", [0, 2])
def test_witness_zeros_stay_exact_inside_a_run_of_settings(variant, at):
    # in a run of equal theta1, every setting after the first is turned from the first's phases
    state = entangled(variant)
    phases = epr_check(state).phases
    theta2 = [phases.theta2 + 0.7, phases.theta2 - 1.9]
    theta2.insert(at, phases.theta2)
    rates = _evolution_rates(state, np.full(3, phases.theta1), np.array(theta2))
    assert rates[1, at] == 0.0 and rates[2, at] == 0.0
    assert rates[0, at] + rates[3, at] > 0.0


def test_epr_check_tracks_interference_phases():
    # rotate the paired component: M2 picks up the phase, matched settings move
    layout = ModeLayout(STANDARD, 2)
    chi = 0.61
    s = make_pure(layout, [((1, 0, 1, 0), 1.0), ((0, 1, 0, 1), cmath.exp(1j * chi))])
    rep = epr_check(s)
    assert rep.is_epr
    assert rep.amplitudes.zeta == pytest.approx(chi, abs=1e-12)
    assert rep.phases.theta1 + rep.phases.theta2 == pytest.approx(-chi, abs=1e-12)
    e = correlation_E(s, rep.phases, backend="evolution")
    assert e == pytest.approx(1.0, abs=1e-12)


def test_epr_check_negative_case():
    rng = np.random.default_rng(64)
    s = random_four_mode(rng)
    rep = epr_check(s)
    assert not rep.is_epr
    assert rep.phases is None and rep.witness is None


def test_anticorrelation_phases():
    # shifting theta1 by pi from the matched choice flips both cosines
    s = entangled("diff")
    rep = epr_check(s)
    anti = PhaseSetting(rep.phases.theta1 + math.pi, rep.phases.theta2)
    out = output_correlators(s, anti, backend="evolution")
    assert out.E() == pytest.approx(-1.0, abs=1e-12)
    assert out.cc == pytest.approx(0.0, abs=1e-12)
    assert out.dd == pytest.approx(0.0, abs=1e-12)


def test_two_photon_state_is_epr():
    rep = epr_check(two_photon())
    assert rep.is_epr
    assert rep.amplitudes.a1 == pytest.approx(1.0, abs=1e-14)
    assert rep.amplitudes.a2 == pytest.approx(0.0, abs=1e-14)


def test_correlator_values_against_hand_expansion():
    # |1,1,0,0>: both photons in station 1, none in station 2 -> no coincidences
    layout = ModeLayout(STANDARD, 2)
    s = make_pure(layout, [((1, 1, 0, 0), 1.0)])
    with pytest.raises(ZeroCoincidence):
        amplitudes(s)
    # |1,0,1,0>: one photon per station, no b-arm amplitude -> flat E = 0
    s2 = make_pure(layout, [((1, 0, 1, 0), 1.0)])
    out = output_correlators(s2, PhaseSetting(0.3, 0.8))
    assert out.cc == pytest.approx(0.25, abs=1e-12)
    assert out.cd == pytest.approx(0.25, abs=1e-12)
    assert out.dc == pytest.approx(0.25, abs=1e-12)
    assert out.dd == pytest.approx(0.25, abs=1e-12)
    assert correlation_E(s2, PhaseSetting(0.3, 0.8)) == pytest.approx(0.0, abs=1e-12)


def test_clip_rate_fails_on_nan():
    from eprsim.correlation import _clip_rate

    assert _clip_rate(-1e-13, "cc") == 0.0
    with pytest.raises(EprSimError):
        _clip_rate(math.nan, "cc")


@pytest.mark.parametrize("name", ["entangled-sum", "entangled-diff", "two-photon"])
def test_epr_check_and_classify_make_one_epr_decision(name):
    state = ZOO[name]()
    assert epr_check(state).is_epr == classify(amplitudes(state)).epr_boundary


def test_clip_rate_scales_with_the_coincidence_total():
    from eprsim.correlation import _clip_rate

    # roundoff-sized negatives at a large total rate are clipped
    assert _clip_rate(-1e-9, "cc", total=1e6) == 0.0
    assert _clip_rate(-1e-13, "cd", total=1.0) == 0.0
    # a real negative rate, or NaN, still raises at any total
    with pytest.raises(EprSimError):
        _clip_rate(-1e-3, "dc", total=1e6)
    with pytest.raises(EprSimError):
        _clip_rate(-1e-9, "dc", total=1.0)
    with pytest.raises(EprSimError):
        _clip_rate(math.nan, "dd", total=1e6)
    with pytest.raises(EprSimError):
        _clip_rate(0.0, "dd", total=math.nan)


def test_evolution_backend_never_evaluates_input_moments(monkeypatch):
    import eprsim.correlation as correlation
    import eprsim.fock as fock
    from eprsim import LOConfig, coherent_pair, homodyne_network_state

    lo_state = homodyne_network_state(coherent_pair(0.5, 0.5), LOConfig(0.5, 0.5))
    mixed = MixedState(((0.3, entangled("sum")), (0.7, random_four_mode(np.random.default_rng(8)))))
    cases = [(state, amplitudes(state)) for state in (lo_state, mixed)]
    setting = PhaseSetting(0.4, -1.1)
    expected = [output_correlators(state, setting, backend="expansion") for state, _ in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the evolution backend evaluated an input moment")

    monkeypatch.setattr(fock, "normal_moment", forbidden)
    monkeypatch.setattr(correlation, "normal_moment", forbidden, raising=False)
    monkeypatch.setattr(correlation, "_station_moments", forbidden)
    for (state, amps), want in zip(cases, expected):
        got = output_correlators(state, setting, backend="evolution")
        for x, y in zip((got.cc, got.cd, got.dc, got.dd), (want.cc, want.cd, want.dc, want.dd)):
            assert x == pytest.approx(y, abs=1e-12)
        assert sinusoid_residual(state, grid_size=4, amps=amps) < 1e-12


def test_evolution_backend_never_calls_the_partner_ket_kernel(monkeypatch):
    import eprsim.correlation as correlation
    import eprsim.fock as fock
    from eprsim import LOConfig, coherent_pair, homodyne_network_state

    lo_state = homodyne_network_state(coherent_pair(0.5, 0.5), LOConfig(0.5, 0.5))
    mixed = MixedState(((0.3, entangled("sum")), (0.7, random_four_mode(np.random.default_rng(8)))))
    cases = [(state, amplitudes(state)) for state in (lo_state, mixed)]
    setting = PhaseSetting(0.4, -1.1)
    expected = [output_correlators(state, setting, backend="expansion") for state, _ in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the evolution backend searched for a partner ket")

    monkeypatch.setattr(fock, "_partners", forbidden)
    monkeypatch.setattr(correlation, "_partners", forbidden)
    monkeypatch.setattr(correlation, "_PLAN_KEPT", (None, None, None))
    # the expansion backend does reach the patched kernel on a state whose moments are not yet kept
    with pytest.raises(AssertionError, match="partner ket"):
        output_correlators(fock.relabel(lo_state, {}), setting, backend="expansion")
    for (state, amps), want in zip(cases, expected):
        got = output_correlators(state, setting, backend="evolution")
        for x, y in zip((got.cc, got.cd, got.dc, got.dd), (want.cc, want.cd, want.dc, want.dd)):
            assert x == pytest.approx(y, abs=1e-12)
        assert sinusoid_residual(state, grid_size=4, amps=amps) < 1e-12


def test_evolution_backend_never_sorts_or_searches(monkeypatch):
    import eprsim.network as network
    from eprsim import LOConfig, coherent_pair, homodyne_network_state

    lo_state = homodyne_network_state(coherent_pair(0.5, 0.5), LOConfig(0.5, 0.5))
    mixed = MixedState(((0.3, entangled("sum")), (0.7, random_four_mode(np.random.default_rng(8)))))
    cases = [(state, amplitudes(state)) for state in (lo_state, mixed, entangled("sum"))]
    setting = PhaseSetting(0.4, -1.1)
    expected = [output_correlators(state, setting, backend="expansion") for state, _ in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the evolution backend sorted or searched")

    for name in ("unique", "argsort", "searchsorted", "sort", "lexsort"):
        monkeypatch.setattr(np, name, forbidden)
    # the stored-state splitter sorts its outputs, so it does reach the patches
    with pytest.raises(AssertionError, match="sorted or searched"):
        network.beamsplitter(lo_state, "a1", "b1")
    for (state, amps), want in zip(cases, expected):
        got = output_correlators(state, setting, backend="evolution")
        assert [got.cc, got.cd, got.dc, got.dd] == pytest.approx(
            [want.cc, want.cd, want.dc, want.dd], abs=1e-12)
        assert sinusoid_residual(state, grid_size=4, amps=amps) < 1e-12
    # a cancelled coincidence reads exactly 0, at the phases of the EPR test
    state, amps = cases[2]
    phases = PhaseSetting(-(amps.xi + amps.zeta) / 2.0, (amps.xi - amps.zeta) / 2.0)
    assert output_correlators(state, phases, backend="evolution").cd == 0.0


def test_evolution_layout_grows_with_the_occupied_sectors_not_the_cutoff():
    import tracemalloc

    layout = ModeLayout(STANDARD, 30_000)
    wide_sum = make_pure(layout, [((1, 0, 1, 0), 1.0), ((0, 1, 0, 1), 1.0)])
    far_pairs = make_pure(layout, [((40, 0, 1, 0), 1.0), ((0, 1, 0, 40), 1.0j)])
    setting = PhaseSetting(0.4, -1.1)
    tracemalloc.start()
    try:
        report = epr_check(wide_sum)
        got = [output_correlators(s, setting, backend="evolution") for s in (wide_sum, far_pairs)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a grid over the cutoff would take (30 001)^2 entries per array
    assert peak < 2_000_000
    assert report.is_epr and report.witness == epr_check(entangled("sum")).witness
    for state, rates in zip((entangled("sum"), far_pairs), got):
        want = output_correlators(state, setting, backend="expansion")
        assert [rates.cc, rates.cd, rates.dc, rates.dd] == pytest.approx(
            [want.cc, want.cd, want.dc, want.dd], abs=1e-12)


def test_evolution_settings_blocks_stay_within_the_byte_budget():
    import tracemalloc

    import eprsim.correlation as correlation
    from eprsim import LOConfig, coherent_pair, homodyne_network_state, optimal_lo

    signal = coherent_pair(1.0, 1.0, 18)
    state = homodyne_network_state(signal, LOConfig(*optimal_lo(signal)), lo_cutoff=18)
    assert len(state.amplitudes()) == 36_032
    peaks = []
    # one setting, 64 runs of one setting, and one run of 64 settings at one theta1
    for theta1, theta2 in ((np.array([0.4]), np.array([-0.4])),
                           (np.linspace(-3.0, 3.0, 64), np.linspace(3.0, -3.0, 64)),
                           (np.full(64, 0.7), np.linspace(-3.0, 3.0, 64))):
        tracemalloc.start()
        try:
            correlation._evolution_rates(state, theta1, theta2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 16-setting blocks of this state's 90 680 rows held 23 MB per buffer
    assert peaks[1] - peaks[0] <= 2 * correlation.BLOCK_BYTES
    assert peaks[2] - peaks[0] <= 2 * correlation.BLOCK_BYTES


@pytest.mark.parametrize("alpha", [None, 0.5], ids=["coherent+lo", "split-cat+lo"])
def test_residual_grid_rates_match_one_setting_calls(monkeypatch, alpha):
    """sinusoid_residual's 4 x 4 grid, four runs of one theta1, on the coherent
    pair and the alpha = 0.5 split cat with local oscillators, against one call
    per setting."""
    import eprsim.correlation as correlation
    from eprsim import CatParams, LOConfig, coherent_pair, homodyne_network_state, optimal_lo, split_cat

    if alpha is None:
        signal, lo_cutoff = coherent_pair(1.0, 1.0, 18), 18
    else:
        signal, lo_cutoff = split_cat(CatParams(alpha, 0.0)), None
    state = homodyne_network_state(signal, LOConfig(*optimal_lo(signal)), lo_cutoff=lo_cutoff)
    calls = []
    evolve = correlation._evolution_rates

    def logged(state, theta1, theta2):
        calls.append((theta1, theta2, evolve(state, theta1, theta2)))
        return calls[-1][2]

    monkeypatch.setattr(correlation, "_evolution_rates", logged)
    assert sinusoid_residual(state, grid_size=4) <= 1e-9
    [(theta1, theta2, grid)] = calls
    assert grid.shape == (4, 16) and len(set(theta1.tolist())) == 4
    for k in range(16):
        one = evolve(state, theta1[k:k + 1], theta2[k:k + 1])[:, 0]
        assert np.all(np.abs(grid[:, k] - one) <= 1e-12 * one.sum()), (k, grid[:, k], one)


def test_evolution_layout_has_no_weight_per_row():
    import tracemalloc

    import eprsim.correlation as correlation
    from eprsim import LOConfig, coherent_pair, homodyne_network_state, optimal_lo

    signal = coherent_pair(1.0, 1.0, 18)
    state = homodyne_network_state(signal, LOConfig(*optimal_lo(signal)), lo_cutoff=18)
    rows = correlation._station_layout(state._occ).order.shape[0]
    assert rows == 89_491
    peaks = []
    for call in (lambda: correlation._station_layout(state._occ),
                 lambda: output_correlators(state, PhaseSetting(0.4, -1.1), backend="evolution")):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # four weights, (c1, d1) and (c2, d2) per row made both about 94 B per row
    assert peaks[0] <= 48 * rows
    assert peaks[1] <= 64 * rows


def _count_partner_sums(monkeypatch):
    """Empty the kept moment plan and patch the correlation module's
    partner-ket search to log each call."""
    import eprsim.correlation as correlation

    calls = []
    search = correlation._partners

    def counted(state, delta, weight):
        calls.append(delta)
        return search(state, delta, weight)

    monkeypatch.setattr(correlation, "_PLAN_KEPT", (None, None, None))
    monkeypatch.setattr(correlation, "_partners", counted)
    return calls


def test_a_state_makes_one_moment_pass(monkeypatch):
    from eprsim import LOConfig, coherent_pair, homodyne_network_state, optimal_lo

    signal = coherent_pair(1.0, 1.0, 18)
    state = homodyne_network_state(signal, LOConfig(*optimal_lo(signal)), lo_cutoff=18)
    calls = _count_partner_sums(monkeypatch)
    amps = amplitudes(state)
    report = epr_check(state)
    for t in (-2.0, -0.5, 0.3, 1.9):
        output_correlators(state, PhaseSetting(t, 1.1 - t), backend="expansion")
    # m1, m2, s1d2 and d1s2 of one pass; ss is a diagonal sum
    assert len(calls) == 4
    assert report.is_epr and report.amplitudes == amps


def test_kept_moments_die_with_their_state():
    import gc
    import weakref

    import eprsim.correlation as correlation

    kept = correlation._MOMENTS_KEPT
    gc.collect()
    before = len(kept)    # states that earlier tests still hold
    state = relabel(entangled("sum"), {})
    amplitudes(state)
    assert state in kept and len(kept) == before + 1
    ref = weakref.ref(state)
    del state
    gc.collect()
    assert ref() is None
    assert len(kept) == before


def test_a_mixture_keeps_each_components_moments(monkeypatch):
    import eprsim.correlation as correlation

    parts = (entangled("sum"), random_four_mode(np.random.default_rng(8)),
             random_four_mode(np.random.default_rng(9)))

    def mixture():
        return MixedState(tuple(zip((0.2, 0.3, 0.5), (relabel(s, {}) for s in parts))))

    mixed, fresh = mixture(), mixture()
    calls = _count_partner_sums(monkeypatch)
    amplitudes(mixed)
    epr_check(mixed)
    for t in (-2.0, 0.3):
        output_correlators(mixed, PhaseSetting(t, 1.1 - t), backend="expansion")
    # the two random parts share one support: the first searches with a plan it
    # does not keep, and the second searches again and keeps its plan
    assert len(calls) == 4 * len(parts)
    kept = correlation._moment_vector(mixed)
    assert kept.tobytes() == correlation._moment_vector(fresh).tobytes()
    assert len(calls) == 8 * len(parts)


def _count_plan_builds(monkeypatch):
    """Empty the kept moment plan and patch its builder to log each build."""
    import eprsim.correlation as correlation

    builds = []
    build = correlation._moment_plan

    def counted(state):
        builds.append(state.n_terms)
        return build(state)

    monkeypatch.setattr(correlation, "_PLAN_KEPT", (None, None, None))
    monkeypatch.setattr(correlation, "_moment_plan", counted)
    return builds


def _fresh_plan_moments(monkeypatch, state):
    """The moment vector of a new copy of ``state`` with a moment plan searched
    for every pure state, as before the plan was kept."""
    import eprsim.correlation as correlation

    copy = (MixedState(tuple((w, relabel(s, {})) for w, s in state.components))
            if isinstance(state, MixedState) else relabel(state, {}))
    with monkeypatch.context() as m:
        m.setattr(correlation, "_kept", lambda entry, s, build: (None, None, build()))
        return correlation._moment_vector(copy)


def test_kept_plan_moments_match_a_fresh_search(monkeypatch):
    import eprsim.correlation as correlation

    rng = np.random.default_rng(11)
    scan = [random_four_mode(rng, cutoff=3) for _ in range(8)]
    mixtures = [MixedState(((0.4, scan[0]), (0.6, scan[1]))),
                MixedState(((0.2, scan[2]), (0.5, random_four_mode(rng, cutoff=3)), (0.3, scan[3])))]
    want = [_fresh_plan_moments(monkeypatch, s).tobytes() for s in scan + mixtures]
    builds = _count_plan_builds(monkeypatch)
    got = [correlation._moment_vector(s).tobytes() for s in scan + mixtures]
    # the first state's plan is not kept; the second state's is, and the rest read it
    assert builds == [35, 35] and got == want
    # equal packed keys at another cutoff are another support, with another plan
    pairs = [
        (make_pure(ModeLayout(STANDARD, 1), [((0, 0, 1, 0), 1.0)]),
         make_pure(ModeLayout(STANDARD, 2), [((0, 0, 0, 2), 1.0)])),
        (make_pure(ModeLayout(STANDARD, 2), [((1, 0, 0, 1), 1.0), ((1, 0, 1, 0), 1.0j)]),
         make_pure(ModeLayout(STANDARD, 4), [((0, 1, 0, 3), 1.0), ((0, 1, 1, 0), 1.0j)])),
    ]
    for first, second in pairs:
        assert np.array_equal(first._keys, second._keys)
        want = [_fresh_plan_moments(monkeypatch, s).tobytes() for s in (first, second)]
        builds = _count_plan_builds(monkeypatch)
        assert [correlation._moment_vector(s).tobytes() for s in (first, second)] == want
        assert builds == [first.n_terms, second.n_terms]
    # the last pair's moments differ, so a shared plan would show in them
    assert want[0] != want[1]


def test_one_moment_plan_per_support(monkeypatch):
    builds = _count_plan_builds(monkeypatch)
    rng = np.random.default_rng(4)
    for _ in range(40):
        state = random_four_mode(rng, cutoff=3)
        assert state.n_terms == 35
        epr_check(state)
        output_correlators(state, PhaseSetting(0.4, -1.1), backend="expansion")
    # one build for the first state, one kept from the second
    assert builds == [35, 35]


def test_supports_that_take_turns_keep_no_plan(monkeypatch):
    import eprsim.correlation as correlation
    from eprsim import LOConfig, coherent_pair, homodyne_network_state

    # three supports in turn, as lo-network visits its three LO states
    rng = np.random.default_rng(12)
    states = [homodyne_network_state(coherent_pair(0.5, 0.5), LOConfig(0.5, 0.5)),
              random_four_mode(rng), random_four_mode(rng, cutoff=3)]
    assert len({s.n_terms for s in states}) == 3
    want = [_fresh_plan_moments(monkeypatch, s).tobytes() for s in states]
    builds = _count_plan_builds(monkeypatch)
    for _ in range(3):
        for state, w in zip(states, want):
            assert correlation._moment_vector(relabel(state, {})).tobytes() == w
            assert correlation._PLAN_KEPT[2] is None
    assert builds == [s.n_terms for s in states] * 3
    # a second state of the last support keeps its plan, and a third reads it
    for _ in range(2):
        assert correlation._moment_vector(relabel(states[2], {})).tobytes() == want[2]
        assert correlation._PLAN_KEPT[2] is not None
    assert builds == [s.n_terms for s in states] * 3 + [states[2].n_terms]


def test_kept_plan_keeps_no_state_alive_and_is_read_only(monkeypatch):
    import gc
    import weakref

    import eprsim.correlation as correlation

    builds = _count_plan_builds(monkeypatch)
    state = relabel(random_four_mode(np.random.default_rng(5)), {})
    # a second state of the support keeps the plan
    amplitudes(state)
    amplitudes(relabel(state, {}))
    assert builds == [state.n_terms] * 2 and correlation._PLAN_KEPT[1] is state._keys
    s1, s2, *pairs = correlation._PLAN_KEPT[2]
    assert len(pairs) == 4
    for value in (s1, s2, *(a for p in pairs for a in p)):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
    ref = weakref.ref(state)
    del state
    gc.collect()
    assert ref() is None


def test_evolution_layout_has_rows_only_for_kets_at_both_stations():
    """A ket with no photon at one station adds 0 to every rate, so it gets no row."""
    import eprsim.correlation as correlation

    state = make_pure(ModeLayout(STANDARD, 2), [((1, 0, 0, 0), 1.0), ((1, 0, 1, 0), 1.0), ((0, 0, 1, 1), 1.0)])
    lay = correlation._station_layout(state._occ)
    both = state._occ.tolist().index([1, 0, 1, 0])
    # station 1 holds the groups (n2, a2) = (1, 0) and (1, 1) of sector n1 = 1; the other rows are zero
    assert lay.station1 == ((1, 0, 2),) and lay.station2 == ((1, 0, 2),)
    assert lay.kets.tolist() == [both] and lay.order.shape == (4,)
    setting = PhaseSetting(0.4, -1.1)
    got, want = (output_correlators(state, setting, backend=b) for b in ("evolution", "expansion"))
    assert [got.cc, got.cd, got.dc, got.dd] == pytest.approx([want.cc, want.cd, want.dc, want.dd], abs=1e-15)
    # a dense cutoff-3 scan state: its 16 kets at both stations fill the sector pairs
    # (1, 1), (1, 2) and (2, 1), row for row, in sectors n = 1, 2 at each station
    occ = random_four_mode(np.random.default_rng(8), cutoff=3)._occ
    lay = correlation._station_layout(occ)
    n1, n2 = occ[:, :2].sum(1), occ[:, 2:].sum(1)
    assert lay.kets.tolist() == ((n1 > 0) & (n2 > 0)).nonzero()[0].tolist()
    assert lay.order.shape == (16,) and [n for n, _, _ in lay.station1 + lay.station2] == [1, 2, 1, 2]
    assert lay.nb.shape == (2, 16) and sorted(lay.rows.tolist()) == list(range(16))


def test_no_ket_at_both_stations_gives_an_empty_layout_and_zero_rates(monkeypatch):
    import eprsim.correlation as correlation

    state = make_pure(ModeLayout(STANDARD, 2), [((1, 0, 0, 0), 1.0), ((0, 0, 1, 1), 1.0j), ((0, 2, 0, 0), 0.5)])
    lay = correlation._station_layout(state._occ)
    assert lay.kets.shape == lay.rows.shape == lay.order.shape == (0,) and lay.station1 == lay.station2 == ()
    # one setting, then runs of one theta1 in one chunk each, then a setting per chunk
    theta1, theta2 = np.array([0.3, 0.3, 0.3, -1.0, 2.0, 2.0]), np.linspace(-3.0, 3.0, 6)
    for t1, t2 in ((theta1[:1], theta2[:1]), (theta1, theta2)):
        assert _evolution_rates(state, t1, t2).tolist() == [[0.0] * t1.shape[0]] * 4
    monkeypatch.setattr(correlation, "BLOCK_BYTES", 1)
    assert _evolution_rates(state, theta1, theta2).tolist() == [[0.0] * 6] * 4
    for backend in ("evolution", "expansion"):
        rates = output_correlators(state, PhaseSetting(0.4, -1.1), backend=backend)
        assert rates.total == 0.0
        with pytest.raises(ZeroCoincidence):
            rates.E()


def _count_layout_builds(monkeypatch):
    """Empty the kept station layout and patch its builder to log each build."""
    import eprsim.correlation as correlation

    builds = []
    build = correlation._station_layout

    def counted(occ):
        builds.append(occ.shape[0])
        return build(occ)

    monkeypatch.setattr(correlation, "_LAYOUT_KEPT", (None, None, None))
    monkeypatch.setattr(correlation, "_station_layout", counted)
    return builds


def _fresh_layout_rates(monkeypatch, state, theta1, theta2):
    """Evolution rates with a layout built for every call, as before the layout was kept."""
    import eprsim.correlation as correlation

    with monkeypatch.context() as m:
        m.setattr(correlation, "_kept_layout", lambda s: correlation._station_layout(s._occ))
        return correlation._evolution_rates(state, theta1, theta2)


def test_one_layout_build_per_support(monkeypatch):
    a, b = entangled("sum"), random_four_mode(np.random.default_rng(3))
    setting = PhaseSetting(0.4, -1.1)
    builds = _count_layout_builds(monkeypatch)
    for state in (a, a, b, a):
        output_correlators(state, setting, backend="evolution")
    assert len(builds) == 3
    # distinct states on one support share its layout
    builds.clear()
    rng = np.random.default_rng(4)
    for _ in range(40):
        state = random_four_mode(rng, cutoff=3)
        assert state.n_terms == 35
        epr_check(state)
        output_correlators(state, setting, backend="evolution")
    assert builds == [35]


def test_equal_keys_at_another_cutoff_get_their_own_layout(monkeypatch):
    import eprsim.correlation as correlation

    theta1, theta2 = np.linspace(-2.0, 2.0, 5), np.linspace(1.0, -3.0, 5)
    pairs = [
        # key 2 at both cutoffs
        (make_pure(ModeLayout(STANDARD, 1), [((0, 0, 1, 0), 1.0)]),
         make_pure(ModeLayout(STANDARD, 2), [((0, 0, 0, 2), 1.0)])),
        # keys 28 and 30 at both cutoffs, with coincidences at both stations
        (make_pure(ModeLayout(STANDARD, 2), [((1, 0, 0, 1), 1.0), ((1, 0, 1, 0), 1.0j)]),
         make_pure(ModeLayout(STANDARD, 4), [((0, 1, 0, 3), 1.0), ((0, 1, 1, 0), 1.0j)])),
    ]
    for first, second in pairs:
        assert np.array_equal(first._keys, second._keys)
        want = [_fresh_layout_rates(monkeypatch, s, theta1, theta2) for s in (first, second)]
        builds = _count_layout_builds(monkeypatch)
        got = [correlation._evolution_rates(s, theta1, theta2) for s in (first, second)]
        assert builds == [first.n_terms, second.n_terms]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    # the rates of the last pair are not all 0, so a shared layout would show in them
    assert np.any(got[1] != 0.0)


def test_kept_layout_keeps_no_state_alive(monkeypatch):
    import gc
    import weakref

    import eprsim.correlation as correlation

    builds = _count_layout_builds(monkeypatch)
    state = relabel(entangled("sum"), {})
    output_correlators(state, PhaseSetting(0.4, -1.1), backend="evolution")
    assert builds == [state.n_terms] and correlation._LAYOUT_KEPT[1] is state._keys
    ref = weakref.ref(state)
    del state
    gc.collect()
    assert ref() is None


def test_kept_layout_arrays_are_read_only(monkeypatch):
    import eprsim.correlation as correlation

    _count_layout_builds(monkeypatch)
    state = random_four_mode(np.random.default_rng(5))
    lay = correlation._kept_layout(state)
    assert correlation._kept_layout(state) is lay
    for name in ("kets", "rows", "order", "cd1", "cd2", "nb"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lay, name)[...] = 0


def test_mixture_rates_match_a_layout_built_per_call(monkeypatch):
    import eprsim.correlation as correlation

    rng = np.random.default_rng(6)
    sparse = make_pure(ModeLayout(STANDARD, 2), [((1, 0, 0, 1), 1.0), ((0, 1, 1, 0), 0.5j)])
    mixed = MixedState(((0.3, entangled("sum")), (0.5, random_four_mode(rng)), (0.2, sparse)))
    theta1, theta2 = rng.uniform(-3.0, 3.0, 9), rng.uniform(-3.0, 3.0, 9)
    want = _fresh_layout_rates(monkeypatch, mixed, theta1, theta2)
    _count_layout_builds(monkeypatch)
    for _ in range(2):
        assert correlation._evolution_rates(mixed, theta1, theta2).tobytes() == want.tobytes()


def test_threads_never_read_a_mixed_kept_layout():
    import sys
    import threading

    import eprsim.correlation as correlation

    rng = np.random.default_rng(7)
    states = [entangled("sum"), random_four_mode(rng), random_four_mode(rng, cutoff=3)]
    theta1, theta2 = rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 3)
    want = [correlation._evolution_rates(s, theta1, theta2).tobytes() for s in states]
    moments = [correlation._moment_vector(s).tobytes() for s in states]
    wrong = []

    def work(offset):
        for i in range(60):
            k = (i + offset) % len(states)
            if correlation._evolution_rates(states[k], theta1, theta2).tobytes() != want[k]:
                wrong.append(k)
            # a new copy's moments are not kept yet; two copies back to back replace
            # a key-only entry with a kept plan while the supports take turns
            for _ in range(2):
                if correlation._moment_vector(relabel(states[k], {})).tobytes() != moments[k]:
                    wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_kept_layout_gathers_copy_no_index(monkeypatch):
    import tracemalloc

    import eprsim.correlation as correlation
    from eprsim import LOConfig, coherent_pair, homodyne_network_state, optimal_lo

    signal = coherent_pair(1.0, 1.0, 18)
    state = homodyne_network_state(signal, LOConfig(*optimal_lo(signal)), lo_cutoff=18)
    builds = _count_layout_builds(monkeypatch)
    theta = np.array([0.4])
    correlation._evolution_rates(state, theta, -theta)
    lay = correlation._kept_layout(state)
    rows = lay.order.shape[0]
    assert builds == [36_032] and rows == 89_491
    tracemalloc.start()
    try:
        correlation._evolution_rates(state, theta, -theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the peak is the station-1 column beside the phased kets, 16 B per row and
    # per ket; station 2 gathers one sector at a time, never all rows at once
    assert peak <= 36 * rows
    # every gather, per laid-out ket and per station-2 sector, indexes with a
    # writable contiguous array: a run of 3 settings at one theta1, then one more
    indices = []
    take = np.take

    def spy(a, index, *args, **kwargs):
        indices.append(index)
        return take(a, index, *args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    theta1 = np.array([0.4, 0.4, 0.4, -1.0])
    correlation._evolution_rates(state, theta1, np.linspace(-3.0, 3.0, 4))
    for index in indices:
        assert index.flags.writeable and index.flags.c_contiguous
    # per run: the two phase tables per laid-out ket and one slice of the
    # station-2 rows per sector, all from the layout's owners; station 1 gathers nothing
    sectors = len(lay.station2)
    assert len(indices) == 2 * (2 + sectors)
    for run in (indices[:2 + sectors], indices[2 + sectors:]):
        assert run[0].base is run[1].base is lay.nb.base
        assert np.array_equal(run[0], state._occ[lay.kets, 1]) and np.array_equal(run[1], state._occ[lay.kets, 3])
        assert all(index.base is lay.order.base for index in run[2:])
        assert sum(index.shape[0] for index in run[2:]) == rows
