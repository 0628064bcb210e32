"""Coherence functions, oscillator optimization, and the embedding theorem.

The central consistency check: mixing each signal arm with its optimal
local oscillator and extracting (A1, A2) from the four-mode correlators
reproduces the closed-form amplitudes computed from (g11, g20, g22) alone.
"""

import cmath
import math

import numpy as np
import pytest

from eprsim import (
    CatParams,
    DegenerateLO,
    LOConfig,
    ModeLayout,
    StateError,
    ZeroIntensity,
    amplitudes,
    amplitudes_from_g,
    coherence_functions,
    coherent_pair,
    homodyne_network_state,
    make_pure,
    normal_moment,
    optimal_lo,
    split_cat,
    split_single_photon,
    vacuum,
)
from eprsim.correlation import _station_moments


def brute_g(state):
    """Coherence functions by direct dense contraction over the amplitudes."""
    amp = state.amplitudes()
    n1 = n2 = nn = 0.0
    g11 = g20 = 0.0 + 0.0j
    for (m1, m2), a in amp.items():
        p = abs(a) ** 2
        n1 += m1 * p
        n2 += m2 * p
        nn += m1 * m2 * p
        # <a1^dag a2>: bra has (m1+1, m2-1)
        if m2 >= 1:
            b = amp.get((m1 + 1, m2 - 1))
            if b is not None:
                g11 += np.conj(b) * math.sqrt((m1 + 1) * m2) * a
        # <a1^dag a2^dag>: bra has (m1+1, m2+1)
        b = amp.get((m1 + 1, m2 + 1))
        if b is not None:
            g20 += np.conj(b) * math.sqrt((m1 + 1) * (m2 + 1)) * a
    g22 = 0.0
    for (m1, m2), a in amp.items():
        g22 += m1 * m2 * abs(a) ** 2
    return (g11 / math.sqrt(n1 * n2),
            g20 / math.sqrt(n1 * n2),
            nn / (n1 * n2))


def test_coherence_functions_against_brute_force():
    rng = np.random.default_rng(88)
    layout = ModeLayout(("a1", "a2"), 6)
    terms = [((i, j), rng.normal() + 1j * rng.normal())
             for i in range(4) for j in range(4)]
    s = make_pure(layout, terms)
    g = coherence_functions(s)
    b11, b20, b22 = brute_g(s)
    assert g.g11 == pytest.approx(b11, abs=1e-12)
    assert g.g20 == pytest.approx(b20, abs=1e-12)
    assert g.g22 == pytest.approx(b22, abs=1e-12)


def test_coherent_pair_coherences():
    s = coherent_pair(1.0, 1.0)
    g = coherence_functions(s)
    assert g.g11 == pytest.approx(1.0, abs=1e-9)
    assert g.g20 == pytest.approx(1.0, abs=1e-9)
    assert g.g22 == pytest.approx(1.0, abs=1e-9)
    a1, a2 = amplitudes_from_g(g)
    assert a1 == pytest.approx(0.5, abs=1e-9)
    assert a2 == pytest.approx(0.5, abs=1e-9)


def test_split_photon_coherences_are_exact():
    g = coherence_functions(split_single_photon())
    assert g.g11 == 1.0 + 0.0j
    assert g.g20 == 0.0 + 0.0j
    assert g.g22 == 0.0
    a1, a2 = amplitudes_from_g(g)
    assert a1 == 1.0
    assert a2 == 0.0


def test_amplitudes_from_g_closed_forms():
    from eprsim.homodyne import CoherenceFunctions

    a1, a2 = amplitudes_from_g(CoherenceFunctions(1.0, 1.0, 1.0))
    assert (a1, a2) == (0.5, 0.5)
    a1, a2 = amplitudes_from_g(CoherenceFunctions(1.0, 0.0, 0.0))
    assert (a1, a2) == (1.0, 0.0)


def test_coherence_functions_reject_a_negative_g22():
    from eprsim.homodyne import CoherenceFunctions

    with pytest.raises(StateError, match="g22 must be finite and nonnegative"):
        CoherenceFunctions(1.0, 1.0, -1.0)


def test_optimal_lo_for_coherent_pair():
    s = coherent_pair(1.0, 0.5)
    b1, b2 = optimal_lo(s)
    # coherent signals: <n1 n2> = n1 n2, so beta_k = |alpha_k|
    assert b1 == pytest.approx(1.0, abs=1e-6)
    assert b2 == pytest.approx(0.5, abs=1e-6)


def test_optimal_lo_degenerate_and_dark_cases():
    with pytest.raises(DegenerateLO):
        optimal_lo(split_single_photon())
    with pytest.raises(ZeroIntensity):
        optimal_lo(coherent_pair(0.0, 1.0, cutoff=19))
    with pytest.raises(ZeroIntensity):
        coherence_functions(vacuum(("a1", "a2"), 2))


def test_lo_config_validation():
    with pytest.raises(StateError):
        LOConfig(-0.1, 1.0)


def test_signal_layout_is_checked():
    with pytest.raises(StateError):
        coherence_functions(vacuum(("x", "y"), 1))


def test_embedding_matches_g_formula_for_coherent_signal():
    sig = coherent_pair(1.0, 1.0, cutoff=18)
    want1, want2 = amplitudes_from_g(coherence_functions(sig))
    b1, b2 = optimal_lo(sig)
    four = homodyne_network_state(sig, LOConfig(b1, b2), lo_cutoff=18)
    assert four.layout.labels == ("a1", "b1", "a2", "b2")
    got = amplitudes(four)
    assert got.a1 == pytest.approx(want1, abs=1e-8)
    assert got.a2 == pytest.approx(want2, abs=1e-8)


def test_embedding_matches_g_formula_for_cat_signal():
    sig = split_cat(CatParams(0.5, 0.0), cutoff=16)
    want1, want2 = amplitudes_from_g(coherence_functions(sig))
    b1, b2 = optimal_lo(sig)
    four = homodyne_network_state(sig, LOConfig(b1, b2))
    got = amplitudes(four)
    assert got.a1 == pytest.approx(want1, abs=1e-6)
    assert got.a2 == pytest.approx(want2, abs=1e-6)


def test_optimal_lo_is_a_maximum():
    # perturbing the oscillator amplitudes must not raise A1 + A2
    sig = split_cat(CatParams(0.5, 0.0), cutoff=16)
    b1, b2 = optimal_lo(sig)
    base = amplitudes(homodyne_network_state(sig, LOConfig(b1, b2)))
    for f1, f2 in [(1.1, 1.0), (0.9, 1.0), (1.0, 1.1), (1.1, 0.9)]:
        other = amplitudes(homodyne_network_state(sig, LOConfig(b1 * f1, b2 * f2)))
        assert other.a1 + other.a2 <= base.a1 + base.a2 + 1e-9


def test_embedding_carries_phase_of_lo():
    sig = coherent_pair(1.0, 1.0, cutoff=18)

    four = homodyne_network_state(sig, LOConfig(1.0, 1.0, theta1=0.4, theta2=-0.2),
                                  lo_cutoff=18)
    amp = amplitudes(four)
    # oscillator phases rotate the interference terms but not their size
    assert amp.a1 == pytest.approx(0.5, abs=1e-8)
    assert amp.a2 == pytest.approx(0.5, abs=1e-8)
    assert amp.xi == pytest.approx(0.4 - (-0.2), abs=1e-8)
    assert amp.zeta == pytest.approx(0.4 + (-0.2), abs=1e-8)


def test_mean_photon_numbers_enter_the_denominator():
    sig = coherent_pair(0.8, 0.8, cutoff=16)
    four = homodyne_network_state(sig, LOConfig(0.8, 0.8), lo_cutoff=16)
    den = normal_moment(sig, [("a1", 1, 1)]).real + 0.8 ** 2
    assert _station_moments(four)["ss"].real == pytest.approx(den ** 2, abs=1e-6)


def _same_state(got, want):
    assert got.layout == want.layout
    for name in ("_occ", "_amp", "_keys"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("signal, lo_cutoff", [
    (coherent_pair(1.0, 1.0, cutoff=18), 18),
    (split_cat(CatParams(0.5, 0.0)), None),
])
def test_network_state_is_the_reordered_tensor_product(signal, lo_cutoff):
    from eprsim import STATION_MODES, coherent_cutoff, make_coherent, reorder, tensor

    b1, b2 = optimal_lo(signal)
    lo = LOConfig(b1, b2, theta1=0.4, theta2=-1.3)
    cutoff = coherent_cutoff(math.hypot(b1, b2)) if lo_cutoff is None else lo_cutoff
    lo_pair = make_coherent(ModeLayout(("b1", "b2"), cutoff),
                            [cmath.rect(b1, lo.theta1), cmath.rect(b2, lo.theta2)])
    _same_state(homodyne_network_state(signal, lo, lo_cutoff=lo_cutoff),
                reorder(tensor(signal, lo_pair), STATION_MODES))


def test_network_state_sorts_once_per_component(monkeypatch):
    from eprsim import MixedState

    pure = coherent_pair(0.6, 0.6)
    mixed = MixedState(((0.4, pure), (0.6, coherent_pair(0.3, 0.8, cutoff=pure.layout.cutoff))))
    sorts = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorts.append(args[0].shape)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    homodyne_network_state(pure, LOConfig(0.6, 0.6))
    assert len(sorts) == 1
    sorts.clear()
    homodyne_network_state(mixed, LOConfig(0.5, 0.7))
    assert len(sorts) == 2


@pytest.mark.parametrize("field", ["beta1", "beta2", "theta1", "theta2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
def test_oscillator_settings_must_be_finite(field, bad):
    values = {"beta1": 1.0, "beta2": 1.0, "theta1": 0.0, "theta2": 0.0, field: bad}
    with pytest.raises(StateError, match=f"oscillator {field} must be finite"):
        homodyne_network_state(coherent_pair(1.0, 1.0), LOConfig(**values))


@pytest.mark.parametrize("g11, g20", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf),
    (complex(1.0, math.nan), 1.0), (1.0, complex(math.inf, 0.0)),
])
def test_coherence_functions_must_be_finite(g11, g20):
    from eprsim.homodyne import CoherenceFunctions

    name = "g11" if not cmath.isfinite(g11) else "g20"
    with pytest.raises(StateError, match=f"{name} must be finite"):
        amplitudes_from_g(CoherenceFunctions(g11, g20, 1.0))
