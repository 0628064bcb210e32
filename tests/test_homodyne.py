"""Coherence functions, oscillator optimization, and the embedding theorem.

The central consistency check: mixing each signal arm with its optimal
local oscillator and extracting (A1, A2) from the four-mode correlators
reproduces the closed-form amplitudes computed from (g11, g20, g22) alone.
"""

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
    amp = amplitudes(four)
    den = normal_moment(sig, [("a1", 1, 1)]).real + 0.8 ** 2
    assert amp.denominator == pytest.approx(den ** 2, abs=1e-6)
