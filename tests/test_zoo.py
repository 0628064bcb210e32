"""Example states and the closed-form cat predictions.

The split cat built by direct expansion is cross-checked against two
independent constructions: a normalized sum of two product coherent
states, and a single-mode cat mixed with vacuum on a 50:50 splitter.
"""

import math

import numpy as np
import pytest

from eprsim import (
    CatDegenerate,
    CatParams,
    CorrelationAmplitudes,
    CutoffError,
    ModeLayout,
    StateError,
    beamsplitter,
    bell_max,
    cat_predictions,
    coherence_functions,
    coherent_pair,
    entangled,
    fidelity,
    make_coherent,
    make_pure,
    relabel,
    single_mode_cat,
    split_cat,
    split_single_photon,
    tensor,
    two_photon,
)

# (alpha, phi) -> (g20, g22, a1, a2, sum of squares); frozen from the closed
# forms with E = exp(-4 alpha^2), c = cos phi evaluated independently
CAT_TABLE = {
    (0.25, 0.0): (8.0416233284, 64.6677057555, 0.1105996085, 0.8894003915, 0.8032653299),
    (0.25, math.pi / 4): (3.4513223795, 11.9116261675, 0.2246523425, 0.7753476575, 0.6516326649),
    (0.25, math.pi / 2): (1.0, 1.0, 0.5, 0.5, 0.5),
    (0.25, math.pi): (0.1243530018, 0.0154636690, 0.8894003915, 0.1105996085, 0.8032653299),
    (0.5, 0.0): (2.1639534137, 4.6826943768, 0.3160602794, 0.6839397206, 0.5676676416),
    (0.5, math.pi / 4): (1.7031777588, 2.9008144782, 0.3699349762, 0.6300650238, 0.5338338208),
    (0.5, math.pi / 2): (1.0, 1.0, 0.5, 0.5, 0.5),
    (0.5, math.pi): (0.4621171573, 0.2135522670, 0.6839397206, 0.3160602794, 0.5676676416),
    (1.0, 0.0): (1.0373147207, 1.0760218298, 0.4908421806, 0.5091578194, 0.5001677313),
    (1.0, math.pi / 4): (1.0262420892, 1.0531728256, 0.4935244438, 0.5064755562, 0.5000838657),
    (1.0, math.pi / 2): (1.0, 1.0, 0.5, 0.5, 0.5),
    (1.0, math.pi): (0.9640275801, 0.9293491751, 0.5091578194, 0.4908421806, 0.5001677313),
}


def test_entangled_state_contents():
    s = entangled("sum")
    amp = s.amplitudes()
    r = 1 / math.sqrt(2)
    assert amp == pytest.approx({(1, 0, 1, 0): r, (0, 1, 0, 1): r})
    d = entangled("diff").amplitudes()
    assert d == pytest.approx({(1, 0, 0, 1): r, (0, 1, 1, 0): r})
    with pytest.raises(StateError):
        entangled("product")


def test_two_photon_equals_network_output():
    s = two_photon()
    assert s.layout.labels == ("a1", "b1", "a2", "b2")
    assert s.amplitudes() == pytest.approx({
        (1, 1, 0, 0): 0.5, (1, 0, 0, 1): 0.5, (0, 1, 1, 0): 0.5, (0, 0, 1, 1): 0.5})


def test_split_photon_and_coherent_pair():
    sp = split_single_photon()
    assert sp.amplitudes() == pytest.approx(
        {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    cp = coherent_pair(1.0, 1.0)
    assert cp.layout.labels == ("a1", "a2")
    assert cp.layout.cutoff == 24  # sizing rule for |alpha| = sqrt(2)


def test_split_cat_against_coherent_sum():
    for alpha, phi in [(0.5, 0.0), (0.5, math.pi), (1.0, 1.1), (0.25 + 0.1j, 0.3)]:
        cutoff = 20
        cat = split_cat(CatParams(alpha, phi), cutoff=cutoff)
        layout = ModeLayout(("a1", "a2"), cutoff)
        plus = make_coherent(layout, [alpha, alpha])
        minus = make_coherent(layout, [-alpha, -alpha])
        mixed = {}
        for occ, a in plus.amplitudes().items():
            mixed[occ] = a
        for occ, a in minus.amplitudes().items():
            mixed[occ] = mixed.get(occ, 0.0) + np.exp(1j * phi) * a
        want = make_pure(layout, mixed.items())
        assert fidelity(cat, want) == pytest.approx(1.0, abs=1e-12)


def test_split_cat_equals_split_single_mode_cat():
    # feed the cat through the splitter port whose output signs are (+, +),
    # with vacuum on the other input
    for alpha, phi in [(0.5, 0.0), (1.0, math.pi / 2), (0.8, math.pi)]:
        cat2 = split_cat(CatParams(alpha, phi), cutoff=20)
        cat1 = single_mode_cat(CatParams(alpha, phi), cutoff=20)
        s = tensor(make_pure(ModeLayout(("a1",), 0), [((0,), 1.0)]),
                   relabel(cat1, {cat1.layout.labels[0]: "a2"}))
        s = beamsplitter(s, "a1", "a2")
        assert fidelity(s, cat2) == pytest.approx(1.0, abs=1e-10)


def test_cat_predictions_table():
    for (alpha, phi), (g20, g22, a1, a2, ssq) in CAT_TABLE.items():
        p = cat_predictions(CatParams(alpha, phi))
        assert abs(p.g.g11) == pytest.approx(1.0, abs=1e-10)
        assert p.g.g20.real == pytest.approx(g20, abs=1e-9)
        assert p.g.g22 == pytest.approx(g22, abs=1e-9)
        assert p.a1 == pytest.approx(a1, abs=1e-9)
        assert p.a2 == pytest.approx(a2, abs=1e-9)
        assert p.sum_sq == pytest.approx(ssq, abs=1e-9)
        assert p.a1 + p.a2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi])
def test_cat_predicted_bell_maximum_is_that_of_the_predicted_pair(phi):
    for alpha in np.linspace(0.1, 3.0, 30):
        pred = cat_predictions(CatParams(float(alpha), phi))
        best = bell_max(CorrelationAmplitudes(pred.a1, pred.a2, 0.0, 0.0))
        assert abs(pred.b_max - best.analytic) <= 1e-12


def test_cat_numeric_g_matches_predictions():
    for alpha, phi in [(0.25, 0.0), (0.5, math.pi / 4), (1.0, math.pi)]:
        s = split_cat(CatParams(alpha, phi), cutoff=20)
        g = coherence_functions(s)
        p = cat_predictions(CatParams(alpha, phi))
        assert g.g11 == pytest.approx(p.g.g11, abs=1e-9)
        assert g.g20 == pytest.approx(p.g.g20, abs=1e-9)
        assert g.g22 == pytest.approx(p.g.g22, abs=1e-9)


def test_large_cat_matches_predictions():
    # 12^n overflows long before the cutoff (434); the ladder never forms it
    p = CatParams(12.0, 0.0)
    s = split_cat(p)
    g = coherence_functions(s)
    want = cat_predictions(p)
    assert g.g11 == pytest.approx(want.g.g11, abs=1e-12)
    assert g.g20 == pytest.approx(want.g.g20, abs=1e-12)
    assert g.g22 == pytest.approx(want.g.g22, abs=1e-12)


def test_cat_depends_only_on_alpha_magnitude():
    base = cat_predictions(CatParams(0.5, 0.7))
    rot = cat_predictions(CatParams(0.5 * np.exp(0.9j), 0.7))
    assert rot.a1 == pytest.approx(base.a1, abs=1e-12)
    assert rot.a2 == pytest.approx(base.a2, abs=1e-12)
    assert rot.g.g22 == pytest.approx(base.g.g22, abs=1e-12)


def test_cat_degenerate_cases():
    # phi = pi with alpha -> 0: the odd cat loses all weight in truncation-free
    # closed form when 1 + E cos(phi) -> 0
    with pytest.raises(CatDegenerate):
        split_cat(CatParams(0.0, math.pi))
    with pytest.raises(CatDegenerate):
        cat_predictions(CatParams(0.0, 0.0))  # g20 denominator 1 - E c -> 0


def test_split_cat_rejects_thin_cutoff():
    with pytest.raises(CutoffError):
        split_cat(CatParams(1.0, 0.0), cutoff=8)


def test_default_cutoff_is_applied():
    s = split_cat(CatParams(0.5, 0.0))
    assert s.layout.cutoff >= 14
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_cat_ladder_underflow_is_named_without_a_cutoff_hint():
    # e^(-|beta|^2/2) is e^(-900) for the one-mode cat at alpha 30 and
    # e^(-800) for the split cat at alpha 40: 0 in float64, whatever the cutoff
    for build, alpha, cutoff in ((single_mode_cat, 30, None), (split_cat, 40, 50)):
        with pytest.raises(CutoffError, match=r"ladder start e\^\(-\|beta\|\^2/2\) underflows to 0, which no cutoff mends$"):
            build(CatParams(alpha, 0), cutoff=cutoff)


def test_cat_with_a_subnormal_ladder_start_builds():
    # e^(-|alpha|^2) lies below the smallest normal float from |alpha| 26.62 on,
    # and rounds to 0 from 27.3: the lost bits are rounding, not truncation
    for alpha in np.arange(26.5, 27.2001, 0.05):
        s = single_mode_cat(CatParams(float(alpha), 0.0))
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert single_mode_cat(CatParams(26.9, 0.0)).layout.cutoff == 1762
    with pytest.raises(CutoffError, match="underflows to 0, which no cutoff mends$"):
        single_mode_cat(CatParams(27.3, 0.0))


@pytest.mark.parametrize("field", ["alpha", "phi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400"), "1"])
def test_cat_parameters_must_be_finite(field, bad):
    values = {"alpha": 0.5, "phi": 0.0, field: bad}
    with pytest.raises(StateError, match=f"cat {field} must be finite"):
        CatParams(**values)
    if field == "alpha" and isinstance(bad, float):
        with pytest.raises(StateError, match="cat alpha must be finite"):
            CatParams(complex(0.5, bad), 0.0)
