"""Stochastic-field Monte Carlo: the a_k <= 1/2 bound and its saturation."""

import math

import numpy as np
import pytest

from eprsim import (
    ClassicalEnsemble,
    StateError,
    ZeroDenominator,
    bound_report,
    estimate_amplitudes,
    make_ensemble,
    pointwise_margin,
)


def test_delta_ensemble_is_exact():
    ens = make_ensemble("delta", {"point": (1.0, 1.0, 1.0, 1.0)}, n=1, seed=0)
    est = estimate_amplitudes(ens)
    assert est.a1_hat == 0.5
    assert est.a2_hat == 0.5
    assert est.se1 == 0.0 and est.se2 == 0.0
    assert est.n == 1


def test_delta_with_unbalanced_fields():
    # |alpha| != |beta| moves the estimate strictly below 1/2
    ens = make_ensemble("delta", {"point": (1.0, 2.0, 1.0, 1.0)}, n=1, seed=0)
    est = estimate_amplitudes(ens)
    # a1 = 2*|alpha1 beta1 alpha2 beta2| / ((|a1|^2+|b1|^2)(|a2|^2+|b2|^2))
    assert est.a1_hat == pytest.approx(2 * 2.0 / (5.0 * 2.0), abs=1e-15)
    assert est.a1_hat < 0.5


def test_correlated_lo_saturates_the_bound():
    ens = make_ensemble("correlated_lo", {"nbar": 1.0}, n=100000, seed=7)
    est = estimate_amplitudes(ens)
    # beta_k = alpha_k sample by sample makes every ratio exactly 1/2
    assert est.a1_hat == pytest.approx(0.5, abs=1e-12)
    assert est.a2_hat == pytest.approx(0.5, abs=1e-12)
    assert pointwise_margin(ens) == 0.0


def test_thermal_ensemble_shows_no_interference():
    ens = make_ensemble("thermal", {"nbar": 1.0}, n=100000, seed=7)
    est = estimate_amplitudes(ens)
    # frozen seed: the averages sit within three bootstrap errors of zero
    assert est.a1_hat == pytest.approx(0.000244128872, abs=1e-9)
    assert est.a2_hat == pytest.approx(0.002437908911, abs=1e-9)
    assert est.a1_hat <= 3 * est.se1
    assert est.a2_hat <= 3 * est.se2
    # mean intensity sanity: E|alpha|^2 = nbar
    assert float(np.mean(np.abs(ens.alpha1) ** 2)) == pytest.approx(1.0, abs=0.02)
    margin = pointwise_margin(ens)
    assert margin >= -1e-12


def test_estimates_are_deterministic():
    e1 = make_ensemble("thermal", {"nbar": 0.5}, n=20000, seed=13)
    e2 = make_ensemble("thermal", {"nbar": 0.5}, n=20000, seed=13)
    r1 = estimate_amplitudes(e1)
    r2 = estimate_amplitudes(e2)
    assert r1.a1_hat == r2.a1_hat
    assert r1.se1 == r2.se1
    other = estimate_amplitudes(make_ensemble("thermal", {"nbar": 0.5}, n=20000, seed=14))
    assert other.a1_hat != r1.a1_hat


def test_mixture_of_deltas():
    ens = make_ensemble("mixture", {"components": [
        (0.5, "delta", {"point": (1.0, 1.0, 1.0, 1.0)}),
        (0.5, "delta", {"point": (2.0, 2.0, 2.0, 2.0)}),
    ]}, n=2, seed=3)
    est = estimate_amplitudes(ens)
    # both components saturate, so the mixture does too
    assert est.a1_hat == pytest.approx(0.5, abs=1e-12)
    rep = bound_report(est)
    assert rep.within_bound1 and rep.within_bound2
    assert rep.margin1 == pytest.approx(0.0, abs=1e-12)


def test_bound_report_flags_violations():
    from eprsim.classical import AmplitudeEstimate

    fake = AmplitudeEstimate(a1_hat=0.7, a2_hat=0.4, se1=0.001, se2=0.001, n=100, seed=0)
    rep = bound_report(fake)
    assert not rep.within_bound1
    assert rep.within_bound2
    assert rep.margin1 == pytest.approx(0.5 - 0.7, abs=1e-12)
    assert rep.margin2 == pytest.approx(0.5 - 0.4, abs=1e-12)


def test_pointwise_inequality_on_every_sample():
    for kind, params in [("thermal", {"nbar": 2.0}), ("correlated_lo", {"nbar": 0.7})]:
        ens = make_ensemble(kind, params, n=30000, seed=21)
        assert pointwise_margin(ens) >= -1e-12


def test_degenerate_inputs():
    with pytest.raises(ZeroDenominator):
        estimate_amplitudes(
            make_ensemble("delta", {"point": (0.0, 0.0, 0.0, 0.0)}, n=1, seed=0))
    with pytest.raises(StateError):
        make_ensemble("delta", {"point": (1.0, 1.0)}, n=1, seed=0)
    with pytest.raises(StateError):
        make_ensemble("squeezed", {}, n=10, seed=0)
    with pytest.raises(StateError):
        make_ensemble("thermal", {"nbar": 1.0}, n=0, seed=0)
    # one lit sample among 2000: some resample draws none of its group
    lonely = np.zeros(2000)
    lonely[0] = 1.0
    with pytest.raises(ZeroDenominator, match="a bootstrap resample"):
        estimate_amplitudes(ClassicalEnsemble((1 / 2000,), lonely, lonely, lonely, lonely, seed=0))
    with pytest.raises(StateError, match="the field intensities overflow"):
        pointwise_margin(make_ensemble("delta", {"point": (1e200, 1.0, 1e200, 1.0)}, n=1, seed=0))


@pytest.mark.parametrize("kind, params", [
    ("thermal", {"nbar": "1"}),
    ("thermal", {"nbar": 1.0, "nbar_lo": None}),
    ("thermal", {"nbar": 10**400}),
    ("delta", {"point": 5}),
    ("mixture", {"components": [(1.0, "thermal")]}),
    ("mixture", {"components": [("x", "thermal", {"nbar": 1.0})]}),
    ("mixture", {"components": [(10**400, "thermal", {"nbar": 1.0})]}),
    ("mixture", {"components": [(1.0, "thermal", None)]}),
    (["thermal"], {"nbar": 1.0}),
    ("mixture", {"components": [("2", "thermal", {"nbar": 1.0})]}),
    ("delta", {"point": "1234"}),
    ("delta", {"point": np.array(5.0)}),
    ("mixture", {"components": [(0.0, "thermal", {"nbar": 1.0})]}),
    ("mixture", {"components": [(1e308, "thermal", {"nbar": 1.0})] * 2}),
])
def test_malformed_params_are_a_state_error(kind, params):
    with pytest.raises(StateError):
        make_ensemble(kind, params, n=10, seed=1)


def _fields(ens):
    return ens.alpha1, ens.alpha2, ens.beta1, ens.beta2


def _per_sample_bootstrap_se(ens, seed):
    """Reference: 200 uniform resamples of length n, plain-sum ratios."""
    from eprsim.classical import _moment_terms

    num1, num2, den = _moment_terms(ens, 0, _fields(ens))[:3]
    rng = np.random.default_rng(seed)
    boot = []
    for _ in range(200):
        idx = rng.integers(0, ens.n, ens.n)
        d = np.sum(den[idx])
        boot.append((2 * abs(np.sum(num1[idx])) / d, 2 * abs(np.sum(num2[idx])) / d))
    return np.std(np.array(boot), axis=0, ddof=1)


def test_grouped_bootstrap_matches_per_sample_bootstrap():
    ens = make_ensemble("thermal", {"nbar": 1.0}, n=20000, seed=7)
    est = estimate_amplitudes(ens)
    ref1, ref2 = _per_sample_bootstrap_se(ens, [7, 0xB00])
    assert 0.8 <= est.se1 / ref1 <= 1.25
    assert 0.8 <= est.se2 / ref2 <= 1.25


def test_small_ensemble_has_one_group_per_sample():
    from eprsim.classical import BOOTSTRAP_GROUPS, _group_sums, _moment_terms

    ens = make_ensemble("thermal", {"nbar": 1.0}, n=BOOTSTRAP_GROUPS, seed=5)
    num1, num2, den = _moment_terms(ens, 0, _fields(ens))[:3]
    ((g1, g2, gd),) = _group_sums(ens, num1, num2, den)
    assert gd.shape == (ens.n,)
    np.testing.assert_array_equal(g1, num1)
    np.testing.assert_array_equal(g2, num2)
    np.testing.assert_array_equal(gd, den)
    # one more sample and groups start to hold two
    big = make_ensemble("thermal", {"nbar": 1.0}, n=3 * BOOTSTRAP_GROUPS + 1, seed=5)
    ((_, _, gd),) = _group_sums(big, *_moment_terms(big, 0, _fields(big))[:3])
    assert gd.shape == (BOOTSTRAP_GROUPS,)
    assert math.fsum(gd) == pytest.approx(math.fsum(_moment_terms(big, 0, _fields(big))[2]), rel=1e-12)


def test_groups_stay_inside_their_stratum():
    from eprsim.classical import _group_sums, _moment_terms

    ens = make_ensemble("mixture", {"components": [
        (0.3, "thermal", {"nbar": 1.0}),
        (0.7, "correlated_lo", {"nbar": 2.0}),
    ]}, n=5000, seed=11)
    assert ens.strata == ((0, 5000), (5000, 10000))
    assert ens.weights == pytest.approx((0.3 / 5000, 0.7 / 5000), rel=1e-15)
    num1, num2, den = _moment_terms(ens, 0, _fields(ens))[:3]
    intensity = (np.abs(ens.alpha1) ** 2 + np.abs(ens.beta1) ** 2) * (
        np.abs(ens.alpha2) ** 2 + np.abs(ens.beta2) ** 2)
    for (start, stop), w, (_, _, gd) in zip(ens.strata, ens.weights, _group_sums(ens, num1, num2, den)):
        # each term carries its own stratum's weight
        np.testing.assert_array_equal(den[start:stop], w * intensity[start:stop])
        assert math.fsum(gd) == pytest.approx(math.fsum(den[start:stop]), rel=1e-12)
    est = estimate_amplitudes(ens)
    for se in (est.se1, est.se2):
        assert math.isfinite(se) and se > 0.0


def test_nested_mixture_strata_are_flattened():
    inner = {"components": [(0.5, "thermal", {"nbar": 1.0}), (0.5, "delta", {"point": (1, 1, 1, 1)})]}
    ens = make_ensemble("mixture", {"components": [
        (0.5, "mixture", inner),
        (0.5, "thermal", {"nbar": 0.5}),
    ]}, n=10, seed=2)
    assert ens.n == 21
    assert ens.strata == ((0, 10), (10, 11), (11, 21))


def test_delta_mixture_has_zero_standard_error():
    ens = make_ensemble("mixture", {"components": [
        (0.25, "delta", {"point": (1.0, 0.5, 1.0, 2.0)}),
        (0.75, "delta", {"point": (2.0, 1.0, 0.5, 1.0)}),
    ]}, n=1, seed=3)
    est = estimate_amplitudes(ens)
    assert est.se1 == 0.0 and est.se2 == 0.0
    assert 0.0 < est.a1_hat < 0.5


def test_mixture_components_are_seeded_independently():
    mix = make_ensemble("mixture", {"components": [
        (0.5, "thermal", {"nbar": 1.0}),
        (0.5, "thermal", {"nbar": 1.0}),
    ]}, n=1000, seed=7)
    first, second = mix.alpha1[:1000], mix.alpha1[1000:]
    for other_seed in (7, 1007, 2007):
        other = make_ensemble("thermal", {"nbar": 1.0}, n=1000, seed=other_seed)
        assert not np.any(first == other.alpha1)
        assert not np.any(second == other.alpha1)
    assert not np.any(first == second)


def test_ensemble_validates_strata_and_seed():
    ens = make_ensemble("thermal", {"nbar": 1.0}, n=4, seed=0)
    assert ens.strata == ((0, 4),) and ens.weights == (0.25,)
    fields = dict(alpha1=ens.alpha1, alpha2=ens.alpha2, beta1=ens.beta1, beta2=ens.beta2, seed=0)
    two = ClassicalEnsemble((0.25, 0.25), **fields, strata=((0, 1), (1, 4)))
    assert two.strata == ((0, 1), (1, 4)) and two.weights == (0.25, 0.25)
    for bad in (((0, 3),), ((0, 2), (3, 4)), ((0, 0), (0, 4)), ((0, 4), (4, 4)),
                ((0, 4), (4, 5)), ((1, 4),)):
        with pytest.raises(StateError):
            ClassicalEnsemble((0.25,) * len(bad), **fields, strata=bad)
    # one weight per stratum, each finite and >= 0, the samples' weights summing to 1
    for bad in ((0.25,) * 4, (0.25,), (-0.5, 0.5), (math.nan, 0.25), (math.inf, 0.25),
                (0.25, 0.3), ("0.25", 0.25), (10**400, 0.25), (1e308, 1e308)):
        with pytest.raises(StateError):
            ClassicalEnsemble(bad, **fields, strata=((0, 1), (1, 4)))
    with pytest.raises(StateError, match="sample weights sum to inf"):
        ClassicalEnsemble((1e308, 1e308), [1, 1], [1, 1], [1, 1], [1, 1], seed=0, strata=((0, 1), (1, 2)))
    with pytest.raises(StateError, match=r"alpha2 has shape \(3,\), expected \(4,\)"):
        ClassicalEnsemble((0.25,), **{**fields, "alpha2": ens.alpha2[:3]})
    with pytest.raises(StateError, match="beta1 contains non-finite values"):
        ClassicalEnsemble((0.25,), **{**fields, "beta1": [1.0, math.nan, 1.0, 1.0]})
    with pytest.raises(StateError):
        make_ensemble("thermal", {"nbar": 1.0}, n=4, seed=-1)


def test_explicit_fields_are_complex_and_drawn_fields_are_not_copied():
    ens = make_ensemble("thermal", {"nbar": 1.0}, n=5, seed=0)
    fields = dict(alpha1=ens.alpha1, alpha2=ens.alpha2, beta1=ens.beta1, beta2=ens.beta2)
    again = ClassicalEnsemble(ens.weights, **fields, seed=0)
    assert all(getattr(again, name) is f for name, f in fields.items())
    # int fields are weighted in place as complex128, not refused by numpy's casting
    ints = ClassicalEnsemble((0.5,), *([1, 2] for _ in range(4)), seed=0)
    assert ints.alpha1.dtype == np.complex128
    est = estimate_amplitudes(ints)
    assert (est.a1_hat, est.a2_hat) == (0.5, 0.5)
