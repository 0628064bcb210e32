"""Fock-layer tests: states, moments, tensor algebra, state files.

Moments are checked against a dense matrix representation built with plain
ladder operators, so the sparse searchsorted path is never trusted with its
own verification.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from eprsim import (
    CutoffError,
    MixedState,
    ModeLayout,
    MultiModeState,
    NormalizationError,
    StateError,
    StateFileError,
    UnknownModeError,
    coherent_cutoff,
    coherent_pair,
    fidelity,
    inner_product,
    load_state,
    make_coherent,
    make_pure,
    mixture_from_density,
    normal_moment,
    relabel,
    reorder,
    save_state,
    tensor,
    vacuum,
)


def dense_ladder(dim):
    """Annihilation operator on a dim-dimensional Fock block."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def dense_moment(vec, p, q):
    """<vec| (a^dag)^p a^q |vec> with explicit matrix products."""
    a = dense_ladder(vec.shape[0])
    op = np.linalg.matrix_power(a.conj().T, p) @ np.linalg.matrix_power(a, q)
    return complex(vec.conj() @ op @ vec)


def random_single_mode(rng, cutoff):
    vec = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    vec /= np.linalg.norm(vec)
    layout = ModeLayout(("a",), cutoff)
    state = MultiModeState(layout, {(n,): vec[n] for n in range(cutoff + 1)})
    return state, vec


def test_normal_moment_matches_dense_single_mode():
    rng = np.random.default_rng(101)
    for cutoff in (3, 5, 7):
        state, vec = random_single_mode(rng, cutoff)
        for p, q in [(0, 0), (1, 1), (2, 2), (1, 0), (0, 1), (2, 0), (3, 1), (2, 1)]:
            # the dense ladder matrices truncate at the same dimension, so
            # targets pushed above the box drop out of both computations
            want = dense_moment(vec, p, q)
            got = normal_moment(state, [("a", p, q)])
            assert got == pytest.approx(want, abs=1e-12)


def test_normal_moment_two_mode_product_state():
    rng = np.random.default_rng(7)
    s1, v1 = random_single_mode(rng, 4)
    s2, v2 = random_single_mode(rng, 4)
    s2 = relabel(s2, {"a": "b"})
    prod = tensor(s1, s2)
    for pa, qa, pb, qb in [(1, 1, 1, 1), (1, 0, 0, 1), (2, 1, 1, 2), (0, 0, 2, 2)]:
        want = dense_moment(v1, pa, qa) * dense_moment(v2, pb, qb)
        got = normal_moment(prod, [("a", pa, qa), ("b", pb, qb)])
        # moments of a product state factorize; reaching targets outside the
        # (total-photon) box makes a tiny difference only when pa+pb > qa+qb,
        # which the chosen exponents avoid except via negligible tails
        assert got == pytest.approx(want, abs=1e-9)


def test_coherent_moments_and_truncated_mean():
    alpha = 1.1
    cutoff = coherent_cutoff(alpha)
    state = make_coherent(ModeLayout(("a",), cutoff), [alpha])
    # independent truncated Poisson mean, renormalized like the state is
    lam = alpha * alpha
    probs = [math.exp(-lam) * lam ** n / math.factorial(n) for n in range(cutoff + 1)]
    mass = math.fsum(probs)
    mean = math.fsum(n * pr for n, pr in enumerate(probs)) / mass
    assert normal_moment(state, [("a", 1, 1)]).real == pytest.approx(mean, abs=1e-12)
    assert normal_moment(state, [("a", 0, 1)]) == pytest.approx(alpha, abs=1e-9)


def test_coherent_cutoff_policy_values():
    assert coherent_cutoff(1.0) == 19
    assert coherent_cutoff(math.sqrt(2.0)) == 24


def test_make_coherent_rejects_thin_cutoff():
    with pytest.raises(CutoffError):
        make_coherent(ModeLayout(("a",), 16), [2.0])


def test_state_validation():
    layout = ModeLayout(("a", "b"), 3)
    with pytest.raises(StateError):
        MultiModeState(layout, {(1,): 1.0})           # wrong arity
    with pytest.raises(StateError):
        MultiModeState(layout, {(-1, 0): 1.0})        # negative occupation
    with pytest.raises(StateError):
        MultiModeState(layout, {(2, 2): 1.0})         # beyond total cutoff
    with pytest.raises(StateError):
        MultiModeState(layout, {(2**62, 2**62): 1.0})  # the int64 row sum wraps
    with pytest.raises(StateError):
        MultiModeState(layout, {(10**30, 0): 1.0})    # beyond int64
    with pytest.raises(NormalizationError):
        MultiModeState(layout, {(1, 0): 0.5})         # not normalized
    with pytest.raises(StateError):
        ModeLayout(("a", "a"), 3)                     # duplicate labels
    with pytest.raises(StateError, match="1 amplitudes for 2 modes"):
        make_coherent(layout, [1.0])
    with pytest.raises(StateError, match="must be finite"):
        make_coherent(layout, [1.0, math.nan])


def test_direct_constructor_names_the_norm_without_a_warning():
    # |amplitude|^2 overflows at 1e200 and underflows at 1e-200, below the prune
    layout = ModeLayout(("a", "b"), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amp in (1e200, 1e-200):
            with pytest.raises(NormalizationError, match="norm"):
                MultiModeState(layout, {(1, 0): amp, (0, 1): amp})


def test_state_is_immutable_and_canonical():
    layout = ModeLayout(("a", "b"), 2)
    s = make_pure(layout, [((1, 0), 1.0), ((0, 1), 1.0j), ((1, 0), 1.0)])
    with pytest.raises(AttributeError):
        s.layout = layout
    # duplicate accumulated: |1,0> carries 2/sqrt(5), |0,1> carries i/sqrt(5)
    amp = s.amplitudes()
    assert amp[(1, 0)] == pytest.approx(2 / math.sqrt(5))
    assert amp[(0, 1)] == pytest.approx(1j / math.sqrt(5))
    keys = s._keys
    assert np.all(np.diff(keys) > 0)


def test_state_arrays_are_read_only():
    s = make_pure(ModeLayout(("a", "b"), 2), [((1, 0), 1.0), ((0, 1), 1.0j)])
    for arr in (s._occ, s._amp, s._keys):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert s.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))


def test_tiny_amplitudes_are_pruned():
    layout = ModeLayout(("a",), 2)
    s = make_pure(layout, [((0,), 1.0), ((2,), 1e-16)])
    assert s.n_terms == 1
    assert s.amplitude((2,)) == 0.0


def test_packed_key_range_guard():
    layout = ModeLayout(tuple(f"m{i}" for i in range(8)), 250)
    with pytest.raises(StateError):
        vacuum(layout.labels, 250)


def test_tensor_reorder_relabel():
    a = make_pure(ModeLayout(("a",), 1), [((1,), 1.0)])
    b = make_pure(ModeLayout(("b",), 1), [((0,), 1.0), ((1,), 1.0)])
    ab = tensor(a, b)
    assert ab.layout.labels == ("a", "b")
    assert ab.layout.cutoff == 2
    assert ab.amplitude((1, 1)) == pytest.approx(1 / math.sqrt(2))
    ba = reorder(ab, ("b", "a"))
    assert ba.amplitude((1, 1)) == pytest.approx(1 / math.sqrt(2))
    assert ba.amplitude((0, 1)) == pytest.approx(1 / math.sqrt(2))
    renamed = relabel(ab, {"a": "x"})
    assert renamed.layout.labels == ("x", "b")
    with pytest.raises(StateError):
        tensor(a, relabel(b, {"b": "a"}))
    with pytest.raises(StateError):
        reorder(ab, ("a", "c"))


def test_product_keeps_the_errors_of_tensor_and_reorder():
    from eprsim.fock import _product

    a = make_pure(ModeLayout(("a",), 1), [((1,), 1.0)])
    b = make_pure(ModeLayout(("b",), 1), [((0,), 1.0), ((1,), 1.0)])
    collision = re.escape("label collision in tensor product: ['a']")
    with pytest.raises(StateError, match=collision):
        tensor(a, relabel(b, {"b": "a"}))
    with pytest.raises(StateError, match=collision):
        _product(a, relabel(b, {"b": "a"}), ("a", "b"))
    not_a_permutation = re.escape("('a', 'c') is not a permutation of ('a', 'b')")
    with pytest.raises(StateError, match=not_a_permutation):
        reorder(tensor(a, b), ("a", "c"))
    with pytest.raises(StateError, match=not_a_permutation):
        _product(a, b, ("a", "c"))


def test_inner_product_and_fidelity():
    layout = ModeLayout(("a",), 19)
    s1 = make_coherent(layout, [0.4])
    s2 = make_coherent(layout, [0.9])
    overlap = abs(inner_product(s1, s2)) ** 2
    assert overlap == pytest.approx(math.exp(-abs(0.4 - 0.9) ** 2), abs=1e-10)
    assert fidelity(s1, s1) == pytest.approx(1.0, abs=1e-12)
    one = make_pure(layout, [((1,), 1.0)])
    zero = make_pure(layout, [((0,), 1.0)])
    assert inner_product(one, zero) == 0.0
    with pytest.raises(StateError):
        inner_product(s1, make_coherent(ModeLayout(("a",), 20), [0.4]))


def test_unknown_mode_and_bad_spec():
    s = vacuum(("a", "b"), 1)
    with pytest.raises(UnknownModeError):
        normal_moment(s, [("zz", 1, 1)])
    for bad in (-1, 1.5, True):
        with pytest.raises(StateError):
            normal_moment(s, [("a", bad, 0)])
    with pytest.raises(StateError):
        normal_moment(s, [("a", 1, 0), ("a", 0, 1)])


def test_mixture_from_density_thermal():
    nbar = 0.7
    dim = 20
    p = np.array([(nbar / (1 + nbar)) ** n / (1 + nbar) for n in range(dim)])
    rho = np.diag(p / p.sum())
    mix = mixture_from_density(rho, label="a")
    want = float(np.sum(np.arange(dim) * p / p.sum()))
    got = normal_moment(mix, [("a", 1, 1)]).real
    assert got == pytest.approx(want, abs=1e-12)
    # g2 of a thermal state is 2 (slightly shifted by renormalized truncation)
    g2 = normal_moment(mix, [("a", 2, 2)]).real / got ** 2
    assert g2 == pytest.approx(2.0, abs=1e-3)


def test_mixture_from_density_validation():
    with pytest.raises(StateError):
        mixture_from_density(np.ones((2, 3)))
    with pytest.raises(StateError):
        mixture_from_density(np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(NormalizationError):
        mixture_from_density(np.diag([0.7, 0.7]))
    bad = np.array([[0.2, 0.5], [0.5, 0.8]])   # hermitian, trace 1, not psd
    with pytest.raises(StateError):
        mixture_from_density(bad)


def test_mixed_state_weights():
    s = vacuum(("a",), 1)
    with pytest.raises(NormalizationError):
        MixedState(((0.5, s),))
    with pytest.raises(StateError):
        MixedState(((1.5, s), (-0.5, s)))
    # finite weights whose sum passes the float range
    with pytest.raises(NormalizationError, match="sum to inf, not 1"):
        MixedState(((1e308, s), (1e308, s)))
    with pytest.raises(StateError, match="at least one component"):
        MixedState(())
    with pytest.raises(StateError, match="share one layout"):
        MixedState(((0.5, s), (0.5, vacuum(("b",), 1))))


def test_state_file_round_trip(tmp_path):
    layout = ModeLayout(("a1", "a2"), 3)
    s = make_pure(layout, [((1, 0), 0.6), ((0, 1), 0.8j), ((2, 1), 0.1)])
    path = tmp_path / "state.json"
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.layout == s.layout
    for occ, amp in s.amplitudes().items():
        assert loaded.amplitude(occ) == pytest.approx(amp, abs=1e-15)


def test_state_file_errors(tmp_path):
    bad_syntax = tmp_path / "syntax.json"
    bad_syntax.write_text('{"modes": ["a"], "cutoff": 1,\n  "terms": [}')
    with pytest.raises(StateFileError, match="line 2"):
        load_state(bad_syntax)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"modes": ["a"], "terms": []}))
    with pytest.raises(StateFileError, match="cutoff"):
        load_state(missing)

    bad_occ = tmp_path / "occ.json"
    bad_occ.write_text(json.dumps({
        "modes": ["a", "b"], "cutoff": 2,
        "terms": [{"occ": [0, 0], "re": 1.0}, {"occ": [1], "re": 0.5}],
    }))
    with pytest.raises(StateFileError, match=r"terms\[1\]\.occ"):
        load_state(bad_occ)

    negative = tmp_path / "neg.json"
    negative.write_text(json.dumps({
        "modes": ["a"], "cutoff": 2,
        "terms": [{"occ": [-1], "re": 1.0}],
    }))
    with pytest.raises(StateFileError):
        load_state(negative)

    # JSON booleans are not numbers, though Python's bool is an int
    good = {"modes": ["a1", "b1", "a2", "b2"], "cutoff": 1, "terms": [{"occ": [1, 0, 0, 0], "re": 1}]}
    (tmp_path / "good.json").write_text(json.dumps(good))
    assert load_state(tmp_path / "good.json").amplitude((1, 0, 0, 0)) == 1.0
    for field, value in [("cutoff", True), ("occ", [1, 0, 0, False]), ("re", True), ("im", False)]:
        doc = json.loads(json.dumps(good))
        (doc if field == "cutoff" else doc["terms"][0])[field] = value
        boolean = tmp_path / f"bool-{field}.json"
        boolean.write_text(json.dumps(doc))
        with pytest.raises(StateFileError):
            load_state(boolean)
    with pytest.raises(StateError):
        ModeLayout(("a",), True)


def test_loaded_terms_are_normalized(tmp_path):
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps({
        "modes": ["a"], "cutoff": 1,
        "terms": [{"occ": [0], "re": 3.0}, {"occ": [1], "im": 4.0}],
    }))
    s = load_state(path)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert abs(s.amplitude((1,))) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.inf)])
def test_non_finite_amplitude_is_named(bad):
    layout = ModeLayout(("a", "b"), 1)
    with pytest.raises(StateError, match=r"occupation \(1, 0\)"):
        MultiModeState(layout, {(1, 0): bad, (0, 1): 1.0})
    with pytest.raises(StateError, match=r"occupation \(1, 0\)"):
        make_pure(layout, [((1, 0), bad), ((0, 1), 1.0)])


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 5e-324])
def test_amplitudes_of_any_finite_scale_normalize(scale):
    layout = ModeLayout(("a", "b"), 1)
    unit = make_pure(layout, [((1, 0), 1.0), ((0, 1), -1.0j)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = make_pure(layout, [((1, 0), scale), ((0, 1), -1.0j * scale)])
        assert s.amplitudes() == unit.amplitudes()
        # a repeated occupation whose sum overflows is named as such
        with pytest.raises(StateError, match="overflow"):
            make_pure(layout, [((1, 0), 1e308), ((1, 0), 1e308), ((0, 1), 1.0)])


def test_check_norm_fails_on_nan():
    from eprsim.fock import _check_norm

    with pytest.raises(NormalizationError):
        _check_norm(np.array([math.nan, 1.0], dtype=np.complex128))


def test_mixed_state_rejects_nan_weight():
    s = vacuum(("a",), 1)
    with pytest.raises(StateError):
        MixedState(((math.nan, s), (1.0, s)))


@pytest.mark.parametrize("bad", [math.inf, pytest.param(10**400, id="10**400"), "1", 1j])
def test_mixed_state_weight_must_be_a_finite_real(bad):
    s = vacuum(("a",), 1)
    with pytest.raises(StateError, match="mixture weight .* is negative or not a finite number"):
        MixedState(((bad, s),))


@pytest.mark.parametrize("bad", [math.nan, -math.inf, 1e200, pytest.param(10**400, id="10**400"), "1"])
def test_no_finite_cutoff_is_a_cutoff_error(bad):
    with pytest.raises(CutoffError, match="no finite cutoff"):
        coherent_cutoff(bad)
    with pytest.raises(CutoffError, match="no finite cutoff"):
        coherent_pair(bad, 0.5)


def test_overflowed_truncated_mass_is_a_cutoff_error():
    from eprsim.fock import _check_tail

    for mass in (math.nan, math.inf):
        with pytest.raises(CutoffError, match=f"mass {mass!r}, not within 1e-12 of 1$"):
            _check_tail(mass, 5, 1.0, "coherent-state")
    # a short tail at an amplitude with no printable cutoff gives no hint
    with pytest.raises(CutoffError, match="mass 0.5, not within 1e-12 of 1$"):
        _check_tail(0.5, 5, math.inf, "coherent-state")
    with np.errstate(over="ignore", invalid="ignore"):
        # the ladder of a huge amplitude overflows; exp(-lam) underflows to 0
        with pytest.raises(CutoffError, match="mass nan"):
            make_coherent(ModeLayout(("a",), 5), [1e200])
        # the norm sum overflows while exp(-lam) stays a subnormal above 0
        with pytest.raises(CutoffError, match="mass inf"):
            make_coherent(ModeLayout(("a",), 800), [27.0])
