"""Linear-optics layer: splitter unitarity, interference signatures, networks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eprsim import (
    ModeLayout,
    PhaseSetting,
    StateError,
    ZeroCoincidence,
    beamsplitter,
    epr_split_network,
    fidelity,
    inner_product,
    make_coherent,
    make_pure,
    mixture_from_density,
    normal_moment,
    phase_shift,
    relabel,
    tensor,
    vacuum,
)
from eprsim.network import _mix_sectors, _sector_matrix

SQ2 = math.sqrt(2.0)


def test_sector_matrices_are_unitary():
    for n in [*range(13), 55, 60, 80, 100, 200, 300]:
        mat = _sector_matrix(n)
        assert np.abs(mat @ mat.T - np.eye(n + 1)).max() <= 1e-13, n


def _exact_sector_matrix(n):
    """The splitter in sector n from exact integers: the coefficient of x^j in
    (x - 1)^k (x + 1)^{n-k}, times sqrt(j! (n-j)! / (2^n k! (n-k)!))."""
    fact = [math.factorial(i) for i in range(n + 1)]
    mat = np.empty((n + 1, n + 1))
    for k in range(n + 1):
        coef = [0] * (n + 1)
        for i in range(k + 1):
            for m in range(n - k + 1):
                coef[i + m] += (-1) ** (k - i) * math.comb(k, i) * math.comb(n - k, m)
        for j in range(n + 1):
            sq = Fraction(coef[j] ** 2 * fact[j] * fact[n - j], 2 ** n * fact[k] * fact[n - k])
            mat[j, k] = math.copysign(math.sqrt(sq), coef[j])
    return mat


@pytest.mark.parametrize("n", [*range(13), 60, 80])
def test_sector_matrix_matches_the_exact_expansion(n):
    assert np.abs(_sector_matrix(n) - _exact_sector_matrix(n)).max() <= 1e-14


def test_sector_matrix_cache_is_bounded():
    # every sector (0-33 per station) of the paper's LO states stays cached,
    # but a run through high photon numbers cannot keep all its matrices
    maxsize = _sector_matrix.cache_info().maxsize
    assert maxsize is not None and maxsize >= 34


def test_cached_sector_matrices_are_read_only():
    mat = _sector_matrix(2)
    with pytest.raises(ValueError):
        mat[0, 0] = 5.0
    assert np.abs(_sector_matrix(2) - _exact_sector_matrix(2)).max() <= 1e-14


def test_mixing_a_block_that_is_no_view_raises():
    # one column of a wider buffer: sector 2's 3 x 2 block cannot be viewed as 3 rows
    buf = np.zeros((6, 3), complex)
    with pytest.raises(ValueError):
        _mix_sectors(buf[:, :1], ((2, 0, 2),))


@pytest.mark.parametrize("n", [60, 80, 100, 120])
def test_splitter_keeps_the_norm_at_high_photon_number(n):
    s = make_pure(ModeLayout(("a", "b"), n), [((n // 2, n // 2), 1.0)])
    assert beamsplitter(s, "a", "b").norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_splitter_preserves_norm_and_photon_number():
    rng = np.random.default_rng(5)
    layout = ModeLayout(("a", "b"), 6)
    terms = []
    for na in range(4):
        for nb in range(4):
            terms.append(((na, nb), rng.normal() + 1j * rng.normal()))
    s = make_pure(layout, terms)
    out = beamsplitter(s, "a", "b")
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)
    n_in = (normal_moment(s, [("a", 1, 1)]) + normal_moment(s, [("b", 1, 1)])).real
    n_out = (normal_moment(out, [("a", 1, 1)]) + normal_moment(out, [("b", 1, 1)])).real
    assert n_out == pytest.approx(n_in, abs=1e-12)


def test_splitter_layout_grows_with_the_occupied_sectors_not_the_cutoff():
    import tracemalloc

    state = make_pure(ModeLayout(("a", "b", "c"), 1_000_000), [((1, 0, 0), 1.0), ((0, 1, 1), 1.0)])
    tracemalloc.start()
    try:
        out = beamsplitter(state, "a", "b")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an array over the cutoff would take 8 MB
    assert peak < 1_000_000
    want = {(1, 0, 0): 0.5, (0, 1, 0): -0.5, (1, 0, 1): 0.5, (0, 1, 1): 0.5}
    got = out.amplitudes()
    assert set(got) == set(want)
    for occ, amp in want.items():
        assert got[occ] == pytest.approx(amp, abs=1e-15)
    # a lone ket in sector 300 builds that sector's matrix and no other
    _sector_matrix.cache_clear()
    lone = beamsplitter(make_pure(ModeLayout(("a", "b", "c"), 300), [((300, 0, 0), 1.0)]), "a", "b")
    info = _sector_matrix.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # (a^dag)^300 -> ((c^dag - d^dag) / sqrt(2))^300: binomial amplitudes
    assert lone.amplitude((150, 150, 0)) == pytest.approx(math.sqrt(math.comb(300, 150) / 2 ** 300), abs=1e-13)
    assert lone.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_stored_state_splitter_never_reaches_the_batched_kernel(monkeypatch):
    import eprsim.network as network

    def forbidden(*args, **kwargs):
        raise AssertionError("the stored-state splitter reached the evolution backend's kernel")

    monkeypatch.setattr(network, "_mix_sectors", forbidden)
    monkeypatch.setattr(network, "_blocks", forbidden)
    via_b = beamsplitter(make_pure(ModeLayout(("a", "b"), 1), [((0, 1), 1.0)]), "a", "b")
    assert via_b.amplitudes() == pytest.approx({(0, 1): 1 / SQ2, (1, 0): 1 / SQ2})
    gamma = 0.8
    out = epr_split_network(make_coherent(ModeLayout(("in",), 16), [gamma]), input_mode="in")
    want = make_coherent(out.layout, [gamma / 2, -gamma / 2, -gamma / 2, gamma / 2])
    assert fidelity(out, want) == pytest.approx(1.0, abs=1e-10)


def test_single_photon_split_signs():
    layout = ModeLayout(("a", "b"), 1)
    via_a = beamsplitter(make_pure(layout, [((1, 0), 1.0)]), "a", "b")
    via_b = beamsplitter(make_pure(layout, [((0, 1), 1.0)]), "a", "b")
    # a^dag -> (c^dag - d^dag)/sqrt(2), b^dag -> (c^dag + d^dag)/sqrt(2)
    assert via_a.amplitude((1, 0)) == pytest.approx(1 / SQ2)
    assert via_a.amplitude((0, 1)) == pytest.approx(-1 / SQ2)
    assert via_b.amplitude((1, 0)) == pytest.approx(1 / SQ2)
    assert via_b.amplitude((0, 1)) == pytest.approx(1 / SQ2)


def test_hong_ou_mandel_dip():
    layout = ModeLayout(("a", "b"), 2)
    s = beamsplitter(make_pure(layout, [((1, 1), 1.0)]), "a", "b")
    assert s.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-15)
    assert s.amplitude((2, 0)) == pytest.approx(1 / SQ2)
    assert s.amplitude((0, 2)) == pytest.approx(-1 / SQ2)


def test_swapped_ports_invert_the_splitter():
    rng = np.random.default_rng(17)
    layout = ModeLayout(("a", "b"), 5)
    terms = [((na, nb), rng.normal() + 1j * rng.normal())
             for na in range(3) for nb in range(3)]
    s = make_pure(layout, terms)
    back = beamsplitter(beamsplitter(s, "a", "b"), "b", "a")
    assert fidelity(back, s) == pytest.approx(1.0, abs=1e-12)


def test_pi_shift_then_split_twice_is_identity():
    # a Mach-Zehnder with a pi shift in one arm returns the input
    rng = np.random.default_rng(23)
    layout = ModeLayout(("a", "b"), 4)
    terms = [((na, nb), rng.normal() + 1j * rng.normal())
             for na in range(3) for nb in range(2)]
    s = make_pure(layout, terms)
    def stage(x):
        return phase_shift(beamsplitter(x, "a", "b"), "b", math.pi)
    out = stage(stage(s))
    assert abs(inner_product(out, s)) == pytest.approx(1.0, abs=1e-12)


def test_phase_shift_composition_and_identity():
    layout = ModeLayout(("a",), 3)
    s = make_pure(layout, [((0,), 1.0), ((1,), 1.0), ((3,), 1.0)])
    t1, t2 = 0.37, 1.21
    one = phase_shift(phase_shift(s, "a", t1), "a", t2)
    two = phase_shift(s, "a", t1 + t2)
    assert fidelity(one, two) == pytest.approx(1.0, abs=1e-12)
    amp3 = phase_shift(s, "a", t1).amplitude((3,))
    assert amp3 == pytest.approx(s.amplitude((3,)) * np.exp(3j * t1), abs=1e-12)


def test_splitter_maps_coherent_to_coherent():
    ga, gb = 0.7, 0.4j
    layout = ModeLayout(("a", "b"), 19)
    s = beamsplitter(make_coherent(layout, [ga, gb]), "a", "b")
    want = make_coherent(layout, [(ga + gb) / SQ2, (gb - ga) / SQ2])
    assert fidelity(s, want) == pytest.approx(1.0, abs=1e-10)


def test_splitter_input_validation():
    s = vacuum(("a", "b"), 1)
    with pytest.raises(StateError):
        beamsplitter(s, "a", "a")


def test_four_way_split_of_coherent_beam():
    gamma = 0.8
    s = make_coherent(ModeLayout(("in",), 16), [gamma])
    out = epr_split_network(s, input_mode="in")
    assert out.layout.labels == ("a1", "b1", "a2", "b2")
    # each arm ends up coherent with amplitude +-gamma/2
    want = make_coherent(out.layout,
                         [gamma / 2, -gamma / 2, -gamma / 2, gamma / 2])
    assert fidelity(out, want) == pytest.approx(1.0, abs=1e-10)


def test_four_way_split_of_single_photon():
    s = make_pure(ModeLayout(("a",), 1), [((1,), 1.0)])
    out = epr_split_network(s)
    amp = out.amplitudes()
    assert amp[(1, 0, 0, 0)] == pytest.approx(0.5)
    assert amp[(0, 1, 0, 0)] == pytest.approx(-0.5)
    assert amp[(0, 0, 1, 0)] == pytest.approx(-0.5)
    assert amp[(0, 0, 0, 1)] == pytest.approx(0.5)


def test_four_way_split_accepts_mixtures():
    rho = np.diag([0.4, 0.6])
    mix = mixture_from_density(rho, label="s")
    out = epr_split_network(mix, input_mode="s")
    total = sum(
        w * sum(normal_moment(s, [(m, 1, 1)]).real for m in ("a1", "b1", "a2", "b2"))
        for w, s in out.components
    )
    assert total == pytest.approx(0.6, abs=1e-12)


def test_four_way_split_rejects_multimode_input():
    with pytest.raises(StateError):
        epr_split_network(vacuum(("x", "y"), 1))


def test_four_way_split_rejects_an_input_on_another_mode():
    one = make_pure(ModeLayout(("s",), 1), [((1,), 1.0)])
    with pytest.raises(StateError):
        epr_split_network(one, input_mode="a")


def test_two_photon_network_content():
    from eprsim import two_photon_network

    s = two_photon_network()
    amp = s.amplitudes()
    assert set(amp) == {(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)}
    for occ in amp:
        assert amp[occ] == pytest.approx(0.5)
    with pytest.raises(StateError):
        two_photon_network(cutoff=1)


@pytest.mark.parametrize("cutoff", [2, 3, 5])
def test_two_photon_network_is_the_reordered_tensor_product(cutoff):
    from eprsim import STATION_MODES, MultiModeState, reorder, two_photon_network

    half = cutoff // 2
    one_a = MultiModeState(ModeLayout(("a1", "a2"), half), {(0, 1): 1.0})
    one_b = MultiModeState(ModeLayout(("b1", "b2"), cutoff - half), {(0, 1): 1.0})
    want = reorder(tensor(beamsplitter(one_a, "a1", "a2"), beamsplitter(one_b, "b1", "b2")), STATION_MODES)
    got = two_photon_network(cutoff)
    assert got.layout == want.layout
    for name in ("_occ", "_amp", "_keys"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("field", ["theta1", "theta2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400"), "0.1", None])
def test_phase_settings_must_be_finite(field, bad):
    # a non-finite phase used to end in a NaN rate ("correlator cc = nan is
    # negative beyond roundoff") or a bare "math domain error" from predict_E
    values = {"theta1": 0.1, "theta2": -0.2, field: bad}
    with pytest.raises(StateError, match=f"{field} must be finite"):
        PhaseSetting(**values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
def test_phase_shift_angle_must_be_finite(bad):
    # it used to end in a NormalizationError that blamed the state's norm
    s = make_pure(ModeLayout(("a1", "b1"), 2), [((1, 0), 0.6), ((0, 1), 0.8)])
    with pytest.raises(StateError, match="theta must be finite") as info:
        phase_shift(s, "b1", bad)
    assert type(info.value) is StateError
