"""Property tests for the grouped-sector optics and the moment kernels.

Random cutoff-3 four-mode states, pure and two-component mixtures, are
drawn with small integer amplitude parts so that exact cancellations
(Hong-Ou-Mandel-like zeros) occur as often as generic values. The
references kept here are the implementations the fast paths replaced:
ten ``normal_moment`` calls for the station moments and the
repeat/unique splitter. Both moment paths share one partner-ket kernel,
so ``normal_moment`` itself is checked against dense Kronecker-product
ladder matrices. The evolution backend's closed-form station layout is
checked against the stored-state optics chain on states with few
occupied sector pairs (n1, n2), and its runs of equal theta1, taken
through station 2 in chunks of settings, against one setting at a time
and, byte for byte, against one unchunked call.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from eprsim import (
    MixedState,
    ModeLayout,
    MultiModeState,
    PhaseSetting,
    ZeroCoincidence,
    beamsplitter,
    make_pure,
    normal_moment,
    output_correlators,
    phase_shift,
)
import eprsim.correlation as correlation
from eprsim.correlation import _evolution_rates, _station_layout, _station_moments
from eprsim.fock import _canonicalize, _occupations
from eprsim.network import _mix_sectors, _sector_matrix

STANDARD = ("a1", "b1", "a2", "b2")
CUTOFF = 3
OCCS = _occupations(4, CUTOFF).tolist()
parts = arrays(np.int64, (2, len(OCCS)), elements=st.integers(-3, 3))


def _pure(layout, occs, re_im):
    vec = re_im[0] + 1j * re_im[1]
    return make_pure(layout, [(occ, a) for occ, a in zip(occs, vec) if a != 0])


@st.composite
def station_states(draw):
    """A pure state on (a1, b1, a2, b2) at cutoff 3, or a two-component mixture."""
    layout = ModeLayout(STANDARD, CUTOFF)
    first = draw(parts.filter(lambda p: np.any(p != 0)))
    if not draw(st.booleans()):
        return _pure(layout, OCCS, first)
    second = draw(parts.filter(lambda p: np.any(p != 0)))
    w = draw(st.floats(0.05, 0.95))
    return MixedState(((w, _pure(layout, OCCS, first)), (1.0 - w, _pure(layout, OCCS, second))))


angles = st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
                  min_size=1, max_size=40)


def _rates(corr):
    return np.array([corr.cc, corr.cd, corr.dc, corr.dd])


@settings(max_examples=60, deadline=None)
@given(station_states(), angles)
def test_batched_evolution_matches_single_settings_and_expansion(state, pairs):
    theta1 = np.array([t1 for t1, _ in pairs])
    theta2 = np.array([t2 for _, t2 in pairs])
    batched = _evolution_rates(state, theta1, theta2)
    assert np.all(batched >= 0.0)
    for k, (t1, t2) in enumerate(pairs):
        setting = PhaseSetting(t1, t2)
        single = output_correlators(state, setting, backend="evolution")
        expanded = output_correlators(state, setting, backend="expansion")
        total = expanded.total
        tol = 1e-12 * total
        assert np.all(np.abs(batched[:, k] - _rates(single)) <= tol)
        assert np.all(np.abs(_rates(single) - _rates(expanded)) <= tol)
        for corr in (single, expanded):
            assert min(corr.cc, corr.cd, corr.dc, corr.dd) >= 0.0
            try:
                e = corr.E()
            except ZeroCoincidence:
                continue
            assert abs(e) <= 1.0


@st.composite
def run_cases(draw):
    """A station state, a chunk size b of 1-3 settings and 1-3 runs of equal
    theta1, each of 1-7 settings; runs of one theta1 in a row merge."""
    state = draw(station_states())
    block = draw(st.integers(1, 3))
    pairs = []
    for t1 in draw(st.lists(st.sampled_from([-2.5, -0.5, 0.0, 1.25, 3.0]), min_size=1, max_size=3)):
        t2s = draw(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=7))
        pairs += [(t1, t2) for t2 in t2s]
    return state, block, pairs


class _SectorSpy:
    """A station-2 sector matrix that logs (n, columns) of each block it mixes."""

    def __init__(self, n, log):
        self.n, self.log = n, log

    def __matmul__(self, block):
        self.log.append((self.n, block.shape[1]))
        return _sector_matrix(self.n) @ block


def _budget_width(lay):
    """Bytes per setting of a station-2 chunk, over 16: its group sums and its largest sector."""
    return lay.cd1.shape[1] + max((n + 1) * g for n, _, g in lay.station2)


@settings(max_examples=60, deadline=None)
@given(run_cases())
def test_settings_blocks_match_one_setting_at_a_time(case):
    state, block, pairs = case
    theta1 = np.array([t1 for t1, _ in pairs])
    theta2 = np.array([t2 for _, t2 in pairs])
    comps = state.components if isinstance(state, MixedState) else ((1.0, state),)
    lays = [_station_layout(s._occ) for _, s in comps]
    runs = [len(list(run)) for _, run in itertools.groupby(theta1.tolist())]
    passes, mixed = [], []

    def station1(out, sectors):
        passes.append(out.shape)
        _mix_sectors(out, sectors)

    # the budget gives the component with the narrowest chunks b settings per chunk
    budget = 16 * min(map(_budget_width, lays)) * block
    with mock.patch.object(correlation, "BLOCK_BYTES", budget), \
            mock.patch.object(correlation, "_mix_sectors", station1), \
            mock.patch.object(correlation, "_sector_matrix", lambda n: _SectorSpy(n, mixed)):
        got = _evolution_rates(state, theta1, theta2)
    # one station-1 pass per run of each component, on one column
    assert passes == [lay.src.shape for lay in lays for _ in runs]
    # then each run in station-2 chunks of at most b settings, sector by sector
    chunks = []
    for lay in lays:
        b = max(1, budget // (16 * _budget_width(lay)))
        assert b <= block
        for m in runs:
            for k in [b] * (m // b) + [m % b] * (m % b > 0):
                chunks += [(n, 2 * g * k) for n, _, g in lay.station2]
    assert mixed == chunks
    # the chunks give the bytes of one unchunked call
    with mock.patch.object(correlation, "BLOCK_BYTES", 1 << 40):
        assert got.tobytes() == _evolution_rates(state, theta1, theta2).tobytes()
    for k, (t1, t2) in enumerate(pairs):
        want = _rates(output_correlators(state, PhaseSetting(t1, t2), backend="evolution"))
        assert np.all(np.abs(got[:, k] - want) <= 1e-12 * want.sum()), (got[:, k], want)


def _reference_station_moments(state):
    """The ten ``normal_moment`` calls the one-pass moments replaced."""
    mm = lambda spec: normal_moment(state, spec)
    return {
        "ss": mm([("a1", 1, 1), ("a2", 1, 1)]) + mm([("a1", 1, 1), ("b2", 1, 1)])
        + mm([("b1", 1, 1), ("a2", 1, 1)]) + mm([("b1", 1, 1), ("b2", 1, 1)]),
        "m1": mm([("a1", 1, 0), ("b1", 0, 1), ("a2", 0, 1), ("b2", 1, 0)]),
        "m2": mm([("a1", 1, 0), ("b1", 0, 1), ("a2", 1, 0), ("b2", 0, 1)]),
        "s1d2": mm([("a1", 1, 1), ("a2", 1, 0), ("b2", 0, 1)])
        + mm([("b1", 1, 1), ("a2", 1, 0), ("b2", 0, 1)]),
        "d1s2": mm([("a1", 1, 0), ("b1", 0, 1), ("a2", 1, 1)])
        + mm([("a1", 1, 0), ("b1", 0, 1), ("b2", 1, 1)]),
    }


@settings(max_examples=80, deadline=None)
@given(station_states())
def test_one_pass_station_moments_match_normal_moments(state):
    got = _station_moments(state)
    want = _reference_station_moments(state)
    assert set(got) == set(want)
    for name in want:
        assert abs(got[name] - want[name]) <= 1e-12, name


def _dense_moment(state, spec):
    """<psi| prod (a_m^dag)^p a_m^q |psi> with dense Kronecker-product ladder
    matrices, each mode truncated at the total-photon cutoff."""
    layout = state.layout
    dim = layout.cutoff + 1
    ladder = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    factors = {mode: (p, q) for mode, p, q in spec}
    op = np.ones((1, 1))
    for mode in layout.labels:
        p, q = factors.get(mode, (0, 0))
        op = np.kron(op, np.linalg.matrix_power(ladder.T, p) @ np.linalg.matrix_power(ladder, q))
    vec = np.zeros(dim ** layout.n_modes, dtype=np.complex128)
    for occ, amp in state.amplitudes().items():
        vec[np.ravel_multi_index(occ, (dim,) * layout.n_modes)] = amp
    return complex(vec.conj() @ op @ vec)


@st.composite
def moment_cases(draw):
    """A pure 2- or 3-mode state and a moment spec over some of its modes."""
    n_modes = draw(st.integers(2, 3))
    cutoff = draw(st.integers(1, 4))
    labels = tuple(f"m{i}" for i in range(n_modes))
    occs = _occupations(n_modes, cutoff).tolist()
    re_im = draw(arrays(np.int64, (2, len(occs)), elements=st.integers(-3, 3))
                 .filter(lambda p: np.any(p != 0)))
    modes = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=n_modes, unique=True))
    spec = [(m, draw(st.integers(0, 3)), draw(st.integers(0, 3))) for m in modes]
    return _pure(ModeLayout(labels, cutoff), occs, re_im), spec


@settings(max_examples=80, deadline=None)
@given(moment_cases())
def test_normal_moment_matches_dense_kronecker_ladders(case):
    state, spec = case
    want = _dense_moment(state, spec)
    assert abs(normal_moment(state, spec) - want) <= 1e-12 * max(1.0, abs(want))


def _reference_beamsplitter(state, mode_a, mode_b):
    """The splitter sector by sector: each occupied sector's matrix times the
    amplitudes of its kets, one column per ket."""
    layout = state.layout
    ia, ib = layout.index(mode_a), layout.index(mode_b)
    occ, amp = state._occ, state._amp
    sector = occ[:, ia] + occ[:, ib]
    k_in = occ[:, ia]
    occ_chunks = []
    amp_chunks = []
    for n in np.unique(sector):
        sel = sector == n
        group_occ = occ[sel]
        group_amp = amp[sel]
        mat = _sector_matrix(int(n))
        out = mat[:, k_in[sel]] * group_amp[None, :]
        g = group_occ.shape[0]
        rows = np.repeat(group_occ, n + 1, axis=0)
        js = np.tile(np.arange(n + 1, dtype=np.int64), g)
        rows[:, ia] = js
        rows[:, ib] = n - js
        occ_chunks.append(rows)
        amp_chunks.append(out.T.ravel())
    return MultiModeState._from_canonical(
        layout, *_canonicalize(layout, np.vstack(occ_chunks), np.concatenate(amp_chunks)))


@st.composite
def splitter_cases(draw):
    n_modes = draw(st.integers(2, 4))
    cutoff = draw(st.integers(1, 5))
    labels = tuple(f"m{i}" for i in range(n_modes))
    occs = _occupations(n_modes, cutoff).tolist()
    re_im = draw(arrays(np.int64, (2, len(occs)), elements=st.integers(-3, 3))
                 .filter(lambda p: np.any(p != 0)))
    state = _pure(ModeLayout(labels, cutoff), occs, re_im)
    mode_a, mode_b = draw(st.permutations(labels))[:2]
    return state, mode_a, mode_b


# cutoff 36, which the strategy never draws: four groups share sector 30 of
# (m3, m1), a pair given against the column order
_HIGH_SECTOR = _pure(
    ModeLayout(("m0", "m1", "m2", "m3"), 36),
    [(2, 10, 1, 20), (0, 25, 3, 5), (4, 0, 0, 30), (1, 17, 1, 13), (0, 3, 0, 2), (5, 1, 2, 0)],
    np.array([[1, -2, 3, 0, 1, 2], [0, 1, -1, 2, 3, 0]]),
)


@settings(max_examples=80, deadline=None)
@given(splitter_cases())
@example((_HIGH_SECTOR, "m3", "m1"))
def test_beamsplitter_matches_repeat_unique_reference(case):
    state, mode_a, mode_b = case
    got = beamsplitter(state, mode_a, mode_b)
    want = _reference_beamsplitter(state, mode_a, mode_b)
    # both sum the contributions to each output in ket order, so they agree bit for bit
    assert np.array_equal(got._occ, want._occ) and got._amp.tobytes() == want._amp.tobytes()


@st.composite
def sector_pair_states(draw):
    """A pure state at cutoff 0-5 on a few (n1, n2) sector pairs, or a mixture
    of two; cutoff 0 is the vacuum, one pair a single sector."""
    cutoff = draw(st.integers(0, 5))
    layout = ModeLayout(STANDARD, cutoff)
    pairs = [(n1, n2) for n1 in range(cutoff + 1) for n2 in range(cutoff + 1 - n1)]

    def pure():
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
        occs = [(a1, n1 - a1, a2, n2 - a2) for n1, n2 in chosen
                for a1 in range(n1 + 1) for a2 in range(n2 + 1)]
        re_im = draw(arrays(np.int64, (2, len(occs)), elements=st.integers(-3, 3)))
        re_im[0, 0] += not np.any(re_im)   # an all-zero draw becomes the first ket
        return _pure(layout, occs, re_im)

    if not draw(st.booleans()):
        return pure()
    w = draw(st.floats(0.05, 0.95))
    return MixedState(((w, pure()), (1.0 - w, pure())))


def _chain_rates(state, t1, t2):
    """(cc, cd, dc, dd) by the stored-state optics: phases on the b arms,
    each station's splitter, then <n_x1 n_x2> with c = a and d = b."""
    out = phase_shift(phase_shift(state, "b1", t1), "b2", t2)
    out = beamsplitter(beamsplitter(out, "a1", "b1"), "a2", "b2")
    return np.array([normal_moment(out, [(x1, 1, 1), (x2, 1, 1)]).real
                     for x1 in ("a1", "b1") for x2 in ("a2", "b2")])


@settings(max_examples=80, deadline=None)
@given(sector_pair_states(), st.lists(st.tuples(st.floats(-math.pi, math.pi),
                                                st.floats(-math.pi, math.pi)), min_size=1, max_size=5))
def test_closed_form_station_layout_matches_stored_state_optics(state, pairs):
    theta1 = np.array([t1 for t1, _ in pairs])
    theta2 = np.array([t2 for _, t2 in pairs])
    got = _evolution_rates(state, theta1, theta2)
    for k, (t1, t2) in enumerate(pairs):
        want = _chain_rates(state, t1, t2)
        assert np.all(np.abs(got[:, k] - want) <= 1e-12 * want.sum()), (got[:, k], want)
