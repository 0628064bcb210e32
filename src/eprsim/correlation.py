"""Two-station interference correlators and their two-amplitude form.

Each measurement station k receives two arms (a_k, b_k), applies an
analyzer phase theta_k to the b arm, and mixes the arms on a 50:50
splitter; detectors count photons in the outputs (c_k, d_k). The
correlation function is

    E = (cc - cd - dc + dd) / (cc + cd + dc + dd)

with cc = <n_c1 n_c2> and so on. Writing the output numbers as
n_c = (S + D)/2, n_d = (S - D)/2 with S = n_a + n_b and
D(theta) = e^{i theta} a^dag b + h.c. gives the closed form

    E(theta1, theta2) = A1 cos(theta1 - theta2 + xi)
                      + A2 cos(theta1 + theta2 + zeta)

where A1 = 2|M1|/den, A2 = 2|M2|/den, xi = arg M1, zeta = arg M2, with
M1 = <a1^dag b1 a2 b2^dag>, M2 = <a1^dag b1 a2^dag b2> and
den = <(n_a1 + n_b1)(n_a2 + n_b2)>.

Two backends compute the correlators. ``expansion`` evaluates the five
input moments (ss, m1, m2, s1d2, d1s2) in one pass over the kets: ss is
diagonal, and each other moment finds its partner ket by one search of
the packed key shifted by the moment's occupation change. The pass runs
once per pure state: the moments are kept while the state lives (its
arrays are read-only, so they stay valid), and ``amplitudes``,
``epr_check`` and every expansion setting of the state share them. ``evolution``
pushes the settings through the analyzer optics (phases on the b arms,
then each station's splitter) with the sector matrices of ``network``,
on rows computed without sort or search: station k mixes only within
n_k = a_k + b_k, so every ket lies in the dense (n1+1) x (n2+1) block of
its sector pair. The rows depend on the occupations alone, so one layout
is kept, keyed by the cutoff and the packed keys: every setting of a
state, and every state of one support, shares it. The phase on b2
commutes with station 1, so settings of equal theta1 share one station-1
pass, and station 2 runs one sector at a time on chunks of settings held
within ``BLOCK_BYTES``, so its buffers stay in cache. It reads the rates as
sum |amp|^2 n_x1 n_x2 in per-sector sums, with no weight per row: each
station-2 sector weights its splits j by (j, n2 - j) in one product, and
each group's (c1, d1) finishes the rates. It never evaluates an input
moment, so the two agree to float precision only if both are right; the
tests cross-check them. |amp|^2 <= ``PRUNE_TOL**2`` reads as 0, as in a
stored state, so a cancelled coincidence is exactly 0. That absolute cut
is safe because the optics are unitary on each normalised pure component.
So is ``ZERO_TOL`` on a coincidence total: the total is at least
P(both stations fire).
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EprSimError, StateError, ZeroCoincidence, _nonnegative, _require_count, _require_finite, _shown
from .fock import PRUNE_TOL, ZERO_TOL, AnyState, MultiModeState, _partner_sum, mixture_average, require_modes
from .network import STATION_MODES, PhaseSetting, _blocks, _mix_sectors, _occupied, _runs, _sector_matrix

NEGATIVE_RATE_TOL = 1e-12   # relative to the coincidence total
BLOCK_BYTES = 4 << 20       # per chunk of settings at station 2: 2-4 MiB stays in cache, 8 MiB did not
GRID_BUDGET = 256           # most phases per axis of sinusoid_residual's grid, 32x the default 8

__all__ = [
    "OutputCorrelators",
    "CorrelationAmplitudes",
    "EprReport",
    "output_correlators",
    "correlation_E",
    "amplitudes",
    "predict_E",
    "sinusoid_residual",
    "epr_check",
    "epr_holds",
]

MOMENTS = ("ss", "m1", "m2", "s1d2", "d1s2")


def _phase(m: complex) -> float:
    """arg m, or 0 for a vanishing moment, whose cosine has no amplitude."""
    return cmath.phase(m) if abs(m) > ZERO_TOL else 0.0


def _clip_rate(value: float, name: str, total: float = 1.0) -> float:
    """Coincidence rates are nonnegative; swallow roundoff, not sign bugs or NaN.

    Roundoff in a rate scales with the coincidence total it is part of,
    so the allowance is ``NEGATIVE_RATE_TOL`` relative to ``total``.
    """
    if not value >= -NEGATIVE_RATE_TOL * abs(total):
        raise EprSimError(f"correlator {name} = {value!r} is negative beyond roundoff or not a number")
    return max(0.0, value)


def _clipped(cc: float, cd: float, dc: float, dd: float) -> "OutputCorrelators":
    total = cc + cd + dc + dd
    return OutputCorrelators(
        cc=_clip_rate(cc, "cc", total),
        cd=_clip_rate(cd, "cd", total),
        dc=_clip_rate(dc, "dc", total),
        dd=_clip_rate(dd, "dd", total),
    )


@dataclass(frozen=True)
class OutputCorrelators:
    """Coincidence rates between the four detector pairings."""

    cc: float
    cd: float
    dc: float
    dd: float

    @property
    def total(self) -> float:
        return self.cc + self.cd + self.dc + self.dd

    def E(self) -> float:
        total = self.total
        if abs(total) <= ZERO_TOL:     # absolute: the module docstring says why
            raise ZeroCoincidence(f"coincidence total {total!r} below {ZERO_TOL}")
        return (self.cc - self.cd - self.dc + self.dd) / total


@dataclass(frozen=True)
class CorrelationAmplitudes:
    """The (A1, A2, xi, zeta) parameters of the two-cosine correlation.

    ``denominator`` is <(n_a1 + n_b1)(n_a2 + n_b2)> when the instance came
    from a state, and 2 for a bare (a1, a2, xi, zeta) pair.
    """

    a1: float
    a2: float
    xi: float
    zeta: float
    denominator: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(**vars(self))
        if self.a1 < 0.0 or self.a2 < 0.0:
            raise StateError(f"amplitudes must be nonnegative, got ({self.a1}, {self.a2})")


@dataclass(frozen=True)
class EprReport:
    """Result of the perfect-correlation test A1 + A2 = 1.

    ``phases`` and ``witness`` are filled only when the test passes: the
    phase pair drives both cosines to +1, and the witness correlators at
    that setting (evolution backend, so independently of the moment
    expansion) show the cross coincidences vanishing.
    """

    is_epr: bool
    amplitudes: CorrelationAmplitudes
    phases: Optional[PhaseSetting]
    witness: Optional[OutputCorrelators]


def _station_moments(state: AnyState) -> dict[str, complex]:
    """The input moments that determine every correlator, in one pass.

    ss = <S1 S2> is a diagonal sum. Each other moment <psi| X |psi> moves
    a ket by a fixed occupation change delta on (a1, b1, a2, b2) with a
    ket-dependent weight, and is one ``fock._partner_sum``: the weight
    vanishes wherever the shifted occupation would be invalid, and photon
    number is conserved, so every searched partner lies within the cutoff.
    A pure state's moments are computed once and kept while it lives; a
    mixture's are the weighted sum of its components' kept moments.
    """
    return dict(zip(MOMENTS, _moment_vector(state).tolist()))


_MOMENTS_KEPT = weakref.WeakKeyDictionary()   # pure state -> its read-only moment vector


@mixture_average
def _moment_vector(state: AnyState) -> np.ndarray:
    """The moments of ``_station_moments`` of a pure state, in ``MOMENTS`` order."""
    vec = _MOMENTS_KEPT.get(state)
    if vec is not None:
        return vec
    amp = state._amp
    a1, b1, a2, b2 = state._occ.T.astype(np.float64)
    s1, s2 = a1 + b1, a2 + b2
    vec = np.array([
        complex(np.sum((amp.real ** 2 + amp.imag ** 2) * s1 * s2)),
        _partner_sum(state, (1, -1, -1, 1), np.sqrt((a1 + 1) * b1 * a2 * (b2 + 1))),
        _partner_sum(state, (1, -1, 1, -1), np.sqrt((a1 + 1) * b1 * (a2 + 1) * b2)),
        _partner_sum(state, (0, 0, 1, -1), s1 * np.sqrt((a2 + 1) * b2)),
        _partner_sum(state, (1, -1, 0, 0), s2 * np.sqrt((a1 + 1) * b1)),
    ])
    vec.setflags(write=False)
    _MOMENTS_KEPT[state] = vec
    return vec


@dataclass(frozen=True)
class _StationLayout:
    """Rows of the evolution backend's two stations, and its rate weights per
    station-2 group and split, not per row; see ``_station_layout``."""

    src: np.ndarray         # ket of each station-1 row; n_kets stands for the zero row
    station1: tuple         # (n1, start, groups) blocks of station 1
    order: np.ndarray       # station-1 row of each station-2 row
    station2: tuple         # (n2, start, groups) blocks of station 2
    cd1: np.ndarray         # (c1, d1) of each station-2 group, 2 x groups
    cd2: np.ndarray         # (c2, d2) = (j, n2 - j) of each station-2 split j, sector by sector
    nb: np.ndarray          # (n_b1, n_b2) of each ket, one contiguous row each for the phase gathers


def _station_layout(occ: np.ndarray) -> _StationLayout:
    """Both stations' rows of a four-mode state, by arithmetic on its sectors.

    At station 1 the groups of sector n1 are the (n2, a2) of its occupied
    pairs (n1, n2); at station 2 the groups of sector n2 are the (n1, c1).
    The pair grid spans the occupied sectors only: each adds at least n + 1
    station-2 rows, so the grid holds at most twice those rows, whatever
    the cutoff. Array methods stand in for numpy's functions, whose
    dispatch costs as much as the small arrays of a cutoff-3 state.
    """
    a1, b1, a2, b2 = occ.T
    sec1, r1 = _occupied(a1 + b1)
    sec2, r2 = _occupied(a2 + b2)
    pair = np.bincount(r1 * sec2.shape[0] + r2, minlength=sec1.shape[0] * sec2.shape[0])
    pair = pair.reshape(sec1.shape[0], sec2.shape[0]) > 0
    w1 = pair * (sec2 + 1)             # station-1 groups (n2, a2) of each pair
    w2 = pair * (sec1 + 1)[:, None]    # station-2 groups (n1, c1) of each pair
    g1 = w1.sum(1)
    g2 = w2.sum(0)
    start1, station1 = _blocks(sec1, g1)
    _, station2 = _blocks(sec2, g2)
    base1 = start1[:, None] + w1.cumsum(1) - w1   # station-1 row of (c1, a2) = (0, 0)
    # the station-2 groups (n1, c1), sector n2 by sector n2, and their station-1 rows at a2 = 0
    q2, q1 = pair.T.nonzero()
    splits1 = sec1[q1] + 1
    gq1 = q1.repeat(splits1)
    gc1 = _runs(splits1)
    gbase = base1[gq1, q2.repeat(splits1)] + gc1 * g1[gq1]
    # station-2 row block j of sector n2 runs over the groups of that sector in
    # turn, and the station-1 row of group i at split j is gbase[i] + a2 = gbase[i] + j
    run_q2 = np.arange(sec2.shape[0]).repeat(sec2 + 1)
    run_j = _runs(sec2 + 1)
    run_len = g2[run_q2]
    shift = run_len.cumsum() - run_len - (g2.cumsum() - g2)[run_q2]   # first row - first group
    order = gbase.take(np.arange(run_len.sum()) - shift.repeat(run_len))
    order += run_j.repeat(run_len)
    src = np.full(order.shape[0], occ.shape[0])   # rows of no ket read the zero row after the kets
    src[base1[r1, r2] + a1 * g1[r1] + a2] = np.arange(occ.shape[0])
    cd1 = np.array([gc1, sec1[gq1] - gc1], dtype=np.float64)
    cd2 = np.array([run_j, sec2[run_q2] - run_j], dtype=np.float64)
    # a kept layout is shared by every call on its support, so its arrays are read-only;
    # src, order and nb are views of writable contiguous owners, since np.take copies a
    # read-only or strided index array on every call (1 MB on a 137k-row state)
    src, order, nb = src.view(), order.view(), occ[:, [1, 3]].T.copy().view()
    for value in (src, order, cd1, cd2, nb):
        value.setflags(write=False)
    return _StationLayout(src, station1, order, station2, cd1, cd2, nb)


_LAYOUT_KEPT = (None, None, None)   # (cutoff, packed keys, layout) of the last state laid out


def _kept_layout(state: MultiModeState) -> _StationLayout:
    """``_station_layout`` of a pure state's occupations, built once per support.

    The one kept entry is the cutoff, the state's read-only packed keys,
    which with the cutoff fix its occupations, and their layout; it holds
    no reference to the state. A hit needs the same cutoff and the same
    keys array or equal keys, so states of one support share a layout. The
    entry is replaced as one tuple, so a thread never reads a mixed entry.
    """
    global _LAYOUT_KEPT
    cutoff, keys, lay = _LAYOUT_KEPT
    if cutoff == state.layout.cutoff and (keys is state._keys or np.array_equal(keys, state._keys)):
        return lay
    lay = _station_layout(state._occ)
    _LAYOUT_KEPT = (state.layout.cutoff, state._keys, lay)
    return lay


@mixture_average
def _evolution_rates(state: AnyState, theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Rates (cc, cd, dc, dd) x K settings from the analyzer optics.

    e^{i t2 n_b2} is constant on each station-1 group (n2, a2), so each run
    of consecutive settings with equal theta1 phases the kets once, at the
    run's first t2, and pushes them through station 1 as one column on the
    rows of ``_kept_layout``. Station 2 takes one sector n2 at a time: it
    gathers the sector's rows from that column, turns split j by
    e^{i(t2 - t2_first)(n2 - j)} for each setting of a longer run, mixes
    and squares. The rates are sum |amp|^2 n_x1 n_x2, with c = a and d = b
    after each splitter: one product per sector sums each group's
    probabilities over the splits j with the weights (j, n2 - j), and the
    groups' (c1, d1) finish them. The explicit n2 - j keeps a cancelled
    coincidence exactly 0. Mixtures are weighted per component. No buffer
    spans all rows and settings: one of 137k rows and 16 settings was
    35 MB, past glibc's mmap threshold, and so paged in on every call.
    """
    lay = _kept_layout(state)
    ladder = np.arange(int(lay.nb.max()) + 1)    # the b-arm photon counts
    src, order = lay.src.base, lay.order.base    # writable owners; see _station_layout
    groups = lay.cd1.shape[1]
    # a chunk of settings holds its group sums and its largest station-2 sector within the budget
    block = max(1, BLOCK_BYTES // (16 * (groups + max((n + 1) * g for n, _, g in lay.station2))))
    rates = np.empty((4, theta1.shape[0]))
    first = theta1.tolist()
    starts = [k for k in range(len(first)) if k == 0 or first[k] != first[k - 1]]
    for lo, hi in zip(starts, starts[1:] + [len(first)]):
        col = np.zeros(state._amp.shape[0] + 1, dtype=np.complex128)
        col[:-1] = (state._amp * np.take(np.exp(1j * ladder * theta1[lo]), lay.nb.base[0])
                    * np.take(np.exp(1j * ladder * theta2[lo]), lay.nb.base[1]))
        col = np.take(col, src)            # station-1 rows; frees the phased kets
        _mix_sectors(col, lay.station1)    # a1, b1 -> c1, d1
        for c0 in range(lo, hi, block):
            k = min(hi - c0, block)
            # cd2[1] holds n_b2 = n2 - j of each station-2 split j
            turn = np.exp(1j * np.outer(lay.cd2[1], theta2[c0:c0 + k] - theta2[lo])) if hi - lo > 1 else None
            sums = np.empty((2, groups * k))   # (c2, d2)-weighted sums of each group
            g0 = j0 = 0
            for n, s0, g in lay.station2:
                amp = np.take(col, order[s0:s0 + (n + 1) * g])
                if turn is not None:
                    amp = amp.reshape(n + 1, g, 1) * turn[j0:j0 + n + 1, None, :]
                # a2, b2 -> c2, d2 on the interleaved (re, im) pairs, then re^2, im^2 in place
                out = _sector_matrix(n) @ amp.view(np.float64).reshape(n + 1, -1)
                np.square(out, out=out)
                prob = out[:, 0::2] + out[:, 1::2]
                prob[prob <= PRUNE_TOL ** 2] = 0.0    # as in a stored state: a cancelled coincidence is 0, not ~1e-34
                np.matmul(lay.cd2[:, j0:j0 + n + 1], prob, out=sums[:, g0 * k:(g0 + g) * k])
                g0, j0 = g0 + g, j0 + n + 1
            # one contiguous (groups, 1) product per setting, as a one-setting call makes:
            # BLAS sums a wider product's groups in another order, 1e-14 of the total apart
            sums = np.ascontiguousarray(sums.reshape(2, groups, k).transpose(2, 0, 1))
            rates[:, c0:c0 + k] = (lay.cd1 @ sums[..., None]).transpose(2, 1, 0, 3).reshape(4, k)
    return rates


def output_correlators(state: AnyState, setting: PhaseSetting, backend: str = "expansion") -> OutputCorrelators:
    """Coincidence rates <n_x1 n_x2> for the four output pairings."""
    require_modes(state, STATION_MODES, "state")
    t1, t2 = float(setting.theta1), float(setting.theta2)
    if backend == "expansion":
        mom = _station_moments(state)
        ss = mom["ss"].real
        sd = 2.0 * (cmath.exp(1j * t2) * mom["s1d2"]).real
        ds = 2.0 * (cmath.exp(1j * t1) * mom["d1s2"]).real
        dd = (
            2.0 * (cmath.exp(1j * (t1 + t2)) * mom["m2"]).real
            + 2.0 * (cmath.exp(1j * (t1 - t2)) * mom["m1"]).real
        )
        return _clipped(
            0.25 * (ss + sd + ds + dd),
            0.25 * (ss - sd + ds - dd),
            0.25 * (ss + sd - ds - dd),
            0.25 * (ss - sd - ds + dd),
        )
    if backend == "evolution":
        rates = _evolution_rates(state, np.array([t1]), np.array([t2]))
        return _clipped(*(float(r) for r in rates[:, 0]))
    raise StateError(f"unknown backend {backend!r}; use 'expansion' or 'evolution'")


def correlation_E(state: AnyState, setting: PhaseSetting, backend: str = "expansion") -> float:
    return output_correlators(state, setting, backend=backend).E()


def amplitudes(state: AnyState) -> CorrelationAmplitudes:
    """Extract (A1, A2, xi, zeta) from the state's input moments."""
    require_modes(state, STATION_MODES, "state")
    mom = _station_moments(state)
    den = mom["ss"].real
    if den <= ZERO_TOL:    # absolute: a normalised state's P(both stations fire) <= den
        raise ZeroCoincidence(
            f"coincidence denominator <(n_a1+n_b1)(n_a2+n_b2)> = {den!r} below {ZERO_TOL}"
        )
    m1, m2 = mom["m1"], mom["m2"]
    return CorrelationAmplitudes(
        a1=2.0 * abs(m1) / den,
        a2=2.0 * abs(m2) / den,
        xi=_phase(m1),
        zeta=_phase(m2),
        denominator=den,
    )


def predict_E(amps: CorrelationAmplitudes, setting: PhaseSetting) -> float:
    t1, t2 = float(setting.theta1), float(setting.theta2)
    return amps.a1 * math.cos(t1 - t2 + amps.xi) + amps.a2 * math.cos(t1 + t2 + amps.zeta)


def sinusoid_residual(state: AnyState, grid_size: int = 8,
                      amps: Optional[CorrelationAmplitudes] = None) -> float:
    """Worst |E_network - E_two_cosine| over a grid_size^2 phase grid.

    The network value is computed with the ``evolution`` backend (actual
    optics applied to the state) so the comparison is independent of the
    moment expansion behind ``predict_E``. The grid is uniformly spaced
    with a fixed offset so it does not sit only on symmetry points, where
    a phase-sign error would be invisible. Grid points without
    coincidences are skipped; if all are degenerate the error propagates.
    """
    if not 4 <= _require_count("grid_size", grid_size) <= GRID_BUDGET:
        raise StateError(f"sinusoid_residual needs 4 <= grid_size <= {GRID_BUDGET}")
    require_modes(state, STATION_MODES, "state")
    if amps is None:
        amps = amplitudes(state)
    steps = 2.0 * math.pi * np.arange(grid_size) / grid_size
    theta1 = np.repeat(steps + 0.1234, grid_size)
    theta2 = np.tile(steps + 0.4321, grid_size)
    rates = _evolution_rates(state, theta1, theta2)
    worst = None
    for t1, t2, column in zip(theta1, theta2, rates.T):
        setting = PhaseSetting(float(t1), float(t2))
        try:
            e_net = _clipped(*(float(r) for r in column)).E()
        except ZeroCoincidence:
            continue
        dev = abs(e_net - predict_E(amps, setting))
        worst = dev if worst is None else max(worst, dev)
    if worst is None:
        raise ZeroCoincidence("no coincidences at any grid point")
    return worst


def epr_holds(amps: CorrelationAmplitudes, tol: float) -> bool:
    """A1 + A2 = 1 within tol; tol must be finite and nonnegative."""
    if not _nonnegative(tol):
        raise StateError(f"tol must be finite and >= 0, got {_shown(tol)}")
    return abs(amps.a1 + amps.a2 - 1.0) <= tol


def epr_check(state: AnyState, tol: float = 1e-9) -> EprReport:
    """Test A1 + A2 = 1 and, when it holds, exhibit the matching phases.

    At theta1 = -(xi + zeta)/2, theta2 = (xi - zeta)/2 both cosines hit 1
    (a vanishing amplitude reports phase 0, which makes its constraint
    vacuous), so E = A1 + A2 there. For a perfectly correlated state the
    cross coincidences cd and dc vanish at that setting; they are returned
    as the witness, computed with the evolution backend.
    """
    amps = amplitudes(state)
    if not epr_holds(amps, tol):
        return EprReport(is_epr=False, amplitudes=amps, phases=None, witness=None)
    phases = PhaseSetting(-(amps.xi + amps.zeta) / 2.0, (amps.xi - amps.zeta) / 2.0)
    witness = output_correlators(state, phases, backend="evolution")
    return EprReport(is_epr=True, amplitudes=amps, phases=phases, witness=witness)
