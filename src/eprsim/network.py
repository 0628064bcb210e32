"""Passive linear optics: phase shifters, 50:50 beamsplitters, networks.

Beamsplitter convention
-----------------------
Output operators (c, d) relate to inputs (a, b) with the phase applied to
the b arm *before* the mixing:

    c = (a + e^{i theta} b) / sqrt(2)
    d = (-a + e^{i theta} b) / sqrt(2)

Here the phase is kept as a separate ``phase_shift`` element and
``beamsplitter`` implements the theta = 0 mixing. On creation operators
the inverse map used to transform kets is

    a^dag = (c^dag - d^dag) / sqrt(2)
    b^dag = (c^dag + d^dag) / sqrt(2)

which is unitary and photon-number conserving, so a state inside the total
cutoff stays inside it.

Grouped-sector kernel
---------------------
The splitter mixes only kets that agree on every other mode and on the
pair sector n = n_a + n_b. Lay the kets out so that sector n is one
dense (n+1, groups) block of rows, ket j of group g at row
start + j*groups + g, and the splitter is one product with the
(n+1, n+1) sector matrix per sector: ``_mix_sectors`` is that loop, and
the only one. ``beamsplitter`` takes its layout from ``_pair_layout``,
which groups the kets of a stored state by sorting, since such a state
may carry any other modes; the evolution backend of ``correlation``
computes the layout of its two stations in closed form and pushes
blocks of phase settings, sized in bytes to stay in cache, through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StateError
from .fock import (
    AnyState,
    ModeLayout,
    MultiModeState,
    per_component,
    relabel,
    reorder,
    tensor,
    vacuum,
    _canonicalize,
    _pack_keys,
)

__all__ = [
    "PhaseSetting",
    "phase_shift",
    "beamsplitter",
    "epr_split_network",
    "two_photon_network",
    "STATION_MODES",
]

# the analyzer arms of the two stations, in the order every four-mode state uses
STATION_MODES = ("a1", "b1", "a2", "b2")


@dataclass(frozen=True)
class PhaseSetting:
    """Analyzer phases for the two measurement stations."""

    theta1: float
    theta2: float


@per_component
def phase_shift(state: AnyState, mode: str, theta: float):
    """Multiply each ket by e^{i n theta} for the photon count n in ``mode``."""
    col = state.layout.index(mode)
    phases = np.exp(1j * float(theta) * state._occ[:, col])
    # occupations are untouched, so canonical order is preserved
    return MultiModeState._from_canonical(state.layout, state._occ, state._amp * phases)


@lru_cache(maxsize=128)  # bounded; holds sectors 0-33 of every paper LO state
def _sector_matrix(n: int) -> np.ndarray:
    """Number-sector matrix of the 50:50 splitter, exp(pi/4 (a^dag b - b^dag a)).

    Column k is the input ket with k photons in a (n-k in b); row j the
    output ket with j photons in c (n-j in d), signed as in the expansion of
    (c^dag - d^dag)^k (c^dag + d^dag)^{n-k}. With K = V diag(lam) V^T, the
    real tridiagonal generator with off-diagonal sqrt((k+1)(n-k)), and
    D = diag(i^k), the matrix is Re(D V e^{-i pi/4 lam} V^T D^-1): one
    ``eigh``, unitary to roundoff at any n, where binomial sums cancel.
    SU(2) picture: Campos, Saleh and Teich, PRA 40, 1371 (1989); exact
    diagonalization as for Wigner's d: Feng et al., PRE 92, 043307 (2015).
    """
    k = np.arange(n)
    w = np.sqrt((k + 1.0) * (n - k))
    lam, v = np.linalg.eigh(np.diag(w, 1) + np.diag(w, -1))
    d = np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4]  # i^k, exactly
    m = ((d[:, None] * v * np.exp(-0.25j * np.pi * lam)) @ (v.T * d.conj())).real.copy()
    m.setflags(write=False)    # every caller shares the cached matrix
    return m


def _pair_layout(occ: np.ndarray, cutoff: int, ia: int, ib: int):
    """Rows (j = n_a) of the kets ``occ`` of a stored state for a splitter on
    columns (ia, ib), the sectors and the occupation of every output row;
    a group is one occupation of the other modes and of n = n_a + n_b."""
    sector = occ[:, ia] + occ[:, ib]
    # sector first, so that groups come out ordered sector by sector
    key = _pack_keys(np.column_stack([sector, np.delete(occ, [ia, ib], axis=1)]), cutoff)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    group_sector = sector[first]
    groups = np.bincount(group_sector, minlength=cutoff + 1)
    sizes = groups * np.arange(1, cutoff + 2)
    start = np.cumsum(sizes) - sizes
    group_base = np.cumsum(groups) - groups          # first group of each sector
    local = np.arange(first.shape[0]) - group_base[group_sector]
    rows = start[sector] + occ[:, ia] * groups[sector] + local[group]
    out = np.empty((int(sizes.sum()), occ.shape[1]), dtype=np.int64)
    sectors = []
    for n in np.flatnonzero(groups):
        n, g, s0 = int(n), int(groups[n]), int(start[n])
        block = out[s0:s0 + (n + 1) * g].reshape(n + 1, g, -1)
        block[...] = occ[first[group_base[n]:group_base[n] + g]]
        split = np.arange(n + 1)[:, None]
        block[:, :, ia] = split
        block[:, :, ib] = n - split
        sectors.append((n, s0, g))
    return rows, tuple(sectors), out


def _mix_sectors(out: np.ndarray, sectors) -> None:
    """Push the (R, K) amplitudes ``out`` (a state per column) through the
    50:50 splitter in place; ``sectors`` lists the (n, start, groups) blocks."""
    k = out.shape[1]
    for n, s0, g in sectors:
        # the real sector matrix acts on the interleaved (re, im) pairs; a block
        # that is no view of ``out`` raises rather than leaving ``out`` unmixed
        block = out[s0:s0 + (n + 1) * g].view(np.float64).reshape(n + 1, -1, copy=False)
        block[...] = _sector_matrix(n) @ block


@per_component
def beamsplitter(state: AnyState, mode_a: str, mode_b: str):
    """Apply the 50:50 splitter to (mode_a, mode_b); outputs reuse the labels.

    mode_a carries the c output (symmetric combination on the ket side),
    mode_b the d output. This is the one-column case of the grouped-sector
    kernel, followed by the usual prune and canonical sort.
    """
    layout = state.layout
    ia, ib = layout.index(mode_a), layout.index(mode_b)
    if ia == ib:
        raise StateError("beamsplitter needs two distinct modes")
    # total-photon cutoff: the pair sector n = n_a + n_b never exceeds it,
    # so every output occupation stays representable
    rows, sectors, occ = _pair_layout(state._occ, layout.cutoff, ia, ib)
    amp = np.zeros((occ.shape[0], 1), dtype=np.complex128)
    amp[rows, 0] = state._amp
    _mix_sectors(amp, sectors)
    occ, amp = _canonicalize(layout, occ, amp[:, 0])
    return MultiModeState._from_canonical(layout, occ, amp)


@per_component
def epr_split_network(state: AnyState, input_mode: str = "a") -> AnyState:
    """Split one input beam into the four analyzer arms (a1, b1, a2, b2).

    Three 50:50 splitters with vacuum at every unused port: the input is
    divided between the two stations, then each half is divided between
    that station's two arms.
    """
    if state.layout.n_modes != 1:
        raise StateError("epr_split_network expects a single-mode input state")
    s = relabel(state, {state.layout.labels[0]: "a1"})
    s = tensor(s, vacuum(STATION_MODES[1:]))
    s = beamsplitter(s, "a1", "a2")   # input -> station halves
    s = beamsplitter(s, "a1", "b1")   # station 1 half -> its two arms
    s = beamsplitter(s, "a2", "b2")   # station 2 half -> its two arms
    return s


def two_photon_network(cutoff: int = 2) -> MultiModeState:
    """Two independent single photons, one split across each station.

    Photon 1 enters the (a1, a2) splitter, photon 2 the (b1, b2) splitter;
    the result is reported on the standard (a1, b1, a2, b2) ordering.
    """
    if cutoff < 2:
        raise StateError("two photons need cutoff >= 2")
    half = cutoff // 2
    # inject through the symmetric port so each split carries + signs
    one_a = MultiModeState(ModeLayout(("a1", "a2"), half), {(0, 1): 1.0})
    one_b = MultiModeState(ModeLayout(("b1", "b2"), cutoff - half), {(0, 1): 1.0})
    s = tensor(beamsplitter(one_a, "a1", "a2"), beamsplitter(one_b, "b1", "b2"))
    return reorder(s, STATION_MODES)
