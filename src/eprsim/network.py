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
cutoff stays inside it. ``beamsplitter`` is the splitter's definition, ket
by ket; ``correlation._mix_sectors`` is the evolution backend's batched form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StateError, _require_count, _require_finite
from .fock import (
    AnyState,
    ModeLayout,
    MultiModeState,
    per_component,
    relabel,
    require_modes,
    tensor,
    vacuum,
    _canonicalize,
    _product,
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

    def __post_init__(self) -> None:
        _require_finite(**vars(self))


@per_component
def phase_shift(state: AnyState, mode: str, theta: float):
    """Multiply each ket by e^{i n theta} for the photon count n in ``mode``."""
    col = state.layout.index(mode)
    _require_finite(theta=theta)
    phases = np.exp(1j * float(theta) * state._occ[:, col])
    # occupations are untouched, so canonical order is preserved
    return MultiModeState._from_canonical(state.layout, state._keys, state._occ, state._amp * phases)


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


def _occupied(n: np.ndarray):
    """The occupied values of ``n``, ascending, and each entry's rank among them."""
    seen = np.bincount(n) > 0
    return seen.nonzero()[0], (seen.cumsum() - 1)[n]


def _runs(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., m - 1 for each run length m, concatenated."""
    return np.arange(lengths.sum()) - (lengths.cumsum() - lengths).repeat(lengths)


@per_component
def beamsplitter(state: AnyState, mode_a: str, mode_b: str):
    """Apply the 50:50 splitter to (mode_a, mode_b); outputs reuse the labels.

    mode_a carries the c output (symmetric combination on the ket side),
    mode_b the d output. This is the splitter's definition, ket by ket: a
    ket with k photons in mode_a and n - k in mode_b emits |j, n - j> for
    j = 0..n, the other modes unchanged, with coefficient
    ``_sector_matrix(n)[j, k]``; equal outputs are summed in ket order and
    pruned. The evolution backend's batched form is
    ``correlation._mix_sectors``.
    """
    layout = state.layout
    ia, ib = layout.index(mode_a), layout.index(mode_b)
    if ia == ib:
        raise StateError("beamsplitter needs two distinct modes")
    # total-photon cutoff: the pair sector n = n_a + n_b never exceeds it,
    # so every output occupation stays representable
    k = state._occ[:, ia]
    n = k + state._occ[:, ib]
    sec, rank = _occupied(n)
    # entry (j, k) of sector n's matrix, the occupied sectors' matrices laid end to end
    size = (sec + 1) ** 2
    mats = np.concatenate([_sector_matrix(m).ravel() for m in sec.tolist()])
    reps = n + 1                         # outputs of each ket
    j, n = _runs(reps), n.repeat(reps)   # split and sector of each output
    coef = mats[((size.cumsum() - size)[rank] + k).repeat(reps) + j * (n + 1)]
    occ = state._occ.repeat(reps, axis=0)
    occ[:, ia], occ[:, ib] = j, n - j
    return MultiModeState._from_canonical(layout, *_canonicalize(layout, occ, coef * state._amp.repeat(reps)))


@per_component
def epr_split_network(state: AnyState, input_mode: str = "a") -> AnyState:
    """Split one input beam into the four analyzer arms (a1, b1, a2, b2).

    Three 50:50 splitters with vacuum at every unused port: the input is
    divided between the two stations, then each half is divided between
    that station's two arms.
    """
    require_modes(state, (input_mode,), "epr_split_network input")
    s = relabel(state, {input_mode: "a1"})
    s = tensor(s, vacuum(STATION_MODES[1:]))
    s = beamsplitter(s, "a1", "a2")   # input -> station halves
    s = beamsplitter(s, "a1", "b1")   # station 1 half -> its two arms
    s = beamsplitter(s, "a2", "b2")   # station 2 half -> its two arms
    return s


def two_photon_network(cutoff: int = 2) -> MultiModeState:
    """Two independent single photons, one split by the (a1, a2) splitter and
    one by the (b1, b2) splitter, on the standard (a1, b1, a2, b2) ordering."""
    cutoff = _require_count("cutoff", cutoff, 2)
    half = cutoff // 2
    # inject through the symmetric port so each split carries + signs
    one_a = MultiModeState(ModeLayout(("a1", "a2"), half), {(0, 1): 1.0})
    one_b = MultiModeState(ModeLayout(("b1", "b2"), cutoff - half), {(0, 1): 1.0})
    return _product(beamsplitter(one_a, "a1", "a2"), beamsplitter(one_b, "b1", "b2"), STATION_MODES)
