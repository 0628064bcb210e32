"""Named example states and their closed-form predictions.

Builders return states on the standard layouts: four analyzer arms
(a1, b1, a2, b2) for the single-photon entangled pair and the two-photon
network, two signal arms (a1, a2) for the states measured against local
oscillators. Names accepted by the CLI are listed in ``ZOO_NAMES``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import CatDegenerate, CutoffError, StateError
from .fock import (
    ModeLayout,
    MultiModeState,
    coherent_cutoff,
    make_coherent,
    make_pure,
)
from .homodyne import CoherenceFunctions
from .network import two_photon_network

DEGENERACY_TOL = 1e-14
TAIL_TOL = 1e-12

__all__ = [
    "CatParams",
    "CatPredictions",
    "entangled",
    "two_photon",
    "coherent_pair",
    "split_single_photon",
    "split_cat",
    "single_mode_cat",
    "cat_predictions",
    "ZOO_NAMES",
]

ZOO_NAMES = (
    "entangled-sum",
    "entangled-diff",
    "two-photon",
    "coherent",
    "split-photon",
    "split-cat",
)


@dataclass(frozen=True)
class CatParams:
    """Coherent amplitude and superposition phase of a cat state."""

    alpha: complex
    phi: float

    def __post_init__(self) -> None:
        if not (cmath.isfinite(complex(self.alpha)) and math.isfinite(self.phi)):
            raise StateError(
                f"cat parameters must be finite, got alpha={self.alpha!r}, phi={self.phi!r}"
            )


@dataclass(frozen=True)
class CatPredictions:
    """Closed-form coherences and amplitudes of the split cat."""

    g: CoherenceFunctions
    a1: float
    a2: float
    sum_sq: float


def entangled(variant: str) -> MultiModeState:
    """Single-photon-pair states driving exactly one interference term.

    ``sum``:  (|1010> + |0101>)/sqrt(2) on (a1, b1, a2, b2) — only the
    phase-sum cosine survives, amplitudes (0, 1).
    ``diff``: (|1001> + |0110>)/sqrt(2) — only the phase-difference
    cosine, amplitudes (1, 0). The two are related by swapping the
    occupations of a2 and b2.
    """
    layout = ModeLayout(("a1", "b1", "a2", "b2"), 2)
    if variant == "sum":
        return make_pure(layout, [((1, 0, 1, 0), 1.0), ((0, 1, 0, 1), 1.0)])
    if variant == "diff":
        return make_pure(layout, [((1, 0, 0, 1), 1.0), ((0, 1, 1, 0), 1.0)])
    raise StateError(f"unknown entangled variant {variant!r}; use 'sum' or 'diff'")


def two_photon() -> MultiModeState:
    """One photon split across the a arms, one across the b arms."""
    return two_photon_network()


def coherent_pair(alpha1: complex, alpha2: complex, cutoff: Optional[int] = None) -> MultiModeState:
    """Product coherent state on the signal arms (a1, a2)."""
    lam = math.sqrt(abs(alpha1) ** 2 + abs(alpha2) ** 2)
    if cutoff is None:
        cutoff = coherent_cutoff(lam)
    return make_coherent(ModeLayout(("a1", "a2"), cutoff), [alpha1, alpha2])


def split_single_photon() -> MultiModeState:
    """(|1,0> + |0,1>)/sqrt(2) on (a1, a2): one photon shared by the arms."""
    layout = ModeLayout(("a1", "a2"), 1)
    return make_pure(layout, [((1, 0), 1.0), ((0, 1), 1.0)])


def _cat_norm_sq_inv(alpha_mag_sq: float, phi: float) -> float:
    """2 (1 + e^{-4|alpha|^2} cos phi) — the inverse squared normalization."""
    return 2.0 * (1.0 + math.exp(-4.0 * alpha_mag_sq) * math.cos(phi))


def split_cat(p: CatParams, cutoff: Optional[int] = None) -> MultiModeState:
    """N (|alpha, alpha> + e^{i phi} |-alpha, -alpha>) on (a1, a2).

    Built by direct truncated expansion; equivalently obtained by mixing
    the single-mode cat of amplitude sqrt(2) alpha with vacuum on a 50:50
    splitter (kept as a test oracle). The truncation is accepted only if
    the exactly computed discarded mass is below 1e-12.
    """
    alpha = complex(p.alpha)
    asq = abs(alpha) ** 2
    nsq_inv = _cat_norm_sq_inv(asq, p.phi)
    if nsq_inv <= DEGENERACY_TOL:
        raise CatDegenerate(
            f"cat normalization vanishes at alpha={alpha!r}, phi={p.phi!r}"
        )
    if cutoff is None:
        cutoff = coherent_cutoff(math.sqrt(2.0) * abs(alpha))
    norm = 1.0 / math.sqrt(nsq_inv)
    phase = cmath.exp(1j * p.phi)
    gauss = math.exp(-asq)
    # amplitude(n1, n2) = N e^{-|alpha|^2} alpha^{n1+n2}
    #                     (1 + e^{i phi} (-1)^{n1+n2}) / sqrt(n1! n2!)
    root_fact = [1.0]
    for n in range(1, cutoff + 1):
        root_fact.append(root_fact[-1] * math.sqrt(n))
    alpha_pow = [1.0 + 0.0j]
    for n in range(1, cutoff + 1):
        alpha_pow.append(alpha_pow[-1] * alpha)
    terms = []
    mass = 0.0
    for n1 in range(cutoff + 1):
        for n2 in range(cutoff + 1 - n1):
            total = n1 + n2
            parity = 1.0 if total % 2 == 0 else -1.0
            amp = norm * gauss * alpha_pow[total] * (1.0 + phase * parity) / (
                root_fact[n1] * root_fact[n2]
            )
            mass += abs(amp) ** 2
            terms.append(((n1, n2), amp))
    tail = max(0.0, 1.0 - mass)
    if tail > TAIL_TOL:
        raise CutoffError(
            f"cutoff {cutoff} leaves cat-state tail {tail:.3e} > {TAIL_TOL}; "
            f"need >= {coherent_cutoff(math.sqrt(2.0) * abs(alpha))}"
        )
    return make_pure(ModeLayout(("a1", "a2"), cutoff), terms)


def single_mode_cat(p: CatParams, cutoff: Optional[int] = None) -> MultiModeState:
    """N (|sqrt(2) alpha> + e^{i phi} |-sqrt(2) alpha>) on one mode.

    Splitting this on a 50:50 beamsplitter with vacuum reproduces
    ``split_cat`` (same normalization constant, since the coherent-state
    overlap e^{-4|alpha|^2} is preserved by the splitter).
    """
    alpha = complex(p.alpha)
    asq = abs(alpha) ** 2
    nsq_inv = _cat_norm_sq_inv(asq, p.phi)
    if nsq_inv <= DEGENERACY_TOL:
        raise CatDegenerate(
            f"cat normalization vanishes at alpha={alpha!r}, phi={p.phi!r}"
        )
    if cutoff is None:
        cutoff = coherent_cutoff(math.sqrt(2.0) * abs(alpha))
    big = math.sqrt(2.0) * alpha
    norm = 1.0 / math.sqrt(nsq_inv)
    phase = cmath.exp(1j * p.phi)
    gauss = math.exp(-abs(big) ** 2 / 2.0)
    terms = []
    mass = 0.0
    amp_pow = 1.0 + 0.0j
    for n in range(cutoff + 1):
        parity = 1.0 if n % 2 == 0 else -1.0
        amp = norm * gauss * amp_pow * (1.0 + phase * parity)
        mass += abs(amp) ** 2
        terms.append(((n,), amp))
        amp_pow = amp_pow * big / math.sqrt(n + 1)
    tail = max(0.0, 1.0 - mass)
    if tail > TAIL_TOL:
        raise CutoffError(
            f"cutoff {cutoff} leaves cat-state tail {tail:.3e} > {TAIL_TOL}"
        )
    return make_pure(ModeLayout(("a",), cutoff), terms)


def cat_predictions(p: CatParams) -> CatPredictions:
    """Closed forms for the split cat; depend on alpha only through |alpha|.

    With E = e^{-4|alpha|^2} and c = cos phi:
        g11 = 1
        g20 = (1 + E c) / (1 - E c)
        g22 = g20^2
        a1 = (1 - E c)/2,  a2 = (1 + E c)/2   (so a1 + a2 = 1 exactly)
        a1^2 + a2^2 = (1 + E^2 c^2)/2
    """
    asq = abs(complex(p.alpha)) ** 2
    ec = math.exp(-4.0 * asq) * math.cos(p.phi)
    if abs(1.0 - ec) <= DEGENERACY_TOL:
        raise CatDegenerate(
            f"g20 diverges at alpha={p.alpha!r}, phi={p.phi!r} (vacuum even cat)"
        )
    g20 = (1.0 + ec) / (1.0 - ec)
    g = CoherenceFunctions(g11=1.0 + 0.0j, g20=complex(g20), g22=g20 * g20)
    a1 = 0.5 * (1.0 - ec)
    a2 = 0.5 * (1.0 + ec)
    sum_sq = 0.5 * (1.0 + math.exp(-8.0 * asq) * math.cos(p.phi) ** 2)
    return CatPredictions(g=g, a1=a1, a2=a2, sum_sq=sum_sq)
