"""Named example states and their closed-form predictions.

Builders return states on the standard layouts: the four analyzer arms
``STATION_MODES`` for the single-photon entangled pair and the two-photon
network, the two signal arms ``SIGNAL_MODES`` for the states measured
against local oscillators. ``ZOO`` maps each name the CLI accepts to its
builder; ``ZOO_NAMES`` lists those names.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .errors import CatDegenerate, StateError
from .fock import ModeLayout, MultiModeState, coherent_cutoff, make_coherent, make_pure, _ladder_state
from .homodyne import SIGNAL_MODES, CoherenceFunctions
from .network import STATION_MODES, two_photon_network

DEGENERACY_TOL = 1e-14

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
    "ZOO",
    "ZOO_NAMES",
]


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
    layout = ModeLayout(STATION_MODES, 2)
    if variant == "sum":
        return make_pure(layout, [((1, 0, 1, 0), 1.0), ((0, 1, 0, 1), 1.0)])
    if variant == "diff":
        return make_pure(layout, [((1, 0, 0, 1), 1.0), ((0, 1, 1, 0), 1.0)])
    raise StateError(f"unknown entangled variant {variant!r}; use 'sum' or 'diff'")


two_photon = two_photon_network  # one photon split across the a arms, one across the b arms


def coherent_pair(alpha1: complex, alpha2: complex, cutoff: Optional[int] = None) -> MultiModeState:
    """Product coherent state on the signal arms (a1, a2)."""
    if cutoff is None:
        cutoff = coherent_cutoff(math.hypot(abs(alpha1), abs(alpha2)))
    return make_coherent(ModeLayout(SIGNAL_MODES, cutoff), [alpha1, alpha2])


def split_single_photon() -> MultiModeState:
    """(|1,0> + |0,1>)/sqrt(2) on (a1, a2): one photon shared by the arms."""
    layout = ModeLayout(SIGNAL_MODES, 1)
    return make_pure(layout, [((1, 0), 1.0), ((0, 1), 1.0)])


def _cat(p: CatParams, cutoff: Optional[int], labels: tuple[str, ...]) -> MultiModeState:
    """N (|beta, ..., beta> + e^{i phi} |-beta, ..., -beta>) on ``labels``,
    with beta = sqrt(2 / modes) alpha: the amplitude sqrt(2) alpha split
    evenly between the modes.

    N = 1 / sqrt(2 (1 + e^{-4|alpha|^2} cos phi)); the cat is degenerate
    where that diverges. The cutoff defaults to the sizing rule for
    sqrt(2)|alpha|, and the truncation is accepted only if the exactly
    computed discarded mass is below ``TAIL_TOL``. Occupation n has the
    amplitude N (1 + e^{i phi} (-1)^{sum n}) prod_m l(n_m), with the ladder
    l(n) = e^{-|beta|^2/2} beta^n / sqrt(n!).
    """
    alpha = complex(p.alpha)
    mag = abs(alpha)
    asq = mag * mag
    nsq_inv = 2.0 * (1.0 + math.exp(-4.0 * asq) * math.cos(p.phi))
    if nsq_inv <= DEGENERACY_TOL:
        raise CatDegenerate(
            f"cat normalization vanishes at alpha={alpha!r}, phi={p.phi!r}"
        )
    if cutoff is None:
        cutoff = coherent_cutoff(math.sqrt(2.0) * mag)
    modes = len(labels)
    norm, turn = 1.0 / math.sqrt(nsq_inv), cmath.exp(1j * p.phi)
    return _ladder_state(ModeLayout(labels, cutoff), [math.sqrt(2.0 / modes) * alpha] * modes,
                         -asq / modes, 1.0, (norm * (1.0 + turn), norm * (1.0 - turn)),
                         "cat-state")


def split_cat(p: CatParams, cutoff: Optional[int] = None) -> MultiModeState:
    """N (|alpha, alpha> + e^{i phi} |-alpha, -alpha>) on (a1, a2).

    Built by direct truncated expansion; equivalently obtained by mixing
    the single-mode cat of amplitude sqrt(2) alpha with vacuum on a 50:50
    splitter (kept as a test oracle).
    """
    return _cat(p, cutoff, SIGNAL_MODES)


def single_mode_cat(p: CatParams, cutoff: Optional[int] = None) -> MultiModeState:
    """N (|sqrt(2) alpha> + e^{i phi} |-sqrt(2) alpha>) on one mode.

    Splitting this on a 50:50 beamsplitter with vacuum reproduces
    ``split_cat`` (same normalization constant, since the coherent-state
    overlap e^{-4|alpha|^2} is preserved by the splitter).
    """
    return _cat(p, cutoff, ("a",))


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


# name -> builder from the CLI's (alpha, alpha2, phi, cutoff), as keywords;
# each builder reads the ones its state depends on
ZOO = {
    "entangled-sum": lambda **_: entangled("sum"),
    "entangled-diff": lambda **_: entangled("diff"),
    "two-photon": lambda **_: two_photon(),
    "coherent": lambda alpha, alpha2, cutoff, **_: coherent_pair(
        alpha, alpha if alpha2 is None else alpha2, cutoff=cutoff
    ),
    "split-photon": lambda **_: split_single_photon(),
    "split-cat": lambda alpha, phi, cutoff, **_: split_cat(CatParams(alpha, phi), cutoff=cutoff),
}
ZOO_NAMES = tuple(ZOO)
