"""Sparse multimode Fock-space states and normally ordered moments.

Read ``ModeLayout``, ``MultiModeState`` and ``MixedState`` for what a state
is, ``normal_moment`` for its moments, and ``make_pure`` and
``_ladder_state`` for how states are built.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    CutoffError,
    NormalizationError,
    StateError,
    StateFileError,
    UnknownModeError,
    _finite,
    _nonnegative,
    _numbers,
    _require_count,
    _require_finite,
    _shown,
)

NORM_TOL = 1e-9     # relative tolerance on Sum |amplitude|^2 = 1
PRUNE_TOL = 1e-15   # amplitudes below this are dropped from storage
TAIL_TOL = 1e-12    # maximum probability mass a truncated builder may discard
ZERO_TOL = 1e-12    # moments and rates at or below this are treated as zero
# most occupations a truncated builder may enumerate: over 10x the largest
# state built in use (94 830 terms, a two-mode cat at cutoff 434)
TERM_BUDGET = 1_000_000

__all__ = [
    "ModeLayout",
    "MultiModeState",
    "MixedState",
    "make_pure",
    "make_coherent",
    "coherent_cutoff",
    "tensor",
    "normal_moment",
    "mixture_from_density",
    "inner_product",
    "fidelity",
    "reorder",
    "relabel",
    "vacuum",
    "load_state",
    "save_state",
]


@dataclass(frozen=True)
class ModeLayout:
    """Ordered mode labels sharing one total-photon cutoff: a basis ket is an
    occupation tuple whose entries sum to at most the cutoff."""

    labels: tuple[str, ...]
    cutoff: int

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise StateError("layout needs at least one mode label")
        if len(set(labels)) != len(labels):
            raise StateError(f"duplicate mode labels in {labels}")
        object.__setattr__(self, "cutoff", _require_count("cutoff", self.cutoff, 0))

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownModeError(f"mode {label!r} not in layout {self.labels}") from None


def _key_strides(n_modes: int, cutoff: int) -> np.ndarray:
    """Place value of each mode in a packed key (base cutoff+1, first mode highest)."""
    base = cutoff + 1
    if base ** n_modes > 2 ** 62:
        raise StateError(f"cutoff {_shown(cutoff)} with {n_modes} modes exceeds the packed-key range")
    return (base ** np.arange(n_modes - 1, -1, -1)).astype(np.int64)


def _pack_keys(occ: np.ndarray, cutoff: int) -> np.ndarray:
    """Encode occupation rows as single integers (base cutoff+1)."""
    return occ.astype(np.int64) @ _key_strides(occ.shape[1], cutoff)


def _find(keys: np.ndarray, targets):
    """Positions of ``targets`` in the sorted ``keys``, and which are there."""
    pos = np.minimum(np.searchsorted(keys, targets), keys.shape[0] - 1)
    return pos, keys[pos] == targets


class MultiModeState:
    """Immutable pure state: complex amplitudes over occupation tuples, kept
    sparse as a canonical (sorted, deduplicated) pair of arrays, an (N, M)
    occupation matrix and an (N,) complex amplitude vector."""

    __slots__ = ("layout", "_occ", "_amp", "_keys", "__weakref__")

    def __new__(cls, layout: ModeLayout, amplitudes: Mapping[tuple[int, ...], complex]):
        keys, occ, amp = _merged(layout, *_checked_terms(layout, list(amplitudes), list(amplitudes.values())))
        _check_norm(amp)  # before the prune, which would drop amplitudes of a tiny norm
        return cls._from_canonical(layout, *_pruned(keys, occ, amp))

    @classmethod
    def _from_canonical(cls, layout: ModeLayout, keys: np.ndarray, occ: np.ndarray, amp: np.ndarray):
        """The one install step of every state: keys, occupations and amplitudes
        already sorted, unique and pruned; the norm is checked, the arrays made read-only."""
        _check_norm(amp)
        self = object.__new__(cls)
        for name, value in (("_occ", occ), ("_amp", amp), ("_keys", keys)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "layout", layout)
        return self

    def __setattr__(self, name, value):  # states are immutable values
        raise AttributeError("MultiModeState is immutable")

    # -- accessors --------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return int(self._amp.shape[0])

    def amplitudes(self) -> dict[tuple[int, ...], complex]:
        """Occupation tuple -> amplitude, in canonical (sorted) order."""
        return {tuple(row): a for row, a in zip(self._occ.tolist(), self._amp.tolist())}

    def amplitude(self, occ: Sequence[int]) -> complex:
        pos, hit = _find(self._keys, _pack_keys(_checked_terms(self.layout, [occ], [1.0])[0], self.layout.cutoff))
        return complex(self._amp[pos[0]]) if hit[0] else 0.0 + 0.0j

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._amp) ** 2))

    def __repr__(self) -> str:
        return f"MultiModeState(modes={self.layout.labels}, cutoff={self.layout.cutoff}, terms={self.n_terms})"


def _checked_terms(layout: ModeLayout, occs: Sequence, values: Sequence):
    """Caller-given terms as (N, M) int64 occupations and (N,) complex
    amplitudes, or a StateError: no terms, or the first term with the wrong
    length, a non-integer or negative entry, too many photons or a non-finite
    amplitude, or amplitudes that are not numbers (``_numbers``)."""
    def first(bad) -> str:
        return _shown(tuple(occs[int(np.argmax(bad))]))

    if not occs:
        raise StateError("state needs at least one amplitude")
    occ = _numbers(occs, integral=True)
    if occ is None or occ.shape != (len(occs), layout.n_modes):
        bad = [np.shape(_numbers(o, integral=True)) != (layout.n_modes,) for o in occs]
        raise StateError(f"occupation {first(bad)} must be one integer per mode of {layout.labels}")
    negative = np.any(occ < 0, axis=1)
    if np.any(negative):
        raise StateError(f"negative occupation in {first(negative)}")
    # a row whose int64 sum wraps has an entry beyond the cutoff, flagged on its own
    over = np.any(occ > layout.cutoff, axis=1) | (occ.sum(axis=1) > layout.cutoff)
    if np.any(over):
        raise StateError(f"occupation {first(over)} exceeds total-photon cutoff {_shown(layout.cutoff)}")
    if occ.dtype == object:  # ints past int64, within a cutoff past the packed-key range
        _key_strides(layout.n_modes, layout.cutoff)
    amp = _numbers(values)
    if amp is None:
        raise StateError("amplitudes must be numbers within the float range")
    finite = np.isfinite(amp)
    if not np.all(finite):
        raise StateError(f"amplitude {complex(amp[~finite][0])!r} of occupation {first(~finite)} is not finite")
    return occ.astype(np.int64), amp


def _merged(layout: ModeLayout, occ: np.ndarray, amp: np.ndarray):
    """Packed keys, occupations and amplitudes sorted by key, repeats summed in the order given."""
    keys = _pack_keys(occ, layout.cutoff)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    repeat = sorted_keys[1:] == sorted_keys[:-1]
    if np.any(repeat):
        # equal keys are equal occupations, so any row of a run stands for it
        start = np.concatenate(([True], ~repeat))
        inverse = np.empty_like(order)
        inverse[order] = start.cumsum() - 1
        merged = np.zeros(np.count_nonzero(start), dtype=np.complex128)
        with np.errstate(over="ignore"):  # an inf sum is refused by the caller
            np.add.at(merged.real, inverse, amp.real)
            np.add.at(merged.imag, inverse, amp.imag)
        return sorted_keys[start], occ[order[start]], merged
    return sorted_keys, occ[order], amp[order]


def _canonicalize(layout: ModeLayout, occ: np.ndarray, amp: np.ndarray):
    """Sort by packed key, merge duplicates, prune negligible amplitudes."""
    return _pruned(*_merged(layout, occ, amp))


def _pruned(keys: np.ndarray, occ: np.ndarray, amp: np.ndarray):
    """Drop amplitudes at or below PRUNE_TOL, with their keys and rows; order
    is kept. The removed mass is below N * 1e-30 and never affects moments
    at the tolerances used anywhere in this package."""
    keep = np.abs(amp) > PRUNE_TOL
    if not np.all(keep):
        keys, occ, amp = keys[keep], occ[keep], amp[keep]
    if amp.shape[0] == 0:
        raise StateError("state has no amplitude above the pruning tolerance")
    return keys, occ, amp


def _fsum(values) -> float:
    """math.fsum of nonnegative terms, or inf where their sum passes the float
    range, which math.fsum reports as an OverflowError."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _check_norm(amp: np.ndarray) -> None:
    with np.errstate(over="ignore"):  # an inf norm is refused below
        nsq = float(np.sum(np.abs(amp) ** 2))
    if not abs(nsq - 1.0) <= NORM_TOL:
        raise NormalizationError(f"state norm^2 = {nsq!r} deviates from 1 beyond {NORM_TOL}")


@dataclass(frozen=True)
class MixedState:
    """Convex mixture of pure states sharing one layout, never a dense
    multimode density matrix; moments are weighted averages."""

    components: tuple[tuple[float, MultiModeState], ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise StateError("mixture needs at least one component")
        layout = comps[0][1].layout
        for w, s in comps:
            if not _nonnegative(w):
                raise StateError(f"mixture weight {_shown(w)} is negative or not a finite number")
            if s.layout != layout:
                raise StateError("mixture components must share one layout")
        object.__setattr__(self, "components", tuple((float(w), s) for w, s in comps))
        total = _fsum(w for w, _ in self.components)
        if not abs(total - 1.0) <= NORM_TOL:
            raise NormalizationError(f"mixture weights sum to {total!r}, not 1")

    @property
    def layout(self) -> ModeLayout:
        return self.components[0][1].layout


AnyState = Union[MultiModeState, MixedState]


def per_component(fn):
    """Decorator: a map of pure states maps a mixture component by component."""
    @functools.wraps(fn)
    def extended(state, *args, **kwargs):
        if isinstance(state, MixedState):
            return MixedState(tuple((w, fn(s, *args, **kwargs)) for w, s in state.components))
        return fn(state, *args, **kwargs)
    return extended


def mixture_average(fn):
    """Decorator: a linear functional of a mixture is ``sum(w * fn(s))`` in component order."""
    @functools.wraps(fn)
    def extended(state, *args, **kwargs):
        if isinstance(state, MixedState):
            return sum(w * fn(s, *args, **kwargs) for w, s in state.components)
        return fn(state, *args, **kwargs)
    return extended


def require_modes(state: AnyState, modes: tuple[str, ...], role: str) -> None:
    """Raise StateError unless ``state`` lives on exactly ``modes``, in order."""
    if state.layout.labels != modes:
        raise StateError(f"{role} must live on modes {modes} in order, got {state.layout.labels}")


def make_pure(layout: ModeLayout, terms: Iterable[tuple[Sequence[int], complex]]) -> MultiModeState:
    """Build a normalized pure state proportional to the given terms.

    Repeated occupations are summed in the order given. The merged terms
    are scaled exactly by a power of two, so that no |amplitude|^2 overflows
    or underflows, then by 1 / sqrt(math.fsum |amplitude|^2), and pruned.
    """
    terms = list(terms)
    occ, amp = _checked_terms(layout, [o for o, _ in terms], [v for _, v in terms])
    # a merged amplitude is a sum started at +0, so a -0 part becomes +0
    keys, occ, amp = _merged(layout, occ, amp + 0.0)
    top = float(np.max(np.abs(amp.view(np.float64))))
    if not 0.0 < top < math.inf:
        raise StateError("merged amplitudes overflow" if top else "all terms are zero; cannot normalize")
    amp = np.ldexp(amp.view(np.float64), -math.frexp(top)[1]).view(np.complex128)
    nsq = math.fsum((np.hypot(amp.real, amp.imag) ** 2).tolist())
    return MultiModeState._from_canonical(layout, *_pruned(keys, occ, amp * (1.0 / math.sqrt(nsq))))


def vacuum(labels: Sequence[str], cutoff: int = 0) -> MultiModeState:
    layout = ModeLayout(tuple(labels), cutoff)
    return make_pure(layout, [((0,) * layout.n_modes, 1.0)])


def coherent_cutoff(alpha_mag: float) -> int:
    """Smallest recommended total-photon cutoff for coherent amplitude |alpha|.

    ceil(|alpha|^2 + 8|alpha| + 10) puts the truncated Poisson tail below
    1e-12: the tail at mean lam beyond lam + 8*sqrt(lam) + 10 is bounded by
    the Chernoff estimate exp(-lam) (e*lam/N)^N, which stays under 1e-12 for
    every lam reached at desk scale.
    """
    a = float(abs(alpha_mag)) if _finite(alpha_mag) else math.inf
    size = a * a + 8.0 * a + 10.0
    if not math.isfinite(size):
        raise CutoffError(f"no finite cutoff for coherent amplitude magnitude {_shown(alpha_mag)}")
    return math.ceil(size)


def _check_tail(mass: float, cutoff: int, alpha_mag: float, what: str) -> None:
    """Raise CutoffError unless the kept probability ``mass`` of a truncated
    state of coherent amplitude ``alpha_mag`` is finite and within TAIL_TOL
    of 1. A mass that overflowed to inf or NaN fails."""
    if not (math.isfinite(mass) and 1.0 - mass <= TAIL_TOL):
        # no cutoff mends an overflow, and past |alpha| ~ 1e6 none is worth printing
        hint = math.isfinite(mass) and alpha_mag < 1e6
        need = f"; need >= {coherent_cutoff(alpha_mag)}" if hint else ""
        raise CutoffError(
            f"cutoff {cutoff} keeps {what} mass {mass!r}, not within {TAIL_TOL} of 1{need}"
        )


def _occupations(n_modes: int, total: int) -> np.ndarray:
    """All occupation rows with entry sum <= total, in lexicographic order,
    which is the order of their packed keys."""
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):
        reps = total - occ.sum(axis=1) + 1          # choices for the next mode
        nxt = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        occ = np.hstack([np.repeat(occ, reps, axis=0), nxt[:, None]])
    return occ


def _ladder_state(layout: ModeLayout, alphas: Sequence[complex], log_start: float,
                  weight: float, parity: tuple[complex, complex], what: str) -> MultiModeState:
    """The truncated-ladder builder of coherent and cat states.

    Occupation n with N photons in all gets parity[N % 2] * prod_m l_m(n_m),
    with l_m(k) = e^{log_start} alpha_m^k / sqrt(k!), on every n within the
    cutoff; a layout of more than TERM_BUDGET of them is a CutoffError,
    raised before any ladder or occupation is allocated. The product is
    taken left to right in real arithmetic, as Python's complex product
    does, so no numpy complex kernel can move its bits. The kept mass
    weight * sum |amp|^2 must pass ``_check_tail`` before the state is
    renormalized.
    """
    cutoff, n_modes = layout.cutoff, layout.n_modes
    if math.comb(cutoff + n_modes, n_modes) > TERM_BUDGET:
        raise CutoffError(
            f"cutoff {_shown(cutoff)} on {n_modes} modes exceeds the size budget of {TERM_BUDGET} terms"
        )
    if math.exp(log_start) == 0.0:
        raise CutoffError(f"{what} ladder start e^(-|beta|^2/2) underflows to 0, which no cutoff mends")
    occ = _occupations(n_modes, cutoff)
    with np.errstate(all="ignore"):
        odd = occ.sum(axis=1) % 2 == 1
        re = np.where(odd, parity[1].real, parity[0].real)
        im = np.where(odd, parity[1].imag, parity[0].imag)
        for alpha, n in zip(alphas, occ.T):
            # l(k) = l(k-1) alpha / sqrt(k), so neither alpha^k nor k! is formed
            lad = np.empty(cutoff + 1, dtype=np.complex128)
            lad[0] = math.exp(log_start)
            for k in range(1, cutoff + 1):
                lad[k] = lad[k - 1] * alpha / math.sqrt(k)
            # |exact / float|^2 at the first normal step k undoes a subnormal start's rounding, else is 1
            k = int(np.argmax(np.abs(lad) >= np.finfo(float).tiny))
            exact = math.exp(log_start + math.log(abs(alpha) ** k / math.factorial(k) ** 0.5))
            weight *= (exact / abs(lad.item(k))) ** 2
            lr, li = lad.real[n], lad.imag[n]
            re, im = re * lr - im * li, re * li + im * lr
        amp = np.empty(occ.shape[0], dtype=np.complex128)
        amp.real, amp.imag = re, im
        norm_sq = float(np.sum(np.abs(amp) ** 2))
    alpha_mag = math.sqrt(_fsum(abs(a) * abs(a) for a in alphas))
    _check_tail(weight * norm_sq, cutoff, alpha_mag, what)
    amp /= math.sqrt(norm_sq)
    return MultiModeState._from_canonical(layout, *_pruned(_pack_keys(occ, cutoff), occ, amp))


def make_coherent(layout: ModeLayout, alphas: Sequence[complex]) -> MultiModeState:
    """Truncated multimode coherent state, renormalized; see ``_ladder_state``."""
    if len(alphas) != layout.n_modes:
        raise StateError(f"{len(alphas)} amplitudes for {layout.n_modes} modes")
    _require_finite("coherent amplitude ", **dict(zip(layout.labels, alphas)))
    alphas = [complex(a) for a in alphas]
    lam = _fsum(abs(a) * abs(a) for a in alphas)
    return _ladder_state(layout, alphas, 0.0, math.exp(-lam), (1.0 + 0.0j, 1.0 + 0.0j), "coherent-state")


def tensor(s1: MultiModeState, s2: MultiModeState) -> MultiModeState:
    """Tensor product; labels concatenate, cutoffs add."""
    return _product(s1, s2, s1.layout.labels + s2.layout.labels)


def _product(s1: MultiModeState, s2: MultiModeState, labels: Sequence[str]) -> MultiModeState:
    """``reorder(tensor(s1, s2), labels)`` with one sort: the product's
    columns are permuted before it is canonicalized."""
    shared = set(s1.layout.labels) & set(s2.layout.labels)
    if shared:
        raise StateError(f"label collision in tensor product: {sorted(shared)}")
    joined = ModeLayout(s1.layout.labels + s2.layout.labels, s1.layout.cutoff + s2.layout.cutoff)
    layout, perm = _permuted(joined, labels)
    n1, n2 = s1.n_terms, s2.n_terms
    occ = np.hstack([np.repeat(s1._occ, n2, axis=0), np.tile(s2._occ, (n1, 1))])[:, perm]
    amp = (s1._amp[:, None] * s2._amp[None, :]).ravel()
    return MultiModeState._from_canonical(layout, *_canonicalize(layout, occ, amp))


def _permuted(layout: ModeLayout, new_labels: Sequence[str]) -> tuple[ModeLayout, list[int]]:
    """The layout of ``new_labels`` and the column of each in ``layout``."""
    new_labels = tuple(str(x) for x in new_labels)
    if sorted(new_labels) != sorted(layout.labels):
        raise StateError(f"{new_labels} is not a permutation of {layout.labels}")
    return ModeLayout(new_labels, layout.cutoff), [layout.index(lbl) for lbl in new_labels]


def reorder(state: MultiModeState, new_labels: Sequence[str]) -> MultiModeState:
    """Permute mode order (same physical state, relabeled axes)."""
    layout, perm = _permuted(state.layout, new_labels)
    return MultiModeState._from_canonical(layout, *_canonicalize(layout, state._occ[:, perm], state._amp))


def relabel(state: MultiModeState, mapping: Mapping[str, str]) -> MultiModeState:
    """Rename mode labels in place (no permutation)."""
    new_labels = tuple(mapping.get(lbl, lbl) for lbl in state.layout.labels)
    layout = ModeLayout(new_labels, state.layout.cutoff)
    return MultiModeState._from_canonical(layout, state._keys, state._occ, state._amp)


def inner_product(s1: MultiModeState, s2: MultiModeState) -> complex:
    """<s1|s2> via the canonical sorted keys."""
    if s1.layout != s2.layout:
        raise StateError("inner product needs identical layouts")
    pos, hit = _find(s1._keys, s2._keys)
    return complex(np.sum(np.conj(s1._amp[pos[hit]]) * s2._amp[hit]))


def fidelity(s1: MultiModeState, s2: MultiModeState) -> float:
    return abs(inner_product(s1, s2)) ** 2


def _falling(n: np.ndarray, k: int) -> np.ndarray:
    """n (n-1) ... (n-k+1) as float array; 1 for k = 0."""
    out = np.ones(n.shape[0], dtype=np.float64)
    for t in range(k):
        out *= n - t
    return out


def _partners(state: MultiModeState, delta, weight: np.ndarray):
    """The rows of the kets n with weight[n] > 0 whose partner n + delta is
    stored, the rows of those partners, and the kets' weights.

    The partner ket is found by one search of the packed key shifted by
    delta . strides. Only kets with weight > 0 are searched, and for those
    n + delta must be an occupation within the cutoff, so that the shifted
    key is its exact key. The result depends on the occupations alone.
    """
    keys = state._keys
    live = np.flatnonzero(weight > 0.0)
    shift = int(np.dot(delta, _key_strides(state.layout.n_modes, state.layout.cutoff)))
    pos, hit = _find(keys, keys[live] + shift)
    ket = live[hit]
    return ket, pos[hit], weight[ket]


def _partner_sum(amp: np.ndarray, pairs) -> complex:
    """sum conj(amp[partner]) * weight * amp[ket] over the ``_partners`` of one moment."""
    ket, partner, weight = pairs
    return complex((np.conj(amp[partner]) * weight * amp[ket]).sum())


@mixture_average
def normal_moment(state: AnyState, spec) -> complex:
    """<prod_m (a_m^dag)^p_m (a_m)^q_m>, exact on the truncated space:
    annihilation strings act on the ket, creation strings on the bra, so
    truncation introduces no operator error for a state already inside the
    cutoff.

    ``spec`` lists (mode, p, q) factors, each mode at most once, with
    nonnegative integer exponents. An exponent above the cutoff makes the
    moment exactly 0, which is returned before any coefficient is built.
    """
    factors = tuple((str(m), _require_count("exponent", p, 0), _require_count("exponent", q, 0))
                    for m, p, q in spec)
    if len({m for m, _, _ in factors}) != len(factors):
        raise StateError(f"mode repeated in moment spec {_shown(factors)}")
    layout, occ = state.layout, state._occ
    cols = [layout.index(mode) for mode, _, _ in factors]
    if any(max(p, q) > layout.cutoff for _, p, q in factors):
        return 0j
    delta = np.zeros(layout.n_modes, dtype=np.int64)
    # sqrt of prod n!/(n-q)! * (n-q+p)!/(n-q)!, which is 0 where some n < q
    coeff = np.ones(occ.shape[0], dtype=np.float64)
    for col, (_, p, q) in zip(cols, factors):
        delta[col] = p - q
        coeff *= _falling(occ[:, col], q)
        coeff *= _falling(occ[:, col] - q + p, p)
    coeff[occ.sum(axis=1) + delta.sum() > layout.cutoff] = 0.0
    return _partner_sum(state._amp, _partners(state, delta, np.sqrt(coeff)))


def mixture_from_density(fock_matrix, label: str = "a") -> MixedState:
    """Eigendecompose a single-mode density matrix into a pure ensemble.

    Eigenvalues below ZERO_TOL are dropped and the remaining weights are
    renormalized so they sum to 1.
    """
    rho = _numbers(fock_matrix)
    if rho is None or not np.isfinite(rho).all():
        raise StateError("density matrix entries must be finite numbers")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StateError(f"density matrix must be square, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=NORM_TOL):
        raise StateError("density matrix is not hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > NORM_TOL:
        raise NormalizationError(f"density matrix trace {tr!r} deviates from 1")
    evals, evecs = np.linalg.eigh(rho)
    if np.min(evals) < -NORM_TOL:
        raise StateError(f"density matrix has negative eigenvalue {np.min(evals):.3e}")
    dim = rho.shape[0]
    layout = ModeLayout((label,), dim - 1)
    comps = []
    for idx in range(dim):
        w = float(evals[idx])
        if w < ZERO_TOL:
            continue
        vec = evecs[:, idx]
        comps.append((w, make_pure(layout, [((n,), vec[n]) for n in range(dim)])))
    if not comps:
        raise StateError(f"density matrix has no weight above {ZERO_TOL}")
    total = math.fsum(w for w, _ in comps)
    return MixedState(tuple((w / total, s) for w, s in comps))


# -- JSON state files -----------------------------------------------------

def load_state(path) -> MultiModeState:
    """Read a state file: {"modes": [...], "cutoff": N, "terms": [...]}.

    Terms are normalized on load. Structural problems are reported with the
    offending field; syntax errors carry the line/column from the parser.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StateFileError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise StateFileError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    for field in ("modes", "cutoff", "terms"):
        if field not in doc:
            raise StateFileError(f"{path}: missing field {field!r}")
    modes = doc["modes"]
    if not isinstance(modes, list) or not all(isinstance(m, str) for m in modes):
        raise StateFileError(f"{path}: 'modes' must be a list of strings")
    if not isinstance(doc["terms"], list):
        raise StateFileError(f"{path}: 'terms' must be a list")
    try:
        layout = ModeLayout(tuple(modes), doc["cutoff"])
    except StateError as exc:
        raise StateFileError(f"{path}: {exc}") from None
    terms = []
    for i, term in enumerate(doc["terms"]):
        where = f"{path}: terms[{i}]"
        if not isinstance(term, dict):
            raise StateFileError(f"{where}: must be an object")
        occ = term.get("occ")
        if not isinstance(occ, list) or not all(type(x) is int for x in occ):
            raise StateFileError(f"{where}.occ: must be a list of integers")
        if len(occ) != layout.n_modes:
            raise StateFileError(f"{where}.occ: length {len(occ)} != {layout.n_modes} modes")
        re_part = term.get("re", 0.0)
        im_part = term.get("im", 0.0)
        if type(re_part) not in (int, float) or type(im_part) not in (int, float):
            raise StateFileError(f"{where}: 're'/'im' must be numbers")
        try:
            amplitude = complex(re_part, im_part)
        except OverflowError:
            raise StateFileError(f"{where}: 're'/'im' out of float range") from None
        terms.append((tuple(occ), amplitude))
    try:
        return make_pure(layout, terms)
    except StateError as exc:
        raise StateFileError(f"{path}: terms: {exc}") from None


def save_state(state: MultiModeState, path) -> None:
    doc = {
        "modes": list(state.layout.labels),
        "cutoff": state.layout.cutoff,
        "terms": [
            {"occ": [int(x) for x in occ], "re": float(a.real), "im": float(a.imag)}
            for occ, a in state.amplitudes().items()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
