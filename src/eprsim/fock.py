"""Sparse multimode Fock-space states and normally ordered moments.

Conventions
-----------
* A state lives on a ``ModeLayout``: an ordered tuple of mode labels plus a
  single total-photon cutoff. Basis kets are occupation tuples whose entries
  sum to at most the cutoff.
* Amplitudes are stored sparsely. Internally each state keeps a canonical
  (sorted, deduplicated) pair of arrays: an (N, M) occupation matrix and an
  (N,) complex amplitude vector. Amplitudes smaller than ``PRUNE_TOL`` are
  dropped; the removed mass is below N * 1e-30 and never affects moments at
  the tolerances used anywhere in this package.
* Normally ordered moments <prod (a_m^dag)^p_m (a_m)^q_m> are evaluated
  exactly on the truncated space: annihilation strings act on the ket,
  creation strings on the bra, so truncation introduces no operator error
  for a state already inside the cutoff.
* Mixed states are convex combinations of pure states (never dense
  multimode density matrices); moments are weighted averages.
"""

from __future__ import annotations

import cmath
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
)

NORM_TOL = 1e-9     # relative tolerance on Sum |amplitude|^2 = 1
PRUNE_TOL = 1e-15   # amplitudes below this are dropped from storage
TAIL_TOL = 1e-12    # maximum probability mass a truncated builder may discard
ZERO_TOL = 1e-12    # moments and rates at or below this are treated as zero

__all__ = [
    "ModeLayout",
    "MultiModeState",
    "MixedState",
    "MomentSpec",
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
    """Ordered mode labels sharing one total-photon cutoff."""

    labels: tuple[str, ...]
    cutoff: int

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise StateError("layout needs at least one mode label")
        if len(set(labels)) != len(labels):
            raise StateError(f"duplicate mode labels in {labels}")
        if not isinstance(self.cutoff, (int, np.integer)) or self.cutoff < 0:
            raise StateError(f"cutoff must be a nonnegative integer, got {self.cutoff!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))

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
        raise StateError(f"cutoff {cutoff} with {n_modes} modes exceeds the packed-key range")
    return (base ** np.arange(n_modes - 1, -1, -1)).astype(np.int64)


def _pack_keys(occ: np.ndarray, cutoff: int) -> np.ndarray:
    """Encode occupation rows as single integers (base cutoff+1)."""
    return occ.astype(np.int64) @ _key_strides(occ.shape[1], cutoff)


def _find(keys: np.ndarray, targets):
    """Positions of ``targets`` in the sorted ``keys``, and which are there."""
    pos = np.minimum(np.searchsorted(keys, targets), keys.shape[0] - 1)
    return pos, keys[pos] == targets


class MultiModeState:
    """Immutable pure state: complex amplitudes over occupation tuples."""

    __slots__ = ("layout", "_occ", "_amp", "_keys", "_dict")

    def __init__(self, layout: ModeLayout, amplitudes: Mapping[tuple[int, ...], complex]):
        occ_rows = []
        amp_rows = []
        for tup, val in amplitudes.items():
            tup = tuple(int(x) for x in tup)
            if len(tup) != layout.n_modes:
                raise StateError(f"occupation {tup} has {len(tup)} entries, layout has {layout.n_modes} modes")
            if any(x < 0 for x in tup):
                raise StateError(f"negative occupation in {tup}")
            if sum(tup) > layout.cutoff:
                raise StateError(f"occupation {tup} exceeds total-photon cutoff {layout.cutoff}")
            val = complex(val)
            if not cmath.isfinite(val):
                raise StateError(f"amplitude {val!r} of occupation {tup} is not finite")
            occ_rows.append(tup)
            amp_rows.append(val)
        if not occ_rows:
            raise StateError("state needs at least one amplitude")
        occ = np.array(occ_rows, dtype=np.int64)
        amp = np.array(amp_rows, dtype=np.complex128)
        occ, amp = _canonicalize(layout, occ, amp)
        _check_norm(amp)
        self._install(layout, occ, amp)

    # -- construction plumbing -------------------------------------------

    def _install(self, layout: ModeLayout, occ: np.ndarray, amp: np.ndarray) -> None:
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_occ", occ)
        object.__setattr__(self, "_amp", amp)
        object.__setattr__(self, "_keys", _pack_keys(occ, layout.cutoff))
        object.__setattr__(self, "_dict", None)

    @classmethod
    def _from_canonical(cls, layout: ModeLayout, occ: np.ndarray, amp: np.ndarray) -> "MultiModeState":
        """Internal: arrays already sorted/unique/pruned. Norm is re-checked."""
        _check_norm(amp)
        self = object.__new__(cls)
        self._install(layout, occ, amp)
        return self

    def __setattr__(self, name, value):  # states are immutable values
        raise AttributeError("MultiModeState is immutable")

    # -- accessors --------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return int(self._amp.shape[0])

    def amplitudes(self) -> dict[tuple[int, ...], complex]:
        """Occupation tuple -> amplitude, in canonical (sorted) order."""
        cached = self._dict
        if cached is None:
            cached = {tuple(int(x) for x in row): complex(a) for row, a in zip(self._occ, self._amp)}
            object.__setattr__(self, "_dict", cached)
        return dict(cached)

    def amplitude(self, occ: Sequence[int]) -> complex:
        key = _pack_keys(np.array([occ], dtype=np.int64), self.layout.cutoff)[0]
        pos, hit = _find(self._keys, key)
        return complex(self._amp[pos]) if hit else 0.0 + 0.0j

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._amp) ** 2))

    def __repr__(self) -> str:
        return f"MultiModeState(modes={self.layout.labels}, cutoff={self.layout.cutoff}, terms={self.n_terms})"


def _canonicalize(layout: ModeLayout, occ: np.ndarray, amp: np.ndarray):
    """Sort by packed key, merge duplicates, prune negligible amplitudes."""
    keys = _pack_keys(occ, layout.cutoff)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        merged = np.zeros(uniq.shape[0], dtype=np.complex128)
        np.add.at(merged.real, inverse, amp.real)
        np.add.at(merged.imag, inverse, amp.imag)
        occ, amp = occ[first], merged
    else:
        occ, amp = occ[order], amp[order]
    keep = np.abs(amp) > PRUNE_TOL
    if not np.all(keep):
        occ, amp = occ[keep], amp[keep]
    if amp.shape[0] == 0:
        raise StateError("state has no amplitude above the pruning tolerance")
    return occ, amp


def _check_norm(amp: np.ndarray) -> None:
    nsq = float(np.sum(np.abs(amp) ** 2))
    if not abs(nsq - 1.0) <= NORM_TOL:
        raise NormalizationError(f"state norm^2 = {nsq!r} deviates from 1 beyond {NORM_TOL}")


@dataclass(frozen=True)
class MixedState:
    """Convex mixture of pure states sharing one layout."""

    components: tuple[tuple[float, MultiModeState], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), s) for w, s in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise StateError("mixture needs at least one component")
        layout = comps[0][1].layout
        for w, s in comps:
            if not w >= 0:
                raise StateError(f"mixture weight {w} is negative or not a number")
            if s.layout != layout:
                raise StateError("mixture components must share one layout")
        total = math.fsum(w for w, _ in comps)
        if not abs(total - 1.0) <= NORM_TOL:
            raise NormalizationError(f"mixture weights sum to {total!r}, not 1")

    @property
    def layout(self) -> ModeLayout:
        return self.components[0][1].layout

    def map_components(self, fn) -> "MixedState":
        return MixedState(tuple((w, fn(s)) for w, s in self.components))


AnyState = Union[MultiModeState, MixedState]


def per_component(fn):
    """Decorator: a map of pure states maps a mixture component by component."""
    @functools.wraps(fn)
    def extended(state, *args, **kwargs):
        if isinstance(state, MixedState):
            return state.map_components(lambda s: fn(s, *args, **kwargs))
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


@dataclass(frozen=True)
class MomentSpec:
    """Normally ordered moment: per-mode creation/annihilation exponents."""

    factors: tuple[tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(m), int(p), int(q)) for m, p, q in self.factors)
        object.__setattr__(self, "factors", factors)
        modes = [m for m, _, _ in factors]
        if len(set(modes)) != len(modes):
            raise StateError(f"mode repeated in moment spec {factors}")
        if any(p < 0 or q < 0 for _, p, q in factors):
            raise StateError(f"negative exponent in moment spec {factors}")

    @classmethod
    def coerce(cls, spec) -> "MomentSpec":
        if isinstance(spec, cls):
            return spec
        return cls(tuple(spec))


def make_pure(layout: ModeLayout, terms: Iterable[tuple[Sequence[int], complex]]) -> MultiModeState:
    """Build a normalized pure state proportional to the given terms."""
    acc: dict[tuple[int, ...], complex] = {}
    for occ, val in terms:
        key = tuple(int(x) for x in occ)
        val = complex(val)
        if not cmath.isfinite(val):
            raise StateError(f"amplitude {val!r} of occupation {key} is not finite")
        acc[key] = acc.get(key, 0.0 + 0.0j) + val
    if not acc:
        raise StateError("no terms given")
    nsq = math.fsum(abs(v) ** 2 for v in acc.values())
    if nsq <= 0.0:
        raise StateError("all terms are zero; cannot normalize")
    scale = 1.0 / math.sqrt(nsq)
    return MultiModeState(layout, {k: v * scale for k, v in acc.items()})


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
    a = abs(alpha_mag)
    size = a * a + 8.0 * a + 10.0
    if not math.isfinite(size):
        raise CutoffError(f"no finite cutoff for coherent amplitude |alpha| = {a!r}")
    return math.ceil(size)


def _ladder(alpha: complex, cutoff: int, start: float = 1.0) -> np.ndarray:
    """start * alpha^n / sqrt(n!) for n = 0 .. cutoff.

    Built by the recursion l_n = l_{n-1} alpha / sqrt(n), so neither
    alpha^n nor n! is ever formed on its own.
    """
    lad = np.empty(cutoff + 1, dtype=np.complex128)
    lad[0] = start
    for n in range(1, cutoff + 1):
        lad[n] = lad[n - 1] * alpha / math.sqrt(n)
    return lad


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


def make_coherent(layout: ModeLayout, alphas: Sequence[complex]) -> MultiModeState:
    """Truncated multimode coherent state, renormalized.

    The truncation requirement is enforced on the exact truncated mass
    e^{-lam} sum |prod_m alpha_m^{n_m} / sqrt(n_m!)|^2 of the total photon
    number (lam = sum |alpha_i|^2), not just the sizing rule in
    ``coherent_cutoff``.
    """
    if len(alphas) != layout.n_modes:
        raise StateError(f"{len(alphas)} amplitudes for {layout.n_modes} modes")
    alphas = [complex(a) for a in alphas]
    if not all(cmath.isfinite(a) for a in alphas):
        raise StateError(f"coherent amplitudes must be finite, got {alphas}")
    ladders = [_ladder(a, layout.cutoff) for a in alphas]
    occ = list(_tuples_upto(layout.n_modes, layout.cutoff))
    amp = np.array(
        [math.prod((lad[n] for lad, n in zip(ladders, tup)), start=1.0 + 0.0j) for tup in occ],
        dtype=np.complex128,
    )
    occ = np.array(occ, dtype=np.int64)
    norm_sq = float(np.sum(np.abs(amp) ** 2))
    lam = math.fsum(abs(a) * abs(a) for a in alphas)
    _check_tail(math.exp(-lam) * norm_sq, layout.cutoff, math.sqrt(lam), "coherent-state")
    amp /= math.sqrt(norm_sq)
    occ, amp = _canonicalize(layout, occ, amp)
    return MultiModeState._from_canonical(layout, occ, amp)


def _tuples_upto(n_modes: int, total: int):
    """All occupation tuples with entry sum <= total (lexicographic)."""
    if n_modes == 1:
        for n in range(total + 1):
            yield (n,)
        return
    for n in range(total + 1):
        for rest in _tuples_upto(n_modes - 1, total - n):
            yield (n,) + rest


def tensor(s1: MultiModeState, s2: MultiModeState) -> MultiModeState:
    """Tensor product; labels concatenate, cutoffs add."""
    shared = set(s1.layout.labels) & set(s2.layout.labels)
    if shared:
        raise StateError(f"label collision in tensor product: {sorted(shared)}")
    layout = ModeLayout(s1.layout.labels + s2.layout.labels, s1.layout.cutoff + s2.layout.cutoff)
    n1, n2 = s1.n_terms, s2.n_terms
    occ = np.hstack(
        [
            np.repeat(s1._occ, n2, axis=0),
            np.tile(s2._occ, (n1, 1)),
        ]
    )
    amp = (s1._amp[:, None] * s2._amp[None, :]).ravel()
    occ, amp = _canonicalize(layout, occ, amp)
    return MultiModeState._from_canonical(layout, occ, amp)


def reorder(state: MultiModeState, new_labels: Sequence[str]) -> MultiModeState:
    """Permute mode order (same physical state, relabeled axes)."""
    new_labels = tuple(str(x) for x in new_labels)
    if sorted(new_labels) != sorted(state.layout.labels):
        raise StateError(f"{new_labels} is not a permutation of {state.layout.labels}")
    perm = [state.layout.index(lbl) for lbl in new_labels]
    layout = ModeLayout(new_labels, state.layout.cutoff)
    occ = state._occ[:, perm]
    occ, amp = _canonicalize(layout, occ, state._amp.copy())
    return MultiModeState._from_canonical(layout, occ, amp)


def relabel(state: MultiModeState, mapping: Mapping[str, str]) -> MultiModeState:
    """Rename mode labels in place (no permutation)."""
    new_labels = tuple(mapping.get(lbl, lbl) for lbl in state.layout.labels)
    layout = ModeLayout(new_labels, state.layout.cutoff)
    return MultiModeState._from_canonical(layout, state._occ.copy(), state._amp.copy())


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


@mixture_average
def normal_moment(state: AnyState, spec) -> complex:
    """<prod_m (a_m^dag)^p_m (a_m)^q_m>, exact on the truncated space."""
    spec = MomentSpec.coerce(spec)
    layout = state.layout
    n_modes = layout.n_modes
    pvec = np.zeros(n_modes, dtype=np.int64)
    qvec = np.zeros(n_modes, dtype=np.int64)
    for mode, p, q in spec.factors:
        col = layout.index(mode)
        pvec[col] = p
        qvec[col] = q
    occ, amp = state._occ, state._amp
    valid = np.all(occ >= qvec, axis=1)
    if not np.any(valid):
        return 0.0 + 0.0j
    occ_k = occ[valid]
    amp_k = amp[valid]
    target = occ_k - qvec + pvec
    inside = target.sum(axis=1) <= layout.cutoff
    if not np.any(inside):
        return 0.0 + 0.0j
    occ_k, amp_k, target = occ_k[inside], amp_k[inside], target[inside]
    coeff = np.ones(occ_k.shape[0], dtype=np.float64)
    for mode, p, q in spec.factors:
        col = layout.index(mode)
        coeff *= _falling(occ_k[:, col], q)
        coeff *= _falling(target[:, col], p)
    coeff = np.sqrt(coeff)
    pos, hit = _find(state._keys, _pack_keys(target, layout.cutoff))
    if not np.any(hit):
        return 0.0 + 0.0j
    return complex(np.sum(np.conj(state._amp[pos[hit]]) * coeff[hit] * amp_k[hit]))


def mixture_from_density(fock_matrix, label: str = "a") -> MixedState:
    """Eigendecompose a single-mode density matrix into a pure ensemble.

    Eigenvalues below 1e-12 are dropped and the remaining weights are
    renormalized so they sum to 1.
    """
    rho = np.asarray(fock_matrix, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StateError(f"density matrix must be square, got shape {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise StateError("density matrix is not hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > NORM_TOL:
        raise NormalizationError(f"density matrix trace {tr!r} deviates from 1")
    evals, evecs = np.linalg.eigh(rho)
    if np.min(evals) < -1e-9:
        raise StateError(f"density matrix has negative eigenvalue {np.min(evals):.3e}")
    dim = rho.shape[0]
    layout = ModeLayout((label,), dim - 1)
    comps = []
    for idx in range(dim):
        w = float(evals[idx])
        if w < 1e-12:
            continue
        vec = evecs[:, idx]
        comps.append((w, make_pure(layout, [((n,), vec[n]) for n in range(dim)])))
    if not comps:
        raise StateError("density matrix has no weight above 1e-12")
    total = math.fsum(w for w, _ in comps)
    return MixedState(tuple((w / total, s) for w, s in comps))


# -- JSON state files -----------------------------------------------------

def load_state(path) -> MultiModeState:
    """Read a state file: {"modes": [...], "cutoff": N, "terms": [...]}.

    Terms are normalized on load. Structural problems are reported with the
    offending field; syntax errors carry the line/column from the parser.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    for field in ("modes", "cutoff", "terms"):
        if field not in doc:
            raise StateFileError(f"{path}: missing field {field!r}")
    modes = doc["modes"]
    if not isinstance(modes, list) or not all(isinstance(m, str) for m in modes):
        raise StateFileError(f"{path}: 'modes' must be a list of strings")
    if not isinstance(doc["cutoff"], int):
        raise StateFileError(f"{path}: 'cutoff' must be an integer")
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
        if not isinstance(occ, list) or not all(isinstance(x, int) for x in occ):
            raise StateFileError(f"{where}.occ: must be a list of integers")
        if len(occ) != layout.n_modes:
            raise StateFileError(f"{where}.occ: length {len(occ)} != {layout.n_modes} modes")
        re_part = term.get("re", 0.0)
        im_part = term.get("im", 0.0)
        if not isinstance(re_part, (int, float)) or not isinstance(im_part, (int, float)):
            raise StateFileError(f"{where}: 're'/'im' must be numbers")
        terms.append((tuple(occ), complex(re_part, im_part)))
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
