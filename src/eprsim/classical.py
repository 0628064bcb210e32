"""Monte Carlo over nonnegative coherent-amplitude distributions.

A classical (stochastic-field) model assigns each detection arm a complex
field amplitude drawn from a joint distribution that is an honest
probability density — point masses and Gaussians here, nothing more
singular. The correlation amplitudes then become moment ratios of the
fields,

    a1 = 2 |E[conj(alpha1) beta1 alpha2 conj(beta2)]|
         / E[(|alpha1|^2 + |beta1|^2)(|alpha2|^2 + |beta2|^2)]

(and a2 with the station-2 conjugation swapped). The pointwise inequality
|a|^2 + |b|^2 >= 2|a b| forces a_k <= 1/2 for every such model, which the
estimators here verify empirically with bootstrap standard errors.

Every ensemble is one leaf per stratum of its samples. Read
``ClassicalEnsemble`` and ``make_ensemble`` for how the leaves are made,
``_draw``, ``_windows`` and ``_pass`` for the one walk over them, and
``estimate_amplitudes`` for the estimates and their bootstrap.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import StateError, ZeroDenominator, _nonnegative, _numbers, _require_count, _require_finite, _shown
from .fock import NORM_TOL, _fsum

CHUNK = 1 << 15
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_GROUPS = 1024  # most groups per stratum
SAMPLE_BUDGET = 10_000_000  # most samples per ensemble, 10x the largest used (1e6)

__all__ = [
    "ClassicalEnsemble",
    "AmplitudeEstimate",
    "BoundReport",
    "make_ensemble",
    "estimate_amplitudes",
    "bound_report",
    "pointwise_margin",
]


@dataclass(frozen=True, eq=False)
class ClassicalEnsemble:
    """Weighted field samples (alpha_k for signals, beta_k for oscillators).

    ``strata`` are the contiguous (start, stop) blocks of independently drawn
    samples, one per leaf; empty means one block of all n. ``weights`` has
    one float per stratum, the weight of each of its samples. Given fields
    are kept as complex128 arrays, copied only if they are not, and each
    stratum's "given" leaf holds views of them. A made ensemble's leaves are
    draws: it draws its four fields whole, read-only, when one is first read.
    Ensembles compare and hash by identity; the repr shows the recipe, not the fields.
    """

    weights: tuple[float, ...]
    alpha1: np.ndarray = field(repr=False)
    alpha2: np.ndarray = field(repr=False)
    beta1: np.ndarray = field(repr=False)
    beta2: np.ndarray = field(repr=False)
    seed: int
    strata: tuple[tuple[int, int], ...] = ()
    n: int = field(init=False)
    _kept = None  # a made ensemble's _pass

    def __post_init__(self) -> None:
        n = np.asarray(self.alpha1).size
        for name in _FIELDS:
            arr = _numbers(getattr(self, name))
            if arr is None or not np.all(np.isfinite(arr)):
                raise StateError(f"{name} contains non-finite values or entries that are not numbers")
            if arr.shape != (n,):
                raise StateError(f"{name} has shape {arr.shape}, expected ({n},)")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "seed", _require_count("seed", self.seed, 0))
        _tile(self, n, self.weights, self.strata)
        leaves = ((b - a, w, "given", tuple(getattr(self, f)[a:b] for f in _FIELDS), self.seed)
                  for (a, b), w in zip(self.strata, self.weights))
        object.__setattr__(self, "_leaves", tuple(leaves))

    def __getattr__(self, name: str):
        # only a made ensemble lacks its fields: draw all four once, each chunk in place
        if name not in _FIELDS:
            raise AttributeError(name)
        whole = np.empty((4, self.n), dtype=np.complex128)
        for (first, last), (_, _, kind, values, seed) in zip(self.strata, self._leaves):
            for index, start in enumerate(range(first, last, CHUNK)):
                _draw(kind, values, seed, index, whole[:, start : min(start + CHUNK, last)])
        whole.flags.writeable = False
        for field_name, row in zip(_FIELDS, whole):
            object.__setattr__(self, field_name, row)
        return self.__dict__[name]


_FIELDS = ("alpha1", "alpha2", "beta1", "beta2")


def _tile(e: ClassicalEnsemble, n: int, weights, strata) -> None:
    """Check and set n, the strata tiling n samples and one weight per stratum."""
    try:
        strata = tuple(tuple(_require_count("stratum bound", x) for x in (a, b)) for a, b in strata) or ((0, n),)
    except (TypeError, ValueError):
        raise StateError(f"strata must be (start, stop) pairs, got {_shown(strata)}") from None
    starts = [a for a, _ in strata]
    stops = [b for _, b in strata]
    if starts != [0] + stops[:-1] or stops[-1] != n or any(b <= a for a, b in strata):
        raise StateError(f"strata {_shown(strata)} do not tile the {n} samples")
    listed = isinstance(weights, Sequence) or isinstance(weights, np.ndarray) and weights.ndim == 1
    if not listed or len(weights) != len(strata) or not all(map(_nonnegative, weights)):
        raise StateError(f"need one finite weight >= 0 per stratum, got {_shown(weights)}")
    weights = tuple(map(float, weights))
    total = _fsum(w * (b - a) for w, (a, b) in zip(weights, strata))
    if not abs(total - 1.0) <= NORM_TOL:
        raise StateError(f"sample weights sum to {total!r}, not 1")
    for name, value in (("n", n), ("weights", weights), ("strata", strata)):
        object.__setattr__(e, name, value)


@dataclass(frozen=True)
class AmplitudeEstimate:
    a1_hat: float
    a2_hat: float
    se1: float
    se2: float
    n: int
    seed: int


@dataclass(frozen=True)
class BoundReport:
    """a_k against the 1/2 bound, with 3-sigma statistical slack."""

    within_bound1: bool
    within_bound2: bool
    margin1: float
    margin2: float


def _thermal_field(rng: np.random.Generator, nbar: float, out: np.ndarray) -> None:
    """Fill ``out`` with circular complex Gaussians, E|z|^2 = nbar.

    The real parts are drawn first, then the imaginary parts, each scaled
    straight into its view of ``out``; nbar = 0 draws nothing.
    """
    if nbar == 0.0:
        out[...] = 0.0
        return
    sigma = math.sqrt(nbar / 2.0)
    np.multiply(sigma, rng.standard_normal(out.shape[0]), out=out.real)
    np.multiply(sigma, rng.standard_normal(out.shape[0]), out=out.imag)


def make_ensemble(kind: str, params: dict, n: int, seed: int) -> ClassicalEnsemble:
    """A weighted field ensemble, drawn chunk by chunk when it is used.

    Kinds:
      delta         one point mass at params["point"] = (a1, a2, b1, b2)
      thermal       independent circular Gaussians, E|z|^2 = params["nbar"]
                    per arm (oscillator arms may override with "nbar_lo")
      correlated_lo thermal signals with beta_k = alpha_k sample by sample
      mixture       params["components"] = [(weight, kind, params), ...]

    Mixtures are expanded into their leaf draws, each one stratum whose
    weight is kept once, and every leaf is checked here. No field array is
    allocated: each CHUNK of a leaf is fixed by the leaf's seed and the
    chunk's index, so the chunks are drawn when they are used.
    """
    n, seed = _require_count("n", n, 1, SAMPLE_BUDGET), _require_count("seed", seed, 0)
    leaves = tuple(_leaves(kind, params, n, seed))
    stops = np.cumsum([size for size, *_ in leaves]).tolist()
    e = object.__new__(ClassicalEnsemble)
    for name, value in (("seed", seed), ("_leaves", leaves)):
        object.__setattr__(e, name, value)
    _tile(e, stops[-1], [w for _, w, *_ in leaves], zip([0] + stops[:-1], stops))
    return e


def _leaves(kind: str, params: dict, n: int, seed: int) -> list[tuple]:
    """The checked leaf draws of ``kind``, mixtures expanded in order, each
    (size, weight per sample, kind, values, seed) like a given leaf: weights
    multiplied from the innermost mixture out, values the point or (nbar, nbar_lo)."""
    keys = {"delta": "point", "thermal": "nbar", "correlated_lo": "nbar", "mixture": "components"}
    key = keys.get(kind) if isinstance(kind, str) else None
    if key is None:
        raise StateError(f"unknown ensemble kind {kind!r}")
    if not isinstance(params, dict) or key not in params:
        raise StateError(f"{kind} ensemble needs params[{key!r}]")
    if kind == "delta":
        point = params["point"]
        listed = isinstance(point, Sequence) and not isinstance(point, (str, bytes, bytearray))
        point = tuple(point) if listed or isinstance(point, np.ndarray) and point.ndim == 1 else ()
        if len(point) != 4 or not all(isinstance(v, numbers.Complex) for v in point):
            raise StateError("delta ensemble needs a point of 4 complex amplitudes")
        _require_finite("delta point ", **dict(zip(_FIELDS, point)))
        return [(1, 1.0, kind, tuple(map(complex, point)), seed)]
    if kind == "mixture":
        try:
            comps = [(w, sub_kind, sub_params) for w, sub_kind, sub_params in params["components"]]
        except (TypeError, ValueError):
            raise StateError("mixture components must be (weight, kind, params) triples") from None
        if not comps or not all(_nonnegative(w) for w, _, _ in comps):
            raise StateError("mixture needs components, each with a finite real weight >= 0")
        wsum = _fsum(float(w) for w, _, _ in comps)
        if not 0.0 < wsum < math.inf:
            raise StateError(f"mixture weights sum to {wsum!r}, not a positive finite number")
        sub_seeds = np.random.SeedSequence(seed).generate_state(len(comps), dtype=np.uint64)
        return [
            (size, float(w) / wsum * x, *draw)
            for (w, sub_kind, sub_params), sub_seed in zip(comps, sub_seeds)
            for size, x, *draw in _leaves(sub_kind, sub_params, n, int(sub_seed))
        ]
    values = (params["nbar"], params.get("nbar_lo", params["nbar"]))
    for name, value in zip(("nbar", "nbar_lo"), values):
        if not _nonnegative(value):
            raise StateError(f"{name} must be finite and >= 0, got {_shown(value)}")
    return [(n, 1.0 / n, kind, values, seed)]


def _draw(kind: str, values: tuple, seed: int, index: int, out: np.ndarray) -> None:
    """Draw chunk ``index`` of one leaf into ``out``, its (4, m) a1, a2, b1, b2:
    copied from a given leaf's views; correlated_lo copies its signals to the oscillators."""
    if kind == "given":
        for row, f in zip(out, values):
            row[...] = f[index * CHUNK : index * CHUNK + row.shape[0]]
        return
    if kind == "delta":
        out[:, 0] = values
        return
    nbar, nbar_lo = values
    rng = np.random.default_rng([seed, index])
    for row, x in zip(out, (nbar, nbar, nbar_lo, nbar_lo) if kind == "thermal" else (nbar, nbar)):
        _thermal_field(rng, x, row)
    if kind == "correlated_lo":
        out[2:] = out[:2]


def _windows(e: ClassicalEnsemble):
    """(k, start, fields) for each CHUNK of each stratum: the index k of its
    stratum and the (4, m) a1, a2, b1, b2 of samples start .. start + m,
    drawn from the stratum's leaf into one (4, CHUNK) buffer and valid until
    the next window. No window crosses a stratum.
    """
    buf = np.empty((4, CHUNK), dtype=np.complex128)
    for k, ((first, last), (_, _, kind, values, seed)) in enumerate(zip(e.strata, e._leaves)):
        for index, start in enumerate(range(first, last, CHUNK)):
            out = buf[:, : min(CHUNK, last - start)]
            _draw(kind, values, seed, index, out)
            yield k, start, out


def _moment_terms(w: float, fields):
    """Numerator terms (both conjugations) and denominators of the samples
    whose a1, a2, b1, b2 are ``fields``, each multiplied in place by their
    weight w, and the least |a|^2 + |b|^2 - 2|a b| of either station over
    them, from the same |a| and |b| as the denominators."""
    a1, a2, b1, b2 = fields
    x1, x2, y1, y2 = (np.abs(f) for f in fields)
    num1 = np.conj(a1) * b1 * a2 * np.conj(b2)
    num2 = np.conj(a1) * b1 * np.conj(a2) * b2
    i1, i2 = x1**2 + y1**2, x2**2 + y2**2
    den = i1 * i2
    worst = np.minimum(np.min(i1 - 2.0 * x1 * y1), np.min(i2 - 2.0 * x2 * y2))
    for t in (num1, num2, den):
        t *= w
    return num1, num2, den, float(worst)


def _exact_sums(block: np.ndarray) -> list[list[float]]:
    """Doubles that sum exactly to each row of a real (k, m) block, m <= CHUNK.

    np.frexp writes each value as f * 2^e with 1/2 <= |f| < 1, so f * 2^27
    splits exactly into an integer part below 2^27 in magnitude and a
    fraction on a 2^-26 grid. Binned by row and exponent with np.bincount,
    each part sums over at most 2^15 values to below 2^42 on its grid, which
    float64 holds exactly. Scaled back by 2^(e-27), a bin sum keeps at most
    42 significant bits and stays a multiple of 2^-1074, as every double is,
    so it is exact for subnormal values too. A row's nonzero scaled bin sums
    are returned, and math.fsum of them, or of the lists of many blocks
    joined, rounds the exact total once (Shewchuk, DCG 18, 1997; Neal,
    arXiv:1505.05571). A block holding a value large enough for a scaled
    bin sum to overflow (e > 1008), or a non-finite value, returns its rows'
    own values; a weighted term that large needs a sample weight above
    2^-16, and fewer than 2^16 samples can carry one.
    """
    mant, exp = np.frexp(block)
    lo, hi = int(exp.min()), int(exp.max())
    if hi <= 1008:
        with np.errstate(invalid="ignore"):
            mant *= 2.0**27
            high = np.floor(mant)
            mant -= high
        k, span = block.shape[0], hi - lo + 1
        bins = (exp + (span * np.arange(k) - lo)[:, None]).ravel()
        highs = np.bincount(bins, high.ravel(), k * span).reshape(k, span)
        fracs = np.bincount(bins, mant.ravel(), k * span).reshape(k, span)
        if np.isfinite(highs).all() and np.isfinite(fracs).all():
            scale = np.arange(lo - 27, hi - 26)
            terms = np.hstack([np.ldexp(highs, scale), np.ldexp(fracs, scale)])
            return [row[row != 0.0].tolist() for row in terms]
    return block.tolist()


def _pass(e: ClassicalEnsemble):
    """(sums, group sums, lit, margin) of ``e`` in one walk over its windows:
    the sums of den and of the real and imaginary parts of num1 and num2,
    each one math.fsum of every window's exact terms and so correctly rounded
    whatever the windows are, their bootstrap group sums, whether a weighted
    sample has a field at both stations, and the pointwise margin. An
    overflow leaves the sums or the margin None, so each caller raises only
    its own error. lit is read only in windows whose den is all zero, as all
    are when the whole den sums to 0. A made ensemble keeps the result for
    both callers; given fields are the caller's and are read on every pass.
    No per-sample array outlives its window, so memory is bounded by CHUNK.

    A stratum of size m is cut into min(BOOTSTRAP_GROUPS, m) groups of
    near-equal size, and each window adds its partial group sums into its
    own stratum's; a group cut by a window boundary sums two partial sums.
    """
    if e._kept is not None:
        return e._kept
    cuts = []
    for first, last in e.strata:
        g = min(BOOTSTRAP_GROUPS, last - first)
        cuts.append(first + (np.arange(g) * (last - first)) // g)
    groups = [tuple(np.zeros(c.size, dtype=t) for t in (complex, complex, float)) for c in cuts]
    terms, lit, margin = [[] for _ in range(5)], False, math.inf
    for k, start, fields in _windows(e):
        w = e.weights[k]
        with np.errstate(over="ignore", invalid="ignore"):
            num1, num2, den, worst = _moment_terms(w, fields)
            block = np.stack([den, num1.real, num1.imag, num2.real, num2.imag])
        if margin is not None:
            margin = min(margin, worst) if math.isfinite(worst) else None
        if terms is None:
            continue
        if not np.isfinite(block).all():
            terms = groups = None
            continue
        for row_terms, window_terms in zip(terms, _exact_sums(block)):
            row_terms += window_terms
        i, j = np.searchsorted(cuts[k], start, "right") - 1, np.searchsorted(cuts[k], start + den.shape[0])
        local = np.maximum(cuts[k][i:j], start) - start
        # reduced in a comprehension: a loop name would keep a term array alive into the next window
        for acc, part in zip(groups[k], [np.add.reduceat(t, local) for t in (num1, num2, den)]):
            acc[i:j] += part
        if not lit and w > 0.0 and not den.any():
            a1, a2, b1, b2 = fields
            lit = bool((((a1 != 0) | (b1 != 0)) & ((a2 != 0) | (b2 != 0))).any())
    sums = None if terms is None else [math.fsum(row_terms) for row_terms in terms]
    kept = (sums, groups, lit, margin)
    if e._leaves[0][2] != "given":
        object.__setattr__(e, "_kept", kept)
    return kept


def estimate_amplitudes(e: ClassicalEnsemble) -> AmplitudeEstimate:
    """Moment-ratio estimates with stratified grouped bootstrap standard errors.

    The sums come from ``_pass``. Terms that overflow float64, or that
    underflow to a zero denominator although a weighted sample has a field
    at both stations, are a StateError.

    Each of the BOOTSTRAP_RESAMPLES resamples draws, within every stratum,
    as many of its pre-summed groups as it has, with replacement, and takes
    the ratio of the summed draws. Weighted group sums keep each stratum's
    total unbiased, so unequal groups and weights need no special case.
    The cost after the pass does not grow with n (cf. Kleiner et al.,
    JRSS-B 76, 2014).
    An ensemble whose strata are single samples (point masses) is exact
    and gets zero standard errors. The bootstrap is seeded from the
    ensemble seed, so the whole estimate is reproducible bit for bit.
    """
    sums, groups, lit, _ = _pass(e)
    if sums is None:
        raise StateError("the field moments overflow float64")
    d, re1, im1, re2, im2 = sums
    if d <= 0.0:
        if lit:
            raise StateError("the field moments underflow float64")
        raise ZeroDenominator(f"intensity-product mean {d!r} is not positive")
    a1_hat = 2.0 * abs(complex(re1, im1)) / d
    a2_hat = 2.0 * abs(complex(re2, im2)) / d
    if all(stop - start == 1 for start, stop in e.strata):
        return AmplitudeEstimate(a1_hat, a2_hat, 0.0, 0.0, e.n, e.seed)
    rng = np.random.default_rng([e.seed, 0xB00])
    s1, s2, sd = (np.zeros(BOOTSTRAP_RESAMPLES, dtype=t) for t in (complex, complex, float))
    for stratum_sums in groups:
        g = stratum_sums[2].shape[0]
        idx = rng.integers(0, g, size=(BOOTSTRAP_RESAMPLES, g))
        for acc, group_sums in zip((s1, s2, sd), stratum_sums):
            acc += group_sums[idx].sum(axis=1)
    if not np.all(sd > 0.0):
        raise ZeroDenominator("a bootstrap resample has no positive intensity-product mean")
    se1, se2 = (float(np.std(2.0 * np.abs(s) / sd, ddof=1)) for s in (s1, s2))
    return AmplitudeEstimate(a1_hat, a2_hat, se1, se2, e.n, e.seed)


def bound_report(est: AmplitudeEstimate) -> BoundReport:
    """Check a_k <= 1/2 with 3 standard errors of slack."""
    return BoundReport(
        within_bound1=est.a1_hat <= 0.5 + 3.0 * est.se1,
        within_bound2=est.a2_hat <= 0.5 + 3.0 * est.se2,
        margin1=0.5 - est.a1_hat,
        margin2=0.5 - est.a2_hat,
    )


def pointwise_margin(e: ClassicalEnsemble) -> float:
    """Worst-case margin of |a|^2 + |b|^2 >= 2|a b| over samples and stations.

    Mathematically the margin is (|a| - |b|)^2 >= 0; the returned value can
    dip an ulp below zero only through rounding. It comes from ``_pass``.
    Fields whose intensities overflow float64 are a StateError.
    """
    margin = _pass(e)[3]
    if margin is None:
        raise StateError("the field intensities overflow float64")
    return margin
