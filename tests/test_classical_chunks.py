"""The chunked classical pass: exact chunk sums, unchanged estimates, flat memory.

The references kept here are whole-array implementations: ``math.fsum``
of each whole weighted term array as a Python list, moment terms for all
n samples at once, group sums reduced over each whole stratum, and fields
drawn as complex temporaries.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprsim import ClassicalEnsemble, StateError, estimate_amplitudes, make_ensemble, pointwise_margin
from eprsim import classical
from eprsim.classical import (
    BOOTSTRAP_GROUPS,
    BOOTSTRAP_RESAMPLES,
    CHUNK,
    _exact_sums,
)

MIXTURE = {"components": [(0.6, "thermal", {"nbar": 0.8}), (0.4, "correlated_lo", {"nbar": 1.2})]}


def _hex_or_error(func, *args):
    """float.hex of each result, or the error: fsum overflows on huge sums
    and refuses inf + -inf."""
    try:
        out = func(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return [x.hex() for x in out] if isinstance(out, list) else out.hex()


@settings(max_examples=150, deadline=None)
@given(
    pool=st.lists(st.floats(), min_size=1, max_size=30),
    length=st.one_of(st.integers(1, 64), st.integers(CHUNK - 2, CHUNK + 2),
                     st.integers(1, 2 * CHUNK + 3)),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(pool=[5e-324, -2.5e-310, 2.0**-1022, 1.0, 0.0, -0.0], length=CHUNK + 1, rows=3, seed=0)
@example(pool=[1.7e308, -1.7e308, 3.0, -1e300], length=40, rows=2, seed=1)
@example(pool=[0.0, -0.0], length=2 * CHUNK + 1, rows=1, seed=2)
@example(pool=[1.0, math.inf, math.nan], length=9, rows=3, seed=3)
def test_exact_chunk_sums_equal_fsum(pool, length, rows, seed):
    values = np.random.default_rng(seed).choice(np.array(pool), size=length)
    # signs flipped at random so cancellation is common
    values *= np.where(np.random.default_rng(seed + 1).random(length) < 0.5, -1.0, 1.0)
    m = min(CHUNK, length // rows)
    if m:
        block = values[: rows * m].reshape(rows, m)
        want = _hex_or_error(lambda: [math.fsum(row.tolist()) for row in block])
        assert _hex_or_error(lambda: [math.fsum(terms) for terms in _exact_sums(block)]) == want


def test_exact_sums_fall_back_before_a_bin_overflows():
    # 518 values of 0.99 * 2^1015 and 259 of -0.99 * 2^1016 cancel exactly,
    # and interleaved they keep every partial sum finite, but either bin's
    # scaled sum alone exceeds 2^1024
    p, q = 0.99 * 2.0**1015, -0.99 * 2.0**1016
    row = np.array([p, p, q] * 259 + [0.5])
    (terms,) = _exact_sums(row[None])
    assert math.fsum(terms) == math.fsum(row.tolist()) == 0.5


def _reference_fields(kind, params, n, seed):
    """(4, n) fields drawn as complex temporaries, one CHUNK child seed each."""

    def thermal(rng, nbar, size):
        if nbar == 0.0:
            return np.zeros(size, dtype=np.complex128)
        return math.sqrt(nbar / 2.0) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    rows = []
    for index, start in enumerate(range(0, n, CHUNK)):
        size = min(CHUNK, n - start)
        rng = np.random.default_rng([seed, index])
        a1 = thermal(rng, params["nbar"], size)
        a2 = thermal(rng, params["nbar"], size)
        if kind == "thermal":
            lo = params.get("nbar_lo", params["nbar"])
            b1, b2 = thermal(rng, lo, size), thermal(rng, lo, size)
        else:
            b1, b2 = a1.copy(), a2.copy()
        rows.append(np.stack([a1, a2, b1, b2]))
    return np.concatenate(rows, axis=1)


def _reference_estimate(e):
    """Whole-array moment terms, whole-array fsum estimates, whole-stratum group sums."""
    num1 = np.conj(e.alpha1) * e.beta1 * e.alpha2 * np.conj(e.beta2)
    num2 = np.conj(e.alpha1) * e.beta1 * np.conj(e.alpha2) * e.beta2
    den = (np.abs(e.alpha1) ** 2 + np.abs(e.beta1) ** 2) * (
        np.abs(e.alpha2) ** 2 + np.abs(e.beta2) ** 2
    )
    w = np.repeat(e.weights, [stop - start for start, stop in e.strata])
    d = math.fsum((w * den).tolist())
    m1 = complex(math.fsum((w * num1.real).tolist()), math.fsum((w * num1.imag).tolist()))
    m2 = complex(math.fsum((w * num2.real).tolist()), math.fsum((w * num2.imag).tolist()))
    a1, a2 = 2.0 * abs(m1) / d, 2.0 * abs(m2) / d
    if all(stop - start == 1 for start, stop in e.strata):
        return a1, a2, 0.0, 0.0
    rng = np.random.default_rng([e.seed, 0xB00])
    s1 = np.zeros(BOOTSTRAP_RESAMPLES, dtype=np.complex128)
    s2 = np.zeros(BOOTSTRAP_RESAMPLES, dtype=np.complex128)
    sd = np.zeros(BOOTSTRAP_RESAMPLES)
    for start, stop in e.strata:
        size = stop - start
        g = min(BOOTSTRAP_GROUPS, size)
        cuts = (np.arange(g) * size) // g
        g1, g2, gd = (np.add.reduceat(w[start:stop] * t[start:stop], cuts) for t in (num1, num2, den))
        idx = rng.integers(0, g, size=(BOOTSTRAP_RESAMPLES, g))
        s1 += g1[idx].sum(axis=1)
        s2 += g2[idx].sum(axis=1)
        sd += gd[idx].sum(axis=1)
    se1 = float(np.std(2.0 * np.abs(s1) / sd, ddof=1))
    se2 = float(np.std(2.0 * np.abs(s2) / sd, ddof=1))
    return a1, a2, se1, se2


def _reference_margin(e):
    margins = []
    for sig, lo in ((e.alpha1, e.beta1), (e.alpha2, e.beta2)):
        lhs = np.abs(sig) ** 2 + np.abs(lo) ** 2
        rhs = 2.0 * np.abs(sig) * np.abs(lo)
        margins.append(float(np.min(lhs - rhs)))
    return min(margins)


@pytest.mark.parametrize("n", [1, 777, 3 * 1024 + 1, 100_003])
@pytest.mark.parametrize("kind, params", [
    ("thermal", {"nbar": 1.0}),
    ("thermal", {"nbar": 0.4, "nbar_lo": 0.0}),
    ("correlated_lo", {"nbar": 1.0}),
    ("mixture", MIXTURE),
    ("delta", {"point": (1 + 1j, 1.0, 0.5, 2j)}),
])
def test_chunk_pass_matches_whole_array_reference(kind, params, n):
    e = make_ensemble(kind, params, n, seed=7)
    if kind in ("thermal", "correlated_lo"):
        ref = _reference_fields(kind, params, n, 7)
        for row, name in zip(ref, ("alpha1", "alpha2", "beta1", "beta2")):
            assert getattr(e, name).tobytes() == row.tobytes()
    est = estimate_amplitudes(e)
    a1, a2, se1, se2 = _reference_estimate(e)
    assert (est.a1_hat.hex(), est.a2_hat.hex()) == (a1.hex(), a2.hex())
    assert pointwise_margin(e).hex() == _reference_margin(e).hex()
    # a bootstrap group cut by a chunk boundary is summed in two parts, so
    # the SE may move in its last bits; a pure-roundoff SE only absolutely
    for got, want in ((est.se1, se1), (est.se2, se2)):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _two_strata():
    """Given fields in two strata, (0, 3001) and (3001, 10007), of unequal weight."""
    rng = np.random.default_rng(3)
    fields = [rng.standard_normal(10007) + 1j * rng.standard_normal(10007) for _ in range(4)]
    return ClassicalEnsemble((0.4 / 3001, 0.6 / 7006), *fields, seed=5, strata=((0, 3001), (3001, 10007)))


def test_estimates_do_not_depend_on_the_chunk_size(monkeypatch):
    # summing per-window rounded sums gave two results over these sizes
    e = _two_strata()
    a1, a2 = _reference_estimate(e)[:2]
    got = set()
    for chunk in (CHUNK, 4096, 1000, 7):
        monkeypatch.setattr(classical, "CHUNK", chunk)
        est = estimate_amplitudes(e)
        got.add((est.a1_hat.hex(), est.a2_hat.hex()))
    assert got == {(a1.hex(), a2.hex())}


@pytest.mark.parametrize("made", [True, False])
def test_each_window_lies_in_one_stratum_with_its_weight(monkeypatch, made):
    monkeypatch.setattr(classical, "CHUNK", 1000)
    if made:
        e = make_ensemble("mixture", {"components": [
            (0.5, "thermal", {"nbar": 1.0}),
            (0.2, "delta", {"point": (1, 2j, 3, 4)}),
            (0.3, "correlated_lo", {"nbar": 2.0}),
        ]}, 2500, seed=3)
    else:
        e = _two_strata()
    whole = np.stack([e.alpha1, e.alpha2, e.beta1, e.beta2])
    spans = []
    for k, start, fields in classical._windows(e):
        stop = start + len(fields[0])
        inside = [i for i, (first, last) in enumerate(e.strata) if first <= start < stop <= last]
        assert len(inside) == 1 and k == inside[0]
        assert np.array_equal(np.asarray(fields), whole[:, start:stop])
        spans.append((start, stop))
    # the windows tile the samples in order, and each stratum starts one
    assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]] and spans[-1][1] == e.n
    assert {first for first, _ in e.strata} <= {a for a, _ in spans}


def test_memory_stays_flat_in_n():
    peaks = []
    for n in (200_000, 1_000_000):
        e = make_ensemble("thermal", {"nbar": 1.0}, n, seed=5)
        tracemalloc.start()
        try:
            estimate_amplitudes(e)
            pointwise_margin(e)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del e
    assert peaks[1] <= 1.5 * peaks[0]


def test_mixture_is_drawn_in_place():
    tracemalloc.start()
    try:
        e = make_ensemble("mixture", MIXTURE, 200_000, seed=5)
        first = e.alpha1  # a made ensemble draws its fields on this first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = sum(f.nbytes for f in (first, e.alpha2, e.beta1, e.beta2))
    assert peak <= 1.1 * fields


@pytest.mark.parametrize("nbar, error", [(1.0, None), (1e-310, "underflow")])
def test_a_made_ensemble_is_used_in_chunk_sized_memory(nbar, error):
    # the four fields alone would take 64 MB at this n; an underflow is
    # diagnosed inside the pass, without drawing the fields whole
    tracemalloc.start()
    try:
        e = make_ensemble("thermal", {"nbar": nbar}, 10**6, seed=5)
        if error is None:
            estimate_amplitudes(e)
        else:
            with pytest.raises(StateError, match=error):
                estimate_amplitudes(e)
        pointwise_margin(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def test_each_chunk_is_drawn_once_for_estimate_and_margin(monkeypatch):
    drawn = []
    draw = classical._draw

    def spy(kind, values, seed, index, out):
        drawn.append((seed, index))
        draw(kind, values, seed, index, out)

    monkeypatch.setattr(classical, "_draw", spy)
    n = 100_003  # each leaf has 4 chunks, and the second starts mid-window
    e = make_ensemble("mixture", MIXTURE, n, seed=7)
    assert drawn == []
    estimate_amplitudes(e)
    pointwise_margin(e)
    assert len(drawn) == len(set(drawn)) == 2 * -(-n // CHUNK)


@pytest.mark.parametrize("kind", ["thermal", "correlated_lo"])
def test_fields_read_after_the_pass_are_the_reference_draw(kind):
    params = {"nbar": 0.7}
    e = make_ensemble(kind, params, 2 * CHUNK + 5, seed=3)
    est = estimate_amplitudes(e)
    margin = pointwise_margin(e)
    ref = _reference_fields(kind, params, 2 * CHUNK + 5, 3)
    for row, name in zip(ref, ("alpha1", "alpha2", "beta1", "beta2")):
        f = getattr(e, name)
        assert f.tobytes() == row.tobytes()
        with pytest.raises(ValueError):
            f[0] = 0.0
    # reading the fields leaves the kept estimates as they were
    assert estimate_amplitudes(e) == est and pointwise_margin(e) == margin


def test_moment_overflow_leaves_the_margin():
    # intensities near 1e200 are finite, their products near 1e400 are not
    made = make_ensemble("delta", {"point": (1e100, 1e100, 2e100, 1e100)}, 1, seed=0)
    big = [1e100, 3e100]
    explicit = ClassicalEnsemble((0.5,), big, big[::-1], big, big, seed=0)
    for e in (made, explicit):
        with pytest.raises(StateError, match="moments overflow"):
            estimate_amplitudes(e)
        margin = pointwise_margin(e)
        assert math.isfinite(margin) and margin.hex() == _reference_margin(e).hex()


def test_windows_after_an_overflowing_one_still_give_the_margin(monkeypatch):
    # the first window's fields near 1e100 give terms near 1e400, which
    # overflow, but intensities near 1e200, which do not; the rest are finite
    monkeypatch.setattr(classical, "CHUNK", 7)
    rng = np.random.default_rng(9)
    fields = [rng.standard_normal(30) + 1j * rng.standard_normal(30) for _ in range(4)]
    for f in fields:
        f[:7] *= 1e100
    e = ClassicalEnsemble((1 / 30,), *fields, seed=0)
    with pytest.raises(StateError, match="overflow"):
        estimate_amplitudes(e)
    assert pointwise_margin(e).hex() == _reference_margin(e).hex()


def test_a_name_that_is_not_a_field_draws_nothing(monkeypatch):
    monkeypatch.setattr(classical, "_draw", None)  # any draw would fail
    e = make_ensemble("thermal", {"nbar": 1.0}, 10**6, 1)
    assert not hasattr(e, "gamma")
    assert "alpha1" not in e.__dict__


@pytest.mark.parametrize("component", [
    (0.5, "delta", {"point": (1, 2)}),
    (0.5, "thermal", {"nbar": -1.0}),
    (0.5, "thermal", {}),
    (math.nan, "thermal", {"nbar": 1.0}),
])
def test_a_bad_leaf_is_refused_before_any_field_is_allocated(component):
    # the good component alone would need 64 MB of fields at this n
    params = {"components": [(0.5, "thermal", {"nbar": 1.0}), component]}
    tracemalloc.start()
    try:
        with pytest.raises(StateError):
            make_ensemble("mixture", params, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_repr_eq_and_hash_draw_nothing():
    # the four fields of this ensemble would take 64 MB if drawn
    e = make_ensemble("thermal", {"nbar": 1.0}, 10**6, 1)
    tracemalloc.start()
    try:
        shown = repr(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert shown == "ClassicalEnsemble(weights=(1e-06,), seed=1, strata=((0, 1000000),), n=1000000)"
    # ensembles compare and hash by identity
    assert e == e
    assert e != make_ensemble("thermal", {"nbar": 1.0}, 10**6, 1)
    assert hash(e) == hash(e)
    assert "alpha1" not in e.__dict__
