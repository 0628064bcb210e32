"""The four benchmark workloads: seeded inputs, one round of work, checks.

Every workload is a closed loop with one caller. ``prepare(r)`` makes the
inputs of round ``r`` from the seed; ``run_round`` does the round's timed
work through a tracer (``spans.NullTracer`` when untraced) and records
each operation in a ``Tally``. A failed check or an unexpected exception
fails that one operation and never stops the round.

Importing this module imports eprsim, so the time to import it is part
of the measured set-up.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from eprsim import classical, cli, correlation, fock, homodyne, inequalities, network, zoo
from eprsim.errors import ZeroCoincidence

STATION = ("a1", "b1", "a2", "b2")
GAP_TOL = 1e-9          # expansion vs evolution correlators
RESIDUAL_TOL = 1e-8     # network E vs the two-cosine law
AMPS_TOL = 1e-8         # amplitudes vs their closed forms
BELL_TOL = 1e-6         # numeric vs analytic Bell maximum
SUM_TOL = 1e-9          # A1 + A2 <= 1
MARGIN_TOL = 1e-12      # pointwise classical margin

# The ten normally ordered moments behind every station correlator
# (ss: 4, m1, m2, s1d2: 2, d1s2: 2), the four output pair moments read by
# the evolution backend, and the five signal moments behind the coherence
# functions; optimal_lo uses the first two and the last of those.
STATION_SPECS = (
    [("a1", 1, 1), ("a2", 1, 1)],
    [("a1", 1, 1), ("b2", 1, 1)],
    [("b1", 1, 1), ("a2", 1, 1)],
    [("b1", 1, 1), ("b2", 1, 1)],
    [("a1", 1, 0), ("b1", 0, 1), ("a2", 0, 1), ("b2", 1, 0)],
    [("a1", 1, 0), ("b1", 0, 1), ("a2", 1, 0), ("b2", 0, 1)],
    [("a1", 1, 1), ("a2", 1, 0), ("b2", 0, 1)],
    [("b1", 1, 1), ("a2", 1, 0), ("b2", 0, 1)],
    [("a1", 1, 0), ("b1", 0, 1), ("a2", 1, 1)],
    [("a1", 1, 0), ("b1", 0, 1), ("b2", 1, 1)],
)
OUTPUT_PAIRS = (("a1", "a2"), ("a1", "b2"), ("b1", "a2"), ("b1", "b2"))
COHERENCE_SPECS = (
    [("a1", 1, 1)],
    [("a2", 1, 1)],
    [("a1", 1, 0), ("a2", 0, 1)],
    [("a1", 1, 0), ("a2", 1, 0)],
    [("a1", 1, 1), ("a2", 1, 1)],
)
OPTIMAL_LO_SPECS = (COHERENCE_SPECS[0], COHERENCE_SPECS[1], COHERENCE_SPECS[4])


@dataclass
class Tally:
    """Operations attempted and failed, plus named work accumulators."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    sums: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    tick: Callable[[float], None] | None = None   # given each operation's seconds, untimed

    def op(self, fn, *args) -> float:
        """Run one operation; ``fn`` returns the list of checks it failed.

        Returns the operation's wall seconds, which exclude ``tick``.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            problems = fn(*args)
        except Exception as exc:  # one broken operation must not stop the run
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        if problems:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.extend(problems)
        if self.tick is not None:
            self.tick(elapsed)
        return elapsed

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


def terms(state) -> int:
    return int(state.n_terms)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten values beyond it (nearest rank).

    None when that percentile would not lie above the median (n < 20).
    """
    n = len(values)
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    if q <= 50:
        return None
    ordered = sorted(values)
    return q, ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


# ---------------------------------------------------------------- replays
# Composite calls are replayed through their public constituents in traced
# runs only, so their cost is attributed to the layer that does the work.

def replay_moments(tr, state, specs) -> None:
    for spec in specs:
        tr.call("fock.normal_moment", fock.normal_moment, state, spec,
                counters={"terms_scanned": terms(state)})


def replay_station_moments(tr, state) -> None:
    """``amplitudes`` and the expansion backend: the station moments."""
    replay_moments(tr, state, STATION_SPECS)


def replay_evolution(tr, state, setting) -> None:
    """The evolution backend: phase_shift x2, beamsplitter x2, normal_moment x4."""
    s = tr.call("network.phase_shift", network.phase_shift, state, "b1", setting.theta1)
    s = tr.call("network.phase_shift", network.phase_shift, s, "b2", setting.theta2)
    for a, b in (("a1", "b1"), ("a2", "b2")):
        with tr.span("network.beamsplitter", terms_in=terms(s)) as sp:
            s = network.beamsplitter(s, a, b)
            sp.counters["terms_out"] = terms(s)
    replay_moments(tr, s, [[(m1, 1, 1), (m2, 1, 1)] for m1, m2 in OUTPUT_PAIRS])


def replay_network_state(tr, signal, lo: homodyne.LOConfig, lo_cutoff) -> None:
    """homodyne_network_state: oscillator pair, tensor product, reorder."""
    if lo_cutoff is None:
        lo_cutoff = tr.call("fock.build", fock.coherent_cutoff, math.hypot(lo.beta1, lo.beta2))
    lo_pair = tr.call(
        "fock.build", fock.make_coherent, fock.ModeLayout(("b1", "b2"), lo_cutoff),
        [lo.beta1 * cmath.exp(1j * lo.theta1), lo.beta2 * cmath.exp(1j * lo.theta2)],
    )
    both = tr.call("fock.build", fock.tensor, signal, lo_pair)
    tr.call("fock.build", fock.reorder, both, STATION)


# --------------------------------------------------------------- helpers

def corr_gap(a, b) -> float:
    return max(abs(a.cc - b.cc), abs(a.cd - b.cd), abs(a.dc - b.dc), abs(a.dd - b.dd))


def setting_pair(tr, tally, state, setting, amps, label) -> list[str]:
    """One phase setting through both backends; gap and two-cosine checks."""
    problems = []
    t0 = time.perf_counter()
    exp = tr.call("correlation.expansion", correlation.output_correlators, state, setting,
                  backend="expansion")
    t1 = time.perf_counter()
    with tr.span("correlation.evolution") as sp:
        evo = correlation.output_correlators(state, setting, backend="evolution")
    t2 = time.perf_counter()
    tally.add("expansion_s", t1 - t0)
    tally.add("evolution_s", t2 - t1)
    tally.add("settings", 1)
    tr.replay(replay_station_moments, state)
    tr.replay(replay_evolution, state, setting)
    gap = corr_gap(exp, evo)
    sp.counters.update(settings=1, backend_gap_max=gap)
    if not gap < GAP_TOL:
        problems.append(f"{label}: backend gap {gap:.3e} at {setting}")
    e = exp.E()
    if not abs(e - correlation.predict_E(amps, setting)) < RESIDUAL_TOL:
        problems.append(f"{label}: E={e!r} off the two-cosine law at {setting}")
    if not abs(e) <= 1.0 + MARGIN_TOL:
        problems.append(f"{label}: |E| = {abs(e)!r} > 1")
    return problems


def bell_and_classify(tr, amps):
    with tr.span("inequalities.bell_max") as sp:
        best = inequalities.bell_max(amps)
    gap = best.b_max - best.analytic
    sp.counters["gap_max"] = abs(gap)
    report = tr.call("inequalities.classify", inequalities.classify, amps, best.b_max)
    return best, gap, report


# -------------------------------------------------------------- cli-paper

CLI_COMMANDS = tuple(
    [(f"state-{name}", ["state", name]) for name in
     ("entangled-sum", "entangled-diff", "two-photon", "coherent", "split-photon", "split-cat")]
    + [("figure3", ["figure3"]), ("sweep-cat", ["sweep-cat"])]
)


def golden_dir() -> Path:
    return Path(__file__).resolve().parent / "goldens"


def load_goldens(directory: Path) -> dict[str, bytes]:
    return {name: (directory / f"{name}.out").read_bytes() for name, _ in CLI_COMMANDS}


# ``python -m eprsim ARGS``, which on exit also writes the process's own
# peak resident set (VmHWM) to stderr. The rusage of a child cannot give
# it: that counts the memory of the process that spawned it, up to exec.
CLI_LAUNCH = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('eprsim', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    sys.stdout.flush()\n"
    "    with open('/proc/self/status') as f:\n"
    "        hwm = [line.split()[1] for line in f if line.startswith('VmHWM:')]\n"
    "    sys.stderr.write(f'\\nVmHWM_kB {hwm[0]}\\n')\n"
)


class CliPaper:
    """The paper commands, each in a fresh eprsim process started as ``-m`` would.

    The seed only shuffles the command order of each round; the goldens
    are the byte-exact stdout of every command.
    """

    name = "cli-paper"

    def __init__(self, seed: int, goldens: dict[str, bytes] | None = None):
        self.seed = seed
        self.goldens = load_goldens(golden_dir()) if goldens is None else goldens

    def prepare(self, r: int):
        return np.random.default_rng([self.seed, r]).permutation(len(CLI_COMMANDS))

    def run_round(self, order, tr, tally: Tally) -> None:
        for i in order:
            tally.op(self._command, tr, tally, *CLI_COMMANDS[i])

    def _command(self, tr, tally, name, argv) -> list[str]:
        t0 = time.perf_counter()
        with tr.span("cli.command"):
            proc = subprocess.run([sys.executable, "-c", CLI_LAUNCH, *argv],
                                  capture_output=True, check=False)
        tally.sample("cmd_s", time.perf_counter() - t0)
        if proc.returncode != 0:
            return [f"{name}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}"]
        if proc.stdout != self.goldens[name]:
            return [f"{name}: stdout differs from golden"]
        last = proc.stderr.decode().split()[-2:]
        if len(last) != 2 or last[0] != "VmHWM_kB":
            return [f"{name}: no peak resident set on stderr"]
        tally.sample("cmd_rss_mb", int(last[1]) / 1024.0)
        return []

    def peak_rss_mb(self, tally: Tally) -> float:
        """The largest command process's own peak; if no command reported
        one, the children's rusage, which also counts this process."""
        reported = tally.samples.get("cmd_rss_mb")
        if reported:
            return max(reported)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def summary(self, tally: Tally):
        cmds = tally.samples.get("cmd_s", [])
        rows = [("cmd_p50_s", statistics.median(cmds), "s", f"n={len(cmds)} commands")]
        tail = tail_percentile(cmds)
        if tail is None:
            rows.append(("cmd_tail_s", float("nan"), "s",
                         f"none: n={len(cmds)} leaves no percentile above p50 with ten beyond it"))
        else:
            rows.append(("cmd_tail_s", tail[1], "s", f"p{tail[0]} of n={len(cmds)}"))
        return rows

    def trace_extras(self, tr, tally: Tally) -> None:
        """In-process ``cli.main`` per command, then the library calls it makes."""
        for name, argv in CLI_COMMANDS:
            tally.op(self._main, tr, name, argv)
        for name, argv in CLI_COMMANDS:
            tally.op(self._library_calls, tr, argv)

    def _main(self, tr, name, argv) -> list[str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli.main", cli.main, list(argv))
        if code != 0 or buf.getvalue().encode() != self.goldens[name]:
            return [f"{name}: in-process cli.main output differs from golden"]
        return []

    def _library_calls(self, tr, argv) -> list[str]:
        """Public calls behind one command, at its default arguments."""
        if argv[0] == "state":
            _zoo_point(tr, argv[1], 1.0, 0.0)
        elif argv[0] == "figure3":
            tr.call("inequalities.figure3_boundaries", inequalities.figure3_boundaries, 201)
            for name in ("entangled-sum", "entangled-diff", "two-photon", "coherent", "split-photon"):
                _zoo_point(tr, name, 1.0, 0.0, epr=False)
            for phi in (0.0, math.pi / 2):
                _zoo_point(tr, "split-cat", 0.5, phi, epr=False)
        else:
            for alpha in (0.25, 0.5, 1.0):
                for phi in (0.0, math.pi / 4, math.pi / 2, math.pi):
                    params = zoo.CatParams(alpha, phi)
                    state = _zoo_build(tr, zoo.split_cat, params)
                    amps = _signal_amplitudes(tr, state)
                    tr.call("zoo.cat_predictions", zoo.cat_predictions, params)
                    tr.call("inequalities.bell_max", inequalities.bell_max, amps)
        return []


def _zoo_build(tr, fn, *args):
    with tr.span("zoo.build") as sp:
        state = fn(*args)
        sp.counters.update(terms=terms(state), cutoff_max=state.layout.cutoff)
    return state


def _signal_amplitudes(tr, state) -> correlation.CorrelationAmplitudes:
    """Two-mode signals at the optimal oscillators, as the CLI reports them."""
    g = tr.call("homodyne.coherence_functions", homodyne.coherence_functions, state)
    tr.replay(replay_moments, state, COHERENCE_SPECS)
    a1, a2 = homodyne.amplitudes_from_g(g)
    xi = cmath.phase(g.g11) if abs(g.g11) > 1e-12 else 0.0
    zeta = cmath.phase(g.g20) if abs(g.g20) > 1e-12 else 0.0
    return correlation.CorrelationAmplitudes(a1, a2, xi, zeta)


def _zoo_point(tr, name, alpha, phi, epr=True) -> None:
    four = {
        "entangled-sum": (zoo.entangled, "sum"),
        "entangled-diff": (zoo.entangled, "diff"),
        "two-photon": (network.two_photon_network,),
    }
    two = {
        "coherent": (zoo.coherent_pair, alpha, alpha),
        "split-photon": (zoo.split_single_photon,),
        "split-cat": (zoo.split_cat, zoo.CatParams(alpha, phi)),
    }
    if name in four:
        state = _zoo_build(tr, *four[name])
        amps = tr.call("correlation.amplitudes", correlation.amplitudes, state)
        tr.replay(replay_station_moments, state)
        if epr:
            tr.call("correlation.epr_check", correlation.epr_check, state)
    else:
        state = _zoo_build(tr, *two[name])
        amps = _signal_amplitudes(tr, state)
    bell_and_classify(tr, amps)


# ------------------------------------------------------------- lo-network

LO_K = 4            # seeded phase settings per state, each on both backends
LO_GRID = 4         # sinusoid_residual grid (grid^2 evolution settings)


def _coherent_lo(tr):
    return _zoo_build(tr, zoo.coherent_pair, 1.0, 1.0, 18), 18, (0.5, 0.5)


def _cat_lo(alpha):
    def build(tr):
        params = zoo.CatParams(alpha, 0.0)
        pred = tr.call("zoo.cat_predictions", zoo.cat_predictions, params)
        return _zoo_build(tr, zoo.split_cat, params), None, (pred.a1, pred.a2)
    return build


# (label, builder returning (signal, oscillator cutoff, expected amplitudes))
LO_STATES = (
    ("coherent+lo cutoff 36", _coherent_lo),
    ("split-cat+lo alpha 0.5", _cat_lo(0.5)),
    ("split-cat+lo alpha 1.0", _cat_lo(1.0)),
)


class LoNetwork:
    """Large four-mode local-oscillator states; many settings per state."""

    name = "lo-network"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0x10])
        self.settings = [
            [network.PhaseSetting(*map(float, rng.uniform(-math.pi, math.pi, size=2)))
             for _ in range(LO_K)]
            for _ in LO_STATES
        ]

    def prepare(self, r: int):
        return self.settings

    def run_round(self, settings, tr, tally: Tally) -> None:
        built = []
        verify_s = 0.0
        for label, builder in LO_STATES:
            slot = {}
            verify_s += tally.op(self._verify, tr, label, builder, slot)
            built.append(slot)
            if "state" in slot:
                tally.sample(f"terms[{label}]", terms(slot["state"]))
                tally.sample(f"cutoff[{label}]", slot["state"].layout.cutoff)
        tally.sample("verify_s", verify_s)
        for (label, _), slot, state_settings in zip(LO_STATES, built, settings):
            for setting in state_settings:
                tally.op(self._setting, tr, tally, label, slot, setting)

    def summary(self, tally: Tally):
        s, n = tally.sums, tally.sums.get("settings", 0)
        return [
            ("expansion_settings_per_s", n / s["expansion_s"], "settings/s", f"n={n:g}"),
            ("evolution_settings_per_s", n / s["evolution_s"], "settings/s", f"n={n:g}"),
            ("lo_verify_s", statistics.median(tally.samples["verify_s"]), "s",
             f"build, amplitudes, epr_check, sinusoid_residual over {len(LO_STATES)} states"),
        ] + [
            (f"terms[{label}]", tally.samples[f"terms[{label}]"][0], "terms",
             f"cutoff {tally.samples[f'cutoff[{label}]'][0]}")
            for label, _ in LO_STATES if f"terms[{label}]" in tally.samples
        ]

    def _verify(self, tr, label, builder, slot) -> list[str]:
        sig, lo_cutoff, want = builder(tr)
        b1, b2 = tr.call("homodyne.optimal_lo", homodyne.optimal_lo, sig)
        tr.replay(replay_moments, sig, OPTIMAL_LO_SPECS)
        lo = homodyne.LOConfig(b1, b2)
        state = tr.call("homodyne.network_state", homodyne.homodyne_network_state, sig, lo,
                        lo_cutoff=lo_cutoff)
        tr.replay(replay_network_state, sig, lo, lo_cutoff)
        tr.count("zoo.state", terms=terms(state), cutoff_max=state.layout.cutoff)
        amps = tr.call("correlation.amplitudes", correlation.amplitudes, state)
        tr.replay(replay_station_moments, state)
        epr = tr.call("correlation.epr_check", correlation.epr_check, state)
        with tr.span("correlation.sinusoid_residual") as sp:
            res = correlation.sinusoid_residual(state, grid_size=LO_GRID, amps=amps)
        sp.counters["residual_max"] = res
        slot.update(state=state, amps=amps)
        problems = []
        if not (abs(amps.a1 - want[0]) < AMPS_TOL and abs(amps.a2 - want[1]) < AMPS_TOL):
            problems.append(f"{label}: amplitudes ({amps.a1!r}, {amps.a2!r}) != {want}")
        if not epr.is_epr:
            problems.append(f"{label}: epr_check says A1 + A2 != 1")
        if not res < RESIDUAL_TOL:
            problems.append(f"{label}: sinusoid residual {res:.3e}")
        return problems

    def _setting(self, tr, tally, label, slot, setting) -> list[str]:
        if "state" not in slot:
            return [f"{label}: state was not built"]
        return setting_pair(tr, tally, slot["state"], setting, slot["amps"], label)


# ------------------------------------------------------------- state-scan

SCAN_CUTOFF = 3
SCAN_PER_ROUND = 40
SCAN_OCCS = [
    (n1, n2, n3, n4)
    for n1 in range(SCAN_CUTOFF + 1) for n2 in range(SCAN_CUTOFF + 1 - n1)
    for n3 in range(SCAN_CUTOFF + 1 - n1 - n2) for n4 in range(SCAN_CUTOFF + 1 - n1 - n2 - n3)
]


class StateScan:
    """Seeded random four-mode states at cutoff 3, each seen once."""

    name = "state-scan"

    def __init__(self, seed: int):
        self.seed = seed
        self.layout = fock.ModeLayout(STATION, SCAN_CUTOFF)

    def prepare(self, r: int):
        rng = np.random.default_rng([self.seed, 0x55, r])
        shape = (SCAN_PER_ROUND, len(SCAN_OCCS))
        vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        angles = rng.uniform(-math.pi, math.pi, size=(SCAN_PER_ROUND, 2))
        return [(vec, network.PhaseSetting(float(t1), float(t2))) for vec, (t1, t2) in zip(vecs, angles)]

    def run_round(self, inputs, tr, tally: Tally) -> None:
        for vec, setting in inputs:
            tally.op(self._state, tr, tally, vec, setting)

    def summary(self, tally: Tally):
        s = tally.sums
        return [("states_per_s", s["states"] / s["state_s"], "states/s",
                 f"n={s['states']:g}, zero-coincidence {s.get('zero_coincidence', 0):g}")]

    def _state(self, tr, tally, vec, setting) -> list[str]:
        t0 = time.perf_counter()
        try:
            problems = self._pipeline(tr, tally, vec, setting)
        finally:
            tally.add("states", 1)
            tally.add("state_s", time.perf_counter() - t0)
        return problems

    def _pipeline(self, tr, tally, vec, setting) -> list[str]:
        state = tr.call("fock.build", fock.make_pure, self.layout, zip(SCAN_OCCS, vec))
        try:
            amps = tr.call("correlation.amplitudes", correlation.amplitudes, state)
        except ZeroCoincidence:
            tally.add("zero_coincidence", 1)
            tr.count("correlation.zero", zero_coincidence=1)
            return []
        tr.replay(replay_station_moments, state)
        problems = setting_pair(tr, tally, state, setting, amps, "random state")
        best, gap, report = bell_and_classify(tr, amps)
        if not amps.a1 + amps.a2 <= 1.0 + SUM_TOL:
            problems.append(f"A1 + A2 = {amps.a1 + amps.a2!r} > 1")
        if not abs(gap) <= BELL_TOL:
            problems.append(f"bell_max {best.b_max!r} vs analytic {best.analytic!r}")
        if report.region == "unphysical":
            problems.append("a quantum state classified unphysical")
        return problems


# ----------------------------------------------------------- classical-mc

MIXTURE = {"components": [(0.6, "thermal", {"nbar": 0.8}), (0.4, "correlated_lo", {"nbar": 1.2})]}
CLASSICAL_CASES = (
    ("thermal 1e5", "thermal", {"nbar": 1.0}, 100_000),
    ("correlated_lo 1e5", "correlated_lo", {"nbar": 1.0}, 100_000),
    ("mixture 1e5", "mixture", MIXTURE, 100_000),
    ("thermal 1e6", "thermal", {"nbar": 1.0}, 1_000_000),
)
COMPLEX_BYTES = 16
REAL_BYTES = 8


class ClassicalMc:
    """make_ensemble -> estimate_amplitudes -> pointwise_margin -> bound_report."""

    name = "classical-mc"

    def __init__(self, seed: int):
        ss = np.random.SeedSequence([seed, 0xC1])
        self.seeds = [int(x) for x in ss.generate_state(len(CLASSICAL_CASES))]

    def prepare(self, r: int):
        return list(zip(CLASSICAL_CASES, self.seeds))

    def run_round(self, cases, tr, tally: Tally) -> None:
        for case, seed in cases:
            tally.op(self._pipeline, tr, tally, case, seed)

    def summary(self, tally: Tally):
        s = tally.sums
        rows = [("samples_per_s", s["samples"] / s["pipeline_s"], "samples/s",
                 f"n={s['samples']:g} samples, with SE and pointwise margin")]
        rows += [(f"pipeline_s[{label}]", statistics.median(tally.samples[f"{label} s"]), "s", "")
                 for label, *_ in CLASSICAL_CASES]
        return rows

    def _pipeline(self, tr, tally, case, seed) -> list[str]:
        label, kind, params, n = case
        t0 = time.perf_counter()
        ens = tr.call("classical.make_ensemble", classical.make_ensemble, kind, params, n, seed)
        est = tr.call("classical.estimate_amplitudes", classical.estimate_amplitudes, ens)
        margin = tr.call("classical.pointwise_margin", classical.pointwise_margin, ens)
        report = tr.call("classical.bound_report", classical.bound_report, est)
        dt = time.perf_counter() - t0
        tally.add("samples", ens.n)
        tally.add("pipeline_s", dt)
        tally.sample(f"{label} s", dt)
        resamples = getattr(classical, "BOOTSTRAP_RESAMPLES", 0)
        # bytes the current algorithm materialises, computed from n: five
        # ensemble arrays, three moment-term arrays, and per resample an
        # index vector plus three gathered arrays
        computed = (ens.n * (4 * COMPLEX_BYTES + REAL_BYTES)
                    + ens.n * (2 * COMPLEX_BYTES + REAL_BYTES)
                    + resamples * ens.n * (REAL_BYTES + 2 * COMPLEX_BYTES + REAL_BYTES))
        tr.count("classical.work", samples=ens.n, resamples=resamples, bytes_computed=computed)
        problems = []
        if not (report.within_bound1 and report.within_bound2):
            problems.append(f"{label}: a=({est.a1_hat!r}, {est.a2_hat!r}) beyond 1/2 + 3 SE")
        if kind == "correlated_lo" and not abs(est.a1_hat - 0.5) < 0.01:
            problems.append(f"{label}: correlated a1 {est.a1_hat!r} not within 0.01 of 1/2")
        if not margin >= -MARGIN_TOL:
            problems.append(f"{label}: pointwise margin {margin!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (CliPaper, LoNetwork, StateScan, ClassicalMc)}
