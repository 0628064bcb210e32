"""Run one workload in this fresh process and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``
and the BLAS/OpenMP pools pinned to one thread. Set-up time runs from
before ``import eprsim`` to the end of input generation. Untraced, whole
rounds repeat until the next one would end after ``--seconds``. Traced,
one round runs untraced as a warm-up, the same round runs traced and then
untraced again, and the workload's trace-only calls and the queued
replays run last.

Untraced runs and set-up probes also time ``calibrate.reference``. Set-up
is reported with a reading taken right after it. An untraced run goes on
taking readings between its operations (``calibrate.Meter``) and reports
each round's wall time, less the reference's, and the sum of its
operations' times at nominal speed.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import subprocess
import sys
import time

from spans import LAYERS, NullTracer, Tracer

# ``workloads`` and ``calibrate`` import numpy and eprsim, so they are
# imported in ``main``, inside the set-up it times.

SETUP_REF_SAMPLES = 3    # samples in the reading after set-up, and in the last one


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def import_times() -> dict[str, float]:
    """Cumulative import seconds of eprsim and scipy.optimize, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eprsim"],
                          capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
        if m:
            out[m.group(2)] = int(m.group(1)) / 1e6
    return out


# Per-layer metrics of a traced run: (name, unit, source). Sources:
#   ("span", span name, "calls" | "self_s")  ("layer", layer, "self_s" | "errors")
#   ("counter", layer, key)  ("import", module)  ("trace", key)
PER_LAYER = (
    ("cli.import_s", "s", ("import", "eprsim")),
    ("cli.import_scipy_s", "s", ("import", "scipy.optimize")),
    ("cli.main_s", "s", ("span", "cli.main", "self_s")),
    ("cli.command.self_s", "s", ("span", "cli.command", "self_s")),
    ("zoo.build.self_s", "s", ("span", "zoo.build", "self_s")),
    ("zoo.terms", "count", ("counter", "zoo", "terms")),
    ("zoo.cutoff_max", "count", ("counter", "zoo", "cutoff_max")),
    ("homodyne.network_state.self_s", "s", ("span", "homodyne.network_state", "self_s")),
    ("homodyne.coherence_functions.self_s", "s", ("span", "homodyne.coherence_functions", "self_s")),
    ("homodyne.optimal_lo.self_s", "s", ("span", "homodyne.optimal_lo", "self_s")),
    ("fock.normal_moment.calls", "count", ("span", "fock.normal_moment", "calls")),
    ("fock.normal_moment.self_s", "s", ("span", "fock.normal_moment", "self_s")),
    ("fock.normal_moment.terms_scanned", "count", ("counter", "fock", "terms_scanned")),
    ("fock.build.self_s", "s", ("span", "fock.build", "self_s")),
    ("network.beamsplitter.calls", "count", ("span", "network.beamsplitter", "calls")),
    ("network.beamsplitter.self_s", "s", ("span", "network.beamsplitter", "self_s")),
    ("network.beamsplitter.terms_in", "count", ("counter", "network", "terms_in")),
    ("network.beamsplitter.terms_out", "count", ("counter", "network", "terms_out")),
    ("network.phase_shift.self_s", "s", ("span", "network.phase_shift", "self_s")),
    ("correlation.expansion.self_s", "s", ("span", "correlation.expansion", "self_s")),
    ("correlation.evolution.self_s", "s", ("span", "correlation.evolution", "self_s")),
    ("correlation.settings", "count", ("counter", "correlation", "settings")),
    ("correlation.amplitudes.self_s", "s", ("span", "correlation.amplitudes", "self_s")),
    ("correlation.epr_check.self_s", "s", ("span", "correlation.epr_check", "self_s")),
    ("correlation.sinusoid_residual.self_s", "s", ("span", "correlation.sinusoid_residual", "self_s")),
    ("correlation.zero_coincidence", "count", ("counter", "correlation", "zero_coincidence")),
    ("correlation.backend_gap_max", "abs", ("counter", "correlation", "backend_gap_max")),
    ("correlation.residual_max", "abs", ("counter", "correlation", "residual_max")),
    ("inequalities.bell_max.calls", "count", ("span", "inequalities.bell_max", "calls")),
    ("inequalities.bell_max.self_s", "s", ("span", "inequalities.bell_max", "self_s")),
    ("inequalities.bell_max.gap_max", "abs", ("counter", "inequalities", "gap_max")),
    ("inequalities.classify.self_s", "s", ("span", "inequalities.classify", "self_s")),
    ("classical.make_ensemble.self_s", "s", ("span", "classical.make_ensemble", "self_s")),
    ("classical.estimate_amplitudes.self_s", "s", ("span", "classical.estimate_amplitudes", "self_s")),
    ("classical.pointwise_margin.self_s", "s", ("span", "classical.pointwise_margin", "self_s")),
    ("classical.samples", "count", ("counter", "classical", "samples")),
    ("classical.resamples", "count", ("counter", "classical", "resamples")),
    ("classical.bytes_computed", "B", ("counter", "classical", "bytes_computed")),
) + tuple(
    (f"{layer}.{key}", unit, ("layer", layer, key))
    for layer in LAYERS
    for key, unit in (("self_s", "s"), ("errors", "count"))
) + (
    ("trace.untraced_wall_s", "s", ("trace", "untraced_wall_s")),
    ("trace.traced_wall_s", "s", ("trace", "traced_wall_s")),
    ("trace.overhead_s", "s", ("trace", "overhead_s")),
    ("trace.replay_s", "s", ("trace", "replay_s")),
    ("trace.spans", "count", ("trace", "spans")),
)


def per_layer(tr, imports, trace_stats) -> dict[str, dict]:
    spans = tr.summary()
    layers = tr.layer_table()
    counters = tr.layer_counters()
    values = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = spans.get(source[1], {}).get(source[2], 0)
        elif kind == "layer":
            value = layers[source[1]][source[2]]
        elif kind == "counter":
            value = counters.get((source[1], source[2]), 0)
        elif kind == "import":
            value = imports.get(source[1], 0.0)
        else:
            value = trace_stats[source[1]]
        values[name] = {"value": value, "unit": unit}
    return values


def untraced_run(wl, inputs, args, tally, meter) -> dict:
    import calibrate

    tracer = NullTracer()
    tally.tick = meter.after_op
    rounds, round_ops = [], []
    start = time.perf_counter()
    r = 0
    while True:
        spent, first = meter.spent, len(meter.ops)
        t0 = time.perf_counter()
        wl.run_round(inputs, tracer, tally)
        t1 = time.perf_counter()
        rounds.append(t1 - t0 - (meter.spent - spent))
        round_ops.append((first, len(meter.ops)))
        r += 1
        if t1 - start + (t1 - t0) > args.seconds:
            break
        inputs = wl.prepare(r)
    meter.read(SETUP_REF_SAMPLES)
    scaled = meter.scaled_ops()
    scaled_rounds = [sum(scaled[a:b]) for a, b in round_ops]
    lines = [f"rounds: {len(rounds)}, wall s each: " + ", ".join(f"{x:.4f}" for x in rounds),
             "nominal s each: " + ", ".join(f"{x:.4f}" for x in scaled_rounds),
             f"reference: {len(meter.readings)} readings of {meter.samples} samples, "
             f"median {meter.median():.4f} s, nominal {calibrate.REF_NOMINAL_S} s"]
    lines += [f"{name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}"
              for name, value, unit, note in wl.summary(tally)]
    return {
        "rounds": rounds,
        "scaled_rounds": scaled_rounds,
        "peak_rss_mb": wl.peak_rss_mb(tally) if hasattr(wl, "peak_rss_mb") else peak_rss_mb(),
        "lines": lines,
    }


def traced_run(wl, inputs, tally) -> dict:
    wl.run_round(inputs, NullTracer(), tally)  # warm-up: first calls and file caches
    tr = Tracer()
    t0 = time.perf_counter()
    with tr.span("round"):
        wl.run_round(inputs, tr, tally)
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    wl.run_round(inputs, NullTracer(), tally)
    untraced = time.perf_counter() - t0
    if hasattr(wl, "trace_extras"):
        wl.trace_extras(tr, tally)
    t0 = time.perf_counter()
    tally.op(lambda: tr.run_replays() or [])
    replay = time.perf_counter() - t0
    stats = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "overhead_s": traced - untraced,
        "replay_s": replay,
        "spans": len(tr.spans),
    }
    metrics = per_layer(tr, import_times(), stats)
    lines = [f"traced run of one round: untraced {untraced:.4f} s, traced {traced:.4f} s, "
             f"overhead {traced - untraced:+.4f} s, replay {replay:.4f} s, {len(tr.spans)} spans",
             f"{'layer':<14}{'spans':>8}{'self_s':>12}{'errors':>8}"]
    for layer, row in tr.layer_table().items():
        lines.append(f"{layer:<14}{row['spans']:>8}{row['self_s']:>12.4f}{row['errors']:>8}")
    lines.append(f"{'span':<40}{'calls':>8}{'self_s':>12}")
    for name, row in sorted(tr.summary().items()):
        lines.append(f"{name:<40}{row['calls']:>8}{row['self_s']:>12.4f}")
    return {"metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    inputs = wl.prepare(0)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.trace:
        import calibrate

        meter = calibrate.Meter()
        result["setup_ref_s"] = meter.read(SETUP_REF_SAMPLES)
        result["setup_nominal_s"] = calibrate.scale(setup_s, result["setup_ref_s"])
    if not args.setup_only:
        tally = workloads.Tally()
        if args.trace:
            result.update(traced_run(wl, inputs, tally))
        else:
            result.update(untraced_run(wl, inputs, args, tally, meter))
        result.update(attempted=tally.attempted, failed=tally.failed, notes=tally.notes)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
