"""Self-tests of the benchmark itself (not part of the eprsim test suite).

    python3 perfbench/selftest.py

1. A deliberately corrupted golden makes exactly that cli-paper command
   fail, so fail_ratio > 0.
2. The exact-repeat work counts of one traced round (every per-layer
   metric counted in ``count`` or ``B``) are identical across two runs of
   one seed, and across a second seed except the three lo-network counts
   that depend on the seeded phases (see PHASE_DEPENDENT).
3. BENCHMARK.json names the workloads and metrics that run.py, worker.py
   and workloads.py produce.
4. Without ``src/eprsim`` next to it, run.py exits non-zero and prints no
   result.
5. ``calibrate.Meter`` scales each operation by the readings next to it:
   on made-up readings, by those within the window on either side, and by
   the nearest one on a side that has none in it.

Takes about three minutes; it starts one eprsim process at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from worker import PER_LAYER, per_layer  # noqa: E402

SEEDS = (11, 11, 12)
COUNT_UNITS = ("count", "B")
# After each beamsplitter, amplitudes below fock.PRUNE_TOL are dropped, and
# which ones cancel depends on the seeded analyzer phases; on the large LO
# states that moves these counts (the random states of state-scan have no
# such cancellations). Every other count must not depend on the seed.
PHASE_DEPENDENT = {
    "lo-network": {"network.beamsplitter.terms_in", "network.beamsplitter.terms_out",
                   "fock.normal_moment.terms_scanned"},
}


def check(ok: bool, label: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


def corrupted_golden() -> bool:
    goldens = workloads.load_goldens(workloads.golden_dir())
    name = workloads.CLI_COMMANDS[0][0]
    goldens[name] = goldens[name].replace(b"0", b"1", 1)
    wl = workloads.CliPaper(seed=1, goldens=goldens)
    tally = workloads.Tally()
    wl.run_round(wl.prepare(0), NullTracer(), tally)
    return check(tally.failed == 1 and tally.failed / tally.attempted > 0,
                 f"corrupted golden {name}: {tally.failed}/{tally.attempted} ops failed")


def traced_counts(name: str, seed: int) -> tuple[dict, int]:
    wl = workloads.WORKLOADS[name](seed)
    tally = workloads.Tally()
    tr = Tracer()
    with tr.span("round"):
        wl.run_round(wl.prepare(0), tr, tally)
    if hasattr(wl, "trace_extras"):
        wl.trace_extras(tr, tally)
    tr.run_replays()
    stats = {"untraced_wall_s": 0.0, "traced_wall_s": 0.0, "overhead_s": 0.0,
             "replay_s": 0.0, "spans": len(tr.spans)}
    metrics = per_layer(tr, {}, stats)
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}
    return counts, tally.failed


def repeat_counts() -> bool:
    ok = True
    for name in workloads.WORKLOADS:
        runs = [traced_counts(name, seed) for seed in SEEDS]
        counts = [c for c, _ in runs]
        nonzero = {k: v for k, v in counts[0].items() if v}
        ok &= check(all(failed == 0 for _, failed in runs), f"{name}: no failed ops")
        ok &= check(counts[0] == counts[1], f"{name}: counts repeat on seed {SEEDS[0]}")
        moved = {k for k in counts[0] if counts[0][k] != counts[2][k]}
        ok &= check(moved <= PHASE_DEPENDENT.get(name, set()),
                    f"{name}: counts on seed {SEEDS[2]} equal except {sorted(moved)}: {nonzero}")
    return ok


def names_agree() -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
               == list(workloads.WORKLOADS), "workload names agree")
    ok &= check([m["name"] for m in bench["per_layer"]] == [n for n, _, _ in PER_LAYER]
                and [m["unit"] for m in bench["per_layer"]] == [u for _, u, _ in PER_LAYER],
                "per-layer metric names and units agree")
    ok &= check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
                "end-to-end metric names and units agree")
    return ok


def refuses_without_sources() -> bool:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "state-scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    return check(proc.returncode != 0 and '"correct"' not in proc.stdout,
                 f"without src/eprsim: exit {proc.returncode}, no result printed")


def meter_scaling() -> bool:
    meter = calibrate.Meter()
    nominal = calibrate.REF_NOMINAL_S
    # readings (when, reference seconds); an operation (start, end, seconds)
    meter.readings = [(0.0, nominal), (9.0, 2 * nominal), (10.0, 4 * nominal),
                      (12.0, nominal), (30.0, 3 * nominal)]
    meter.ops = [(10.5, 11.5, 1.0),   # before: median(2n, 4n) = 3n; after: n
                 (13.5, 14.5, 1.0),   # before: n; none within 3 s after, so the next, 3n
                 (12.5, 22.5, 10.0)]  # a 10 s window: before median(2n, 4n, n), after 3n
    want = [1.0 / 2.0, 1.0 / 2.0, 10.0 / 2.5]
    got = meter.scaled_ops()
    return check(all(abs(g - w) < 1e-12 for g, w in zip(got, want)) and len(got) == 3,
                 f"meter scales by neighbouring readings: {got} vs {want}")


def main() -> int:
    os.environ.update(run.child_env(ROOT))
    results = [names_agree(), meter_scaling(), refuses_without_sources(), corrupted_golden(),
               repeat_counts()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
