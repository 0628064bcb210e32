"""eprsim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/eprsim``; nothing is
built or installed. Each workload runs in a fresh worker process with the
BLAS/OpenMP pools pinned to one thread. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (``--trace 0``) the metrics are the end-to-end ones:
  setup_s      median over five fresh processes of ``import eprsim`` plus
               the workload's input generation, in nominal seconds
  peak_rss_mb  peak resident set of the worker (of the largest eprsim
               command process for cli-paper)
  round_s      median time of one round, the workload's fixed unit of
               work (see README.md), in nominal seconds
A nominal second is a measured wall second scaled by the machine's speed
at the time, from the reference kernel timed next to it (calibrate.py):
wall * REF_NOMINAL_S / reference time. peak_rss_mb is not scaled. The
lines above the JSON give the unscaled wall medians, the workload's own
figures (cmd_p50_s, states_per_s, ..., in wall time), the failure ratio
and the first failed checks.

Traced (``--trace 1``) the metrics are the per-layer ones of one traced
round, with the tracing overhead; they are never end-to-end figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-paper", "lo-network", "state-scan", "classical-mc")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}
SETUP_PROBES = 4        # set-up-only processes; the worker's own set-up is the fifth
WORKER_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    """This environment with ``root/src`` first on PYTHONPATH and one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in PINNED})
    return env


def worker(root: Path, env: dict, args, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eprsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "eprsim" / "__init__.py").is_file():
        print(f"no eprsim sources under {root / 'src'}; run from an eprsim checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        if args.trace:
            res = worker(root, env, args)
            out = res["metrics"]
        else:
            probes = [worker(root, env, args, setup_only=True) for _ in range(SETUP_PROBES)]
            res = worker(root, env, args)
            probes.append(res)
            setups = [p["setup_s"] for p in probes]
            values = {
                "setup_s": statistics.median(p["setup_nominal_s"] for p in probes),
                "peak_rss_mb": res["peak_rss_mb"],
                "round_s": statistics.median(res["scaled_rounds"]),
            }
            out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            res["lines"] += [
                "setup wall s: " + ", ".join(f"{x:.4f}" for x in setups)
                + ", reference s: " + ", ".join(f"{p['setup_ref_s']:.4f}" for p in probes),
                f"unscaled wall medians: setup {statistics.median(setups):.4f} s, "
                f"round {statistics.median(res['rounds']):.4f} s",
            ]
    except (subprocess.SubprocessError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"worker failed: {exc!r}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    for line in res["lines"]:
        print(line)
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} failed / {attempted} attempted ops)")
    for note in res["notes"]:
        print(f"failed check: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
