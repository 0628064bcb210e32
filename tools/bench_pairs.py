"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr 7 \
        --title "what the change does" --parent-rev b7f3ee6 \
        --workload cli-paper:1001-1005 --workload lo-network:1101-1105

DIR is a checkout (src/, perfbench/ and BENCHMARK.json) of each side. For
every seed of a workload, ``perfbench/run.py --trace 0`` runs once from each
checkout for the ``run_seconds`` of the change's BENCHMARK.json, the parent
first on even pair indices and the change first on odd ones. The
output holds, per workload and side, the median and quartiles of every
end-to-end metric, the pairs each side won (ties count for neither, lower
is better), the median and quartiles of the unscaled wall seconds that
the report prints above its JSON and of the operations attempted per run,
the failed operations and whether every run was correct. Per metric it
also gives the median of the per-pair ratios change/parent, and whether
the difference is resolved: one side won at least 9 of 10 pairs, and the
two medians differ by more than the parent's quartile spread. Under
"src_lines" it records each checkout's ``wc -l`` of ``src/eprsim/*.py`` by
module, so the change's line delta is measured, and
under "src_code_lines" the lines of each that hold code: not blank, not
comment-only and not in a module, class or function docstring. Under
"src_lines_delta" and "src_code_lines_delta" it gives change minus parent
of each, by module and in total. It is rewritten after each pair, so an
interrupted series keeps its finished pairs. Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np

RUN_TIMEOUT_S = 900


def parse_workload(text: str) -> tuple[str, list[int]]:
    """``name:first-last`` or ``name:s1,s2,...`` -> (name, seeds)."""
    name, _, seeds = text.partition(":")
    if "-" in seeds:
        first, last = (int(x) for x in seeds.split("-"))
        return name, list(range(first, last + 1))
    return name, [int(x) for x in seeds.split(",")]


def run_seconds(root: Path) -> int:
    """The run length that BENCHMARK.json in checkout ``root`` fixes."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


UNSCALED = re.compile(r"^unscaled wall medians: setup ([0-9.eE+-]+) s, round ([0-9.eE+-]+) s$", re.M)


def parse_unscaled(stdout: str) -> dict | None:
    """The unscaled wall medians that ``perfbench/run.py`` prints above its JSON,
    as {"setup_s": ..., "round_s": ...}, or None if the report has no such line."""
    match = UNSCALED.search(stdout)
    return None if match is None else {"setup_s": float(match[1]), "round_s": float(match[2])}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run from checkout ``root``: its final JSON line,
    with the unscaled wall medians of its report under "unscaled"."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    run["unscaled"] = parse_unscaled(proc.stdout)
    return run


def src_lines(root: Path) -> dict:
    """``wc -l`` of each ``src/eprsim/*.py`` of checkout ``root`` by module, and their total."""
    lines = {p.stem: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "eprsim").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of module ``text`` that hold a token other than a comment, and
    lie in no module, class or function docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0].value if node.body and isinstance(node.body[0], ast.Expr) else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def src_code_lines(root: Path) -> dict:
    """``code_lines`` of each ``src/eprsim/*.py`` of checkout ``root`` by module, and their total."""
    lines = {p.stem: code_lines(p.read_text(encoding="utf-8"))
             for p in sorted((root / "src" / "eprsim").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def line_delta(parent: dict, change: dict) -> dict:
    """change - parent of each module's lines and of the total; a module missing on one side counts 0."""
    return {m: change.get(m, 0) - parent.get(m, 0) for m in sorted(parent.keys() | change.keys())}


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "n": len(values)}


def resolved(parent: list[float], change: list[float], won: dict) -> bool:
    """One side won at least 9 of 10 pairs, and the medians differ by more
    than the parent's quartile spread."""
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    return bool(max(won["change"], won["parent"]) >= 0.9 * won["pairs"]
                and abs(np.median(change) - median) > q3 - q1)


def workload_entry(seeds: list[int], runs: dict[str, list[dict]]) -> dict:
    metrics = list(runs["parent"][0]["metrics"]) if runs["parent"] else []
    value = lambda run, m: run["metrics"][m]["value"]
    entry = {"seeds": seeds[:len(runs["change"])]}
    for side in ("parent", "change"):
        entry[side] = {m: summary([value(r, m) for r in runs[side]]) for m in metrics}
    entry["pairs_won"], entry["paired_ratio"], entry["resolved"] = {}, {}, {}
    for m in metrics:
        pairs = [(value(p, m), value(c, m)) for p, c in zip(runs["parent"], runs["change"])]
        won = entry["pairs_won"][m] = {
            "change": sum(c < p for p, c in pairs),
            "parent": sum(p < c for p, c in pairs),
            "pairs": len(pairs),
        }
        ratios = [c / p for p, c in pairs if p]
        entry["paired_ratio"][m] = round(float(np.median(ratios)), 4) if ratios else None
        entry["resolved"][m] = resolved(*zip(*pairs), won)
    # wall seconds before the reference kernel's scaling, which follows the
    # worker's allocator state as well as the host
    entry["unscaled_wall_s"] = {
        side: {m: summary([r["unscaled"][m] for r in runs[side]]) for m in ("setup_s", "round_s")}
        for side in ("parent", "change") if runs[side] and all(r["unscaled"] for r in runs[side])
    }
    # state-scan's peak RSS grows with the operations a run completes
    entry["ops_per_run"] = {side: summary([r["attempted"] for r in runs[side]]) for side in ("parent", "change")}
    entry["failed_ops"] = {
        side: f"{sum(r['failed'] for r in runs[side])}/{sum(r['attempted'] for r in runs[side])}"
        for side in ("parent", "change")
    }
    entry["all_correct"] = all(r["correct"] for side in runs.values() for r in side)
    return entry


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), platform.processor())
    except OSError:
        model = platform.processor()
    return f"{model}, {os.cpu_count()} CPUs visible"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--title", required=True, help="one line saying what the change does")
    parser.add_argument("--parent-rev", required=True, help="parent commit id")
    parser.add_argument("--workload", action="append", required=True, type=parse_workload,
                        help="NAME:FIRST-LAST or NAME:S1,S2,... (repeatable)")
    parser.add_argument("--seeds-note", default="all",
                        help="which seeds were not used while the change was written")
    args = parser.parse_args(argv)
    out = Path(f"BENCH_{args.pr}.json")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = run_seconds(roots["change"])
    lines = {side: src_lines(root) for side, root in roots.items()}
    code = {side: src_code_lines(root) for side, root in roots.items()}

    doc = {
        "change": args.title,
        "parent": args.parent_rev,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu": cpu_name(),
            "threads": "perfbench pins BLAS/OpenMP to 1 thread; one worker process",
        },
        "method": {
            "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {seconds} --trace 0",
            "pairs": "parent and change alternate which side runs first, one pair per seed; "
                     "each side runs from its own checkout",
            "quartiles": "numpy.percentile, linear interpolation, over the runs of one side",
            "units": "round_s and setup_s in perfbench nominal seconds; peak_rss_mb in MB; "
                     "unscaled_wall_s in wall seconds, before the reference kernel's scaling",
            "seeds_not_used_in_development": args.seeds_note,
            "tool": "tools/bench_pairs.py",
        },
        "src_lines": lines,
        "src_lines_delta": line_delta(**lines),
        "src_code_lines": code,
        "src_code_lines_delta": line_delta(**code),
        "workloads": {},
    }
    for workload, seeds in args.workload:
        runs = {"parent": [], "change": []}
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{m} {v['value']:.4g}" for m, v in runs[side][-1]["metrics"].items()),
                      flush=True)
            doc["workloads"][workload] = workload_entry(seeds, runs)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
