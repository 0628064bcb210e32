"""tools/bench_pairs.py: the report parser and the per-workload summary."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

REPORT = """workload lo-network, seed 1, seconds 4, trace 0
nominal s each: 0.3474, 0.3341, 0.3539
terms[split-cat+lo alpha 1.0] = 40821 terms  (cutoff 48)
setup wall s: 0.1755, 0.1549, 0.1367, 0.1363, 0.1872, reference s: 0.0414, 0.0380, 0.0362, 0.0337, 0.0417
unscaled wall medians: setup 0.1549 s, round 0.3419 s
fail_ratio = 0 (0 failed / 165 attempted ops)
{"correct": true, "attempted": 165, "failed": 0, "metrics": {"round_s": {"value": 0.3732818049120825, "unit": "s"}}}
"""

def test_parse_unscaled_reads_the_wall_medians_line():
    assert bench_pairs.parse_unscaled(REPORT) == {"setup_s": 0.1549, "round_s": 0.3419}
    assert bench_pairs.parse_unscaled("round 1.5e-3 s\n") is None
    assert bench_pairs.parse_unscaled(
        "unscaled wall medians: setup 1.2e-01 s, round 4.5e-02 s\n") == {"setup_s": 0.12, "round_s": 0.045}


def _run(round_s, unscaled):
    return {"correct": True, "attempted": 3, "failed": 0, "unscaled": unscaled,
            "metrics": {"round_s": {"value": round_s, "unit": "s"}}}


def test_workload_entry_summarises_the_unscaled_wall_per_side():
    runs = {
        "parent": [_run(0.40, {"setup_s": 0.10, "round_s": 0.30}), _run(0.42, {"setup_s": 0.12, "round_s": 0.34})],
        "change": [_run(0.36, {"setup_s": 0.11, "round_s": 0.26}), _run(0.37, {"setup_s": 0.11, "round_s": 0.28})],
    }
    entry = bench_pairs.workload_entry([1, 2], runs)
    assert entry["parent"]["round_s"]["median"] == pytest.approx(0.41)
    assert entry["unscaled_wall_s"]["parent"]["round_s"]["median"] == pytest.approx(0.32)
    assert entry["unscaled_wall_s"]["change"]["setup_s"] == {"median": 0.11, "q1": 0.11, "q3": 0.11, "n": 2}
    assert entry["pairs_won"]["round_s"] == {"change": 2, "parent": 0, "pairs": 2}
    # a side whose report lacked the line gets no summary, not a partial one
    runs["change"][1]["unscaled"] = None
    assert list(bench_pairs.workload_entry([1, 2], runs)["unscaled_wall_s"]) == ["parent"]


def test_workload_entry_summarises_the_operations_per_run_per_side():
    def run(attempted):
        return {**_run(0.4, None), "attempted": attempted}

    runs = {"parent": [run(n) for n in (100, 120, 110, 130)], "change": [run(n) for n in (200, 220)]}
    entry = bench_pairs.workload_entry([1, 2, 3, 4], runs)
    assert entry["ops_per_run"] == {
        "parent": {"median": 115.0, "q1": 107.5, "q3": 122.5, "n": 4},
        "change": {"median": 210.0, "q1": 205.0, "q3": 215.0, "n": 2},
    }
    assert entry["failed_ops"] == {"parent": "0/460", "change": "0/420"}
    json.dumps(entry)


def _checkout(root, modules):
    """A checkout with ``src/eprsim/<name>.py`` of the given texts and a BENCHMARK.json."""
    package = root / "src" / "eprsim"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text, encoding="utf-8")
    (package / "notes.txt").write_text("not a module\n" * 7, encoding="utf-8")
    (root / "BENCHMARK.json").write_text('{"run_seconds": 1}', encoding="utf-8")
    return root


def test_each_checkout_records_its_source_lines(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", {"fock": "a\nb\nc\n", "cli": "x\ny"})
    change = _checkout(tmp_path / "change", {"fock": "a\nb\n", "cli": "x\ny\nz\n", "trace": "t\n"})
    # counted as wc -l counts: newlines, so a last line without one is not counted
    assert bench_pairs.src_lines(parent) == {"cli": 1, "fock": 3, "total": 4}
    assert bench_pairs.src_lines(change) == {"cli": 3, "fock": 2, "trace": 1, "total": 6}

    monkeypatch.setattr(bench_pairs, "run_once", lambda root, workload, seed, seconds: _run(
        0.4 if root == parent else 0.3, {"setup_s": 0.1, "round_s": 0.2}))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pr", "0",
                             "--title", "t", "--parent-rev", "r", "--workload", "w:1-2"]) == 0
    doc = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
    assert doc["src_lines"] == {"parent": {"cli": 1, "fock": 3, "total": 4},
                                "change": {"cli": 3, "fock": 2, "trace": 1, "total": 6}}
    assert doc["src_code_lines"] == {"parent": {"cli": 2, "fock": 3, "total": 5},
                                     "change": {"cli": 3, "fock": 2, "trace": 1, "total": 6}}
    assert doc["workloads"]["w"]["pairs_won"]["round_s"] == {"change": 2, "parent": 0, "pairs": 2}


MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


class Box:
    """One line."""

    size = 2


def area(r):
    """A function docstring,

    with a blank line inside it.
    """
    text = """a string that is
    not a docstring"""
    return math.pi * r * r, text
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # import, class, size, def, text (2 lines), return
    assert bench_pairs.code_lines(MODULE) == 7
    root = _checkout(tmp_path / "c", {"geometry": MODULE, "empty": ""})
    assert bench_pairs.src_code_lines(root) == {"empty": 0, "geometry": 7, "total": 7}
    assert bench_pairs.src_lines(root)["geometry"] == MODULE.count("\n")


def test_workload_entry_gives_the_paired_ratio_and_whether_it_is_resolved():
    tight = [0.100, 0.101, 0.102, 0.103, 0.104, 0.105, 0.106, 0.107, 0.108, 0.109]
    wide = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]

    def entry(parent, change):
        runs = {"parent": [_run(v, None) for v in parent], "change": [_run(v, None) for v in change]}
        return bench_pairs.workload_entry(list(range(len(parent))), runs)

    # every pair 0.8x and a tight parent: the change wins 10 of 10 by more than the spread
    fast = entry(tight, [0.8 * v for v in tight])
    assert fast["paired_ratio"]["round_s"] == pytest.approx(0.8)
    assert fast["resolved"]["round_s"] is True
    assert fast["pairs_won"]["round_s"] == {"change": 10, "parent": 0, "pairs": 10}
    # the parent may win as well
    assert entry(tight, [1.25 * v for v in tight])["resolved"]["round_s"] is True
    # 10 of 10 pairs, but the medians differ by less than the parent's quartile spread
    spread = entry(wide, [0.8 * v for v in wide])
    assert spread["paired_ratio"]["round_s"] == pytest.approx(0.8) and spread["resolved"]["round_s"] is False
    # a wide gap, but won in only 8 of 10 pairs
    mixed = entry(tight, [0.5 * v for v in tight[:8]] + [2.0 * v for v in tight[8:]])
    assert mixed["paired_ratio"]["round_s"] == pytest.approx(0.5) and mixed["resolved"]["round_s"] is False
    json.dumps(fast)
