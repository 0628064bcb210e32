"""CLI surface: the four subcommands, both output formats, error paths."""

import contextlib
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eprsim import ModeLayout, correlation, fock, make_pure, save_state
from eprsim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_state_entangled_sum(capsys):
    code, doc = run_json(capsys, "state", "entangled-sum")
    assert code == 0
    assert doc["source"] == "entangled-sum"
    assert doc["a1"] == 0.0
    assert doc["a2"] == 1.0
    assert doc["sum"] == 1.0
    assert doc["is_epr"] is True
    assert doc["region"] == "bell-violating"
    assert doc["bell_ok"] is False
    assert doc["b_max"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert doc["epr_witness"]["cd_fraction"] == 0.0
    assert doc["epr_witness"]["dc_fraction"] == 0.0
    assert doc["margins"]["tsirelson"] == pytest.approx(0.0, abs=1e-9)


def test_state_coherent_is_on_the_triple_point(capsys):
    code, doc = run_json(capsys, "state", "coherent")
    assert code == 0
    assert doc["a1"] == pytest.approx(0.5, abs=1e-8)
    assert doc["a2"] == pytest.approx(0.5, abs=1e-8)
    assert doc["region"] == "classical"
    assert doc["epr_boundary"] is True
    assert doc["is_epr"] is True
    # two-arm analysis carries no four-mode witness
    assert "epr_witness" not in doc


def test_state_split_photon(capsys):
    code, doc = run_json(capsys, "state", "split-photon")
    assert code == 0
    assert doc["a1"] == 1.0
    assert doc["a2"] == 0.0
    assert doc["region"] == "bell-violating"


def test_state_split_cat_options(capsys):
    code, doc = run_json(capsys, "state", "split-cat", "--alpha", "0.5",
                         "--phi", str(math.pi / 2), "--cutoff", "20")
    assert code == 0
    assert doc["a1"] == pytest.approx(0.5, abs=1e-8)
    assert doc["a2"] == pytest.approx(0.5, abs=1e-8)
    assert doc["b_max"] == pytest.approx(2.0, abs=1e-6)


def test_state_csv_format(capsys):
    code, out = run(capsys, "state", "two-photon", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert fields["source"] == "two-photon"
    assert float(fields["a1"]) == 1.0
    assert fields["region"] == "bell-violating"
    assert "margin_tsirelson" in fields
    assert "witness_cd_fraction" in fields


def test_state_from_file(capsys, tmp_path):
    layout = ModeLayout(("a1", "b1", "a2", "b2"), 2)
    s = make_pure(layout, [((1, 0, 1, 0), 1.0), ((0, 1, 0, 1), 1.0)])
    path = tmp_path / "epr.json"
    save_state(s, path)
    code, doc = run_json(capsys, "state", str(path))
    assert code == 0
    assert doc["a2"] == 1.0
    assert doc["is_epr"] is True


def test_state_file_mode_order_is_normalized(capsys, tmp_path):
    # mode names decide the analysis; the file's column order does not
    layout = ModeLayout(("a2", "a1"), 19)
    s = make_pure(layout, [((0, 1), 1.0), ((1, 0), 1.0)])
    path = tmp_path / "swapped.json"
    save_state(s, path)
    code, doc = run_json(capsys, "state", str(path))
    assert code == 0
    assert doc["a1"] == 1.0


def test_unknown_source_fails_cleanly(capsys):
    code, doc = run_json(capsys, "state", "no-such-thing")
    assert code == 1
    assert doc["error"]["type"] == "StateError"
    assert "no-such-thing" in doc["error"]["message"]


def test_malformed_file_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, doc = run_json(capsys, "state", str(path))
    assert code == 1
    assert doc["error"]["type"] == "StateFileError"
    one = [{"occ": [1, 0], "re": 1.0}]
    for content, error, message in [
        ({"modes": [], "cutoff": 1, "terms": one}, "StateFileError", "layout needs at least one mode label"),
        ({"modes": ["a1", "a2"], "cutoff": 1, "terms": []}, "StateFileError", "state needs at least one amplitude"),
        ([1, 2], "StateFileError", "top level must be an object"),
        ({"modes": ["x", "y"], "cutoff": 1, "terms": one}, "StateError", "modes ('x', 'y') must be"),
    ]:
        path.write_text(json.dumps(content))
        code, out = run(capsys, "state", str(path))
        assert code == 1
        assert out.count("\n") == 1
        error_doc = json.loads(out)["error"]
        assert error_doc["type"] == error and message in error_doc["message"]


def test_deeply_nested_file_fails_cleanly(capsys, tmp_path):
    # the JSON parser recurses once per bracket
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run(capsys, "state", str(path))
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"] == {"type": "StateFileError",
                                        "message": f"{path}: JSON nested too deeply to parse"}


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 5e-324])
def test_state_file_amplitudes_of_any_finite_scale(capsys, tmp_path, scale):
    # |amplitude|^2 of these overflows or underflows, yet each file is
    # the state whose amplitudes are 1
    def state_output(value):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"modes": ["a2", "a1"], "cutoff": 1, "terms": [
            {"occ": [1, 0], "re": value}, {"occ": [0, 1], "re": value}]}))
        return run(capsys, "state", str(path))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert state_output(scale) == state_output(1.0)


@pytest.mark.parametrize("argv, error", [
    (("state", "coherent", "--alpha", "nan"), "CutoffError"),
    (("classical", "--kind", "thermal", "--nbar", "-1"), "StateError"),
    (("sweep-cat", "--alphas", "abc"), "StateError"),
    (("sweep-cat", "--phis", "0,x"), "StateError"),
    (("classical", "--kind", "delta", "--point", "a,b,c,d"), "StateError"),
    (("classical", "--kind", "delta", "--point", "1,1,1"), "StateError"),
    (("classical", "--kind", "delta", "--point", "1,1,1,1,1"), "StateError"),
    (("classical", "--kind", "thermal", "--seed", "-1"), "StateError"),
    (("state", "coherent", "--tol", "nan"), "StateError"),
    (("state", "coherent", "--tol", "-1"), "StateError"),
    (("state", "entangled-sum", "--tol", "inf"), "StateError"),
    (("state", "coherent", "--alpha", "1e200"), "CutoffError"),
    (("state", "split-cat", "--alpha", "1e200"), "CutoffError"),
    (("state", "split-cat", "--alpha", "1e150", "--cutoff", "5"), "CutoffError"),
    (("classical", "--kind", "delta", "--point", "inf,1,1,1"), "StateError"),
])
def test_bad_numbers_fail_cleanly(capsys, argv, error):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == error


@pytest.mark.parametrize("argv", [
    ("state", "coherent", "--alpha", "300"),
    ("state", "coherent", "--alpha", "1e8"),
    ("state", "split-cat", "--alpha", "1e4"),
    ("state", "coherent", "--cutoff", "100000000"),
])
def test_size_budget_is_checked_before_building(capsys, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("occupations were enumerated past the size budget")

    monkeypatch.setattr(fock, "_occupations", forbidden)
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CutoffError"
    assert f"exceeds the size budget of {fock.TERM_BUDGET} terms" in error["message"]


@pytest.mark.parametrize("argv", [
    ("state", "coherent", "--alpha", "40"),
    ("state", "coherent", "--alpha", "1e200", "--cutoff", "5"),
    ("state", "coherent", "--alpha", "19"),
    ("state", "split-cat", "--alpha", "1e150", "--cutoff", "5"),
    ("state", "coherent", "--alpha", "1e154", "--cutoff", "5"),   # |alpha|^2 sums past the float range
])
def test_overflowing_builders_warn_nothing(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "CutoffError"


def test_figure3_output(capsys):
    code, out = run(capsys, "figure3", "--samples", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "curve,a1,a2"
    rows = [line.split(",") for line in lines[1:]]
    curves = {r[0] for r in rows}
    assert {"quantum", "bell", "stochastic", "tsirelson"} <= curves
    # one labeled point per example state, tagged with its region
    state_rows = [r for r in rows if r[0].startswith("state:")]
    assert len(state_rows) == 7
    labels = {r[0] for r in state_rows}
    assert "state:coherent:classical" in labels
    assert "state:entangled-sum:bell-violating" in labels
    assert "state:split-cat(phi=pi/2):classical" in labels
    # odd sample count: the triple point is on the quantum curve
    assert any(r[0] == "quantum" and r[1] == "0.5" and r[2] == "0.5" for r in rows)


def test_figure3_is_deterministic(capsys):
    _, out1 = run(capsys, "figure3", "--samples", "11")
    _, out2 = run(capsys, "figure3", "--samples", "11")
    assert out1 == out2


def test_classical_delta(capsys):
    code, doc = run_json(capsys, "classical", "--kind", "delta",
                         "--point", "1,1,1,1", "--samples", "1")
    assert code == 0
    assert doc["a1_hat"] == 0.5
    assert doc["within_bound"]["a1"] is True
    assert doc["margin"]["a1"] == 0.0
    assert doc["pointwise_margin"] == 0.0


def test_classical_thermal_seeded(capsys):
    code, doc = run_json(capsys, "classical", "--kind", "thermal",
                         "--samples", "20000", "--seed", "13")
    assert code == 0
    assert doc["n"] == 20000
    assert doc["seed"] == 13
    assert doc["within_bound"]["a1"] is True
    assert doc["within_bound"]["a2"] is True
    _, doc2 = run_json(capsys, "classical", "--kind", "thermal",
                       "--samples", "20000", "--seed", "13")
    assert doc == doc2


def test_classical_thermal_matches_the_readme(capsys):
    # complex products round differently with the form of their operands,
    # so a reordered field product shows here in the last printed digits
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    command = "eprsim classical --kind thermal --nbar 1.0 --samples 100000 --seed 7"
    block = readme.split(command + "\n```\n\n```json\n", 1)[1].split("```", 1)[0]
    code, doc = run_json(capsys, *command.split()[1:])
    assert code == 0
    assert doc == json.loads(block)


def test_sweep_cat_matches_formulas(capsys):
    code, out = run(capsys, "sweep-cat", "--alphas", "0.5", "--cutoff", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,phi,a1,a1_formula,a2,a2_formula,b_max,b_max_formula"
    assert len(lines) == 5  # four default phis
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[2]) == pytest.approx(float(cols[3]), abs=1e-5)
        assert float(cols[4]) == pytest.approx(float(cols[5]), abs=1e-5)
        assert float(cols[6]) == pytest.approx(float(cols[7]), abs=1e-5)


def test_console_entry_point_runs(subprocess_env):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "eprsim", "state", "split-photon"],
        capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a1"] == 1.0


@pytest.mark.parametrize("argv", [
    ("classical", "--kind", "delta", "--point", "1e200,1e200,1e200,1e200"),
    ("classical", "--kind", "thermal", "--nbar", "1e160", "--samples", "1000"),
])
def test_overflowing_field_moments_fail_cleanly(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["type"] == "StateError"
    assert "overflow" in error["message"]


def test_underflowing_field_moments_are_not_a_zero_denominator(capsys):
    # every field is nonzero, but each intensity product underflows to 0
    code, doc = run_json(capsys, "classical", "--kind", "delta",
                         "--point", "1e-200,1e-200,1e-200,1e-200")
    assert code == 1
    assert doc["error"]["type"] == "StateError"
    assert "underflow" in doc["error"]["message"]
    # a station without any field still has a vanishing denominator
    code, doc = run_json(capsys, "classical", "--kind", "delta", "--point", "1,0,1,0")
    assert code == 1
    assert doc["error"]["type"] == "ZeroDenominator"


def test_state_computes_the_amplitudes_once(capsys, monkeypatch):
    calls = []
    moments = correlation._station_moments

    def counted(state):
        calls.append(state)
        return moments(state)

    monkeypatch.setattr(correlation, "_station_moments", counted)
    code, doc = run_json(capsys, "state", "entangled-sum")
    assert code == 0
    assert doc["is_epr"] is True and "epr_witness" in doc
    assert len(calls) == 1


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("state", "split-cat", "--alpha", "1e150"),
    ("state", "coherent", "--cutoff", HUGE),
])
def test_budget_error_shows_a_long_cutoff_short(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.count("\n") == 1 and len(out) < 200
    error = json.loads(out)["error"]
    assert error["type"] == "CutoffError"
    assert "e+" in error["message"] and "size budget" in error["message"]


# values an option may be given: an extreme (about half the draws; those
# past a size budget among them) or a small number, which keeps each run
# that passes every check fast
REAL_EXTREMES = ("nan", "-nan", "inf", "-inf", "1e400", "1e308", "-1e200", "1e150", "1e-320",
                 "-1", "0", "abc", "", "1,2", "1+2j", "nanj")
INT_EXTREMES = ("-1", "0", HUGE, "-" + HUGE, "100000000", "1e3", "0x10", "abc", "")
reals = st.one_of(st.sampled_from(REAL_EXTREMES), st.floats(-5.0, 5.0).map(repr))
ints = st.one_of(st.sampled_from(INT_EXTREMES), st.integers(-3, 30).map(str))
lists = st.lists(reals, min_size=1, max_size=3).map(",".join)


def _options(choices):
    """Some of the (flag, strategy) choices, each with one drawn value."""
    chosen = st.lists(st.sampled_from(choices), unique_by=lambda c: c[0], max_size=len(choices))
    return chosen.flatmap(lambda picks: st.tuples(*[v.map(lambda x, f=f: (f, x)) for f, v in picks]))


COMMANDS = {
    "state": (st.sampled_from(["entangled-sum", "entangled-diff", "two-photon", "coherent",
                               "split-photon", "split-cat", "no-such-source"]).map(lambda s: [s]),
              [("--alpha", reals), ("--alpha2", reals), ("--phi", reals), ("--cutoff", ints),
               ("--tol", reals), ("--format", st.sampled_from(["json", "csv", "xml"]))]),
    "figure3": (st.just([]), [("--samples", ints), ("--cutoff", ints)]),
    "classical": (st.sampled_from(["delta", "thermal", "correlated_lo", "mixture"]).map(lambda k: ["--kind", k]),
                  [("--nbar", reals), ("--point", lists), ("--samples", ints), ("--seed", ints)]),
    "sweep-cat": (st.just([]), [("--alphas", lists), ("--phis", lists), ("--cutoff", ints)]),
}


@st.composite
def argv_lists(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    head, options = COMMANDS[command]
    return [command] + draw(head) + [x for pair in draw(_options(options)) for x in pair]


@settings(max_examples=150, deadline=None)
@given(argv_lists())
@example(["classical", "--kind", "thermal", "--samples", HUGE])
@example(["classical", "--kind", "thermal", "--samples", "100000000"])
@example(["figure3", "--samples", HUGE])
@example(["state", "coherent", "--cutoff", "-" + HUGE])
@example(["state", "coherent", "--alpha", "1e150j"])
@example(["sweep-cat", "--alphas", "nan,1e400"])
@example(["state"])
@example([])
def test_any_argv_ends_in_success_or_the_one_line_json_error(argv):
    # the size budgets are in force: no value may allocate or loop without bound
    _assert_success_or_the_one_line_json_error(argv)


def _assert_success_or_the_one_line_json_error(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code == 0:
        assert out.getvalue()
        return
    assert code == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert set(error) == {"type", "message"} and error["message"]


# a valid station-mode state file; the fuzz test swaps one of FILE_FIELDS
# for a raw JSON token, or removes it (None)
STATE_DOC = {"modes": ["a1", "b1", "a2", "b2"], "cutoff": 1,
             "terms": [{"occ": [1, 0, 0, 1], "re": 0.6, "im": 0.0},
                       {"occ": [0, 1, 1, 0], "re": 0.0, "im": 0.8}]}
FILE_FIELDS = (("modes",), ("modes", 0), ("cutoff",), ("terms",), ("terms", 0),
               ("terms", 0, "occ"), ("terms", 0, "occ", 0), ("terms", 0, "re"), ("terms", 1, "im"))
FILE_EXTREMES = (HUGE, "-" + HUGE, "-0", "1e308", "-1e308", "NaN", "Infinity", "-Infinity",
                 "true", "false", "null", '"a1"', '""', "[]", "[[]]", '[[1, ["a1"]]]', "{}", None)


def _state_file(field, token) -> bytes:
    """STATE_DOC as UTF-8 JSON with ``field`` set to the raw ``token``, or removed."""
    doc = json.loads(json.dumps(STATE_DOC))
    *parents, last = field
    node = doc
    for key in parents:
        node = node[key]
    if token is None:
        del node[last]
        return json.dumps(doc).encode()
    node[last] = "@token@"
    return json.dumps(doc).replace('"@token@"', token).encode()


state_files = st.one_of(
    st.builds(_state_file, st.sampled_from(FILE_FIELDS), st.sampled_from(FILE_EXTREMES)),
    st.binary(max_size=40).map(lambda raw: b"\xff" + raw),  # never valid UTF-8
)


@settings(max_examples=150, deadline=None)
@given(state_files)
@example(json.dumps(STATE_DOC).encode("utf-16"))  # starts with the bytes ff fe
@example(_state_file(("terms", 0, "re"), HUGE))
def test_any_state_file_ends_in_success_or_the_one_line_json_error(content):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "state.json"
        path.write_bytes(content)
        _assert_success_or_the_one_line_json_error(["state", str(path)])
