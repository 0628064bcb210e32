"""The package: a namespace built from each module's ``__all__`` with none
lost, and docstrings and comments that keep no measurement history."""

import ast
import inspect
import io
import re
import subprocess
import sys
import tokenize
from itertools import combinations
from pathlib import Path

import pytest

import eprsim

MODULES = ("classical", "correlation", "errors", "fock", "homodyne", "inequalities", "network", "zoo")

# every public name ``eprsim`` offered before its namespace came from ``__all__``
PUBLIC = (
    "AmplitudeEstimate", "BellMaxResult", "BellSettings", "BoundReport", "CatDegenerate",
    "CatParams", "CatPredictions", "ClassicalEnsemble", "CoherenceFunctions",
    "CorrelationAmplitudes", "CutoffError", "DegenerateLO", "EprReport", "EprSimError",
    "InequalityReport", "LOConfig", "MixedState", "ModeLayout", "MultiModeState",
    "NormalizationError", "OptimizerShortfall", "OutputCorrelators", "PhaseSetting",
    "StateError", "StateFileError", "UnknownModeError", "ZOO_NAMES", "ZeroCoincidence",
    "ZeroDenominator", "ZeroIntensity", "amplitudes", "amplitudes_from_g", "beamsplitter",
    "bell_B", "bell_max", "bound_report", "cat_predictions", "classical", "classify",
    "coherence_functions", "coherent_cutoff", "coherent_pair", "correlation", "correlation_E",
    "entangled", "epr_check", "epr_split_network", "errors", "estimate_amplitudes", "fidelity",
    "figure3_boundaries", "fock", "homodyne", "homodyne_network_state", "inequalities",
    "inner_product", "load_state", "make_coherent", "make_ensemble", "make_pure",
    "mixture_from_density", "network", "normal_moment", "optimal_lo", "output_correlators",
    "phase_shift", "pointwise_margin", "predict_E", "relabel", "reorder", "save_state",
    "signal_amplitudes", "single_mode_cat", "sinusoid_residual", "split_cat",
    "split_single_photon", "tensor", "two_photon", "two_photon_network", "vacuum", "zoo",
)


def _owner(name):
    """The module whose ``__all__`` lists ``name``."""
    (owner,) = [m for m in MODULES if name in getattr(eprsim, m).__all__]
    return getattr(eprsim, owner)


def test_the_module_lists_are_disjoint():
    for a, b in combinations(MODULES, 2):
        assert not set(getattr(eprsim, a).__all__) & set(getattr(eprsim, b).__all__), (a, b)


@pytest.mark.parametrize("name", PUBLIC)
def test_every_earlier_name_resolves_to_its_module_object(name):
    assert name in dir(eprsim)
    if name in MODULES:
        assert getattr(eprsim, name) is sys.modules[f"eprsim.{name}"]
    else:
        assert getattr(eprsim, name) is getattr(_owner(name), name)


def test_the_namespace_is_exactly_the_module_lists():
    exported = {name for m in MODULES for name in getattr(eprsim, m).__all__}
    # a submodule is bound once imported: ``cli`` too, after any test imports it
    public = {name for name in dir(eprsim) if not name.startswith("_") and not inspect.ismodule(getattr(eprsim, name))}
    assert public == exported
    assert exported - set(PUBLIC) == {"epr_holds", "STATION_MODES", "SIGNAL_MODES", "ZOO"}
    assert not hasattr(eprsim, "UsageError")


def test_a_fresh_interpreter_sees_classical(subprocess_env):
    # attribute access first: no other import may have bound eprsim.classical yet
    code = (
        "import sys, eprsim\n"
        "module, ensemble = eprsim.classical, eprsim.make_ensemble\n"
        "assert module is sys.modules['eprsim.classical'] and ensemble is module.make_ensemble\n"
        "from eprsim import *\n"
        "assert classical is module and make_ensemble is ensemble\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


# a timing, a memory size or a PR number: measurement history, which CHANGES.md keeps
HISTORY = re.compile(r"\d\s*(ms|µs|ns|KB|kB|MB|MiB|GB)\b|\bPR \d+")


def test_docstrings_and_comments_keep_no_measurement_history():
    found = []
    for path in sorted(Path(eprsim.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                    if tok.type == tokenize.COMMENT]
        docs = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
        found += [(path.name, match.group(0)) for s in comments + docs for match in HISTORY.finditer(s)]
    assert not found
