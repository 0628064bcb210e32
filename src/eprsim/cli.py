"""Command-line front end.

Commands
--------
state      Resolve a named example state (or a JSON state file), print its
           correlation amplitudes, Bell maximum, and bound classification.
figure3    CSV of the bound-boundary curves in the (a1, a2) plane plus one
           point per example state.
classical  Run a classical field-ensemble Monte Carlo and report the
           amplitude estimates against the 1/2 bound.
sweep-cat  Grid over cat-state parameters comparing numeric amplitudes and
           Bell maxima with their closed forms.

All output is deterministic for a fixed argument list (including seeds):
JSON carries 9 significant digits, CSV 6. Domain failures exit nonzero
with a one-line JSON error document on stdout.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from typing import Optional

from . import correlation, homodyne, inequalities, zoo
from .classical import bound_report, estimate_amplitudes, make_ensemble, pointwise_margin
from .correlation import CorrelationAmplitudes
from .errors import EprSimError, StateError
from .fock import ZERO_TOL, load_state, reorder
from .zoo import CatParams

STANDARD_FOUR = ("a1", "b1", "a2", "b2")
SIGNAL_TWO = ("a1", "a2")


def _f9(x: float) -> float:
    """Round a float to 9 significant digits for stable JSON output."""
    return float(f"{float(x):.9g}") + 0.0  # + 0.0 normalizes -0.0


def _c6(x: float) -> str:
    """CSV number: 6 significant digits, locale-independent."""
    return f"{float(x):.6g}"


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _error_exit(exc: Exception) -> int:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(json.dumps(doc) + "\n")
    return 1


def _amps_from_coherences(g: homodyne.CoherenceFunctions) -> CorrelationAmplitudes:
    """Express the oscillator-measured amplitudes in the standard form.

    With both oscillator phases at zero the interference moments are
    proportional to g11 and g20, so the phase offsets are their arguments
    and the denominator convention 2|m| / den is kept with den = 2.
    """
    a1, a2 = homodyne.amplitudes_from_g(g)
    xi = cmath.phase(g.g11) if abs(g.g11) > ZERO_TOL else 0.0
    zeta = cmath.phase(g.g20) if abs(g.g20) > ZERO_TOL else 0.0
    return CorrelationAmplitudes(
        a1=a1,
        a2=a2,
        xi=xi,
        zeta=zeta,
        m1=a1 * cmath.exp(1j * xi),
        m2=a2 * cmath.exp(1j * zeta),
        denominator=2.0,
    )


def _resolve_state(args) -> tuple[str, object, str]:
    """Return (name, state, kind) with kind 'four' or 'two'."""
    source = args.source
    if source == "entangled-sum":
        return source, zoo.entangled("sum"), "four"
    if source == "entangled-diff":
        return source, zoo.entangled("diff"), "four"
    if source == "two-photon":
        return source, zoo.two_photon(), "four"
    if source == "coherent":
        alpha2 = args.alpha if args.alpha2 is None else args.alpha2
        return source, zoo.coherent_pair(args.alpha, alpha2, cutoff=args.cutoff), "two"
    if source == "split-photon":
        return source, zoo.split_single_photon(), "two"
    if source == "split-cat":
        return source, zoo.split_cat(CatParams(args.alpha, args.phi), cutoff=args.cutoff), "two"
    try:
        state = load_state(source)
    except FileNotFoundError:
        raise StateError(
            f"unknown state source {source!r}: not a zoo name "
            f"({', '.join(zoo.ZOO_NAMES)}) and no such file"
        ) from None
    labels = state.layout.labels
    if sorted(labels) == sorted(STANDARD_FOUR):
        return source, reorder(state, STANDARD_FOUR), "four"
    if sorted(labels) == sorted(SIGNAL_TWO):
        return source, reorder(state, SIGNAL_TWO), "two"
    raise StateError(
        f"state file modes {labels} must be {SIGNAL_TWO} or {STANDARD_FOUR}"
    )


def _analyze(state, kind: str, tol: float) -> dict:
    if kind == "four":
        amps = correlation.amplitudes(state)
        epr = correlation.epr_check(state, tol=tol)
        is_epr = epr.is_epr
        witness = None
        if epr.witness is not None:
            total = epr.witness.total
            witness = {
                "cd_fraction": _f9(epr.witness.cd / total),
                "dc_fraction": _f9(epr.witness.dc / total),
                "theta1": _f9(epr.phases.theta1),
                "theta2": _f9(epr.phases.theta2),
            }
    else:
        g = homodyne.coherence_functions(state)
        amps = _amps_from_coherences(g)
        is_epr = correlation.epr_holds(amps, tol)
        witness = None
    best = inequalities.bell_max(amps)
    report = inequalities.classify(amps, best.b_max)
    doc = {
        "a1": _f9(amps.a1),
        "a2": _f9(amps.a2),
        "xi": _f9(amps.xi),
        "zeta": _f9(amps.zeta),
        "sum": _f9(amps.a1 + amps.a2),
        "sum_sq": _f9(amps.a1 ** 2 + amps.a2 ** 2),
        "b_max": _f9(best.b_max),
        "b_max_analytic": _f9(best.analytic),
        "is_epr": bool(is_epr),
        "region": report.region,
        "epr_boundary": bool(report.epr_boundary),
        "bell_ok": bool(report.bell_ok),
        "margins": {
            "stochastic": _f9(report.stochastic_margin),
            "bell": _f9(report.bell_margin),
            "tsirelson": _f9(report.tsirelson_margin),
            "quantum": _f9(report.quantum_margin),
        },
    }
    if witness is not None:
        doc["epr_witness"] = witness
    return doc


def cmd_state(args) -> int:
    name, state, kind = _resolve_state(args)
    doc = {"source": name, **_analyze(state, kind, args.tol)}
    if args.format == "json":
        _print_json(doc)
    else:
        lines = ["field,value"]
        flat = dict(doc)
        margins = flat.pop("margins", {})
        witness = flat.pop("epr_witness", None)
        for key, val in flat.items():
            lines.append(f"{key},{_c6(val) if isinstance(val, float) else val}")
        for key, val in margins.items():
            lines.append(f"margin_{key},{_c6(val)}")
        if witness:
            for key, val in witness.items():
                lines.append(f"witness_{key},{_c6(val)}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _zoo_points(cutoff: Optional[int]) -> list[tuple[str, float, float]]:
    """(curve_id, a1, a2) for every example state, region in the id."""
    entries = [
        ("entangled-sum", zoo.entangled("sum"), "four"),
        ("entangled-diff", zoo.entangled("diff"), "four"),
        ("two-photon", zoo.two_photon(), "four"),
        ("coherent", zoo.coherent_pair(1.0, 1.0, cutoff=cutoff), "two"),
        ("split-photon", zoo.split_single_photon(), "two"),
        ("split-cat(phi=0)", zoo.split_cat(CatParams(0.5, 0.0), cutoff=cutoff), "two"),
        ("split-cat(phi=pi/2)", zoo.split_cat(CatParams(0.5, math.pi / 2), cutoff=cutoff), "two"),
    ]
    rows = []
    for name, state, kind in entries:
        if kind == "four":
            amps = correlation.amplitudes(state)
        else:
            amps = _amps_from_coherences(homodyne.coherence_functions(state))
        best = inequalities.bell_max(amps)
        region = inequalities.classify(amps, best.b_max).region
        rows.append((f"state:{name}:{region}", amps.a1, amps.a2))
    return rows


def cmd_figure3(args) -> int:
    rows = inequalities.figure3_boundaries(args.samples)
    rows.extend(_zoo_points(args.cutoff))
    lines = ["curve,a1,a2"]
    for curve, a1, a2 in rows:
        lines.append(f"{curve},{_c6(a1)},{_c6(a2)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _parse_list(text: str, convert, option: str) -> list:
    """Comma-separated numbers; a malformed entry is a StateError."""
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError:
        raise StateError(f"{option} must be comma-separated numbers, got {text!r}") from None


def cmd_classical(args) -> int:
    if args.kind == "delta":
        params = {"point": _parse_list(args.point, complex, "--point")}
    else:
        params = {"nbar": args.nbar}
    ensemble = make_ensemble(args.kind, params, args.samples, args.seed)
    est = estimate_amplitudes(ensemble)
    rep = bound_report(est)
    doc = {
        "kind": args.kind,
        "a1_hat": _f9(est.a1_hat),
        "a2_hat": _f9(est.a2_hat),
        "se1": _f9(est.se1),
        "se2": _f9(est.se2),
        "n": est.n,
        "seed": est.seed,
        "within_bound": {"a1": rep.within_bound1, "a2": rep.within_bound2},
        "margin": {"a1": _f9(rep.margin1), "a2": _f9(rep.margin2)},
        "pointwise_margin": _f9(pointwise_margin(ensemble)),
    }
    _print_json(doc)
    return 0


def cmd_sweep_cat(args) -> int:
    alphas = _parse_list(args.alphas, float, "--alphas")
    phis = _parse_list(args.phis, float, "--phis")
    lines = ["alpha,phi,a1,a1_formula,a2,a2_formula,b_max,b_max_formula"]
    for alpha in alphas:
        for phi in phis:
            params = CatParams(alpha, phi)
            state = zoo.split_cat(params, cutoff=args.cutoff)
            amps = _amps_from_coherences(homodyne.coherence_functions(state))
            pred = zoo.cat_predictions(params)
            best = inequalities.bell_max(amps)
            b_formula = 2.0 * math.sqrt(2.0) * math.sqrt(pred.sum_sq)
            lines.append(
                ",".join(
                    [
                        _c6(alpha),
                        _c6(phi),
                        _c6(amps.a1),
                        _c6(pred.a1),
                        _c6(amps.a2),
                        _c6(pred.a2),
                        _c6(best.b_max),
                        _c6(b_formula),
                    ]
                )
            )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="Interferometric photon-number correlations and Bell bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="analyze one state")
    p_state.add_argument("source", help="zoo name or JSON state file path")
    p_state.add_argument("--alpha", type=complex, default=1.0 + 0.0j)
    p_state.add_argument("--alpha2", type=complex, default=None)
    p_state.add_argument("--phi", type=float, default=0.0)
    p_state.add_argument("--cutoff", type=int, default=None)
    p_state.add_argument("--tol", type=float, default=1e-9)
    p_state.add_argument("--format", choices=("json", "csv"), default="json")
    p_state.set_defaults(func=cmd_state)

    p_fig = sub.add_parser("figure3", help="bound-boundary curves as CSV")
    p_fig.add_argument("--samples", type=int, default=201)
    p_fig.add_argument("--cutoff", type=int, default=None)
    p_fig.set_defaults(func=cmd_figure3)

    p_cls = sub.add_parser("classical", help="classical field-ensemble Monte Carlo")
    p_cls.add_argument("--kind", choices=("delta", "thermal", "correlated_lo"), required=True)
    p_cls.add_argument("--nbar", type=float, default=1.0)
    p_cls.add_argument("--point", type=str, default="1,1,1,1")
    p_cls.add_argument("--samples", type=int, default=100000)
    p_cls.add_argument("--seed", type=int, default=7)
    p_cls.set_defaults(func=cmd_classical)

    p_sweep = sub.add_parser("sweep-cat", help="cat-state parameter sweep vs formulas")
    p_sweep.add_argument("--alphas", type=str, default="0.25,0.5,1")
    p_sweep.add_argument(
        "--phis",
        type=str,
        default=f"0,{math.pi/4},{math.pi/2},{math.pi}",
    )
    p_sweep.add_argument("--cutoff", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep_cat)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EprSimError as exc:
        return _error_exit(exc)
    except OSError as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
