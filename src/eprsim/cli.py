"""Command-line front end; ``build_parser`` lists the commands.

All output is deterministic for a fixed argument list (including seeds):
JSON carries 9 significant digits, CSV 6. A domain failure prints a
one-line JSON error document on stdout and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import correlation, homodyne, inequalities, zoo
from .classical import bound_report, estimate_amplitudes, make_ensemble, pointwise_margin
from .errors import EprSimError, StateError, UsageError
from .fock import load_state, reorder
from .homodyne import SIGNAL_MODES
from .network import STATION_MODES
from .zoo import CatParams

STATE_ALPHA, STATE_PHI = 1.0 + 0.0j, 0.0  # ``state`` defaults of --alpha, --phi
# figure3 shows each zoo state at the ``state`` defaults, but the cat twice
# at alpha 0.5: Bell-violating at phi 0, on the classical triple point at pi/2
FIGURE3_CATS = {"split-cat": {"(phi=0)": (0.5, 0.0), "(phi=pi/2)": (0.5, math.pi / 2)}}


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


def _resolve_state(args):
    """The zoo state named by ``args.source``, or the state file at that path
    put in station or signal mode order."""
    build = zoo.ZOO.get(args.source)
    if build is not None:
        return build(alpha=args.alpha, alpha2=args.alpha2, phi=args.phi, cutoff=args.cutoff)
    try:
        state = load_state(args.source)
    except FileNotFoundError:
        raise StateError(
            f"unknown state source {args.source!r}: not a zoo name "
            f"({', '.join(zoo.ZOO_NAMES)}) and no such file"
        ) from None
    labels = state.layout.labels
    for modes in (STATION_MODES, SIGNAL_MODES):
        if sorted(labels) == sorted(modes):
            return reorder(state, modes)
    raise StateError(
        f"state file modes {labels} must be {SIGNAL_MODES} or {STATION_MODES}"
    )


def _amplitudes(state):
    """(A1, A2, xi, zeta) of a station or signal state."""
    if state.layout.labels == STATION_MODES:
        return correlation.amplitudes(state)
    return homodyne.signal_amplitudes(state)


def _analyze(state) -> dict:
    # a station state's EPR test computes its amplitudes and witness; the report reuses both
    epr = correlation.epr_check(state) if state.layout.labels == STATION_MODES else None
    amps = _amplitudes(state) if epr is None else epr.amplitudes
    best, report = inequalities.bell_max(amps), inequalities.classify(amps)
    doc = {
        "a1": _f9(amps.a1),
        "a2": _f9(amps.a2),
        "xi": _f9(amps.xi),
        "zeta": _f9(amps.zeta),
        "sum": _f9(amps.a1 + amps.a2),
        "sum_sq": _f9(amps.a1 ** 2 + amps.a2 ** 2),
        "b_max": _f9(best.b_max),
        "b_max_analytic": _f9(best.analytic),
        "is_epr": bool(report.epr_boundary),   # the one EPR decision, correlation.epr_holds
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
    if epr is not None and epr.is_epr:
        # the four-mode network also shows the cross coincidences vanish
        total = epr.witness.total
        doc["epr_witness"] = {
            "cd_fraction": _f9(epr.witness.cd / total),
            "dc_fraction": _f9(epr.witness.dc / total),
            "theta1": _f9(epr.phases.theta1),
            "theta2": _f9(epr.phases.theta2),
        }
    return doc


def cmd_state(args) -> int:
    doc = {"source": args.source, **_analyze(_resolve_state(args))}
    if args.format == "json":
        _print_json(doc)
    else:
        # nested blocks go last, their keys prefixed
        nested = {"margins": "margin_", "epr_witness": "witness_"}
        rows = [(key, val) for key, val in doc.items() if key not in nested]
        for block, prefix in nested.items():
            rows += [(prefix + key, val) for key, val in doc.get(block, {}).items()]
        lines = [f"{key},{_c6(val) if isinstance(val, float) else val}" for key, val in rows]
        sys.stdout.write("\n".join(["field,value"] + lines) + "\n")
    return 0


def _zoo_points(cutoff: Optional[int]) -> list[tuple[str, float, float]]:
    """(curve_id, a1, a2) for every zoo state, region in the id."""
    rows = []
    for name, build in zoo.ZOO.items():
        points = FIGURE3_CATS.get(name, {"": (STATE_ALPHA, STATE_PHI)})
        for suffix, (alpha, phi) in points.items():
            amps = _amplitudes(build(alpha=alpha, alpha2=None, phi=phi, cutoff=cutoff))
            region = inequalities.classify(amps).region
            rows.append((f"state:{name}{suffix}:{region}", amps.a1, amps.a2))
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
            amps = homodyne.signal_amplitudes(zoo.split_cat(params, cutoff=args.cutoff))
            pred = zoo.cat_predictions(params)
            best = inequalities.bell_max(amps)
            row = (alpha, phi, amps.a1, pred.a1, amps.a2, pred.a2, best.b_max, pred.b_max)
            lines.append(",".join(map(_c6, row)))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a malformed command line is a JSON error too
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eprsim",
        description="Interferometric photon-number correlations and Bell bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="analyze one state")
    p_state.add_argument("source", help="zoo name or JSON state file path")
    p_state.add_argument("--alpha", type=complex, default=STATE_ALPHA)
    p_state.add_argument("--alpha2", type=complex, default=None)
    p_state.add_argument("--phi", type=float, default=STATE_PHI)
    p_state.add_argument("--cutoff", type=int, default=None)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (EprSimError, OSError) as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
