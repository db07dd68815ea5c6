"""Command-line front end: design boundaries, analyze a dataset sequentially,
and simulate operating characteristics.

Exit codes: 0 continue/success, 2 reject (efficacy), 1 error (a usage error too).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__
from .data import ingest_csv, snapshot
from .errors import SeqSurvError
from .gsdesign import (
    GSDesign,
    MonitoringState,
    SpendingFunction,
    boundaries,
    design_from_text,
    design_to_text,
    monitor,
    spending_from_text,
    state_from_text,
    state_to_text,
)
from .sim import (
    METHODS,
    build_design,
    calibrate_analysis_times,
    method_statistic,
    oc_plot_data,
    oc_to_csv,
    run_oc,
    scenario_from_text,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fractions(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None


def _format_design_table(design: GSDesign) -> str:
    lines = [
        f"{'stage':>5} {'info_frac':>10} {'alpha_spent':>12} {'boundary':>10}",
    ]
    for k in range(design.n_stages):
        c = design.critical_values[k]
        lines.append(
            f"{k + 1:>5} {design.info_fractions[k]:>10.4f} "
            f"{design.alpha_spent[k]:>12.8f} {c:>10.6f}"
        )
    return "\n".join(lines)


def _cmd_design(args: argparse.Namespace) -> int:
    if args.alpha is None:
        print("notice: --alpha not given, defaulting to 0.05")
        args.alpha = 0.05
    sidedness = {"1": "one_sided_upper", "2": "two_sided"}.get(args.sides, args.sides)
    sf = spending_from_text(args.spending, args.alpha, sidedness)
    design = boundaries(sf, args.info_fractions)
    print(_format_design_table(design))
    if args.out:
        Path(args.out).write_text(design_to_text(design), encoding="utf-8")
        print(f"design written to {args.out}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    data_path = Path(args.data)
    design = design_from_text(Path(args.design).read_text(encoding="utf-8"))
    state_path = Path(args.state) if args.state else None

    if state_path and state_path.exists():
        state = state_from_text(state_path.read_text(encoding="utf-8"))
        if state.method and state.method != args.method:
            print(
                f"error: state was built with method {state.method!r}, not {args.method!r}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        if design_to_text(state.design) != design_to_text(design):
            print(
                f"error: design file {args.design} differs from the design recorded "
                f"in state file {args.state}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        if args.total_info is not None and args.total_info != state.total_information:
            print(
                f"error: --total-info {args.total_info!r} differs from the total information "
                f"{state.total_information!r} recorded in state file {args.state}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    else:
        if args.total_info is None:
            print("error: --total-info is required when starting a new monitoring state", file=sys.stderr)
            return EXIT_ERROR
        state = MonitoringState(design=design, total_information=args.total_info, method=args.method)

    snap = snapshot(ingest_csv(data_path), args.u)
    z, info = method_statistic(args.method, snap, args.t0)
    result = monitor(state, info, z, calendar_time=args.u)
    if state_path:
        state_path.write_text(state_to_text(state), encoding="utf-8")

    print(f"{'stage':>5} {'time':>8} {'info':>12} {'IF':>8} {'boundary':>10} {'z':>9} decision")
    for t, res in zip(state.calendar_times, state.results):
        print(
            f"{res.stage:>5} {t:>8.3f} {res.info_level:>12.4f} {res.info_fraction:>8.4f} "
            f"{res.boundary:>10.4f} {res.z:>9.4f} {res.decision}"
        )
    print("# provenance")
    print(f"#   data sha256 = {_sha256(data_path)}")
    print(f"#   method = {args.method}, t0 = {args.t0}, u = {args.u}")
    if result.info_level != result.observed_info_level:
        print(
            f"#   information level raised from the observed {result.observed_info_level!r} "
            f"to {result.info_level!r}, the least growth the monitor allows over the previous look"
        )
    print(f"#   seqsurv version = {__version__}")
    return EXIT_REJECT if result.decision == "reject" else EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario_path = Path(args.scenario)
    scenario = scenario_from_text(scenario_path.read_text(encoding="utf-8"))
    design = build_design(scenario)
    methods = tuple(m.strip() for m in args.methods.split(",")) if args.methods.strip() else ()
    calibration = calibrate_analysis_times(
        scenario,
        replicates=args.calibration_replicates,
        seed=args.seed,
        methods=methods,
        workers=args.workers,
    )
    oc = run_oc(
        scenario,
        design,
        methods,
        replicates=args.replicates,
        seed=args.seed,
        calibration=calibration,
        workers=args.workers,
    )
    csv_text = oc_to_csv(oc)
    header = (
        f"# scenario sha256 = {_sha256(scenario_path)}\n"
        f"# seed = {args.seed}, replicates = {args.replicates}, "
        f"calibration replicates = {args.calibration_replicates}\n"
        f"# analysis times = {','.join(repr(t) for t in oc.analysis_times)}\n"
        f"# total information = {','.join(f'{m}:{oc.method_totals[m]!r}' for m in methods)}\n"
        f"# seqsurv version = {__version__}\n"
    )
    out_text = header + csv_text
    if args.out:
        Path(args.out).write_text(out_text, encoding="utf-8")
        print(f"results written to {args.out}")
    else:
        print(out_text, end="")
    if args.plot_data:
        Path(args.plot_data).write_text(oc_plot_data(oc, design), encoding="utf-8")
        print(f"plot data written to {args.plot_data}")
    for m in methods:
        print(f"{m}: final cumulative rejection = {oc.final_rejection(m):.4f} "
              f"(se {oc.standard_errors[m][-1]:.4f}, failures {oc.failures[m]})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError``, which ``main`` reports like any
    other error: argparse would exit 2, the code of a rejection."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqsurv",
        description="Group-sequential comparison of covariate-adjusted survival probabilities",
    )
    parser.add_argument("--version", action="version", version=f"seqsurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="compute spending boundaries for a schedule")
    p_design.add_argument("--alpha", type=float, default=None, help="total type I error (default 0.05)")
    p_design.add_argument("--sides", default="2", help="2, 1, one_sided_upper, one_sided_lower")
    p_design.add_argument("--spending", default="power:3", help="power:RHO, obf, pocock, custom:IF:A;...")
    p_design.add_argument("--info-fractions", type=_fractions, required=True,
                          help="comma-separated, increasing, ending at 1")
    p_design.add_argument("--out", default=None, help="write the design file here")
    p_design.set_defaults(func=_cmd_design)

    p_an = sub.add_parser("analyze", help="run one sequential analysis stage on a dataset")
    p_an.add_argument("data", help="CSV with header id,arm,entry,time,event,z1,...,zp")
    p_an.add_argument("--design", required=True, help="design file from the design command")
    p_an.add_argument("--t0", type=float, required=True, help="fixed survival time compared")
    p_an.add_argument("--u", type=float, required=True, help="calendar time of this analysis")
    p_an.add_argument("--method", choices=METHODS, default="adjusted")
    p_an.add_argument("--state", default=None, help="monitoring state file (created/updated)")
    p_an.add_argument("--total-info", type=float, default=None, help="target total information")
    p_an.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="estimate operating characteristics for a scenario")
    p_sim.add_argument("scenario", help="scenario file (key = value lines)")
    p_sim.add_argument("--replicates", type=int, default=2000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--methods", default="adjusted", help="comma-separated subset of adjusted,km,cox")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--calibration-replicates", type=int, default=400)
    p_sim.add_argument("--out", default=None, help="write the OC CSV here")
    p_sim.add_argument("--plot-data", default=None, help="write per-stage plot data here")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SeqSurvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
