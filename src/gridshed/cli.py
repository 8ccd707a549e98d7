"""Command-line interface.

Subcommands: solve, check, sweep, gen, validate.  Exit codes: 0 success,
1 input error, 2 infeasible or failed verification, 3 solver limit.
Data output goes to stdout; diagnostics go to stderr.
"""

import argparse
import json
import math
import os
import sys

from . import analysis
from . import checker as chk
from .errors import GridshedError, InfeasibleError, SolverLimitError
from .instances import (
    desk_network,
    desk_scenario,
    thirteen_bus_network,
    thirteen_bus_scenario,
)
from .netmodel import compute_load_blocks, load_network, load_scenario, read_json
from .solver import SolverOptions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

# every value of a sweep is one MILP solve
_MAX_RANGE_VALUES = 10_000


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        gap_target=args.gap,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
    )


def _load_inputs(args):
    net = load_network(args.net)
    part = compute_load_blocks(net)
    scen = load_scenario(args.scen, part)
    return net, part, scen


def cmd_solve(args) -> int:
    net, part, scen = _load_inputs(args)
    try:
        sched, metrics = analysis.run_horizon(
            net, scen, mode=args.mode, opts=_solver_options(args), part=part
        )
    except InfeasibleError as exc:
        print(f"infeasible: {exc} ({exc.diagnosis})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    objective = analysis.schedule_objective(part, scen, sched, mode=args.mode)
    analysis.emit_report(sched, metrics, args.format, sys.stdout,
                         objective=objective)
    if args.schedule_out:
        with open(args.schedule_out, "w", encoding="utf-8") as fh:
            json.dump(chk.schedule_to_dict(sched), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_check(args) -> int:
    net, part, scen = _load_inputs(args)
    sched = chk.schedule_from_dict(read_json(args.schedule, "schedule"))
    report = chk.verify_schedule(net, part, scen, sched, mode=args.mode)
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not report.passed:
        print(f"{len(report.violations)} violation(s); worst per family:",
              file=sys.stderr)
        for family, worst in sorted(report.worst_by_family().items()):
            print(f"  {worst.describe()}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


def _parse_values(spec: str) -> list:
    """Parse '0.7:0.05:0.95' (start:step:stop) or 'inf,6,4,2'."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise GridshedError(f"bad range spec {spec!r}; expected start:step:stop")
        start, step, stop = (_number(p, spec) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise GridshedError(
                f"bad range spec {spec!r}; start, step and stop must be finite")
        if step <= 0:
            raise GridshedError("range step must be positive")
        if start + step == start:
            raise GridshedError(
                f"bad range spec {spec!r}; step {step!r} does not advance "
                f"start {start!r}")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise GridshedError(
                f"bad range spec {spec!r}; (stop - start)/step is not finite")
        count = max(0, math.floor(span + 1e-12) + 1)
        if count > _MAX_RANGE_VALUES:
            raise GridshedError(
                f"bad range spec {spec!r} gives {count} values; at most "
                f"{_MAX_RANGE_VALUES} are allowed")
        return [round(start + i * step, 12) for i in range(count)]
    return [_number(tok, spec) for tok in spec.split(",")]


def _number(token: str, spec: str) -> float:
    """One value of a --values spec; float() also reads inf."""
    try:
        return float(token)
    except ValueError:
        raise GridshedError(f"bad value {token.strip()!r} in {spec!r}") from None


def cmd_sweep(args) -> int:
    net, part, scen = _load_inputs(args)
    values = _parse_values(args.values)
    opts = _solver_options(args)
    # one worker per CPU this process may run on; taskset and cpusets narrow it
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    if args.param == "epsilon":
        result = analysis.sweep_epsilon(
            net, scen, values, mode=args.mode, opts=opts, workers=workers
        )
    elif args.param == "beta":
        result = analysis.sweep_beta(
            net, scen, values, mode=args.mode, opts=opts, workers=workers
        )
    else:
        raise GridshedError(f"unknown sweep parameter {args.param!r}")
    result.to_csv(sys.stdout)
    return EXIT_OK


def cmd_gen(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    if args.case == "13bus":
        net, scen = thirteen_bus_network(), thirteen_bus_scenario()
    elif args.case == "desk":
        net = desk_network(seed=args.seed)
        scen = desk_scenario(seed=args.seed)
    else:
        raise GridshedError(f"unknown case {args.case!r}")
    net_path = os.path.join(args.out_dir, f"{args.case}_network.json")
    scen_path = os.path.join(args.out_dir, f"{args.case}_scenario.json")
    for path, doc in ((net_path, net), (scen_path, scen)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(net_path)
    print(scen_path)
    return EXIT_OK


def cmd_validate(args) -> int:
    net = load_network(args.net)
    part = compute_load_blocks(net)
    msg = f"network ok: {len(net.buses)} buses, {part.n_blocks} blocks"
    if args.scen:
        scen = load_scenario(args.scen, part)
        msg += f"; scenario ok: horizon {scen.horizon}"
    print(msg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshed",
        description="Equitable power-shutoff and reconfiguration scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--net", required=True, help="network JSON file")
        p.add_argument("--scen", required=True, help="scenario JSON file")
        p.add_argument("--mode", choices=("original", "equitable"),
                       default="equitable")

    def add_solver(p):
        p.add_argument("--gap", type=float, default=1e-4,
                       help="relative MIP gap target")
        p.add_argument("--time-limit", type=float, default=None)
        p.add_argument("--node-limit", type=int, default=None)

    p = sub.add_parser("solve", help="solve one horizon and report")
    add_common(p)
    add_solver(p)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--schedule-out", default=None,
                   help="also write the full schedule JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify a schedule file")
    add_common(p)
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="parameter sweep, CSV to stdout")
    add_common(p)
    add_solver(p)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True,
                   help="start:step:stop or comma list (inf allowed)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="emit a bundled test case")
    p.add_argument("--case", choices=("13bus", "desk"), default="13bus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="validate input files only")
    p.add_argument("--net", required=True)
    p.add_argument("--scen", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (GridshedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
