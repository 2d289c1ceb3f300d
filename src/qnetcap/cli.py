"""Command-line surface: validate, bound, plan, simulate-swap, sweep.

All outputs are deterministic for identical invocations: JSON is emitted
with sorted keys, CSV rows are sorted by grid value, and floats use a
fixed format. Exit codes: 0 success, 1 domain/validation error, 2 IO
error.

Each handler imports the library modules it runs when it is called, so a
process loads, and compiles, only what its subcommand needs: ``plan``
loads the DOT writer only for ``--dot``. The handlers only read flags and
files: the library checks what the values mean (a sweep, a rate table, a
Werner chain), and its message is the one printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from typing import Optional, Sequence

from .values import Regime

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

_REGIMES = {r.value: r for r in Regime}
# a --grid beyond this many points would cost time and memory before any cut
MAX_SWEEP_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for IO failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _print_json(obj) -> None:
    sys.stdout.write(_json_text(obj))


def _float_flag(flag: str, text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as err:
        raise ValueError(f"bad {flag} value: {err}") from err


def _parse_rate_model(spec: str):
    from .aggregator import AsymptoticQCap, FixedFraction, PerEdgeTable
    from .netmodel import read_json

    if spec == "asymptotic":
        return AsymptoticQCap()
    if spec.startswith("fraction:"):
        return FixedFraction(_float_flag("--rate-model", spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        table = read_json(path, "bad --rate-model table file")
        if not isinstance(table, dict):
            raise ValueError(f"rate table {path!r} must be a JSON object")
        return PerEdgeTable(table)  # its message names the edge at fault
    raise ValueError(
        f"unknown rate model {spec!r}; use 'asymptotic', 'fraction:<alpha>' or 'table:<file>'"
    )


def cmd_validate(args) -> int:
    from .netmodel import load_network

    net = load_network(args.network)
    kind = net.budget_kind.__name__.lower() if net.budget_kind else "none"
    print(f"ok: {len(net.nodes)} nodes, {len(net.topology.arcs)} edges, {kind} budgets")
    return EXIT_OK


def cmd_bound(args) -> int:
    from .netmodel import load_network
    from .report import sandwich_report, sandwich_report_to_dict

    net = load_network(args.network)
    regime = net.default_regime if args.regime is None else _REGIMES[args.regime]
    report = sandwich_report(net, regime, args.epsilon)
    doc = sandwich_report_to_dict(report)
    if args.weights == "qcap":
        for key in ("upper_esq", "upper_eps_corrected", "vacuous", "upper_witness"):
            doc.pop(key)
    elif args.weights == "esq":
        for key in ("lower", "lower_witness"):
            doc.pop(key)
    _print_json(doc)
    return EXIT_OK


def cmd_plan(args) -> int:
    from .aggregator import plan, plan_to_dict
    from .netmodel import load_network

    net = load_network(args.network)
    rate_model = _parse_rate_model(args.rate_model)
    result = plan(net, args.epsilon, rate_model, count_all_edges=args.count_all_edges)
    text = _json_text(plan_to_dict(result))
    if args.dot:  # written first, so an IO error leaves stdout empty
        from .export import plan_to_dot

        dot = plan_to_dot(net, result)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    sys.stdout.write(text)
    return EXIT_OK


def _chain_from_args(args) -> list[float]:
    if args.chain is not None and args.from_plan is not None:
        raise ValueError("give either --chain or --from-plan, not both")
    if args.chain is not None:
        for flag, value in (("--path-index", args.path_index), ("--pair-p", args.pair_p)):
            if value is not None:
                raise ValueError(f"{flag} applies only to --from-plan, not to --chain")
        return [_float_flag("--chain", v) for v in args.chain.split(",") if v.strip() != ""]
    if args.from_plan is None:
        raise ValueError("give either --chain or --from-plan")
    from .netmodel import read_json

    path_index = 0 if args.path_index is None else args.path_index
    pair_p = 1.0 if args.pair_p is None else args.pair_p
    doc = read_json(args.from_plan, "--from-plan file")
    paths = doc.get("paths") if isinstance(doc, dict) else None
    if not isinstance(paths, list):
        raise ValueError(f"{args.from_plan!r} is not a plan: it has no 'paths' list")
    if not 0 <= path_index < len(paths):
        raise ValueError(f"path index {path_index} out of range (plan has {len(paths)})")
    path = paths[path_index]
    hops = path.get("bell_edges") if isinstance(path, dict) else None
    if not isinstance(hops, list):
        raise ValueError(
            f"{args.from_plan!r} is not a plan: path {path_index} has no 'bell_edges' list"
        )
    return [pair_p] * len(hops)


def cmd_simulate_swap(args) -> int:
    from .swap import werner_chain_report

    chain = _chain_from_args(args)
    eps_values = None  # default budget: each pair's own distance from a perfect Bell pair
    if args.eps is not None:
        eps_values = [_float_flag("--eps", v) for v in args.eps.split(",")]
        if len(eps_values) == 1:
            eps_values = eps_values * len(chain)
    _print_json(werner_chain_report(chain, eps_values))
    return EXIT_OK


# --- sweep flags ------------------------------------------------------------

def _parse_grid(args) -> list[float]:
    if args.values is not None:
        grid = [_float_flag("--values", v) for v in args.values.split(",") if v.strip() != ""]
    elif args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ValueError(f"--grid must be start:stop:step, got {args.grid!r}")
        start, stop, step = (_float_flag("--grid", p) for p in parts)
        if step == 0 or not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"bad grid {args.grid!r}")
        span = (stop - start) / step + 1e-9  # infinite past the float range
        n = math.floor(span) + 1 if math.isfinite(span) else span
        if n > MAX_SWEEP_POINTS:
            raise ValueError(f"--grid {args.grid!r} asks for {n} points; "
                             f"a sweep takes at most {MAX_SWEEP_POINTS}")
        grid = [start + i * step for i in range(max(n, 0))]
    else:
        raise ValueError("give either --grid or --values")
    if not grid:
        raise ValueError("sweep grid is empty")
    increasing = all(a < b for a, b in zip(grid, grid[1:]))
    decreasing = all(a > b for a, b in zip(grid, grid[1:]))
    if not (increasing or decreasing):
        raise ValueError("sweep grid must be strictly monotone")
    return [v + 0.0 for v in grid]  # -0.0 + 0.0 is +0.0: no row is labelled -0


def cmd_sweep(args) -> int:
    if args.epsilon is not None and args.param == "epsilon":
        raise ValueError("--epsilon applies only to --param eta or budget-scale, "
                         "not to --param epsilon")
    if args.edge is not None and args.param != "eta":
        raise ValueError(f"--edge applies only to --param eta, not to --param {args.param}")
    from .netmodel import load_network
    from .sweep import sweep_csv

    net = load_network(args.network)
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    grid = sorted(_parse_grid(args))
    text = sweep_csv(net, args.param, grid, fields, edge=args.edge, epsilon=args.epsilon or 0.0)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qnetcap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file, exit 0 if valid")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bound", help="print the sandwich report for a network")
    p.add_argument("network")
    p.add_argument("--regime", choices=sorted(_REGIMES), default=None,
                   help="default: inferred from the budget variant")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--weights", choices=("both", "qcap", "esq"), default="both")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("plan", help="emit the aggregated repeater protocol plan")
    p.add_argument("network")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--rate-model", default="asymptotic",
                   help="asymptotic | fraction:<alpha> | table:<file.json>")
    p.add_argument("--dot", default=None, help="also write an annotated DOT file")
    p.add_argument("--count-all-edges", action="store_true",
                   help="error budget counts every edge, including pairless ones")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate-swap", help="swap a Werner chain and check its error budget")
    p.add_argument("--chain", default=None, help="comma list of Werner parameters")
    p.add_argument("--from-plan", default=None, help="plan JSON emitted by 'plan'")
    p.add_argument("--path-index", type=int, default=None)  # 0 with --from-plan
    p.add_argument("--pair-p", type=float, default=None,  # 1.0 with --from-plan
                   help="Werner parameter per link when using --from-plan")
    p.add_argument("--eps", default=None,
                   help="per-pair budgets (one value or a comma list); "
                        "default: each pair's own Bell distance")
    p.set_defaults(func=cmd_simulate_swap)

    p = sub.add_parser("sweep", help="CSV scan of report fields over a parameter grid")
    p.add_argument("network")
    p.add_argument("--param", choices=("eta", "epsilon", "budget-scale"), required=True)
    p.add_argument("--edge", default=None, help="edge id (required for --param eta)")
    p.add_argument("--grid", default=None, help="start:stop:step (inclusive)")
    p.add_argument("--values", default=None, help="explicit comma list of grid values")
    p.add_argument("--fields", default="lower,upper_esq,ratio",
                   help="comma list from lower,upper_esq,upper_eps_corrected,ratio,m")
    p.add_argument("--epsilon", type=float, default=None,  # 0 with --param eta or budget-scale
                   help="fixed epsilon when sweeping another parameter")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # one plain line per warning, no Python source
            warnings.simplefilter("always")
            warnings.showwarning = _print_warning
            return args.func(args)
    except (ValueError, KeyError) as err:  # includes NetworkFormatError
        # str() of a KeyError is the repr of its message, quotes and all
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
