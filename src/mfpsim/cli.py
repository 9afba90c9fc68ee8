"""Command-line entry point.

Subcommands: run (one simulation), sweep (one run per value of a config
path), solve-one (direct access to the per-client scheduler), and
validate-config.  Exit codes: 0 success, 2 configuration error, 3 (solve-one
only) infeasible workload.  A run that cannot reach its gain floor records a
shortfall for the round and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .config import config_hash, load_config
from .costs import ConsumptionTask, PriceVector
from .errors import ConfigError
from .resource_pool import ResourceQuanta
from .runner import SUMMARY_COLUMNS, _csv_text, run, sweep
from .scenario import StatusAttributes
from .solver import Budgets, OutcomeKind, SolveInput, constrained_schedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _parse_scale(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("scale must look like t:b:f, e.g. 1/4:1/2:1")
    try:
        return [float(Fraction(p)) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"bad scale component: {err}") from err


def _number(positive: bool, allow_inf: bool = False, cast=float):
    """argparse type: a number >= 0 (> 0 when `positive`), finite unless
    `allow_inf`."""

    def number(text: str):
        value = cast(text)  # argparse reports a ValueError as an invalid value
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < 0 or (positive and value == 0):
            raise argparse.ArgumentTypeError(f"must be {'>' if positive else '>='} 0, got {text!r}")
        return value

    return number


_COUNT = _number(positive=False, cast=int)
_NONNEG = _number(positive=False)
_POSITIVE = _number(positive=True)
_CELLS = _number(positive=True, allow_inf=True)


def _parse_values(text: str) -> list:
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            values.append(json.loads(chunk))
        except json.JSONDecodeError:
            values.append(chunk)
    return values


def _config_overrides(args) -> dict:
    override: dict = {}
    if args.seed is not None:
        override["seed"] = args.seed
    if args.policy is not None:
        override["policy"] = args.policy
    if args.rounds is not None:
        override["rounds"] = args.rounds
    if args.scale is not None:
        override["resources"] = {"scale": args.scale}
    return override


def _load(args):
    # defaults, then the file, then the flags; validated once
    return load_config(args.config, _config_overrides(args))


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON config overriding the defaults")
    parser.add_argument("--seed", type=int, metavar="U64")
    parser.add_argument("--policy", metavar="NAME")
    parser.add_argument("--rounds", type=int, metavar="N")
    parser.add_argument("--out", metavar="DIR", help="directory for CSV/JSONL outputs")
    parser.add_argument(
        "--scale",
        type=_parse_scale,
        metavar="T:B:F",
        help="resource scaling triple, fractions allowed (e.g. 1/4:1/2:1)",
    )


def _cmd_run(args) -> int:
    record = run(_load(args))
    if args.out:
        for path in record.write(args.out):
            print(path)
    print(record.run_json())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    values = _parse_values(args.values)
    records, merged = sweep(_load(args), args.axis, values)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        text = _csv_text(["swept_value"] + SUMMARY_COLUMNS, merged)
        (outdir / "sweep.csv").write_text(text)
        for value, record in zip(values, records):
            record.write(outdir / f"value_{value}")
        print(outdir / "sweep.csv")
    else:
        for row in merged:
            print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def _cmd_solve_one(args) -> int:
    quanta = ResourceQuanta(args.time_quantum, args.freq_quantum, args.compute_quantum)
    attrs = StatusAttributes(a=args.a, b=args.b, label_dist=None)
    prices = PriceVector(
        time=args.price_time, freq=args.price_freq, compute=args.price_compute
    )
    task = ConsumptionTask(
        d_down_bits=args.d_down,
        d_up_bits=args.d_up,
        cycles_per_sample=args.cycles_per_sample,
        eff_down=args.eff_down,
        eff_up=args.eff_up,
    )
    budgets = Budgets(
        time_cells=args.time_cells,
        freq_cells=args.freq_cells,
        compute_cells=args.compute_cells,
        cycle_cells=args.cycle_cells,
    )
    outcome = constrained_schedule(
        SolveInput(args.n, attrs, task, prices, budgets, quanta), explain=args.explain
    )
    print(json.dumps(outcome.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK if outcome.kind == OutcomeKind.OPTIMAL else EXIT_INFEASIBLE


def _cmd_validate(args) -> int:
    print(json.dumps({"valid": True, "config_hash": config_hash(_load(args))}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfpsim",
        description="Market-driven sensing/communication/computing scheduling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one seeded simulation")
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per value of a config path")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True, metavar="PATH", help="dotted config path")
    p_sweep.add_argument(
        "--values", required=True, metavar="V1,V2,...", help="comma-separated JSON scalars"
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_solve = sub.add_parser("solve-one", help="solve one client schedule and print JSON")
    p_solve.add_argument("--n", type=_COUNT, required=True, help="workload in samples")
    p_solve.add_argument("--a", type=_NONNEG, required=True, help="visual sample rate per time cell")
    p_solve.add_argument("--b", type=_NONNEG, required=True, help="wireless rate per time x freq cell")
    p_solve.add_argument("--price-time", type=_POSITIVE, default=1.0)
    p_solve.add_argument("--price-freq", type=_POSITIVE, default=1.0)
    p_solve.add_argument("--price-compute", type=_POSITIVE, default=1.0)
    p_solve.add_argument("--time-cells", type=_CELLS, default=math.inf)
    p_solve.add_argument("--freq-cells", type=_CELLS, default=math.inf)
    p_solve.add_argument("--compute-cells", type=_CELLS, default=math.inf)
    p_solve.add_argument("--cycle-cells", type=_CELLS, default=math.inf)
    p_solve.add_argument("--d-down", type=_NONNEG, default=0.0, help="download bits")
    p_solve.add_argument("--d-up", type=_NONNEG, default=0.0, help="upload bits")
    p_solve.add_argument("--cycles-per-sample", type=_NONNEG, default=0.0)
    p_solve.add_argument("--eff-down", type=_NONNEG, default=1.0)
    p_solve.add_argument("--eff-up", type=_NONNEG, default=1.0)
    p_solve.add_argument("--time-quantum", type=_POSITIVE, default=1.0)
    p_solve.add_argument("--freq-quantum", type=_POSITIVE, default=1.0)
    p_solve.add_argument("--compute-quantum", type=_POSITIVE, default=1.0)
    p_solve.add_argument(
        "--explain",
        action="store_true",
        help="add a trace: the solution path taken and, on the active-set path, "
        "the binding sensing and chain constraints",
    )
    p_solve.set_defaults(fn=_cmd_solve_one)

    p_val = sub.add_parser("validate-config", help="check a config file against the schema")
    _add_common(p_val)
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
