"""Command-line entry point.

Parses the config, node table, and transaction schedule (or loads a bundled
scenario preset), runs the simulation, writes the JSON report (and optional
CSV time series and raw propagation records), and prints a one-line summary.

Exit codes: 0 completed run (stalled-but-reported runs included),
2 configuration/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .config import PROTOCOLS, RunConfig
from .errors import PermachainError
from .nodetable import NodeTable, parse_node_rows, parse_node_table
from .orchestrator import check_inputs, run_all
from .reporting import emit_json, emit_timeseries_csv
from .workload import LoadSchedule, load_schedule, parse_schedule

ENV_SEED = "PERMACHAIN_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _scenario_dir():
    # imported here: importlib.resources costs every run ~20 ms, and only presets need it
    from importlib import resources
    return resources.files("permachain") / "scenarios"


def list_scenarios() -> list[tuple[str, str]]:
    """(name, description) for every bundled scenario preset."""
    out = []
    for entry in sorted(_scenario_dir().iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text())
            out.append((data["name"], data.get("description", "")))
    return out


def load_scenario(name: str) -> dict:
    entry = _scenario_dir() / f"{name}.json"
    try:
        text = entry.read_text()
    except (FileNotFoundError, OSError):
        known = ", ".join(n for n, _ in list_scenarios())
        raise PermachainError(f"unknown scenario {name!r} (bundled: {known})")
    return json.loads(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permachain",
        description="Deterministic discrete-event simulator for permissioned blockchains.")
    parser.add_argument("--config", help="run configuration JSON")
    parser.add_argument("--nodes", help="node table (JSON or CSV)")
    parser.add_argument("--transactions", help="transaction-load schedule JSON")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--protocol", choices=PROTOCOLS,
                        help="protocol override")
    parser.add_argument("--scenario", help="run a bundled scenario preset")
    parser.add_argument("--emit-csv", action="store_true",
                        help="also write the commit/view-change time series CSV")
    parser.add_argument("--emit-records", action="store_true",
                        help="also stream every transaction/block delivery to "
                             "propagation.csv during the run")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="print bundled scenario presets and exit")
    return parser


def _resolve_seed(args, raw_config: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in raw_config:
        return raw_config["seed"]
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PermachainError(f"{ENV_SEED} must be an integer, got {env!r}")
    return 0


def _load_inputs(args) -> tuple[RunConfig, NodeTable, LoadSchedule]:
    scenario = load_scenario(args.scenario) if args.scenario else None

    if args.config:
        with open(args.config) as fh:
            try:
                raw_config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PermachainError(f"config {args.config}: invalid JSON: {exc}")
        if not isinstance(raw_config, dict):
            raise PermachainError(f"config {args.config}: must be a JSON object, "
                                  f"got {type(raw_config).__name__}")
    elif scenario is not None:
        raw_config = dict(scenario["config"])
    else:
        raise PermachainError("--config is required unless --scenario is given")

    raw_config["seed"] = _resolve_seed(args, raw_config)
    if args.protocol:
        raw_config["protocol"] = args.protocol
    config = RunConfig.from_dict(raw_config)

    if args.nodes:
        table = parse_node_table(args.nodes, config.authority_rule)
    elif scenario is not None:
        table = parse_node_rows(scenario["nodes"], config.authority_rule)
    else:
        raise PermachainError("--nodes is required unless --scenario is given")

    check_inputs(config, table)  # before any output file opens
    known = set(table.ids)
    if args.transactions:
        schedule = load_schedule(args.transactions, known)
    elif scenario is not None:
        schedule = parse_schedule(scenario["transactions"], known)
    else:
        raise PermachainError("--transactions is required unless --scenario is given")

    return config, table, schedule


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name, description in list_scenarios():
            print(f"{name}: {description}")
        return EXIT_OK

    try:
        config, table, schedule = _load_inputs(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        records_path = out_dir / "propagation.csv"
        try:
            with (open(records_path, "w", newline="") if args.emit_records
                  else contextlib.nullcontext()) as records:
                result = run_all(config, table, schedule, records)
        except OSError as exc:  # run_all does no other I/O
            raise OSError(f"cannot write propagation records to {records_path}: {exc}") \
                from exc
        emit_json(result.report, out_dir / "report.json")
        if args.emit_csv:
            emit_timeseries_csv(result.world.recorder, out_dir / "timeseries.csv")
    except PermachainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(result.summary_line())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
