"""One benchmark run in a fresh interpreter.

Calls the public functions ``permachain.cli.main`` calls, in the same order
(parse the config, node table and schedule, ``run_all``, ``emit_json``,
``emit_timeseries_csv``, print the summary line), and takes one clock stamp
between phases. Stamps read CLOCK_MONOTONIC, which on Linux is one clock for
every process, so the parent can subtract its own spawn stamp from them.

The last stdout line is a JSON object with the stamps, the child's own peak
RSS and the engine's event counts. With ``--spans PATH`` the run is traced:
layer spans are recorded (see spans.py), written to PATH at the end, and
summarised into the same JSON object.

Usage: python3 child.py --config C --nodes N --transactions T --out DIR
                        [--setup-only] [--spans PATH]
"""

import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_START = now()

import argparse  # noqa: E402  (the first stamp is taken before any import)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one permachain benchmark run")
    parser.add_argument("--config", required=True)
    parser.add_argument("--nodes", required=True)
    parser.add_argument("--transactions", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop just before run_all")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    # start: interpreter up; import: before `import permachain`; parse: before
    # reading the inputs; run_all .. done: around the calls they name
    stamps = {"start": T_START, "import": now()}
    from permachain import orchestrator, reporting
    from permachain.config import RunConfig
    from permachain.nodetable import parse_node_table
    from permachain.workload import load_schedule
    stamps["parse"] = now()

    with open(args.config) as fh:
        config = RunConfig.from_dict(json.load(fh))
    table = parse_node_table(args.nodes, config.authority_rule)
    schedule = load_schedule(args.transactions, set(table.ids))
    out = {"stamps": stamps}
    if args.setup_only:
        stamps["run_all"] = now()
        print(json.dumps(out))
        return 0

    tracer = probe = None
    if args.spans:
        import spans
        tracer = spans.Tracer()
        probe = spans.install(tracer)
    stamps["run_all"] = now()
    result = orchestrator.run_all(config, table, schedule)
    stamps["emit_json"] = now()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reporting.emit_json(result.report, out_dir / "report.json")
    stamps["emit_csv"] = now()
    reporting.emit_timeseries_csv(result.world.recorder, out_dir / "timeseries.csv")
    stamps["done"] = now()
    print(result.summary_line())

    engine = result.world.engine
    out.update(
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        events={"scheduled": engine.scheduled_count, "dispatched": engine.dispatched_count,
                "discarded": engine.discarded_count},
    )
    if tracer is not None:
        tracer.save(Path(args.spans))
        out.update(spans=spans.summarize(tracer.names, *tracer.arrays()),
                   span_count=len(tracer.name), pending_peak=probe.pending_peak,
                   missing=probe.missing)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
