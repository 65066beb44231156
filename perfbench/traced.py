"""One traced workload process: the same work as the untraced run, with spans.

    python3 perfbench/traced.py --spans spans.json -- analyze --input fleet.csv ...
    python3 perfbench/traced.py --spans spans.json --replicates '[...]' --out result.json

The first form runs the ``fbmpower`` CLI in this process, the second the
calibration chain.  Wrappers are installed before the work starts and
removed before the spans are written.
"""

from __future__ import annotations

import argparse
import json

import calibrate
import tracing


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--replicates", help="calibration replicates, JSON list of [H, lam, seed]")
    parser.add_argument("--out", help="calibration result file")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="fbmpower CLI arguments, after --")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer(series_roots=("pipeline.analyze",))
    with tracing.installed(tracer, tracing.targets()):
        if args.replicates is not None:
            doc = calibrate.run(json.loads(args.replicates), tracer.series)
        else:
            from fbmpower.cli import main as cli_main

            cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
            cli_main(cli_args, standalone_mode=False)
    if args.replicates is not None:
        calibrate.write_result(doc, args.out)
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json(), handle)


if __name__ == "__main__":
    main()
