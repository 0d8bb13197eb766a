"""Start ``repro.cli.main`` the way ``python -m repro`` does, for the benchmark.

    python perfbench/launch.py --ready
        import ``repro.cli``, print ``ready`` and exit (the set-up sample of
        the CLI workload: interpreter start plus the import every CLI run
        pays);
    python perfbench/launch.py --trace SPANS.json [--rid ID] -- ARGS...
        import ``repro.cli``, install the span wrappers of ``spans.py``,
        then run ``repro.cli.main(ARGS)``; spans are written to SPANS.json
        when the process exits. ``--rid`` tags the spans of a single-op
        process (one CLI invocation).
"""

from __future__ import annotations

import argparse
import sys
import time


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--rid", default=None)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    import repro.cli

    imported = time.perf_counter()
    if args.ready:
        print("ready", flush=True)
        return 0
    if args.trace:
        import spans

        tracer = spans.install(args.trace, results=args.rid is not None)
        tracer.rid = args.rid
        tracer.spans.append([0, "import.repro", start, imported, 0, args.rid])
    return repro.cli.main(args.argv)


if __name__ == "__main__":
    sys.exit(main())
