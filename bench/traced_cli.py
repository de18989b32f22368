"""``python -m secantinv.cli`` with package tracing on, for traced cli_oneshot runs.

Usage: ``SECANTINV_BENCH_SPANS=PATH python3 bench/traced_cli.py <cli argv>``.
Exit code, stdout and stderr are those of the CLI; the spans and the
engine's cache counters are written to PATH as JSON when the request ends.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer, cache_counters


def main() -> None:
    tracer = Tracer()
    tracer.install()
    from secantinv import cli

    try:
        code = cli.run(sys.argv[1:])
    finally:
        tracer.restore()
        with open(os.environ["SECANTINV_BENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.to_dict(), "counters": cache_counters()}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
