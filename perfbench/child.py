"""One smalescan run in a fresh process: ``cli.run`` on a generated config.

    python3 child.py SUBCOMMAND CONFIG OUT_DIR RESULT_JSON MODE

MODE ``solve`` times one ``cli.run`` call; ``trace`` does the same with
spans recorded around every layer (see tracer.py); ``setup`` stops as
soon as ``cli.Pipeline`` is constructed.  RESULT_JSON receives the exit
code, the solve time, the monotonic clock reading at which the pipeline
was ready (the parent subtracts its spawn time) and, when traced, the
spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


class _SetupDone(Exception):
    pass


def main(argv) -> int:
    subcommand, config, out_dir, result_path, mode = argv
    from smalescan import cli

    result = {}
    init = cli.Pipeline.__init__

    def marked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        result["pipeline_ready"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone

    cli.Pipeline.__init__ = marked_init
    run = cli.run
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap("cli.run", cli.run)

    t0 = time.perf_counter()
    try:
        result["code"] = run(subcommand, config, out_dir)
    except _SetupDone:
        result["code"] = 0
    result["solve_s"] = time.perf_counter() - t0
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
