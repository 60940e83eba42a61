"""Run ``fetch-detect`` with its layer boundaries traced.

Usage::

    python perfbench/pb_launch.py SPANS_OUT <fetch-detect arguments...>

Installs the :mod:`pb_trace` wrappers, then calls ``repro.cli.main`` with
the remaining arguments, exactly as the ``fetch-detect`` entry point does.
The spans stay in memory until ``main`` returns — for ``serve --tcp``, after
the SIGINT drain — and are then written to ``SPANS_OUT`` as JSON.  SIGUSR1
adds a mark (time and decoder work counter), which the benchmark sends at
the edges of its timed window.
"""

from __future__ import annotations

import signal
import sys

import pb_trace


def main(argv: list[str]) -> int:
    spans_out, program_args = argv[0], argv[1:]
    tracer = pb_trace.Tracer()
    pb_trace.install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.mark("signal"))

    from repro.cli import main as cli_main

    try:
        return cli_main(program_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
