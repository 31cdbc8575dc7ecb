"""Run one ge-select subcommand in its own process, optionally traced.

Usage: python3 perfbench/child.py [--trace-out PATH] SUBCOMMAND [ARGS...]

``ge_select`` is imported from the ``src`` directory next to this file's
parent, through an absolute path, so the working directory never matters.
With ``--trace-out`` the per-layer wrappers from ``tracing.py`` are installed
before the CLI runs and their totals are written to PATH as JSON; otherwise
the CLI runs exactly as ``python -m ge_select`` would.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import ge_select.cli

    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        return ge_select.cli.run(argv)

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = ge_select.cli.run(argv)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
