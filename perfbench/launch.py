"""Run one ptl CLI invocation, as `ptl ...` would, from the checkout's sources.

    python3 perfbench/launch.py [--trace FILE] -- ARGS...

ARGS go to `ptl.cli.main` unchanged and its return value is the exit code.
`--trace FILE` records spans around the calls into each ptl module (see
tracer.py) and writes them to FILE when the CLI returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, ptl_args = argv[:sep], argv[sep + 1:]
    trace_file = None
    while opts:
        flag, value, *opts = opts
        if flag == "--trace":
            trace_file = value
        else:
            raise SystemExit(f"launch.py: unknown option {flag}")

    import ptl.cli

    if trace_file is None:
        return ptl.cli.main(ptl_args)

    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    rec = tracer.enter("cli.main")
    try:
        return ptl.cli.main(ptl_args)
    finally:
        tracer.exit(rec)
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
