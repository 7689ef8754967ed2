"""Time the program's own set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SCENARIO...

Imports ``roadflow`` from SRC_DIR, then runs ``roadflow validate`` on each
scenario file through ``roadflow.cli.main`` (the load, kind check and
build that every subcommand does before computing), and prints the
elapsed seconds.  Interpreter start-up is not included.
"""

import contextlib
import io
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    from roadflow.cli import main as roadflow_main

    with contextlib.redirect_stdout(io.StringIO()):
        for path in argv[1:]:
            code = roadflow_main(["validate", "--scenario", path])
            if code != 0:
                return code
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
