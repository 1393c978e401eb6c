"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe.py <src dir> <document> <command> [args...]

Prints two lines: the seconds from before ``import quadform`` to the
return of the first op, and the seconds of the same op run again.  Their
difference is the import plus the lazy imports and first-use costs the
first op pays.  Only the standard library is loaded before the clock
starts.
"""

import contextlib
import io
import sys
import time


def main() -> int:
    src, doc, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    argv = argv[:1] + [doc] + argv[1:]
    sink = io.StringIO()
    t0 = time.perf_counter()
    from quadform import cli

    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
        t1 = time.perf_counter()
        code |= cli.main(argv)
        t2 = time.perf_counter()
    print(repr(t1 - t0))
    print(repr(t2 - t1))
    return code


if __name__ == "__main__":
    sys.exit(main())
