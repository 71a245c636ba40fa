"""The process entry of the command line: `python -m squeezelab` and the `squeezelab` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line on sys.argv and return its exit code.

    Then freeze every object left, so the interpreter's last cyclic
    collection at exit skips them, most of the time a process spends
    exiting.  Outputs are closed and flushed as before: `cli` closes the
    files it opens, and atexit handlers and the final stdout flush still
    run.  `cli.main` itself leaves the collector alone, for in-process
    callers.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
