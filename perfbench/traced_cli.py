"""Run the squeezelab CLI in this process with the tracer installed.

    python3 perfbench/traced_cli.py ARGS...

behaves like `python3 -m squeezelab ARGS...`: stdout carries exactly the
CLI's output and the exit code is the CLI's.  The span totals go to stderr
as the last line, after MARKER.
"""

import json
import sys
import time

MARKER = "perfbench-trace "


def main():
    start = time.perf_counter()
    import squeezelab.cli

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    import_s = time.perf_counter() - start
    try:
        code = squeezelab.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    sys.stderr.write(MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
