"""One timed sample: a fresh interpreter that imports qcollide and runs CLI calls.

Usage: python3 worker.py SPEC_JSON, where SPEC_JSON holds ``src`` (the
directory to import qcollide from), ``invocations`` (lists of CLI arguments)
and ``trace`` (whether to install the span tracer). An empty invocation list
only measures set-up. Prints one JSON object on stdout.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import qcollide.cli

    ready = time.monotonic()
    import numpy

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    exit_codes = []
    wall = 0.0
    for argv in spec["invocations"]:
        t0 = time.perf_counter()
        try:
            code = qcollide.cli.main(argv)
        except Exception:  # a crash is one failed invocation, not a lost sample
            traceback.print_exc()
            code = -1
        wall += time.perf_counter() - t0
        exit_codes.append(code)

    result = {
        "ready": ready,
        "wall_s": wall,
        "exit_codes": exit_codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "qcollide_path": qcollide.__file__,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
