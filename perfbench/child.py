"""One `asrinc` invocation in a fresh interpreter, timed from the inside.

    child.py RESULT_JSON [--trace TRACE_JSON] [-- ASRINC_ARGS...]

Without ASRINC_ARGS the child only imports the CLI. The CLI import is the
first thing the script does, so the parent measures cold start as the time
from spawning this process until IMPORTED_AT (the system-wide monotonic
clock). The result file holds that instant, the eval wall time, the exit
code and the process's peak resident set.
"""

import time

import asr_inconsistency.cli as cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    asrinc_args = argv[argv.index("--") + 1:] if "--" in argv else []
    opts = argv[:argv.index("--")] if "--" in argv else argv
    result_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    tracer = None
    if trace_path is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    rc, eval_s = 0, 0.0
    if asrinc_args:
        t0 = time.perf_counter()
        try:
            rc = cli.main(asrinc_args)
        except Exception:
            # a crash fails this round's operations; the run goes on
            traceback.print_exc()
            rc = 1
        eval_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as fout:
        json.dump({
            "imported_at": IMPORTED_AT,
            "eval_s": eval_s,
            "rc": rc,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, fout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
