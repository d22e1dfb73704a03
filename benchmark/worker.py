"""One cold run of a library workload in a fresh interpreter.

    python3 benchmark/worker.py WORKLOAD SEED RESULT.json
        [--trace] [--flip I] [--setup-only]

Imports dyalg from ``src/``, builds the seeded items (set-up), records the
``time.monotonic()`` reading at which it is ready, runs and checks every
item, and writes the verdicts, each item's time and the two clock readings
to RESULT.json.
The parent compares the readings with the one it took before starting this
process; CLOCK_MONOTONIC is shared by all processes on Linux.

The host-speed sampler (``hostspeed.py``) starts before dyalg is imported
and runs until the last item is checked.  Each item's time leaves out the
passes taken during it and is also given at the reference speed; the pass
times are written out, so that the parent can rescale the set-up and the
whole process.

``--trace`` installs the span wrappers after set-up and adds their summary.
``--setup-only`` stops once ready, for an extra sample of the set-up time.
``--flip I`` replaces the known answer of item I with a value no check
returns; the self-check uses it to show that a wrong expected answer is
counted as a failure.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402

SAMPLER = hostspeed.Sampler()
SAMPLER.start()

import json  # noqa: E402
import random  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, out_path = argv[0], int(argv[1]), argv[2]
    trace = "--trace" in argv
    flip = int(argv[argv.index("--flip") + 1]) if "--flip" in argv else None
    items = workloads.ITEMS[name](random.Random(f"{name}:{seed}"))
    if flip is not None:
        label, check, expected = items[flip]
        items[flip] = (label, check, ("not", expected))
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if "--setup-only" not in argv:
        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.install(callers=[workloads])
        result["verdicts"], result["errors"], spans = run_items(items)
        result["trace"] = tracer.summary() if tracer is not None else None
    SAMPLER.stop()
    # one pass after the last item, so that it has a pass on both sides
    SAMPLER.take()
    if "--setup-only" not in argv:
        intervals = [SAMPLER.interval(t0, t1) for t0, t1 in spans]
        result["item_s"] = [seconds for seconds, _ in intervals]
        result["item_ref_s"] = [ref for _, ref in intervals]
    result["setup_passes"] = SAMPLER.during(float("-inf"), t_ready)
    result["passes"] = SAMPLER.passes
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


def run_items(items: list) -> tuple[list, list, list]:
    """Verdicts, errors, and each item's monotonic start and end."""
    verdicts, errors, spans = [], [], []
    for label, check, expected in items:
        t_item = time.monotonic()
        try:
            ok = check() == expected
        except Exception:  # an item that raises is a failed item
            ok = False
            errors.append(f"{label}: {traceback.format_exc(limit=3)}")
        else:
            if not ok:
                errors.append(f"{label}: verdict differs from known answer")
        verdicts.append(ok)
        spans.append((t_item, time.monotonic()))
    return verdicts, errors, spans


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
