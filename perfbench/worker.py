"""One pass of a workload in a fresh interpreter.

Usage: ``worker.py JOB MODE [SPANS]``.  ``JOB`` is a JSON file with
``src`` (the directory holding the package) and ``ops`` (argv lists).
The worker imports ``heunops`` from ``src`` and prints ``ready`` as soon
as the import is done, so the parent can time set-up, and then a JSON
line with the times of :func:`calibrate` run just before and just after
the import.  ``MODE`` ``setup`` stops there.  ``run`` and ``trace`` then run each op through
``heunops.cli.main(argv)`` in order, one after the other, and print one
JSON line with every op's latency, exit status and standard output;
``trace`` wraps the layers with :mod:`spans` and, given ``SPANS``,
writes the spans there.  Before each op, and once after the last, the
worker times :func:`calibrate`, so the parent can tell how fast the host
ran around each op.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It mixes what the library spends its time on (Fraction arithmetic with
    growing denominators, float math, small-object traffic) and uses no
    library code, so a change to the program cannot change its cost.  The
    host's speed changes by up to nearly 2x within seconds; the time of this
    loop, taken next to an op, says how fast the host ran then.  The cyclic
    garbage collector is held off while it runs, so that a collection of
    the program's heap is not charged to the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 40):
        x += Fraction(i, i * i + 1)
    acc = 0.0
    for i in range(500):
        acc += math.sin(i) * i
    cells = {}
    for i in range(600):
        cells[i] = [i, str(i)]
    took = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return took


def run_ops(cli, ops: list[list[str]], tracer=None) -> list[dict]:
    results = []
    for index, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer is not None:
            tracer.op = index
        cal = calibrate()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            rc = stop.code
        except Exception as error:  # a crashing op is a failed op, not a dead pass
            rc, exc = None, f"{type(error).__name__}: {error}"
        latency = time.perf_counter() - t0
        results.append({"s": latency, "cal": cal, "rc": rc, "exc": exc,
                        "out": out.getvalue(), "err": err.getvalue()[-400:]})
    return results


def peak_rss_mb() -> float:
    """Peak resident set size of this process (VmHWM).  ``ru_maxrss`` would
    inherit the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    mode = sys.argv[2]
    cal_start = calibrate()
    sys.path.insert(0, job["src"])
    import heunops
    from heunops import cli

    if not heunops.__file__.startswith(job["src"]):
        print(f"imported heunops from {heunops.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    print(json.dumps({"cal_setup": [cal_start, calibrate()]}), flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = run_ops(cli, job["ops"], tracer)
    doc = {"results": results, "cal_end": calibrate(), "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        doc["layers"] = tracer.summary()
        if len(sys.argv) > 3:
            tracer.write(sys.argv[3])
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
