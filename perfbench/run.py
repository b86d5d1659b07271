"""heunops CLI benchmark.

    python3 perfbench/run.py --workload {verify,entropy,eval} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/heunops``.  Load model:
one client in a closed loop.  Each op is one ``heunops`` command line,
passed to ``heunops.cli.main(argv)``, and the next op starts when the
previous one returns.  Each pass runs the workload's whole op list in a
fresh interpreter, so the library's caches start cold, as they do for a
CLI user.  At most this process and one worker run at a time.  Passes
repeat until ``--seconds`` have elapsed.  Outputs are checked after the
passes, outside the timed region (see ``checks.py``); a wrong output or
a crash counts as a failed op.

End-to-end metrics: ``setup_s`` is the median time from worker start to
``import heunops`` done, over one set-up-only start per pass and each
pass's own start.  Op latencies are each op's median over the run's
passes; ``op_p50_ms``/``op_p90_ms`` are their median and 90th
percentile, and ``ops_per_s``/``points_per_s`` divide the ops and result
rows of a pass (grid rows; checked points for ``verify``) by their sum.
``peak_rss_mb`` is the median worker peak.

Times are given at a fixed host speed.  The host's CPU speed changes by
up to nearly 2x within seconds, and a 30-s run can sit wholly in a slow
phase.  So the worker times a fixed calibration loop
(``worker.calibrate``, no library code) before every op, after the last
one, and before and after the import.  Each op's or set-up's time is
scaled by ``CAL_REF_S`` over the mean of the two calibration times
around it: it is the time the step would take on a host where the loop
takes ``CAL_REF_S`` (see :func:`scaled_latencies`).  A change that slows
all Python code in the worker alike (a busy background thread, say)
would be scaled away as well; the unscaled figures, printed next to the
metrics, still show it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes.  It reports the per-layer metrics of the
traced passes (see ``spans.py``), with the tracing overhead, and writes
the spans of the first traced pass to ``.perfbench_out/spans-<workload>.tsv.gz``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is nonzero, with no result line, when the
benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from checks import CHECKERS, CheckFailed
from workloads import KNOWN_CRASHES, WORKLOADS, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0  # a run gives up (no result) rather than overrun this
#: The calibration loop's typical time inside a worker, between ops, in a
#: fast phase of a 2-core Xeon with Python 3.11.7.  Reported times are
#: scaled to a host that runs the loop in exactly this time.
CAL_REF_S = 0.30e-3

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "points_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# The end-to-end metric each per-layer metric should move, and on which workload.
LAYER_NOTES = {
    "specfun.series": "ops_per_s, op_p90_ms on verify, eval (flat on entropy)",
    "specfun.polyform": "op_p50_ms on verify (flat on entropy)",
    "specfun.quadrature": "op_p90_ms on verify I22/I31 (flat on entropy, eval)",
    "specfun.kernel_sum": "points_per_s on eval",
    "exactalg.mul": "points_per_s on entropy; op_p50_ms on verify (flat on float eval)",
    "exactalg.integrate_product": "points_per_s on entropy; op_p50_ms on verify",
    "bspline.density": "points_per_s on entropy B-spline ops (flat on verify, eval)",
    "bspline.kernel": "points_per_s on entropy B-spline ops (flat on verify, eval)",
    "entropy.": "points_per_s on entropy (flat on eval)",
    "identities.verify": "ops_per_s on verify only",
    "cli.bytes_out": "points_per_s on eval (negligible on verify)",
}

# What each workload claims to stress, checked on every traced run.
STRESS_LIMITS = {
    "verify": {"entropy.share": 0.05, "bspline.share": 0.05},
    "entropy": {"specfun.share": 0.01},
    "eval": {"entropy.share": 0.01, "bspline.share": 0.01},
}


class BenchError(Exception):
    pass


def spawn(mode: str, job_path: Path, deadline: float, spans_path: Path | None = None):
    """Start a worker; return (seconds until ``import heunops`` finished, the
    set-up's calibration times, result)."""
    argv = [sys.executable, str(HERE / "worker.py"), str(job_path), mode]
    if spans_path is not None:
        argv.append(str(spans_path))
    err_path = OUT_DIR / "worker.err"
    with open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, text=True, cwd=ROOT)
        killer = threading.Timer(max(deadline - started, 0.0), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            cal_line = proc.stdout.readline()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {mode} failed (exit {proc.returncode}): "
                         f"{err_path.read_text()[-2000:]}")
    cal = json.loads(cal_line)["cal_setup"]
    return setup_s, cal, (json.loads(rest) if mode != "setup" else None)


def outcome(checker, op, result) -> tuple[int, str | None]:
    """(rows produced, error) of one op; error is None for a correct op."""
    if result["exc"] is not None:
        return 0, result["exc"]
    if result["rc"] != 0:
        return 0, f"exit {result['rc']}: {result['err'].strip()}"
    try:
        return checker(op, result["out"]), None
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return 0, f"wrong output: {type(exc).__name__}: {exc}"


def digest(results: list[dict]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r["out"].encode())
        h.update(b"\0")
    return h.hexdigest()


def at_ref_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` scaled to a host that runs the calibration loop in ``CAL_REF_S``."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2)


def scaled_latencies(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes of a run, at reference speed.

    Every pass repeats the same ops from a cold start.  Each latency is
    scaled by the calibration loop timed just before the op and just
    before the next one (or after the last op).  The median over passes
    drops the odd sample whose calibration met a burst of other work.
    """
    per_op = []
    for i in range(len(passes[0]["results"])):
        samples = []
        for doc in passes:
            results = doc["results"]
            after = results[i + 1]["cal"] if i + 1 < len(results) else doc["cal_end"]
            samples.append(at_ref_speed(results[i]["s"], results[i]["cal"], after))
        per_op.append(statistics.median(samples))
    return per_op


def raw_latencies(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes, as timed (not scaled)."""
    return [statistics.median(doc["results"][i]["s"] for doc in passes)
            for i in range(len(passes[0]["results"]))]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    begun = time.perf_counter()
    deadline = begun + TIME_LIMIT_S
    ops = make_ops(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    job_path = OUT_DIR / f"job-{workload}.json"
    job_path.write_text(json.dumps({"src": str(SRC), "ops": [op.argv for op in ops]}))

    setups, raw_setups, passes, traced = [], [], [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        for mode in ("setup", "run"):
            setup_s, cal, doc = spawn(mode, job_path, deadline)
            raw_setups.append(setup_s)
            setups.append(at_ref_speed(setup_s, *cal))
        passes.append(doc)
        if trace:
            # the first traced pass writes its spans; later ones only add samples
            spans_path = None if traced else OUT_DIR / f"spans-{workload}.tsv.gz"
            traced.append(spawn("trace", job_path, deadline, spans_path)[2])

    # -- correctness, outside the timed region ---------------------------
    checker = CHECKERS[workload]
    first = passes[0]["results"]
    outcomes = [outcome(checker, op, r) for op, r in zip(ops, first)]
    failures = [(i, err) for i, (_, err) in enumerate(outcomes) if err is not None]
    known = [(i, err) for i, err in failures if KNOWN_CRASHES.get(ops[i].command) == err]
    unexpected = [f for f in failures if f not in known]
    nondeterministic = [
        k for k, doc in enumerate(passes[1:] + traced, start=1)
        if [(r["rc"], r["exc"], r["out"]) for r in doc["results"]]
        != [(r["rc"], r["exc"], r["out"]) for r in first]]
    all_passes = passes + traced
    attempted = len(ops) * len(all_passes)
    failed = len(failures) * len(all_passes)
    correct = not unexpected and not nondeterministic

    points = sum(p for p, _ in outcomes)
    latencies = scaled_latencies(passes)
    raw = raw_latencies(passes)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(latencies),
        "points_per_s": points / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in passes),
    }

    print(f"workload {workload}  seed {seed}  {len(ops)} ops/pass  {len(passes)} untraced"
          f"{f' + {len(traced)} traced' if trace else ''} passes  "
          f"(closed loop, 1 client, fresh interpreter per pass)")
    print(f"end-to-end (untraced passes; times at the host speed where the "
          f"calibration loop takes {CAL_REF_S * 1e3:g} ms):")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:>12.4f} {E2E_UNITS[name]}")
    print(f"  as timed, unscaled: setup_s {statistics.median(raw_setups):.4f} s, ops_per_s "
          f"{len(ops) / sum(raw):.4f} 1/s, op_p50_ms {statistics.median(raw) * 1e3:.4f} ms, "
          f"op_p90_ms {percentile(raw, 90) * 1e3:.4f} ms")
    print(f"  {'fail_ratio':<14} {failed / attempted:>12.4f} 1   ({failed}/{attempted} ops; "
          f"{len(setups)} set-ups, {points} rows/pass)")
    print(f"output sha256 (first pass, seeded order): {digest(first)}")
    for title, rows in (("known defects (counted as failed)", known),
                        ("UNEXPECTED failures", unexpected)):
        if rows:
            print(f"{title}:")
            for i, err in rows:
                print(f"  op {i}: {ops[i].command} -> {err}")
    if nondeterministic:
        print(f"passes {nondeterministic} printed other output than pass 0")

    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    if trace:
        metrics = traced_metrics(workload, traced, sum(latencies))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(workload: str, traced: list[dict], untraced_s: float) -> dict:
    per_pass = [
        spans.layer_metrics(doc["layers"], sum(r["s"] for r in doc["results"]),
                            sum(len(r["out"].encode()) for r in doc["results"]))
        for doc in traced]
    layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    layers["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / untraced_s
    print("per-layer (traced passes; calls per pass, times as medians over passes):")
    for name, value in layers.items():
        note = next((n for prefix, n in LAYER_NOTES.items() if name.startswith(prefix)), "")
        print(f"  {name:<34} {value:>14.6g} {layer_unit(name):<5} {note}")
    for name, limit in STRESS_LIMITS[workload].items():
        verdict = "ok" if layers[name] <= limit else "NOT MET"
        print(f"stress check {workload}: {name} = {layers[name]:.4f} <= {limit}: {verdict}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith(("share", "ratio")):
        return "1"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "heunops" / "__init__.py").is_file():
        print(f"no heunops package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
