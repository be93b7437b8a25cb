"""dmres benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run.py --workload fig4-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run.  Every timed step is
scaled to the box's nominal speed by reference-kernel blocks
interleaved with it (see speed.py).  The line before the result
records the environment.  A run record with per-pass times, check
failures and the SHA-256 of every emitted CSV, manifest and state file
is written to ``.bench_run/``, and a traced run also writes its spans
there.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 5
HARD_LIMIT_S = 120.0  # no pass starts after this, whatever --seconds says

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads.

    The load then comes from one thread of one process, and the other
    cores absorb background work; a BLAS barrier across cores would
    stall whenever any of them is busy, which spreads the timings.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_dmres() -> None:
    """A fresh interpreter importing numpy and dmres.cli."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import dmres.cli",
                    str(SRC)], check=True, cwd=ROOT)


def blas_record(np) -> dict:
    """BLAS library, version and thread count as loaded in this process."""
    import ctypes
    import glob

    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            fn = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                break
    info["env"] = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    return info


def run_pass(wl, index: int, checks, speed, tracer=None) -> dict:
    """One pass: each program step timed and scaled by the speed blocks around it."""
    ctx = wl.prepare(index)
    if tracer is not None:
        tracer.run_id = f"pass{index}"
        tracer.install()
    steps = []
    raised = False
    try:
        for step in wl.steps(ctx):
            steps.append(speed.timed(step))
    except Exception:
        raised = True
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.restore()
    items = 0
    if checks.record(not raised, f"pass {index} raised"):
        try:
            items = wl.check(ctx, checks)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks.record(False, f"pass {index}: outputs missing or unreadable")
    wl.cleanup(ctx)
    record = {"pass": index, "seed": ctx["seed"], "traced": tracer is not None, "items": items}
    for key in ("raw_wall_s", "raw_cpu_s", "wall_s", "cpu_s"):
        record[key] = sum(t[key] for t in steps)
    record["segments"] = sum(t["segments"] for t in steps)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (SRC / "dmres" / "__init__.py").is_file():
        print(f"error: dmres sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()

    sys.path.insert(0, str(SRC))
    import numpy as np

    import dmres
    if Path(dmres.__file__).resolve().parent != (SRC / "dmres").resolve():
        print(f"error: imported dmres from {dmres.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import Tracer
    from speed import SpeedLog
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    speed = SpeedLog()

    wl = WORKLOADS[args.workload](ROOT, args.seed)

    def setup_once():
        import_dmres()
        wl.setup()

    setups = [speed.timed(setup_once) for _ in range(SETUP_REPEATS)]

    checks = Checks()
    tracer = Tracer(speed.clock) if args.trace else None
    passes: list[dict] = []
    begin = time.perf_counter()
    index = rounds = 0
    while True:
        rounds += 1
        if tracer is None:
            passes.append(run_pass(wl, index, checks, speed))
            index += 1
            enough = len(passes) >= wl.min_passes
        else:
            # Untraced and traced passes alternate; the pair gives the overhead.
            passes.append(run_pass(wl, index, checks, speed))
            passes.append(run_pass(wl, index + 1, checks, speed, tracer))
            index += 2
            enough = True
        elapsed = time.perf_counter() - begin
        step = elapsed / rounds  # a pass (or pair) with its checks and speed blocks
        if (enough and elapsed + step > args.seconds) or elapsed + step > HARD_LIMIT_S:
            break
    wl.finish(checks)

    untraced = [p for p in passes if not p["traced"]]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(t["wall_s"] for t in setups), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
            "items_per_s": (statistics.median(p["items"] / p["wall_s"] for p in untraced), "1/s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": (1.0 - checks.failed / max(checks.attempted, 1), "frac"),
        }
    else:
        traced = [p for p in passes if p["traced"]]
        metrics = tracer.layer_metrics(len(traced))
        metrics.update(wl.layer_extras())
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced) - 1.0, "frac")

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(np),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.sizes(),
        "dmres_version": dmres.__version__,
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "setups": setups, "speed_blocks": speed.blocks,
              "raw_medians": {
                  "setup_s": statistics.median(t["raw_wall_s"] for t in setups),
                  "wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
                  "cpu_s": statistics.median(p["raw_cpu_s"] for p in untraced)},
              "passes": passes, "failures": checks.messages, "digests": checks.digests,
              "result": result}
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(WORK / f"{args.workload}-seed{args.seed}.spans.jsonl")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env, "record": f".bench_run/{stem}.json"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
