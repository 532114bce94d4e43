"""One workload in one fresh process: set up, repeat the workload's fixed
work for the given number of seconds, check the outputs, and write a JSON
result file.  ``run.py`` starts this script; it is not meant to be run by
hand.

With ``--role setup`` the process stops after set-up and reports only its
set-up time, so that ``run.py`` can take the median over several fresh
processes.  With ``--trace 1`` untraced and traced repetitions alternate, so
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNITS = 3           # untraced repetitions per measured run, at least
MIN_TRACED_PAIRS = 2    # untraced + traced pairs per traced run, at least


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _stamp() -> dict:
    import numpy as np
    import scipy
    import graphssl._kernels as kernels
    from workloads import RUN_PLAN_THREADS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphssl").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "run_plan_threads": RUN_PLAN_THREADS,
        "using_numba": bool(kernels.USING_NUMBA),
        "src_sha256": digest.hexdigest()[:16],
    }


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time at which the parent started this process")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import graphssl
    if Path(graphssl.__file__).resolve().parent != ROOT / "src" / "graphssl":
        raise SystemExit(f"graphssl imported from {graphssl.__file__}, not from the checkout")
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size, Path(args.workdir))
    wl.setup()
    setup_s = time.time() - args.t0
    result = {"setup_s": setup_s}
    if args.role == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    start = time.perf_counter()
    untraced, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    restored = True
    cpu_s = []
    while True:
        if untraced:    # another repetition follows: only the last one's outputs are checked
            untraced[-1].outputs = None
        cpu0 = time.process_time()
        untraced.append(wl.unit())
        cpu_s.append(time.process_time() - cpu0)
        if tracer is not None:
            tracer.install()
            patches = tracer.patched_names()
            try:
                traced.append(wl.unit())
                traced[-1].outputs = None
            finally:
                tracer.restore()
            restored &= all(getattr(owner, name) is original for owner, name, original in patches)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        enough = len(untraced) >= (MIN_TRACED_PAIRS if tracer else MIN_UNITS)
        if enough and elapsed + per_round > args.seconds:
            break

    # the workload's peak, before the output checks allocate their references
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    last = untraced[-1]
    errors = wl.check(last)
    for unit in untraced[:-1] + traced:
        if unit.quality.get("accuracy_mean", unit.quality.get("auroc_mean")) != \
                last.quality.get("accuracy_mean", last.quality.get("auroc_mean")):
            errors.append("a repetition produced different outputs")
            break
    steps = [s for u in untraced for s in u.steps_s]
    result.update({
        "units": len(untraced),
        "wall_s": statistics.median(u.wall_s for u in untraced),
        "wall_all_s": [u.wall_s for u in untraced],
        "cpu_s": statistics.median(cpu_s),
        "steps": len(steps),
        "step_p50_ms": statistics.median(steps) * 1e3 if steps else 0.0,
        "step_p99_ms": statistics.median(_percentile(u.steps_s, 99) * 1e3
                                         for u in untraced if u.steps_s) if steps else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(u.attempted for u in untraced + traced),
        "failed": sum(u.failed for u in untraced + traced),
        "quality": {k: v for k, v in last.quality.items() if not isinstance(v, dict)},
        "errors": errors,
        "stamp": _stamp(),
    })
    if tracer is not None:
        traced_wall = statistics.median(u.wall_s for u in traced)
        layers = tracing.layer_metrics(tracer, len(traced))
        layers["trace_overhead_frac"] = ((traced_wall - result["wall_s"]) / result["wall_s"], "1")
        result.update({
            "traced_units": len(traced),
            "traced_wall_s": traced_wall,
            "layers": layers,
            "nesting_violations": tracer.nesting_violations,
            "restored": restored,
        })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
