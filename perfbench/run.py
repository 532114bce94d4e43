"""graphssl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mixture-plan [--seed 0] [--seconds 25] [--trace 0]

Run from the root of a source checkout; graphssl is imported from ``src/``.
Each workload runs in fresh processes of its own (see worker.py): several
that only set up, for the median set-up time, and one that measures.  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric.  The lines before it repeat the metrics with their units,
the load model and the environment stamp.  The exit code is 0 only if every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mixture-plan", "ssl-sweep", "online-stream")
DEFAULT_SEED = 0
SETUP_PROBES = 4        # set-up-only processes; with the measuring one, 5 set-up samples
DEADLINE_S = 170.0      # the whole run, set-up processes included


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _spawn(args, role: str, workdir: Path, env: dict, deadline: float) -> dict:
    result = workdir / f"result-{role}-{time.monotonic_ns()}.json"
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--role", role,
           "--workdir", str(workdir / "data"), "--result", str(result), "--t0", repr(t0)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _describe(nproc: int) -> str:
    return (f"# load: closed loop, one client, one compute thread (run-plan --threads 1, "
            f"BLAS/OpenMP threads pinned to 1); nproc {nproc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "graphssl" / "__init__.py").is_file():
        print(f"error: no graphssl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES if args.size == "full" else 1):
                setups.append(_spawn(args, "setup", workdir, env, deadline)["setup_s"])
        res = _spawn(args, "measure", workdir, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = dict(res["stamp"], git_sha=_git_sha())
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res["wall_s"], "s"),
        "cpu_s": (res["cpu_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failed_frac = res["failed"] / max(res["attempted"], 1)
    errors = list(res["errors"])
    if args.trace:
        metrics = res["layers"]
        if not res["restored"]:
            errors.append("a traced function was not restored")
        if res["nesting_violations"]:
            errors.append(f"{res['nesting_violations']} child spans exceeded their parent")
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = e2e
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        errors.append(f"metrics missing from this run: {missing}")

    print(f"# graphssl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(_describe(nproc))
    print(f"# stamp: {json.dumps(stamp, sort_keys=True)}")
    print(f"# repetitions: {res['units']} untraced"
          + (f", {res['traced_units']} traced" if args.trace else "")
          + f"; setup samples: {len(setups)} processes")
    print(f"# setup_s per process: {[round(t, 4) for t in setups]}")
    print(f"# wall_s per repetition: {[round(w, 4) for w in res['wall_all_s']]}")
    if not args.trace:
        per_unit = res["steps"] // res["units"]
        print(f"#   {'step_p50_ms':24s} {res['step_p50_ms']:.6g} ms "
              f"(median of {res['steps']} client calls)")
        print(f"#   {'step_p99_ms':24s} {res['step_p99_ms']:.6g} ms (median over repetitions of "
              f"the p99 of {per_unit} calls, {per_unit // 100} beyond it)")
        print(f"#   {'failed_frac':24s} {failed_frac:.6g} ratio "
              f"({res['failed']} of {res['attempted']} operations)")
        for name, value in sorted(res["quality"].items()):
            print(f"#   {name:24s} {value:.6g} 1")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for err in errors:
        print(f"# CHECK FAILED: {err}")

    correct = not errors and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
