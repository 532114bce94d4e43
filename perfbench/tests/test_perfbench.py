"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Runs every workload through ``run.py`` with and without tracing and checks
the printed metric names against BENCHMARK.json, and exercises the tracer
directly: self times, nesting across threads, and restoration of every
wrapped function.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metric_names_match_spec(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metric_names_match_spec(workload):
    result = _run(workload, 1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        if metric["name"].endswith("self_s"):
            assert got["value"] >= 0.0


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _fake_layer():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer(delay):
        time.sleep(delay)
        return mod.inner(delay) + mod.inner(delay)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_self_times_nest_per_thread():
    mod = _fake_layer()
    targets = (tracing.Target(mod.__name__, "outer", "fake.outer"),
               tracing.Target(mod.__name__, "inner", "fake.inner"))
    tracer = tracing.Tracer(targets)
    delay = 0.02
    with tracer:
        threads = [threading.Thread(target=mod.outer, args=(delay,)) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    outer, inner = tracer.stats["fake.outer"], tracer.stats["fake.inner"]
    assert outer.calls == 3 and inner.calls == 6
    assert tracer.nesting_violations == 0
    assert 0.0 <= outer.self_s and 0.0 <= inner.self_s
    # each outer span encloses two inner spans of its own thread, whose time
    # is subtracted from the outer span's self time and from no other
    assert all(d >= 3 * delay * 0.9 for d in outer.durations)
    assert inner.self_s == pytest.approx(sum(inner.durations), abs=1e-9)
    # the inner spans' bookkeeping around their clocks is charged to no span
    enclosed = sum(outer.durations) - sum(inner.durations)
    assert enclosed - 1e-3 <= outer.self_s <= enclosed + 1e-9
    assert outer.self_s >= 3 * delay * 0.9
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")
    del sys.modules[mod.__name__]


def _bindings():
    """Every function and traced method reachable from a graphssl module."""
    import graphssl  # noqa: F401
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "graphssl" or name.startswith("graphssl."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    from graphssl.graph import SimilarityGraph
    from graphssl.online import QuantizerState
    out[("SimilarityGraph", "__init__")] = SimilarityGraph.__dict__["__init__"]
    out[("QuantizerState", "observe")] = QuantizerState.__dict__["observe"]
    return out


def test_every_wrapped_function_is_restored(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    wl = WORKLOADS["ssl-sweep"](1, "tiny", tmp_path)
    wl.setup()
    with tracer:
        patched = tracer.patched_names()
        assert patched
        import graphssl.plan as plan
        assert hasattr(plan.rwcad_scores_loo, "__wrapped__")
        assert hasattr(sys.modules["graphssl._kernels"].pairwise_sq_dists, "__wrapped__")
        unit = wl.unit()
    assert unit.failed == 0
    assert tracer.stats["harmonic.solve_spd"].calls > 0
    assert tracer.nesting_violations == 0
    assert all(getattr(owner, name) is original for owner, name, original in patched)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.patched_names() == []
