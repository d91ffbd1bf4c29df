"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the code run.py uses, untraced
and traced, and checks that each metric BENCHMARK.json names is printed
with its unit, and that the output checks and the span checks fire on
corrupted outputs and spans. It also runs the benchmark in a tree without the opineq sources,
where it must fail without printing a result. Exits 0 when all pass.
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
from tracing import Tracer
from workloads import (CANDIDATE, WORKLOADS, RotationGrid, Sweep, check_grid,
                       check_sweep_report)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: dataclasses.replace(w, trials=1, trace_units=1) if isinstance(w, Sweep)
        else dataclasses.replace(w, trace_units=1) for name, w in WORKLOADS.items()}


def run_tiny(workload, traced: bool) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = (run.trace(workload, seed=3, seconds=0.01) if traced
                  else run.measure(workload, seed=3, seconds=0.01))
        print(json.dumps(run.finish(workload, 3, int(traced), result)))
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_printed(workload, traced: bool) -> None:
    result, text = run_tiny(workload, traced)
    where = f"{workload.name} trace={int(traced)}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, (where, result)
    assert result["attempted"] >= 1, where
    named = SPEC["per_layer" if traced else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}, where
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got)
        assert f"metric {m['name']} {got['value']!r} {m['unit']}" in text, (where, m["name"])
    if not traced:
        assert result["metrics"]["instances_per_s"]["value"] > 0, where


def check_sweep_corruption() -> None:
    sweep = TINY["sweep_small"]
    seed = 11
    _, raw = sweep.call(seed, run.OUT)
    assert sweep.check(seed, raw).problems == [], "clean report flagged"
    report = json.loads(raw[1])
    corruptions = {
        "a failed verdict": lambda r: r["failures"].append({"entry": "ando", "trial": 0}),
        "a missing entry": lambda r: r.update(checks=[c for c in r["checks"]
                                                      if c["entry"] != "ando"]),
        "a short verdict count": lambda r: r["checks"][0].update(trials=0),
        "a wrong seed": lambda r: r.update(seed=seed + 1),
        "ok false": lambda r: r.update(ok=False),
    }
    for what, corrupt in corruptions.items():
        bad = copy.deepcopy(report)
        corrupt(bad)
        assert check_sweep_report(bad, 0, seed, sweep.trials, sweep.dims), what
    assert check_sweep_report(report, 1, seed, sweep.trials, sweep.dims), "nonzero exit"
    res = sweep.check(seed, (0, b"{truncated"))
    assert res.problems and res.failed == res.attempted, "unparsable report"
    failing = copy.deepcopy(report)
    failing["failures"] = [{"entry": "ando", "trial": 0}, {"entry": "ando", "trial": 0}]
    assert sweep.check(seed, (1, json.dumps(failing).encode())).failed == sweep.size(seed)


def check_grid_corruption() -> None:
    from opineq.falsify import ViolationReport
    grid = {"x": [1.5, 2.0], "alpha": [0.0, 0.7], "beta": [0.3]}
    _, found = RotationGrid("rotation_grid", 1).call(grid, run.OUT)
    assert check_grid(grid, found) == [], "clean search flagged"
    fake = ViolationReport(CANDIDATE, {"x": 2.0, "alpha": 0.7, "beta": 0.3}, -0.5,
                           [-0.5, 0.1], 1e-9)
    assert check_grid(grid, found + [fake]), "a fabricated violation"
    off_grid = ViolationReport(CANDIDATE, {"x": 9.0, "alpha": 0.7, "beta": 0.3}, -0.5,
                               [-0.5, 0.1], 1e-9)
    assert check_grid(grid, found + [off_grid]), "a violation off the grid"


def check_span_corruption() -> None:
    """A span outside its unit's timed window, or a child that outlasts its
    parent, is reported."""
    tracer = Tracer()
    tracer.install()
    try:
        run.run_unit(TINY["sweep_small"], 11, tracer, run_id=0)
    finally:
        tracer.uninstall()
    assert tracer.span_count() > 1 and tracer.check_spans() == [], "clean spans flagged"
    root = tracer.parent.index(-1)
    child = tracer.parent.index(root)
    corruptions = {
        "a root span before its window": (tracer.start, root, -1.0),
        "a root span after its window": (tracer.end, root, 1.0),
        "a child that outlasts its parent": (tracer.end, child, 1.0),
        "a span that ends before it starts": (tracer.start, child, 1.0),
    }
    for what, (column, i, shift) in corruptions.items():
        column[i] += shift
        assert tracer.check_spans(), what
        column[i] -= shift


def check_bare_tree() -> None:
    """In a tree holding only BENCHMARK.json and the benchmark, run.py must
    exit nonzero and print no result line."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    for workload in TINY.values():
        for traced in (False, True):
            check_printed(workload, traced)
            print(f"ok  {workload.name} trace={int(traced)}: every metric printed with its unit")
    check_sweep_corruption()
    print("ok  sweep checks fire on corrupted reports")
    check_grid_corruption()
    print("ok  grid checks fire on corrupted violation lists")
    check_span_corruption()
    print("ok  span checks fire on spans outside their parent or timed window")
    check_bare_tree()
    print("ok  without the sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
