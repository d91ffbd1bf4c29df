"""opineq benchmark: one workload, one run.

    python3 perfbench/run.py --workload sweep_small --seed 7 --seconds 30 --trace 0

Run from the root of a source tree (the one holding `src/opineq`). The
workload (see workloads.py) runs as a closed loop for --seconds, every
output is checked, and the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, timed in calibrated seconds (see Reference); with
--trace 1 they are the per-layer ones, from a traced pass over a fixed set
of units (see tracing.py). The lines above it give the provenance, report
digests and violation counts, and the same record, with the spans of a
traced run, is written to .perfbench-out/.
"""
from __future__ import annotations

import os
import sys

# The BLAS thread count is fixed before numpy is first imported. One thread
# (never more than nproc) keeps the closed loop to one core; the matrices
# here are too small for threaded BLAS to pay.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, LINALG, Tracer  # noqa: E402
from workloads import VERDICTS_PER_TRIAL, WORKLOADS, UnitResult  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# fresh interpreters started per run to time set-up; the median is reported
PROBES = 7
PROBE_TIMEOUT_S = 120
# seconds one sample of the reference loop takes on the nominal machine, and
# the interval at which it is sampled during a unit; see Reference
REF_NOMINAL_S = 0.0025
SAMPLE_EVERY_S = 0.1
# samples averaged for each reading taken between units and probes
READING_SAMPLES = 4


@dataclass
class Samples:
    """Reference-loop times taken during one block, and the seconds the
    sampling itself took there."""
    times: list = field(default_factory=list)
    spent: float = 0.0


class Reference:
    """A fixed loop of Python dict arithmetic and small numpy
    eigendecompositions that never touches opineq. On shared hosts the speed
    of the whole machine flips between regimes up to 1.7x apart, each lasting
    seconds, and this loop slows in step with opineq. The loop is timed
    between units and set-up probes, and every SAMPLE_EVERY_S during a unit
    from a SIGALRM handler in the same thread. A measured time t, with the
    handler's own time taken out, is reported in calibrated seconds,
    t * REF_NOMINAL_S / (mean loop time over the unit and the readings on
    either side): the time it would take on a machine that runs the loop in
    REF_NOMINAL_S."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.mats = [(g + g.T) / 2 for g in
                     (rng.standard_normal((n, n)) for n in (2, 4, 6, 8) * 10)]

    def sample(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = {}
        for i in range(7500):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        for a in self.mats:
            w, v = np.linalg.eigh(a)
            acc[0] += float(((v * w) @ v.T)[0, 0])
        return time.perf_counter() - t0

    def reading(self) -> float:
        return statistics.fmean(self.sample() for _ in range(READING_SAMPLES))

    @contextlib.contextmanager
    def sampling(self):
        """Samples the loop every SAMPLE_EVERY_S while the block runs."""
        taken = Samples()

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            taken.times.append(self.sample())
            taken.spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--probe", action="store_true",
                   help="internal: import, warm up, print the ready time, exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- running units ----------------------------------------------------------

def run_unit(workload, inp, tracer=None, run_id=0):
    """(seconds, raw output) of one unit, or (None, failed result) if the
    program raised. Checking is separate: with a tracer it must wait until
    the wrappers are gone."""
    if tracer is not None:
        tracer.run_id = run_id
    try:
        return workload.call(inp, OUT, tracer)
    except Exception:  # the loop must go on; the failure is counted and shown
        res = UnitResult(attempted=workload.size(inp), failed=workload.size(inp))
        res.problems.append("unit raised:\n" + traceback.format_exc())
        return None, res


def check_unit(workload, inp, dt, raw) -> UnitResult:
    return raw if dt is None else workload.check(inp, raw)


def run_pass(workload, inputs, results) -> float:
    """Run and check each unit untraced; the seconds the units took."""
    wall = 0.0
    for inp in inputs:
        dt, raw = run_unit(workload, inp)
        results.append(check_unit(workload, inp, dt, raw))
        wall += dt or 0.0
    return wall


def measure(workload, seed, seconds) -> dict:
    """End-to-end metrics. Times are in calibrated seconds (see Reference);
    the raw wall-clock figures go to the record and the printed notes."""
    # each timed item is paired with the mean of the reference samples taken
    # just before, during (units only) and just after it
    ref = Reference()
    before = ref.reading()
    setup, setup_raw = [], []
    for _ in range(PROBES):
        setup_raw.append(probe(workload.name, seed))
        after = ref.reading()
        setup.append(setup_raw[-1] * REF_NOMINAL_S / ((before + after) / 2))
        before = after
    workload.warm(OUT)
    rng = random.Random(seed)
    rates, raw_rates, results, samples = [], [], [], []
    before = ref.reading()
    # a unit starts only if it should end within --seconds, judged by the
    # time the last one took
    start = now = time.perf_counter()
    step = 0.0
    while not results or now - start + step <= seconds:
        inp = workload.unit_input(rng, len(results))
        with ref.sampling() as inside:
            dt, raw = run_unit(workload, inp)
        after = ref.reading()
        res = check_unit(workload, inp, dt, raw)
        results.append(res)
        if dt is not None:
            raw_rates.append(res.attempted / (dt - inside.spent))
            loop = statistics.fmean([before, *inside.times, after])
            rates.append(raw_rates[-1] * loop / REF_NOMINAL_S)
            samples.append(len(inside.times))
        before = after
        t = time.perf_counter()
        step, now = t - now, t
    metrics = {
        "instances_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"metrics": metrics, "results": results,
            "notes": {"units": len(results), "samples_per_unit": samples,
                      "wall_instances_per_s": statistics.median(raw_rates) if raw_rates else 0.0,
                      "wall_setup_s": statistics.median(setup_raw),
                      "setup_samples_s": setup, "rate_quartiles": _quartiles(rates)}}


def trace(workload, seed, seconds) -> dict:
    """Per-layer metrics from the first traced pass over a fixed set of
    units. Untraced and traced passes over the same units alternate for
    --seconds, so the overhead ratio compares medians taken side by side."""
    workload.warm(OUT)
    rng = random.Random(seed)
    inputs = [workload.unit_input(rng, k) for k in range(workload.trace_units)]
    results, untraced, traced = [], [], []
    first = None
    start = now = time.perf_counter()
    step = 0.0
    while not traced or now - start + step <= seconds:
        untraced.append(run_pass(workload, inputs, results))
        tracer = Tracer()
        tracer.install()
        try:
            outputs = [(inp, *run_unit(workload, inp, tracer, run_id=k))
                       for k, inp in enumerate(inputs)]
        finally:
            tracer.uninstall()
        results += [check_unit(workload, inp, dt, raw) for inp, dt, raw in outputs]
        traced.append(sum(dt or 0.0 for _, dt, _ in outputs))
        first = first or tracer
        t = time.perf_counter()
        step, now = t - now, t
    tracer, traced_wall = first, traced[0]
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}-spans.csv.gz")

    table = tracer.layer_table()
    metrics = {}
    for layer in LAYERS + (LINALG,):
        metrics[f"{layer}.calls"] = (table["layers"][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (table["layers"][layer]["self_s"], "s")
    metrics["numpy.linalg.matrices"] = (tracer.counters["numpy.linalg.matrices"], "count")
    metrics["constants.distinct_keys"] = (len(tracer.constant_keys), "count")
    metrics["checks.verdicts"] = (tracer.counters["checks.verdicts"], "count")
    metrics["io.bytes"] = (tracer.counters["io.bytes"], "bytes")
    for entry in VERDICTS_PER_TRIAL:
        metrics[f"registry.entry.{entry}.s"] = (table["entries"].get(entry, 0.0), "s")
    unattributed = traced_wall - table["root_s"]
    metrics["unattributed.self_s"] = (unattributed, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced)
                                      - 1.0, "ratio")
    metrics["trace.spans"] = (tracer.span_count(), "count")

    # self times plus unattributed sum to the traced wall by construction;
    # what can fail is the nesting that makes each of them non-negative
    results[-1].problems += tracer.check_spans()[:20]
    if unattributed < -1e-9:
        results[-1].problems.append(f"unattributed time is negative: {unattributed!r}")
    return {"metrics": metrics, "results": results,
            "notes": {"units": len(inputs), "passes": len(traced),
                      "untraced_wall_s": untraced, "traced_wall_s": traced}}


def probe(name, seed) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up,
    the point where a run's first timed unit would begin."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", name,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    t0 = time.time()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not out.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(out.split()[1]) - t0


# -- provenance and report --------------------------------------------------

def provenance() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        libs = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")
                    if deps[k].get(f) is not None} for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        libs = {"blas": "unknown", "lapack": "unknown"}
    return {"python": platform.python_version(), "numpy": np.__version__, **libs,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": git_sha(ROOT), "src_sha256": src_digest(SRC)}


def git_sha(root: Path):
    """HEAD's commit, or None unless root is the top of a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def src_digest(src: Path) -> str:
    """sha256 over the package sources, which names the code under test
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((src / "opineq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values


def finish(workload, seed, trace_flag, run: dict) -> dict:
    results = run["results"]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    digests = [r.digest for r in results if r.digest]
    record = {
        "workload": workload.name, "seed": seed, "trace": trace_flag,
        "provenance": provenance(),
        "report_sha256_first": digests[0] if digests else None,
        "report_sha256_all": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "error_rate": failed / attempted,
        "problems": problems[:20],
        **run["notes"],
    }
    if workload.name == "rotation_grid":
        record["violations_default_grid"] = results[0].violations
        record["violations_all_grids"] = sum(r.violations for r in results)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()}
    path = OUT / f"{workload.name}-seed{seed}-trace{trace_flag}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"workload {workload.name} seed {seed} units {record['units']} "
          f"instances {attempted}")
    print(f"report_sha256 first {record['report_sha256_first']} "
          f"all {record['report_sha256_all']}")
    if "violations_default_grid" in record:
        print(f"violations default_grid {record['violations_default_grid']} "
              f"all_grids {record['violations_all_grids']} (counted, not errors)")
    if trace_flag:
        print("oracle: not exercised by any workload, so it has no layer row")
    print(f"error_rate {record['error_rate']!r} ({failed} of {attempted} instances failed)")
    if "wall_setup_s" in record:
        print(f"wall-clock (uncalibrated): instances_per_s {record['wall_instances_per_s']!r} "
              f"setup_s {record['wall_setup_s']!r}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": record["metrics"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opineq" / "__init__.py").is_file():
        print(f"error: no opineq package under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.probe:
        workload.warm(OUT)
        print(f"ready {time.time()!r}", flush=True)
        return 0
    run = trace(workload, args.seed, args.seconds) if args.trace else \
        measure(workload, args.seed, args.seconds)
    result = finish(workload, args.seed, args.trace, run)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
