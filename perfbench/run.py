"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One client drives the package in a closed loop: the next op starts only after
the previous one returned. Inputs come from ``--seed`` alone.

``--trace 0`` measures whole rounds of the workload until ``--seconds`` have
passed and at least MIN_OPS ops ran, so ten op times lie above the 90th
percentile. It checks every op against its reference outside the timed
region and reports the end-to-end metrics named in ``BENCHMARK.json``. Each
op time is scaled to the reference host by the workload's host-speed kernel,
timed just before and just after the op (``hostspeed.py``). ``setup_s`` is
the median of several fresh processes' time to ready-for-first-op, spread
over the run, each scaled the same way by the start-up kernel.

``--trace 1`` runs round 0 once untraced to warm it, then, for ``--seconds``,
passes that run each op untraced and traced back to back. It reports the
per-layer metrics named in ``BENCHMARK.json`` from the first pass.
``trace.overhead_frac`` is the median over the ops of the least traced time
over the least untraced time, minus 1. Counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is false
when any point fails in a way that is not a known defect; known-defect
failures still count in ``failed``. Full results, with a hardware and version
fingerprint, go to ``.perfbench/results/`` and spans to ``.perfbench/trace/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

MIN_OPS = 100              # ops at least, so ten lie above the 90th percentile
MAX_MEASURE_S = 120.0
SETUP_PROBES = 8
IMPORT_PROBES = 3
MIN_TRACE_PASSES = 3
CHILD_TIMEOUT_S = 120.0


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import the checkout's package and the workloads, or exit non-zero."""
    if not (SRC / "cavity_entangler" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'cavity_entangler'}")
    sys.path.insert(0, str(SRC))
    import cavity_entangler

    if Path(cavity_entangler.__file__).resolve().parent != (SRC / "cavity_entangler").resolve():
        die(f"imported cavity_entangler from {cavity_entangler.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------

def fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_config = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}"
    except (KeyError, TypeError, ValueError):
        blas_config = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cavity_entangler").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_config": blas_config,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its ready line."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name,
           "--seed", str(seed), "--seconds", "0"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.decode()[-2000:]}")
    return ready


def import_probe() -> float:
    """``import cavity_entangler.cli`` time in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=child_env(),
                          check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed(call, *args):
    """(seconds, result) of one op; an op that raises returns its exception."""
    start = perf_counter()
    try:
        result = call(*args)
    except Exception as exc:            # a failing op is a failed point, not a crash
        result = exc
    return perf_counter() - start, result


def seconds_of(call) -> float:
    """Seconds one call of a host-speed kernel takes; unlike an op, a kernel that raises ends the run."""
    start = perf_counter()
    call()
    return perf_counter() - start


def measure(workload, seconds: float) -> tuple:
    """Whole rounds until ``seconds`` passed and MIN_OPS ran.

    The workload's host-speed kernel runs before the first op and after every
    op, and each op's time is paired with the mean of the two kernel times
    around it. Set-up probes are spread evenly over the run, each paired
    with the mean of the start-up kernel's times just before and just after
    it. Returns the ops as (round, shape, seconds, passed points, kernel
    seconds), every point, and the set-up samples as (seconds, start-up
    kernel seconds).
    """
    from hostspeed import StartupKernel

    kernel, startup = workload.KERNEL(), StartupKernel()
    kernel()
    before = seconds_of(kernel)

    def bracketed(call, *args):
        nonlocal before
        elapsed, result = timed(call, *args)
        after = seconds_of(kernel)
        around, before = (before + after) / 2.0, after
        return elapsed, around, result

    ops, points, setup = [], [], []
    start = perf_counter()
    index = 0
    while True:
        if len(setup) < SETUP_PROBES and perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            first = seconds_of(startup)
            elapsed = setup_probe(workload.name, workload.seed)
            setup.append((elapsed, (first + seconds_of(startup)) / 2.0))
            before = seconds_of(kernel)
        for shape, op in zip(workload.COMPOSITION, workload.round(index)):
            elapsed, around, result = bracketed(workload.execute, op)
            checked = workload.check(op, result)
            points.extend(checked)
            ops.append((index, str(shape), elapsed, sum(p.ok for p in checked), around))
        index += 1
        spent = perf_counter() - start
        if spent >= MAX_MEASURE_S or (spent >= seconds and len(setup) == SETUP_PROBES
                                      and len(ops) >= MIN_OPS):
            return ops, points, setup


def timings(ops: list) -> dict:
    """points_per_s, op_p50_ms and op_p90_ms over ``ops``."""
    times = [op[2] for op in ops]
    return {
        "points_per_s": sum(op[3] for op in ops) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
    }


def traced_round(workload, seconds: float, min_passes: int = MIN_TRACE_PASSES) -> dict:
    """Round 0 once to warm every op size, then paired passes for ``seconds``.

    In a paired pass each op runs untraced and traced back to back, the order
    alternating from op to op, so both runs of an op see the same host speed.
    Returns, per op, the least untraced and the least traced time over the
    passes, the points of every run and the tracer of the first pass; every
    pass gives the same counts. Checks run with the tracer removed, so
    reference calls do not count as layer work.
    """
    from spans import Tracer

    ops = workload.round(0)
    for op in ops:
        timed(workload.execute, op)
    untraced, traced = [float("inf")] * len(ops), [float("inf")] * len(ops)
    points, first, passes = [], None, 0
    start = perf_counter()
    while passes < min_passes or perf_counter() - start < seconds:
        tracer = Tracer()
        for op_id, op in enumerate(ops):
            for with_tracer in ((False, True) if (passes + op_id) % 2 == 0 else (True, False)):
                tracer.op_id = op_id
                with tracer if with_tracer else contextlib.nullcontext():
                    elapsed, result = timed(workload.execute, op)
                best = traced if with_tracer else untraced
                best[op_id] = min(best[op_id], elapsed)
                points.extend(workload.check(op, result))
        if first is None:
            first = tracer
        passes += 1
    return {"untraced": untraced, "traced": traced, "passes": passes, "points": points, "tracer": first}


FRACTIONS = {"nnz_frac": ("nnz", "stored"), "register_nonzero_frac": ("register_nonzero", "register_dim")}


def layer_metric(name: str, tracer, import_s: float, overhead: float) -> float:
    if name == "cli.import_s":
        return import_s
    if name == "trace.overhead_frac":
        return overhead
    func, field = name.rsplit(".", 1)
    if func not in tracer.stats:
        raise KeyError(f"per-layer metric {name}: {func} is not traced")
    if field in ("calls", "errors", "self_s"):
        return getattr(tracer.stats[func], field)
    if field in FRACTIONS:
        num, den = (tracer.counters.get(f"{func}.{key}", 0) for key in FRACTIONS[field])
        return num / den if den else 0.0
    return tracer.counters.get(name, 0)


def summarize(points: list) -> dict:
    failed = [p for p in points if not p.ok]
    return {
        "attempted": len(points),
        "failed": len(failed),
        "unexpected": sum(1 for p in failed if p.known is None),
        "known_defects": dict(Counter(p.known for p in failed if p.known)),
        "failure_reasons": dict(Counter(p.reason.split(":")[0][:80] for p in failed).most_common(10)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS     # before numpy loads, here and in every child
    workloads = load_package()
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        if args.setup_probe:
            workload.round(0)
            workload.execute(workload.warmup())
            print("ready", flush=True)
            return 0
        return run(args, spec, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workload) -> int:
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fingerprint(args.seed)}
    workload.execute(workload.warmup())
    if args.trace == 0:
        from hostspeed import StartupKernel

        ops, points, setup = measure(workload, args.seconds)
        summary = summarize(points)
        # Host speed: each time is scaled to the reference host by the kernel
        # time measured around it (hostspeed.py).
        reference, startup_reference = workload.KERNEL.reference_s, StartupKernel.reference_s
        values = timings([(r, shape, t * reference / k, ok) for r, shape, t, ok, k in ops])
        p90 = values["op_p90_ms"] / 1e3
        values.update(ok_frac=(summary["attempted"] - summary["failed"]) / summary["attempted"],
                      setup_s=statistics.median(t * startup_reference / k for t, k in setup),
                      peak_rss_mb=workload.peak_rss_mb())
        raw = timings(ops)
        raw["setup_s"] = statistics.median(t for t, _ in setup)
        declared = spec["end_to_end"]
        record.update(ops=len(ops), rounds=ops[-1][0] + 1,
                      ops_above_p90=sum(t * reference / k > p90 for _, _, t, _, k in ops),
                      raw=raw, setup_samples_s=setup, kernel=workload.KERNEL.__name__,
                      kernel_reference_s=reference, op_rows=ops,
                      startup_reference_s=startup_reference)
    else:
        result = traced_round(workload, args.seconds)
        tracer = result["tracer"]
        points = result["points"]
        summary = summarize(points)
        import_times = [import_probe() for _ in range(IMPORT_PROBES)]
        overhead = statistics.median(t / u for t, u in zip(result["traced"], result["untraced"])) - 1.0
        declared = spec["per_layer"]
        values = {m["name"]: layer_metric(m["name"], tracer, statistics.median(import_times), overhead)
                  for m in declared}
        record.update(ops=len(workload.round(0)), passes=result["passes"],
                      untraced_op_s=result["untraced"], traced_op_s=result["traced"],
                      import_samples_s=import_times, spans=len(tracer.span_id),
                      functions={k: {"calls": s.calls, "errors": s.errors, "self_s": s.self_s}
                                 for k, s in sorted(tracer.stats.items())},
                      counters=dict(sorted(tracer.counters.items())))
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "trace" / f"{args.workload}-seed{args.seed}.jsonl")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record.update(summary, metrics=metrics)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    fp = record["fingerprint"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops={record['ops']} "
          f"points={summary['attempted']} failed={summary['failed']} "
          f"known_defects={summary['known_defects']} unexpected={summary['unexpected']}")
    print(f"python={fp['python']} numpy={fp['numpy']} scipy={fp['scipy']} "
          f"blas_threads={fp['blas_threads']} nproc={fp['nproc']} cpu={fp['cpu_model']!r} "
          f"commit={fp['git_commit']}")
    for name, metric in metrics.items():
        extra = f"  (n={record['ops']}, {record['ops_above_p90']} above)" if name == "op_p90_ms" else ""
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{extra}")
    print(json.dumps({
        "correct": summary["unexpected"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
