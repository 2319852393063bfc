"""The benchmark workloads: seeded inputs, the timed op and its checks.

``cluster-dense``, ``oracle-numeric`` and ``sweep-cli`` are the workloads in
``BENCHMARK.json``.

Every workload runs in rounds. A round is a fixed list of op shapes (the
``COMPOSITION`` of the workload, from cheapest to dearest) whose sizes and
parameters are drawn from ``default_rng((seed, round))``. A run measures
whole rounds, so the share of each op shape is exact and the median and 90th
percentile of op time each fall inside one shape's group of samples instead
of on the edge between two sizes. The order within a round is fixed too: op
time depends on what the allocator kept from the previous op, so a
seed-dependent order would make the seed move the timings.

A point is one (F, P) result.
A point fails if its op raises, its status is not ok, F or P is non-finite or
outside (0, 1], P is subnormal, or it misses its reference. Failures that
match a defect known at the time the benchmark was written are tagged with
the defect's name; they still count as failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
from cavity_entangler import analytic, cli, protocols
from cavity_entangler.hamiltonian import EffectiveModel
from cavity_entangler.numeric import ADAPTIVE_INTEGRATOR, PropagatorOptions
from cavity_entangler.statespace import MAX_DENSE_QUBITS

LAMBDA0 = 1.0e7            # rad/s; couplings are drawn from LAMBDA0 * [0.5, 1.5)
MAX_RATIO = 0.1            # supported regime kappa / min(lambda) <= 0.1
UNIT_SLACK = 1e-12         # rounding allowance on the F, P <= 1 bound
W_TARGET_DENSE_MAX = 22    # largest W register the reference builds densely

# Known defects at the commit that introduced the benchmark.
RECURSION_UNDERFLOW = "recursion-underflow"   # N = 2e4, kappa/lambda >~ 0.045: F=0, subnormal P
UNDERFLOW_N = 20000        # the recursion size of the "large" sweeps
UNDERFLOW_RATIO = 0.045    # the known defect starts between grid points 1/30 and 2/30
W_DENSE_CAP = "w-dense-cap"                   # W rows above 24 qubits: status=error


@dataclass
class Op:
    shape: str
    n: int
    args: dict
    points: int = 1


@dataclass
class Point:
    reason: str | None = None          # None: passed
    known: str | None = None           # known-defect tag of a failure

    @property
    def ok(self) -> bool:
        return self.reason is None


def point_check(f: float, p: float, status: str = "ok") -> str | None:
    """The checks every point must pass before its reference comparison."""
    if status != "ok":
        return f"status={status}"
    if not (math.isfinite(f) and math.isfinite(p)):
        return "non-finite F or P"
    if not (0.0 < f <= 1.0 + UNIT_SLACK and 0.0 < p <= 1.0 + UNIT_SLACK):
        return f"F={f!r} or P={p!r} outside (0, 1]"
    if p < sys.float_info.min:
        return f"subnormal P={p!r}"
    return None


def compare(f, p, f_ref, p_ref, rel=None, abs_=None) -> str | None:
    for label, got, ref in (("F", f, f_ref), ("P", p, p_ref)):
        err = abs(got - ref)
        if rel is not None and err > rel * abs(ref):
            return f"{label}={got!r} vs reference {ref!r} (rel err {err / abs(ref):.2e})"
        if abs_ is not None and err > abs_:
            return f"{label}={got!r} vs reference {ref!r} (abs err {err:.2e})"
    return None


def failed_op(op: Op, exc: BaseException) -> list:
    return [Point(f"{type(exc).__name__}: {exc}")] * op.points


def draw_lambdas(rng, count: int) -> tuple:
    return tuple(float(x) for x in LAMBDA0 * rng.uniform(0.5, 1.5, count))


def draw_ratio(rng) -> float:
    return float(rng.uniform(0.0, MAX_RATIO))


def w_model(rest: tuple, kappa: float) -> EffectiveModel:
    """W model as the CLI builds it: lambda1 seeded with the rest couplings' norm."""
    seed = math.sqrt(sum(x * x for x in rest))
    return EffectiveModel((seed,) + rest, kappa)


def w_reference(rest: tuple, kappa: float) -> tuple:
    """(F, P) of an ideal W run: F = 1, P = |w_target|^2 = exp(-kappa t / 4)."""
    t = analytic.w_solve_lambda1(rest, kappa).duration
    if len(rest) <= W_TARGET_DENSE_MAX:
        return 1.0, analytic.w_target(rest, kappa, t).norm_sq()
    return 1.0, math.exp(-kappa * t / 4.0)


class Workload:
    name = ""
    COMPOSITION: tuple = ()
    KERNEL = None              # the hostspeed kernel that does this workload's kind of work

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def round(self, index: int) -> list:
        rng = np.random.default_rng((self.seed, index))
        return [self.make_op(shape, rng, f"r{index}o{k}") for k, shape in enumerate(self.COMPOSITION)]

    def warmup(self) -> Op:
        """An op of the median shape, drawn from its own stream."""
        rng = np.random.default_rng((self.seed, 1 << 30))
        return self.make_op(self.COMPOSITION[len(self.COMPOSITION) // 2], rng, "warmup")

    def make_op(self, shape, rng, tag: str) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# cluster-dense: analytic run_cluster at N = 12..20, checked against the O(N)
# recursion. The closed-form step fold and StateVector copies do the work.
# ---------------------------------------------------------------------------

class ClusterDense(Workload):
    name = "cluster-dense"
    KERNEL = hostspeed.VectorKernel
    COMPOSITION = (12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 16, 16, 17, 17, 18, 18, 19, 19, 19, 20)

    def make_op(self, n, rng, tag):
        lams = draw_lambdas(rng, n)
        kappa = draw_ratio(rng) * min(lams)
        return Op("cluster", n, {"model": EffectiveModel(lams, kappa)})

    def execute(self, op):
        return protocols.run_cluster(op.args["model"], op.n, "analytic")[1]

    def check(self, op, report):
        if isinstance(report, BaseException):
            return failed_op(op, report)
        f, p = report.fidelity, report.success_probability
        f_ref, p_ref = analytic.cluster_fidelity_recursive(op.args["model"], op.n)
        return [Point(point_check(f, p) or compare(f, p, f_ref, p_ref, rel=1e-9))]


# ---------------------------------------------------------------------------
# oracle-numeric: the dense numeric oracle (build_effective + expm, and the
# Dormand-Prince integrator for a minority of cluster ops), each op checked
# against the same op in analytic mode.
# ---------------------------------------------------------------------------

class OracleNumeric(Workload):
    name = "oracle-numeric"
    KERNEL = hostspeed.MatrixKernel
    COMPOSITION = (
        ("w", 5), ("w", 5), ("cluster", 5), ("cluster", 5), ("w", 6), ("w", 6),
        ("adaptive", 3), ("adaptive", 4),
        ("cluster", 6), ("cluster", 6), ("cluster", 6), ("cluster", 6), ("cluster", 6),
        ("w", 7), ("w", 7),
        ("cluster", 7), ("cluster", 7),
        ("w", 8), ("w", 8), ("w", 8),
    )

    def make_op(self, shape, rng, tag):
        kind, n = shape
        if kind == "w":
            rest = draw_lambdas(rng, n - 1)
            return Op("w", n, {"model": w_model(rest, draw_ratio(rng) * min(rest))})
        lams = draw_lambdas(rng, n)
        model = EffectiveModel(lams, draw_ratio(rng) * min(lams))
        opts = PropagatorOptions(method=ADAPTIVE_INTEGRATOR) if kind == "adaptive" else None
        return Op(kind, n, {"model": model, "opts": opts})

    def _run(self, op, mode):
        if op.shape == "w":
            return protocols.run_w(op.args["model"], op.n, mode)[1]
        opts = op.args["opts"] if mode == "numeric" else None
        return protocols.run_cluster(op.args["model"], op.n, mode, opts)[1]

    def execute(self, op):
        return self._run(op, "numeric")

    def check(self, op, report):
        if isinstance(report, BaseException):
            return failed_op(op, report)
        f, p = report.fidelity, report.success_probability
        ref = self._run(op, "analytic")
        return [Point(point_check(f, p) or compare(
            f, p, ref.fidelity, ref.success_probability, abs_=1e-7))]


# ---------------------------------------------------------------------------
# sweep-cli: in-process ``cli.main(["sweep", ...])``, one sweep per op. Rows
# are parsed from the CSV; dense-range rows are checked against
# cluster_analytic or w_target.
# ---------------------------------------------------------------------------

# The kappa/lambda grid and the dense sizes are the same in every sweep of a
# shape; the seed draws the coupling and the mid recursion size. With equal
# couplings the recursion's cost depends on the ratio alone (rows that
# underflow run on subnormal floats and are several times slower), and one
# dense size more doubles a dense row's cost, so seeding either would move the
# op-time percentiles with the seed.
SWEEP_STEPS = 4


class SweepCli(Workload):
    name = "sweep-cli"
    KERNEL = hostspeed.InterpreterKernel
    COMPOSITION = ("w", "w", "w", "mid", "mid", "mid", "mid", "mid", "large", "large")

    def make_op(self, shape, rng, tag):
        lam = float(LAMBDA0 * rng.uniform(0.5, 1.5))
        if shape == "w":
            protocol, n_list = "wstate", [10, 20, 30]
        elif shape == "mid":
            protocol, n_list = "cluster", [12, int(rng.integers(4500, 5001))]
        else:
            protocol, n_list = "cluster", [14, UNDERFLOW_N]
        doc = {
            "protocol": protocol,
            "N": n_list[0],
            "lambdas": lam,
            "kappa": 0.0,
            "sweep": {
                "kappa_over_lambda": {"start": 0.0, "stop": MAX_RATIO, "steps": SWEEP_STEPS},
                "N_list": n_list,
            },
        }
        config = self.workdir / f"sweep-{tag}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        args = {"config": str(config), "output": str(self.workdir / f"sweep-{tag}.csv"),
                "protocol": protocol, "lam": lam, "n_list": n_list,
                "ratios": [float(r) for r in np.linspace(0.0, MAX_RATIO, SWEEP_STEPS)]}
        return Op(shape, n_list[-1], args, points=len(n_list) * SWEEP_STEPS)

    def execute(self, op):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["sweep", "--config", op.args["config"], "--output", op.args["output"]])

    def check(self, op, code):
        if isinstance(code, BaseException):
            return failed_op(op, code)
        if code != cli.EXIT_OK:
            return [Point(f"sweep exit code {code}")] * op.points
        lines = Path(op.args["output"]).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != cli.CSV_HEADER:
            return [Point("missing or wrong CSV header")] * op.points
        rows = {}
        for line in lines[1:]:
            protocol, n, ratio, f, p, _runtime, status = line.split(",")
            rows[(int(n), float(ratio))] = (protocol, float(f), float(p), status)
        points = []
        for n in op.args["n_list"]:
            for ratio in op.args["ratios"]:
                row = rows.get((n, float(cli._fmt(ratio))))
                if row is None:
                    points.append(Point(f"row N={n} ratio={ratio!r} missing"))
                    continue
                points.append(self._check_row(op.args["protocol"], n, ratio, op.args["lam"], row))
        return points

    @staticmethod
    def _check_row(protocol, n, ratio, lam, row) -> Point:
        row_protocol, f, p, status = row
        if row_protocol != protocol:
            return Point(f"row protocol {row_protocol!r} != {protocol!r}")
        reason = point_check(f, p, status)
        if reason is not None:
            known = None
            if protocol == "cluster" and n == UNDERFLOW_N and ratio >= UNDERFLOW_RATIO \
                    and status == "ok" and (f == 0.0 or p < sys.float_info.min):
                known = RECURSION_UNDERFLOW
            elif n > MAX_DENSE_QUBITS and protocol == "wstate" and status == "error":
                known = W_DENSE_CAP
            return Point(reason, known)
        kappa = ratio * lam
        if protocol == "wstate":
            f_ref, p_ref = w_reference((lam,) * (n - 1), kappa)
        elif n <= MAX_DENSE_QUBITS:
            ref = analytic.cluster_analytic(EffectiveModel((lam,) * n, kappa), n)[1]
            f_ref, p_ref = ref.fidelity, ref.success_probability
        else:
            return Point()
        return Point(compare(f, p, f_ref, p_ref, rel=1e-9))


WORKLOADS = {w.name: w for w in (ClusterDense, OracleNumeric, SweepCli)}
