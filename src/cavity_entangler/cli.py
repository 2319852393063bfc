"""Command-line front end: protocol runs, parameter sweeps, validation suite.

Subcommands
-----------
run       execute one protocol, print key=value lines
sweep     scan a (kappa/lambda, N) grid, write a CSV
validate  run the cross-check suite (analytic vs numeric, transfer roots,
          W cancellation, three-level vs effective)

Configs are single JSON documents; frequencies are either plain numbers
(already rad/s) or suffixed strings ("10 MHz", "1.5 GHz", "2.5e4 rad/s")
converted at parse time. Exit codes: 0 success, 1 argument/config error,
2 regime error, 3 convergence/factorization/protocol/numeric/sector error,
4 validation failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic, numeric, protocols, statespace
from .errors import (
    ArgumentError,
    CapacityError,
    CavityEntanglerError,
    ConvergenceError,
    FactorizationError,
    NumericError,
    ProtocolError,
    RegimeError,
    SectorError,
    single_outcome,
)
from .hamiltonian import (
    REGIME_MAX_KAPPA_OVER_LAMBDA,
    ADIABATIC_MAX_RATIO,
    EffectiveModel,
    ThreeLevelModel,
    build_effective,
    build_full_rotated,
    decay_term,
    effective_coupling,
    exchange_term,
    kappa_from_quality,
    out_of_regime,
)

EXIT_OK = 0
EXIT_ARGUMENT = 1
EXIT_REGIME = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATE = 4

# --dump-h writes dense 2^(N+1) x 2^(N+1) matrices; N = 10 is 64 MiB per matrix
MAX_DUMP_H_QUBITS = 10
# configs hold N couplings, and the recursion's 3x3 maps take 144 bytes per qubit
MAX_QUBITS = 10**6
# steps x len(N_list); a CSV row is about 60 bytes, so 10^6 rows is about 60 MB
MAX_SWEEP_ROWS = 10**6

CSV_HEADER = "protocol,N,kappa_over_lambda,fidelity,success_probability,runtime_s,status"

# experimentally demonstrated numbers used as validation defaults
FEASIBILITY_DEFAULTS = {"g": 1.8e8, "omega": 8.5e7, "delta": 1.5e9, "Q": 1e7, "nu_c": 4e10}
# the elimination check wants equal drive strengths so the level shifts cancel
THREE_LEVEL_DEFAULTS = {"g": 1.8e8, "omega": 1.8e8, "delta": 1.8e9}

# a number and an optional unit; each parser's table says which units it takes,
# and a number with no unit reads as the bare JSON number (rad/s for a frequency)
_NUMBER_UNIT = re.compile(r"\s*([0-9eE+\-.]+)\s*([a-zA-Z/]*)\s*")
_HZ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FREQ_UNITS = {"": 1.0, "rad/s": 1.0,
               **{unit: 2.0 * math.pi * hz for unit, hz in _HZ_UNITS.items()}}
_PLAIN_UNITS = {"": 1.0, **_HZ_UNITS}


def _to_float(number, value) -> float:
    """float(number), with any failure reported against the config value.

    JSON booleans are ints to Python; ``true`` is refused, not read as 1.0.
    """
    if isinstance(number, bool):
        raise ArgumentError(f"expected a number, got {value!r}")
    try:
        return float(number)
    except (TypeError, ValueError, OverflowError):
        raise ArgumentError(f"cannot parse number {value!r}") from None


def _parse_number_unit(value: str, units: dict, what: str) -> float:
    """The number in ``value`` times the scale of its case-insensitive unit in ``units``."""
    m = _NUMBER_UNIT.fullmatch(value)
    if not m:
        raise ArgumentError(f"cannot parse {what} {value!r}")
    number, unit = m.groups()
    scale = units.get(unit.lower())
    if scale is None:
        raise ArgumentError(
            f"unknown {what} unit {unit!r} (use {', '.join(u for u in units if u)})"
        )
    return _to_float(number, value) * scale


def parse_frequency(value) -> float:
    """Angular frequency in rad/s from a number or a suffixed string."""
    if isinstance(value, (int, float)):
        return _to_float(value, value)
    if isinstance(value, str):
        return _parse_number_unit(value, _FREQ_UNITS, "frequency")
    raise ArgumentError(f"frequency must be a number or string, got {type(value).__name__}")


def parse_plain(value) -> float:
    """Plain positive number (quality factors, cavity frequency in Hz)."""
    if isinstance(value, str):
        return _parse_number_unit(value, _PLAIN_UNITS, "number")
    return _to_float(value, value)


def _parse_integer(value, name: str) -> int:
    """An integral count: an int, an integral float or a numeric string; never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, (float, str)):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if number.is_integer():
            return int(number)
    raise ArgumentError(f"{name} must be an integer, got {value!r}")


@dataclass
class RunConfig:
    protocol: str
    n: int
    lambdas: np.ndarray       # cluster: per qubit; wstate: rest couplings 2..N
    kappa: float
    mode: str = "analytic"
    sweep: Optional[dict] = None
    output: Optional[str] = None
    extras: dict = field(default_factory=dict)


def _resolve_lambdas(raw, count: int) -> np.ndarray:
    """The config's couplings as a read-only float64 array, checked finite and > 0."""
    if isinstance(raw, dict):
        missing = sorted({"g", "omega", "delta"} - raw.keys())
        if missing:
            raise ArgumentError(f"coupling triple is missing {', '.join(missing)}")
        lam = effective_coupling(
            parse_frequency(raw["g"]),
            parse_frequency(raw["omega"]),
            parse_frequency(raw["delta"]),
        )
        lams = np.full(count, lam)
    elif isinstance(raw, (list, tuple)):
        lams = np.array([parse_frequency(v) for v in raw])
        if lams.size != count:
            raise ArgumentError(f"expected {count} couplings, got {lams.size}")
    else:
        lams = np.full(count, parse_frequency(raw))
    if lams.min() <= 0:
        raise ArgumentError("couplings must be > 0")
    if not np.isfinite(lams).all():
        raise ArgumentError("couplings must be finite")
    lams.flags.writeable = False
    return lams


def _couplings(lambdas: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` couplings; a shorter array is one coupling, broadcast.

    ``config_from_dict`` refuses per-qubit lists shorter than the largest N,
    so the broadcast branch only sees equal couplings.
    """
    return lambdas[:count] if lambdas.size >= count else np.full(count, lambdas[0])


def _qubit_count(value, name: str) -> int:
    n = _parse_integer(value, name)
    if not 2 <= n <= MAX_QUBITS:
        raise ArgumentError(f"{name} must be in 2..{MAX_QUBITS}, got {n}")
    return n


def _parse_sweep(sweep, n: int) -> dict:
    """The sweep section with every field parsed: grid floats, step and N counts."""
    if not isinstance(sweep, dict):
        raise ArgumentError("sweep must be an object")
    grid = sweep.get("kappa_over_lambda")
    if not isinstance(grid, dict) or not {"start", "stop", "steps"} <= grid.keys():
        raise ArgumentError("sweep.kappa_over_lambda needs start/stop/steps >= 1")
    steps = _parse_integer(grid["steps"], "sweep.kappa_over_lambda.steps")
    if steps < 1:
        raise ArgumentError("sweep.kappa_over_lambda needs start/stop/steps >= 1")
    start, stop = (_to_float(grid[k], grid[k]) for k in ("start", "stop"))
    if not 0 <= start <= stop < math.inf:
        raise ArgumentError("sweep grid must be finite, non-negative and increasing")
    n_list = sweep.get("N_list", [n])
    if not isinstance(n_list, list) or not n_list:
        raise ArgumentError("sweep.N_list must be a non-empty increasing list of N >= 2")
    n_list = [_qubit_count(m, "sweep.N_list entry") for m in n_list]
    if n_list != sorted(n_list):
        raise ArgumentError("sweep.N_list must be a non-empty increasing list of N >= 2")
    if steps * len(n_list) > MAX_SWEEP_ROWS:
        raise ArgumentError(
            f"sweep has {steps} x {len(n_list)} rows, more than {MAX_SWEEP_ROWS}"
        )
    return {"kappa_over_lambda": {"start": start, "stop": stop, "steps": steps},
            "N_list": n_list}


# validate's optional sections: the fields read and how each is parsed
_EXTRA_FIELDS = {
    "three_level": {"g": parse_frequency, "omega": parse_frequency, "delta": parse_frequency},
    "feasibility": {"g": parse_frequency, "omega": parse_frequency, "delta": parse_frequency,
                    "Q": parse_plain, "nu_c": parse_plain},
}


def _parse_extras(doc: dict) -> dict:
    extras = {}
    for section, fields in _EXTRA_FIELDS.items():
        if section not in doc:
            continue
        raw = doc[section]
        if not isinstance(raw, dict):
            raise ArgumentError(f"{section} must be an object")
        values = {k: parse(raw[k]) for k, parse in fields.items() if k in raw}
        if not all(0 < v < math.inf for v in values.values()):
            raise ArgumentError(f"{section} values must be finite and > 0")
        extras[section] = values
    return extras


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:   # ValueError: bad JSON or UTF-8
        raise ArgumentError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc)


def config_from_dict(doc: dict) -> RunConfig:
    """Parse and check a config document; every defect raises ArgumentError."""
    if not isinstance(doc, dict):
        raise ArgumentError(f"config must be a JSON object, got {type(doc).__name__}")
    protocol = doc.get("protocol")
    if protocol not in ("cluster", "wstate"):
        raise ArgumentError(f"protocol must be 'cluster' or 'wstate', got {protocol!r}")
    n = _qubit_count(doc.get("N", 0), "N")
    count = n if protocol == "cluster" else n - 1
    raw_lambdas = doc.get("lambdas", 1.0)
    lambdas = _resolve_lambdas(raw_lambdas, count)

    has_kappa = "kappa" in doc
    has_q = "Q" in doc or "nu_c" in doc
    if has_kappa == has_q:
        raise ArgumentError("specify exactly one of 'kappa' or the ('Q', 'nu_c') pair")
    if has_kappa:
        kappa = parse_frequency(doc["kappa"])
    else:
        if "Q" not in doc or "nu_c" not in doc:
            raise ArgumentError("'Q' and 'nu_c' must be given together")
        kappa = kappa_from_quality(parse_plain(doc["Q"]), parse_plain(doc["nu_c"]))
    if not math.isfinite(kappa):
        raise ArgumentError(f"kappa must be finite, got {kappa}")
    if kappa < 0:
        raise ArgumentError(f"kappa must be >= 0, got {kappa}")

    mode = doc.get("mode", "analytic")
    if mode not in ("analytic", "numeric"):
        raise ArgumentError(f"mode must be 'analytic' or 'numeric', got {mode!r}")

    sweep = doc.get("sweep")
    if sweep is not None:
        sweep = _parse_sweep(sweep, n)
        n_max = sweep["N_list"][-1]
        needed = n_max if protocol == "cluster" else n_max - 1
        if isinstance(raw_lambdas, (list, tuple)) and len(lambdas) < needed:
            raise ArgumentError(
                f"{len(lambdas)} per-qubit couplings do not cover sweep.N_list up to N = {n_max}"
            )

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ArgumentError(f"output must be a path string, got {output!r}")
    return RunConfig(protocol, n, lambdas, kappa, mode, sweep, output, _parse_extras(doc))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _execute(protocol: str, n: int, lams: np.ndarray, kappa: float, mode: str, convention: str):
    """``run``'s executor: ``_execute_batch`` at the one decay rate ``kappa``.

    Returns ``(F, P, register, report)`` or raises the rate's error.
    """
    return single_outcome(_execute_batch(protocol, n, lams, [kappa], mode, convention))


def _execute_batch(protocol: str, n: int, lams: np.ndarray, kappas, mode: str,
                   convention: str) -> list:
    """The one path from parsed couplings to F and P, for ``run`` and every sweep row.

    ``lams`` are the cluster's N couplings or the W run's rest couplings
    2..N, and ``kappas`` the decay rates to run them at: one for ``run``, a
    batch of ratios of one N for a sweep. Per decay rate it refuses an
    out-of-regime point, runs the model, applies the fidelity convention and
    refuses a non-finite result, and returns ``(F, P, register, report)`` or
    the package error that stopped that rate. The analytic cluster rates run
    as one batch of the O(N) recursion, which builds no register or report,
    so those are None.
    """
    lam_min = float(lams.min())
    outcomes = [
        RegimeError(f"kappa/lambda = {kappa / lam_min:.6g} is outside the validated regime")
        if out_of_regime(kappa, lam_min) else None
        for kappa in kappas
    ]
    todo = [k for k, outcome in enumerate(outcomes) if outcome is None]
    if protocol == "cluster" and mode == protocols.ANALYTIC:
        results = analytic.cluster_fidelity_sweep(
            EffectiveModel(lams, 0.0), n, [kappas[k] for k in todo])
        for k, result in zip(todo, results):
            outcomes[k] = result if isinstance(result, CavityEntanglerError) else (*result, None, None)
    else:
        # run_w solves the first coupling; lams[0] only seeds the model
        model_lams = np.concatenate((lams[:1], lams)) if protocol == "wstate" else lams
        run = protocols.run_w if protocol == "wstate" else protocols.run_cluster
        for k in todo:
            try:
                register, report = run(EffectiveModel(model_lams, kappas[k]), n, mode)
            except CavityEntanglerError as exc:
                outcomes[k] = exc
            else:
                outcomes[k] = (report.fidelity, report.success_probability, register, report)
    return [_finish(outcome, convention) for outcome in outcomes]


def _finish(outcome, convention: str):
    """Apply the fidelity convention to one rate's outcome and refuse a non-finite result."""
    if isinstance(outcome, CavityEntanglerError):
        return outcome
    fid, p, register, report = outcome
    if convention == "raw":
        fid = fid * p
    if not (math.isfinite(fid) and math.isfinite(p)):
        return NumericError(f"non-finite result: F={fid}, P={p}")
    return fid, p, register, report


def cmd_run(config: RunConfig, args) -> int:
    if args.dump_h and config.n > MAX_DUMP_H_QUBITS:
        raise CapacityError(
            f"--dump-h writes dense Hamiltonians and is capped at N = {MAX_DUMP_H_QUBITS}, "
            f"got N = {config.n}"
        )
    register_qubits = config.n if config.protocol == "cluster" else config.n - 1
    if args.dump_state and register_qubits > statespace.MAX_DENSE_QUBITS:
        raise CapacityError(
            f"--dump-state writes the dense register and is capped at "
            f"{statespace.MAX_DENSE_QUBITS} register qubits, got {register_qubits}"
        )
    _check_distinct({"--config": args.config, "--dump-state": args.dump_state,
                     "--dump-h": args.dump_h})
    for path in (args.dump_state, args.dump_h):
        _check_writable(path)
    fid, p, register, report = _execute(config.protocol, config.n, config.lambdas,
                                        config.kappa, config.mode, args.fidelity_convention)
    print(f"protocol={config.protocol}")
    print(f"N={config.n}")
    print(f"mode={config.mode}")
    print(f"kappa_over_lambda={_fmt(config.kappa / float(config.lambdas.min()))}")
    if config.protocol == "wstate":
        sol = report.details["solution"]
        print(f"lambda1={_fmt(sol.lambda1)}")
        print(f"duration={_fmt(sol.duration)}")
        print(f"qubit1_residual={report.details['qubit1_residual']:.3e}")
        print(f"cavity_residual={report.details['cavity_residual']:.3e}")
    print(f"F={fid:.12f}")
    print(f"P={p:.12f}")

    if args.dump_state:
        if config.protocol == "wstate":
            register = register.to_dense()
        elif register is None:
            model = EffectiveModel(config.lambdas, config.kappa)
            register = analytic.cluster_analytic(model, config.n)[0]
        _write_lines(args.dump_state, statespace.state_dump_lines(register))
        print(f"dump_state={args.dump_state}")
    if args.dump_h:
        _dump_hamiltonians(config, args.dump_h)
        print(f"dump_h={args.dump_h}")
    print("status=ok")
    return EXIT_OK


def _dump_hamiltonians(config: RunConfig, path: str) -> None:
    lines = []
    if config.protocol == "cluster":
        model = EffectiveModel(config.lambdas, config.kappa)
        for j, step in enumerate(analytic.cluster_schedule(model, config.n), start=1):
            h = step.lam * exchange_term(config.n, j) + decay_term(config.n, config.kappa)
            lines.append(f"# step {j} qubit {j} lambda {_fmt(step.lam)} "
                         f"duration {_fmt(step.duration)}")
            lines.extend(statespace.matrix_dump_lines(h))
    else:
        rest = config.lambdas
        sol = analytic.w_solve_lambda1(rest, config.kappa)
        model = EffectiveModel(np.concatenate(([sol.lambda1], rest)), config.kappa)
        h = build_effective(model, config.n, 2)
        lines.append(f"# simultaneous coupling duration {_fmt(sol.duration)}")
        lines.extend(statespace.matrix_dump_lines(h.matrix))
    _write_lines(path, lines)


def _cannot_write(path: str, exc: OSError) -> ArgumentError:
    return ArgumentError(f"cannot write {path}: {exc.strerror or exc}")


def _check_distinct(paths: dict) -> None:
    """Refuse two of the named paths that name one file, before any is written.

    An existing file is known by its (device, inode), so a symlink or a hard
    link to it is the same file; a path that does not exist yet, by its
    resolved path. An existing file that is not a regular file, such as
    /dev/null, may be named more than once.
    """
    seen = {}
    for name, path in paths.items():
        if not path:
            continue
        try:
            info = os.stat(path)
        except OSError:
            key, device = os.path.realpath(path), False
        else:
            key, device = (info.st_dev, info.st_ino), not stat.S_ISREG(info.st_mode)
        if key in seen and not device:
            raise ArgumentError(f"{seen[key]} and {name} name the same file {path}")
        seen.setdefault(key, name)


def _check_writable(path: Optional[str]) -> None:
    """Refuse an output path that cannot be opened for writing, before any work.

    Opens in append mode, so an existing file is not truncated, and removes
    the file again if the check created it.
    """
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if not existed:
        with contextlib.suppress(OSError):
            os.unlink(path)


def _write_lines(path: str, lines) -> None:
    """Write each line with a trailing newline; an unwritable path is an ArgumentError.

    A write that fails part way removes the partial file if the path is a
    regular file (the open already discarded any earlier content); a device
    such as /dev/full, a FIFO or a symlink is left in place, and a removal
    that fails still reports the write error.
    """
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    try:
        with fh:
            fh.writelines(f"{line}\n" for line in lines)
    except OSError as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
        raise _cannot_write(path, exc) from None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_point(task: tuple) -> list:
    """The rows of one N over a batch of its ratios, in ratio order.

    Each row is (N, ratio, fidelity, P, runtime, status); ``runtime`` is the
    batch's wall time divided by its rows.
    """
    protocol, n, ratios, lambdas, mode, convention = task
    start = time.perf_counter()
    lams = _couplings(lambdas, n if protocol == "cluster" else n - 1)
    lam_min = float(lams.min())
    try:
        outcomes = _execute_batch(protocol, n, lams, [r * lam_min for r in ratios], mode,
                                  convention)
    except CavityEntanglerError as exc:     # a failure shared by the whole batch
        outcomes = [exc] * len(ratios)
    runtime = (time.perf_counter() - start) / len(ratios)
    rows = []
    for ratio, outcome in zip(ratios, outcomes):
        failed = isinstance(outcome, CavityEntanglerError)
        fid, p = (math.nan, math.nan) if failed else outcome[:2]
        rows.append((n, ratio, fid, p, runtime, _status(outcome)))
    return rows


def _status(outcome) -> str:
    if isinstance(outcome, RegimeError):
        return "regime_error"
    if isinstance(outcome, (ConvergenceError, FactorizationError, ProtocolError)):
        return "convergence_error"
    if isinstance(outcome, CavityEntanglerError):
        return "error"
    return "ok"


def cmd_sweep(config: RunConfig, args) -> int:
    if args.jobs < 1:
        raise ArgumentError(f"--jobs must be >= 1, got {args.jobs}")
    if config.sweep is None:
        raise ArgumentError("config has no 'sweep' section")
    out_path = args.output or config.output
    if not out_path:
        raise ArgumentError("no output path (config 'output' or --output)")
    _check_distinct({"--config": args.config,
                     "--output" if args.output else "the config's output": out_path,
                     "--gnuplot": args.gnuplot})
    for path in (out_path, args.gnuplot):
        _check_writable(path)
    grid = config.sweep["kappa_over_lambda"]
    ratios = np.linspace(grid["start"], grid["stop"], grid["steps"]).tolist()
    n_list = config.sweep["N_list"]

    # one task per N, or per chunk of its ratios when workers share the N
    workers = min(args.jobs, os.cpu_count() or 1, len(ratios) * len(n_list))
    size = -(-len(ratios) // workers)
    tasks = [
        (config.protocol, n, ratios[i:i + size], config.lambdas, config.mode,
         args.fidelity_convention)
        for n in n_list
        for i in range(0, len(ratios), size)
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_point, tasks))
    else:
        batches = [_sweep_point(t) for t in tasks]
    rows = [row for batch in batches for row in batch]
    _write_lines(out_path, itertools.chain([CSV_HEADER], (
        f"{config.protocol},{n},{_fmt(ratio)},{_fmt(fid)},{_fmt(p)},{runtime:.3e},{status}"
        for n, ratio, fid, p, runtime, status in rows
    )))
    failures = sum(1 for row in rows if row[5] != "ok")
    print(f"output={out_path}")
    print(f"rows={len(rows)}")
    print(f"failures={failures}")
    if args.gnuplot:
        _write_gnuplot_script(args.gnuplot, out_path, n_list, config.protocol)
        print(f"gnuplot={args.gnuplot}")
    return EXIT_OK


def _write_gnuplot_script(path: str, csv_path: str, n_list, protocol: str) -> None:
    """Companion plot script so no graphics dependency enters the core."""
    lines = [
        'set datafile separator ","',
        'set xlabel "kappa / lambda"',
        'set ylabel "fidelity, success probability"',
        "set yrange [0:1.05]",
        "set key outside",
        f'set title "{protocol} sweep"',
    ]
    plots = []
    for n in n_list:
        sel = f"(int($2)=={int(n)} ? $%d : 1/0)"
        plots.append(
            f'"{csv_path}" using 3:{sel % 4} with linespoints title "F, N={int(n)}"'
        )
        plots.append(
            f'"{csv_path}" using 3:{sel % 5} with linespoints title "P, N={int(n)}"'
        )
    lines.append("plot " + ", \\\n     ".join(plots))
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _check_full_transfer(rng) -> tuple:
    worst = 0.0
    for _ in range(50):
        lam = float(rng.uniform(0.3, 3.0))
        kappa = float(rng.uniform(0.0, 0.1)) * lam
        for role in (analytic.LOAD, analytic.DRAIN):
            p = analytic.step_params(lam, kappa, role)
            q_stay, c_stay, _, _ = analytic._branch_coefficients(lam, kappa, p.duration)
            worst = max(worst, abs(q_stay if role == analytic.LOAD else c_stay))
    return worst <= 1e-12, worst


def _check_cluster_equivalence(rng) -> tuple:
    worst = 0.0
    for n in (2, 3, 4, 8, 16):
        for _ in range(2):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = float(rng.uniform(0.01, 0.1)) * min(lams)
            model = EffectiveModel(lams, kappa)
            state_a, rep_a = protocols.run_cluster(model, n, "analytic")
            state_n, rep_n = protocols.run_cluster(model, n, "numeric")
            dist = float(np.linalg.norm(state_a.amplitudes - state_n.amplitudes))
            worst = max(worst, dist, abs(rep_a.fidelity - rep_n.fidelity))
    return worst <= 1e-8, worst


def _check_w_oracle(rng) -> tuple:
    worst = 0.0
    for _ in range(3):
        n = int(rng.integers(2, 6))
        rest = tuple(rng.uniform(0.5, 2.0, n - 1))
        kappa = float(rng.uniform(0.0, 0.1)) * min(rest)
        sol = analytic.w_solve_lambda1(rest, kappa)
        model = EffectiveModel((sol.lambda1,) + rest, kappa)
        h = build_effective(model, n, 2)
        psi0 = protocols.w_initial_state(n)
        for frac in (0.3, 0.7, 1.0):
            t = frac * sol.duration
            evolved = numeric.evolve(h, psi0, t)
            predicted = analytic.w_amplitudes(model, t)
            actual = np.empty(n + 1, dtype=complex)
            for j in range(1, n + 1):
                bits = [0] * n
                bits[j - 1] = 1
                actual[j - 1] = evolved.amplitude(bits, 0)
            actual[-1] = evolved.amplitude([0] * n, 1)
            worst = max(worst, float(np.max(np.abs(actual - predicted))))
    return worst <= 1e-8, worst


def _check_w_cancellation(rng) -> tuple:
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 7))
        rest = tuple(rng.uniform(0.5, 2.0, n - 1))
        kappa = float(rng.uniform(0.0, 0.1)) * min(rest)
        sol = analytic.w_solve_lambda1(rest, kappa)
        model = EffectiveModel((sol.lambda1,) + rest, kappa)
        amps = analytic.w_amplitudes(model, sol.duration)
        worst = max(worst, abs(amps[0]), abs(amps[-1]))
    return worst <= 1e-10, worst


def three_level_transfer_fidelity(g: float, omega: float, delta: float) -> float:
    """One full-transfer step under the rotated three-level model vs the
    effective-model prediction (-i |0, one photon>), on a single qubit."""
    model = ThreeLevelModel((g,), (omega,), (delta,))
    lam = effective_coupling(g, omega, delta)
    t = analytic.step_params(lam, 0.0).duration
    h3 = build_full_rotated(model, 1, 2)
    psi0 = np.zeros(6, dtype=complex)
    psi0[1 * 2 + 0] = 1.0                       # level |1>, zero photons
    out = numeric.evolve_vector(h3.matrix, psi0, t)
    target = np.zeros(6, dtype=complex)
    target[0 * 2 + 1] = -1j                     # level |0>, one photon
    return float(abs(np.vdot(target, out)) ** 2 / np.vdot(out, out).real)


def cmd_validate(config: Optional[RunConfig], args) -> int:
    rng = np.random.default_rng(20240811)
    extras = config.extras if config is not None else {}
    failed = False

    checks = [
        ("full_transfer_roots", _check_full_transfer),
        ("cluster_equivalence", _check_cluster_equivalence),
        ("w_amplitudes_oracle", _check_w_oracle),
        ("w_cancellation", _check_w_cancellation),
    ]
    for name, fn in checks:
        ok, residual = fn(rng)
        failed |= not ok
        print(f"check={name} status={'pass' if ok else 'fail'} residual={residual:.3e}")

    tl = dict(THREE_LEVEL_DEFAULTS)
    tl.update(extras.get("three_level", {}))
    ratio = max(tl["g"], tl["omega"]) / tl["delta"]
    fid = three_level_transfer_fidelity(tl["g"], tl["omega"], tl["delta"])
    if ratio > ADIABATIC_MAX_RATIO:
        status = "flagged"      # deliberately out of the far-detuned regime
    elif fid >= 0.99:
        status = "pass"
    else:
        status = "fail"
        failed = True
    print(f"check=three_level status={status} fidelity={fid:.9f} ratio={ratio:.4g}")

    fz = dict(FEASIBILITY_DEFAULTS)
    fz.update(extras.get("feasibility", {}))
    lam = effective_coupling(fz["g"], fz["omega"], fz["delta"])
    kappa = kappa_from_quality(fz["Q"], fz["nu_c"])
    print(f"lambda_effective={lam:.6g}")
    print(f"kappa={kappa:.6g}")
    print(f"kappa_over_lambda={kappa / lam:.6g}")

    print(f"validate={'fail' if failed else 'pass'}")
    return EXIT_VALIDATE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ArgumentError (exit 1); argparse would exit 2, the regime code."""

    def error(self, message):
        raise ArgumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavity-entangler",
        description="Cluster-state and W-state preparation with cavity decay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run, sweep, validate = (sub.add_parser(name) for name in ("run", "sweep", "validate"))
    for p in (run, sweep, validate):
        p.add_argument("--config", help="JSON config file", required=(p is not validate))
    for p in (run, sweep):
        p.add_argument("--fidelity-convention", choices=("normalized", "raw"),
                       default="normalized")
    run.add_argument("--dump-state", help="write the output register state")
    run.add_argument("--dump-h", help="write the Hamiltonian matrices")
    sweep.add_argument("--output", help="CSV output path")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    sweep.add_argument("--gnuplot", help="also write a gnuplot script")
    return parser


# parse_args keeps no state in the parser, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = load_config(args.config) if args.config else None
        if args.command == "run":
            return cmd_run(config, args)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        return cmd_validate(config, args)
    except RegimeError as exc:
        print(f"error: {exc} (supported regime: kappa/lambda <= "
              f"{REGIME_MAX_KAPPA_OVER_LAMBDA})", file=sys.stderr)
        return EXIT_REGIME
    except (ConvergenceError, FactorizationError, ProtocolError, NumericError, SectorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


if __name__ == "__main__":
    sys.exit(main())
