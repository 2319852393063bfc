"""What the benchmark in ``perfbench/`` reads from the package.

The benchmark is kept fixed while the package changes, so a change that
breaks one of these names or formats fails here instead of in a benchmark
run.
"""
import json
import math

import pytest

from cavity_entangler import EffectiveModel, analytic, cli, protocols, statespace
from cavity_entangler.numeric import ADAPTIVE_INTEGRATOR, PropagatorOptions


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_run_w_register_has_amplitudes_and_dim(mode):
    register, report = protocols.run_w(EffectiveModel((1.5, 1.0, 1.2), 0.05), 3, mode)
    assert register.amplitudes.shape == (register.dim,)
    assert 0.0 < report.fidelity <= 1.0


def test_w_target_has_norm_sq():
    t = analytic.w_solve_lambda1((1.0, 1.2), 0.05).duration
    assert analytic.w_target((1.0, 1.2), 0.05, t).norm_sq() == pytest.approx(
        math.exp(-0.05 * t / 4), rel=1e-14)


def test_sweep_csv_header_and_number_format():
    assert cli.CSV_HEADER == (
        "protocol,N,kappa_over_lambda,fidelity,success_probability,runtime_s,status"
    )
    for value in (0.0, 1.0, 0.1, 2 / 30, 1 / 3, 2.2140033613791256e-05, 1e-300):
        assert cli._fmt(value) == f"{value:.12g}"


def test_run_cluster_analytic_report_fields():
    report = protocols.run_cluster(EffectiveModel((1.0, 1.2, 0.9), 0.05), 3, "analytic")[1]
    assert 0.0 < report.success_probability < report.fidelity <= 1.0


def test_run_cluster_numeric_takes_propagator_options():
    opts = PropagatorOptions(method=ADAPTIVE_INTEGRATOR)
    model = EffectiveModel((1.0, 1.2, 0.9), 0.05)
    report = protocols.run_cluster(model, 3, "numeric", opts)[1]
    assert report.fidelity == pytest.approx(
        protocols.run_cluster(model, 3, "analytic")[1].fidelity, abs=1e-6)


def test_cluster_recursion_and_dense_report():
    model = EffectiveModel((1.0, 1.2, 0.9), 0.05)
    result = analytic.cluster_fidelity_recursive(model, 3)
    assert isinstance(result, tuple) and len(result) == 2
    report = analytic.cluster_analytic(model, 3)[1]
    assert (report.fidelity, report.success_probability) == result


def test_dense_register_cap():
    assert statespace.MAX_DENSE_QUBITS == 24


def test_sweep_entry_point(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
        "sweep": {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 2}}}))
    output = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(config), "--output", str(output)]) == cli.EXIT_OK
    assert output.read_text().splitlines()[0] == cli.CSV_HEADER
