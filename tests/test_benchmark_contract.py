"""What the benchmark in ``perfbench/`` reads from the package.

The benchmark is kept fixed while the package changes, so a change that
breaks one of these names or formats fails here instead of in a benchmark
run.
"""
import math

import pytest

from cavity_entangler import EffectiveModel, analytic, cli, protocols


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
