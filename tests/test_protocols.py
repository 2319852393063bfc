import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from cavity_entangler import (
    ArgumentError,
    CapacityError,
    EffectiveModel,
    FactorizationError,
    RegimeWarning,
    analytic,
    build_effective,
    cluster_initial_state,
    cluster_schedule,
    evolve,
    factor_out_cavity,
    fidelity,
    ideal_cluster,
    inner,
    run_cluster,
    run_w,
    single_step_map,
    step_params,
    w_initial_state,
    w_target,
)
from cavity_entangler import PropagatorOptions, cli, numeric, protocols, statespace, w_solve_lambda1
from cavity_entangler.protocols import CAVITY_TOL, MAX_NUMERIC_W_QUBITS

from conftest import (
    number_operator,
    oracle_cluster_input,
    oracle_cluster_protocol,
    oracle_evolve,
    oracle_hamiltonian,
)

RK_OPTS = PropagatorOptions(method="adaptive-integrator")


def fold_cluster(model, n):
    """Step-by-step closed-form run: single_step_map folded over the joint state.

    Returns the register (cavity factored out at vacuum) and the per-step
    squared norms, as an independent restatement of the analytic executor.
    """
    psi = cluster_initial_state(n)
    per_step = []
    for j, step in enumerate(cluster_schedule(model, n), start=1):
        role = analytic.LOAD if j < n else analytic.DRAIN
        psi = single_step_map(psi, j, step_params(step.lam, model.kappa, role), step.duration)
        per_step.append((j, psi.norm_sq()))
    return factor_out_cavity(psi, photon=0, tol=CAVITY_TOL["analytic"]), per_step


class TestClusterRun:
    def test_no_decay_gives_ideal_state(self):
        for n in (2, 4):
            model = EffectiveModel((1.3,) * n, 0.0)
            state, report = run_cluster(model, n, "analytic")
            assert np.allclose(state.amplitudes, ideal_cluster(n).amplitudes, atol=1e-12)
            assert report.fidelity == pytest.approx(1.0, abs=1e-12)
            assert report.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_feasibility_ratio_keeps_high_fidelity(self):
        # at kappa/lambda = 0.04 every small register stays above 0.99;
        # the largest size verified here is N = 4
        fids = {}
        for n in (2, 3, 4):
            model = EffectiveModel((1.0,) * n, 0.04)
            _, report = run_cluster(model, n, "analytic")
            fids[n] = report.fidelity
            assert report.fidelity >= 0.99
        assert max(n for n, f in fids.items() if f >= 0.99) == 4

    def test_modes_agree(self, rng):
        for n in (2, 3, 4):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = 0.05 * min(lams)
            model = EffectiveModel(lams, kappa)
            state_a, rep_a = run_cluster(model, n, "analytic")
            state_n, rep_n = run_cluster(model, n, "numeric")
            assert np.linalg.norm(state_a.amplitudes - state_n.amplitudes) < 1e-8
            assert rep_a.fidelity == pytest.approx(rep_n.fidelity, abs=1e-10)
            assert rep_a.success_probability == pytest.approx(
                rep_n.success_probability, abs=1e-10
            )

    def test_per_step_norms_non_increasing(self):
        model = EffectiveModel((1.0,) * 5, 0.08)
        _, report = run_cluster(model, 5, "numeric")
        values = [v for _, v in report.per_step]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert report.success_probability == pytest.approx(values[-1], abs=1e-12)

    def test_success_probability_is_product_of_step_ratios(self):
        model = EffectiveModel((1.0,) * 3, 0.06)
        _, report = run_cluster(model, 3, "analytic")
        values = [v for _, v in report.per_step]
        product = values[0]
        for prev, cur in zip(values, values[1:]):
            product *= cur / prev
        assert report.success_probability == pytest.approx(product, abs=1e-12)

    def test_monotone_in_decay_and_size(self):
        ratios = np.linspace(0.0, 0.1, 6)
        table = {}
        for n in (2, 3, 4):
            rows = []
            for r in ratios:
                _, report = run_cluster(EffectiveModel((1.0,) * n, r), n, "analytic")
                rows.append((report.fidelity, report.success_probability))
            table[n] = rows
            fs, ps = zip(*rows)
            assert all(a >= b for a, b in zip(fs, fs[1:]))
            assert all(a >= b for a, b in zip(ps, ps[1:]))
        for i in range(len(ratios)):
            assert table[2][i][0] >= table[3][i][0] >= table[4][i][0]
            assert table[2][i][1] >= table[3][i][1] >= table[4][i][1]

    def test_matches_step_map_fold(self, rng):
        for n in range(2, 11):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = float(rng.uniform(0.0, 0.1)) * min(lams)
            model = EffectiveModel(lams, kappa)
            state, report = run_cluster(model, n, "analytic")
            register, per_step = fold_cluster(model, n)
            assert np.max(np.abs(state.amplitudes - register.amplitudes)) <= 1e-14
            assert [i for i, _ in report.per_step] == [i for i, _ in per_step]
            assert max(abs(a - b) for (_, a), (_, b) in zip(report.per_step, per_step)) <= 1e-12
            assert report.fidelity == pytest.approx(
                fidelity(register, ideal_cluster(n)), abs=1e-13
            )
            assert report.success_probability == pytest.approx(register.norm_sq(), abs=1e-13)

    @pytest.mark.parametrize("n", [12, 17, 20])
    def test_matches_step_map_fold_at_benchmark_sizes(self, rng, n):
        # amplitudes only: the fold's own norm_sq over 2^(N+1) entries drifts
        # past 1e-12 near N = 20
        lams = tuple(rng.uniform(0.5, 2.0, n))
        model = EffectiveModel(lams, float(rng.uniform(0.0, 0.1)) * min(lams))
        state, _ = run_cluster(model, n, "analytic")
        register, _ = fold_cluster(model, n)
        assert np.max(np.abs(state.amplitudes - register.amplitudes)) <= 1e-14

    def test_no_decay_is_exact(self):
        # N = 2..20 puts the split build's cut at every position, both parities
        for n in range(2, 21):
            state, report = run_cluster(EffectiveModel((1.0,) * n, 0.0), n, "analytic")
            assert np.all(np.abs(state.amplitudes) == 2.0 ** (-n / 2.0))
            assert report.fidelity == 1.0
            assert report.success_probability == 1.0

    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_cavity_residual_reported(self, mode):
        _, report = run_cluster(EffectiveModel((1.0, 1.3, 0.8), 0.06), 3, mode)
        assert 0.0 <= report.details["cavity_residual"] < CAVITY_TOL[mode]

    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_mistimed_drain_raises(self, mode, monkeypatch, tmp_path, capsys):
        exact = analytic.step_params

        def late_drain(lam, kappa, role=analytic.LOAD):
            p = exact(lam, kappa, role)
            if role == analytic.DRAIN:
                return dataclasses.replace(p, duration=1.01 * p.duration)
            return p

        monkeypatch.setattr(analytic, "step_params", late_drain)
        with pytest.raises(FactorizationError) as info:
            run_cluster(EffectiveModel((1.0,) * 4, 0.05), 4, mode)
        assert info.value.residual > 1e-3

        # every analytic sweep row runs the check, the recursion rows too;
        # numeric rows above the dense cap fail before any work
        out_csv = tmp_path / "sweep.csv"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "protocol": "cluster", "N": 12, "lambdas": 1.0, "kappa": 0.0, "mode": mode,
            "sweep": {"kappa_over_lambda": {"start": 0.05, "stop": 0.05, "steps": 1},
                      "N_list": [12, 30]},
        }))
        assert cli.main(["sweep", "--config", str(config), "--output", str(out_csv)]) == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        statuses = {int(r[1]): r[6] for r in rows}
        large = "convergence_error" if mode == "analytic" else "error"
        assert statuses == {12: "convergence_error", 30: large}

    def test_out_of_regime_warns(self):
        # the model warns when it is built; running it adds no second warning
        with pytest.warns(RegimeWarning):
            model = EffectiveModel((1.0, 1.0), 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            run_cluster(model, 2, "analytic")
            run_cluster(model, 2, "numeric")

    def test_small_register_rejected(self):
        with pytest.raises(ArgumentError):
            run_cluster(EffectiveModel((1.0,), 0.0), 1)

    def test_initial_state_structure(self):
        psi = cluster_initial_state(3)
        # qubit 3 grounded, cavity in (|0> + i|1>)/sqrt(2)
        assert psi.amplitude([0, 0, 0], 1) == pytest.approx(1j / (2 * math.sqrt(2)))
        assert psi.amplitude([0, 0, 1], 0) == 0

    def test_initial_state_needs_a_qubit(self):
        with pytest.raises(ArgumentError):
            cluster_initial_state(0)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_initial_state_bitwise_equal_to_kron_form(self, n):
        # tobytes also compares the signs of zeros
        psi = cluster_initial_state(n)
        assert (psi.qubit_count, psi.fock_cutoff) == (n, 2)
        assert psi.amplitudes.tobytes() == oracle_cluster_input(n).tobytes()


class TestWRun:
    def test_uniform_output_no_decay(self):
        model = EffectiveModel((2.0, 1.0, 1.0, 1.0), 0.0)
        state, report = run_w(model, 4, "analytic")
        assert state.qubit_count == 3
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.success_probability == pytest.approx(1.0, abs=1e-12)
        nonzero = np.abs(state.amplitudes[state.amplitudes != 0])
        assert np.allclose(nonzero, 1 / math.sqrt(3), atol=1e-12)

    def test_success_probability_matches_decay_envelope(self):
        rest = (1.0, 1.0, 1.0)
        kappa = 0.05
        model = EffectiveModel((2.0,) + rest, kappa)
        _, report = run_w(model, 4, "analytic")
        t = report.details["solution"].duration
        assert report.success_probability == pytest.approx(
            math.exp(-kappa * t / 4), abs=1e-10
        )

    def test_weighted_couplings_up_to_global_phase(self):
        model = EffectiveModel((1.0, 1.0, 2.0), 0.0)
        state, report = run_w(model, 3, "analytic")
        target = w_target((1.0, 2.0), 0.0, report.details["solution"].duration)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert abs(state.to_dense().amplitude([1, 0], 0)) == pytest.approx(1 / math.sqrt(5), abs=1e-10)
        assert abs(state.to_dense().amplitude([0, 1], 0)) == pytest.approx(2 / math.sqrt(5), abs=1e-10)
        assert fidelity(state, target) == pytest.approx(1.0, abs=1e-10)

    def test_modes_agree(self, rng):
        for n in (3, 4, 5):
            rest = tuple(rng.uniform(0.5, 2.0, n - 1))
            kappa = 0.06 * min(rest)
            model = EffectiveModel((1.0,) + rest, kappa)
            state_a, rep_a = run_w(model, n, "analytic")
            state_n, rep_n = run_w(model, n, "numeric")
            assert np.linalg.norm(state_a.amplitudes - state_n.amplitudes) < 1e-8
            assert rep_a.fidelity == pytest.approx(rep_n.fidelity, abs=1e-10)

    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_dense_form_is_the_old_register_fill(self, rng, mode):
        def old_fill(amps, n):
            # the dense register run_w used to return: qubit k on bit N-k
            register_amps = np.zeros(1 << (n - 1), dtype=complex)
            for k in range(2, n + 1):
                register_amps[1 << (n - 1 - (k - 1))] = amps[k - 1]
            return statespace.StateVector(register_amps, n - 1, 1)

        for n in range(2, 13):
            rest = tuple(rng.uniform(0.5, 2.0, n - 1))
            model = EffectiveModel((1.0,) + rest, float(rng.uniform(0.0, 0.1)) * min(rest))
            sector = {}
            real_evolve = numeric.evolve_vector

            def recording(matrix, vec, t, opts=None):
                sector["amps"] = real_evolve(matrix, vec, t, opts or numeric.PropagatorOptions())
                return sector["amps"]

            real_amplitudes = analytic.w_amplitudes

            def recording_amplitudes(model, t, *rest_coupling_sq):
                sector["amps"] = real_amplitudes(model, t, *rest_coupling_sq)
                return sector["amps"]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(numeric, "evolve_vector", recording)
                mp.setattr(analytic, "w_amplitudes", recording_amplitudes)
                state, report = run_w(model, n, mode)
            dense = state.to_dense()
            assert np.array_equal(dense.amplitudes, old_fill(sector["amps"], n).amplitudes)
            assert (dense.qubit_count, dense.fock_cutoff) == (n - 1, 1)
            assert report.success_probability == pytest.approx(dense.norm_sq(), rel=1e-14)

    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_rest_couplings_summed_once_per_run(self, monkeypatch, mode):
        # the solver's A'^2 feeds the amplitudes and the target
        from cavity_entangler import metrics

        sums = []
        real = analytic._sum_sq

        def counting(lams):
            sums.append(len(lams))
            return real(lams)

        rest = (1.0, 1.3, 0.7, 1.1)
        monkeypatch.setattr(analytic, "_sum_sq", counting)
        register, report = run_w(EffectiveModel((1.0,) + rest, 0.04), 5, mode)
        assert sums == [4]
        # bit-identical to the amplitudes and target that sum A'^2 themselves
        sol = report.details["solution"]
        target = analytic.w_target(rest, 0.04, sol.duration)
        assert report.fidelity == metrics.fidelity(register, target)
        if mode == "analytic":
            solved = EffectiveModel((sol.lambda1,) + rest, 0.04)
            amps = analytic.w_amplitudes(solved, sol.duration)
            assert np.array_equal(register.amplitudes, amps[1:-1])

    def test_analytic_runs_at_a_hundred_thousand_qubits(self):
        # equal couplings make left-to-right sums of squares drift ~N eps, so
        # the register's norm misses exp(-kappa t / 4) by ~1.6e-12 relative
        # unless A'^2 is correctly rounded
        rng = np.random.default_rng(1)
        n = 100_000
        for _ in range(3):
            lam = float(1e7 * rng.uniform(0.5, 1.5))
            kappa = float(rng.uniform(0.0, 0.1)) * lam
            state, report = run_w(EffectiveModel((lam,) * n, kappa), n)
            t = report.details["solution"].duration
            assert state.dim == n - 1
            assert report.details["cavity_residual"] < 1e-12
            assert report.fidelity == pytest.approx(1.0, abs=1e-12)
            assert report.success_probability == pytest.approx(
                math.exp(-kappa * t / 4), rel=1e-12)

    def test_numeric_capped_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the numeric W size check")

        for name in ("build_single_excitation", "EffectiveModel"):
            monkeypatch.setattr(protocols, name, no_work)
        monkeypatch.setattr(analytic, "w_solve_lambda1", no_work)
        n = MAX_NUMERIC_W_QUBITS + 1
        model = EffectiveModel((1.0,) * n, 0.0)
        with pytest.raises(CapacityError):
            run_w(model, n, "numeric")

    def test_out_of_regime_warns_once(self):
        # the solved model is the one run_w builds, and it warns once
        with pytest.warns(RegimeWarning):
            model = EffectiveModel((1.0,) * 3, 0.2)
        with pytest.warns(RegimeWarning) as record:
            run_w(model, 3)
        assert len(record) == 1

    def test_regime_edge_built_by_multiplication_does_not_warn(self):
        lam = 3.0          # 0.1 * 3.0 / 3.0 rounds to 0.10000000000000002
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            run_cluster(EffectiveModel((lam,) * 3, 0.1 * lam), 3)
            run_w(EffectiveModel((lam,) * 3, 0.1 * lam), 3)

    def test_residuals_reported(self):
        model = EffectiveModel((1.0, 1.0, 1.0), 0.08)
        _, report = run_w(model, 3, "numeric")
        assert report.details["qubit1_residual"] < 1e-7
        assert report.details["cavity_residual"] < 1e-7

    def test_excitation_bookkeeping_along_trajectory(self):
        # within the single-excitation sector the squared norm *is* the
        # excitation expectation, so norm loss must equal kappa times the
        # accumulated photon population
        rest = (1.0, 1.0, 1.0)
        kappa = 0.08
        from cavity_entangler import w_solve_lambda1
        sol = w_solve_lambda1(rest, kappa)
        model = EffectiveModel((sol.lambda1,) + rest, kappa)
        h = build_effective(model, 4, 2)
        n_op = number_operator(4, 2)
        psi0 = w_initial_state(4)
        times = np.linspace(0.0, sol.duration, 201)
        photon = []
        norms = []
        for t in times:
            out = evolve(h, psi0, float(t))
            norms.append(out.norm_sq())
            photon.append(float(np.vdot(out.amplitudes, n_op @ out.amplitudes).real))
        leaked = kappa * np.trapezoid(photon, times)
        assert norms[0] - norms[-1] == pytest.approx(leaked, rel=1e-6)


class TestNumericOracle:
    """The structured numeric executors against the dense conftest oracle."""

    @pytest.mark.parametrize("opts", [None, RK_OPTS], ids=["expm", "dopri5"])
    def test_cluster_matches_dense_oracle(self, rng, opts):
        for n in range(2, 7):
            for _ in range(2):
                lams = tuple(rng.uniform(0.5, 2.0, n))
                kappa = float(rng.uniform(0.0, 0.1)) * min(lams)
                state, report = run_cluster(EffectiveModel(lams, kappa), n, "numeric", opts)
                joint = oracle_cluster_protocol(lams, kappa).reshape(-1, 2)
                assert np.max(np.abs(state.amplitudes - joint[:, 0])) <= 1e-10
                assert report.details["cavity_residual"] == pytest.approx(
                    np.linalg.norm(joint[:, 1]), abs=1e-10)

    def test_w_matches_dense_oracle(self, rng):
        for n in range(2, 7):
            rest = tuple(rng.uniform(0.5, 2.0, n - 1))
            kappa = float(rng.uniform(0.0, 0.1)) * min(rest)
            sol = w_solve_lambda1(rest, kappa)
            lams = (sol.lambda1,) + rest
            state, report = run_w(EffectiveModel(lams, kappa), n, "numeric")
            h = oracle_hamiltonian(lams, kappa, set(range(1, n + 1)))
            joint = oracle_evolve(h, w_initial_state(n).amplitudes, sol.duration)
            grid = joint.reshape(2, -1, 2)             # (qubit 1, rest, photon)
            assert np.max(np.abs(state.to_dense().amplitudes - grid[0, :, 0])) <= 1e-10
            assert report.details["qubit1_residual"] == pytest.approx(
                np.linalg.norm(grid[1]), abs=1e-12)
            assert report.details["cavity_residual"] == pytest.approx(
                np.linalg.norm(grid[:, :, 1]), abs=1e-12)

    @pytest.mark.parametrize("opts", [None, RK_OPTS], ids=["expm", "dopri5"])
    def test_cluster_bitwise_equal_to_per_step_generators(self, rng, opts, monkeypatch):
        # stacking changes no bit of a step's generator or propagator; the
        # grown register matches the joint-state loop to rounding
        opts = opts or PropagatorOptions()
        real_evolve, calls = numeric.evolve_vector, []

        def recording(matrix, vec, t, o):
            out = real_evolve(matrix, vec, t, o)
            calls.append((matrix, out))
            return out

        monkeypatch.setattr(numeric, "evolve_vector", recording)

        def per_step_run(model, n):
            # each step builds its own one-qubit generator with build_effective
            # and applies its propagator to the whole joint state
            grid = cluster_initial_state(n).amplitudes.reshape([2] * (n + 1))
            generators, propagators, norms = [], [], []
            for j, step in enumerate(cluster_schedule(model, n), start=1):
                h = build_effective(EffectiveModel((step.lam,), model.kappa), 1, 2).matrix
                u = real_evolve(h, np.eye(4), step.duration, opts)
                generators.append(h)
                propagators.append(u)
                grid = np.tensordot(u.reshape(2, 2, 2, 2), grid, axes=([2, 3], [j - 1, n]))
                norms.append(float(np.vdot(grid, grid).real))
                grid = np.moveaxis(grid, (0, 1), (j - 1, n))
            return grid.reshape(-1, 2), generators, propagators, norms

        for n in range(2, 9):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            model = EffectiveModel(lams, float(rng.uniform(0.0, 0.1)) * min(lams))
            calls.clear()
            state, report = run_cluster(model, n, "numeric", opts)
            joint, generators, propagators, norms = per_step_run(model, n)
            [(stacked_generators, stacked_propagators)] = calls
            assert stacked_generators.tobytes() == np.array(generators).tobytes()
            assert stacked_propagators.tobytes() == np.array(propagators).tobytes()
            assert np.max(np.abs(state.amplitudes - joint[:, 0])) <= 1e-15
            got = np.array([norm for _, norm in report.per_step])
            assert [j for j, _ in report.per_step] == list(range(1, n + 1))
            assert np.max(np.abs(got - norms) / np.array(norms)) <= 1e-14
            assert abs(report.details["cavity_residual"] - np.linalg.norm(joint[:, 1])) <= 1e-15

    def test_cluster_modes_agree_at_sixteen_qubits(self, rng):
        n = 16
        lams = tuple(rng.uniform(0.5, 2.0, n))
        model = EffectiveModel(lams, 0.08 * min(lams))
        state_a, rep_a = run_cluster(model, n, "analytic")
        state_n, rep_n = run_cluster(model, n, "numeric")
        assert abs(rep_a.fidelity - rep_n.fidelity) <= 1e-12
        assert abs(rep_a.success_probability - rep_n.success_probability) <= 1e-12
        assert np.linalg.norm(state_a.amplitudes - state_n.amplitudes) <= 1e-10

    def test_numeric_mode_uses_no_closed_form_amplitudes(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("numeric mode called a closed-form amplitude function")

        for name in ("_branch_coefficients", "single_step_map", "w_amplitudes",
                     "cluster_analytic"):
            monkeypatch.setattr(analytic, name, forbidden)
        run_cluster(EffectiveModel((1.0, 1.4, 0.9), 0.05), 3, "numeric")
        run_w(EffectiveModel((1.0, 1.0, 1.3), 0.05), 3, "numeric")


class TestCouplingFormat:
    """Tuple and array couplings are one format once inside the model."""

    @pytest.mark.parametrize("protocol", ["cluster", "wstate"])
    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_execute_matches_the_tuple_built_model(self, rng, protocol, mode):
        # bit-identical F, P and lambda1 through _execute and run_w; a tuple
        # concatenation where an array is meant broadcast-adds instead
        for n in (2, 3, 7):
            lams = rng.uniform(0.5, 2.0, n if protocol == "cluster" else n - 1)
            kappa = 0.05 * float(lams.min())
            fid, p, _, report = cli._execute(protocol, n, lams, kappa, mode, "normalized")
            as_tuple = tuple(lams.tolist())
            if protocol == "wstate":
                _, ref = run_w(EffectiveModel(as_tuple[:1] + as_tuple, kappa), n, mode)
                assert report.details["solution"].lambda1 == ref.details["solution"].lambda1
            else:
                ref = run_cluster(EffectiveModel(as_tuple, kappa), n, mode)[1]
            assert (fid, p) == (ref.fidelity, ref.success_probability)
