import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_entangler import (
    ArgumentError,
    CapacityError,
    EffectiveModel,
    RegimeError,
    SectorError,
    StateVector,
    cluster_analytic,
    cluster_fidelity_recursive,
    cluster_schedule,
    ideal_cluster,
    make_basis_state,
    single_step_map,
    step_params,
    superpose,
    w_amplitudes,
    w_solve_lambda1,
    w_target,
)
from cavity_entangler import analytic
from cavity_entangler.analytic import DRAIN, LOAD, _branch_coefficients

from conftest import (
    ideal_cluster_vector,
    oracle_cluster_protocol,
    oracle_evolve,
    oracle_hamiltonian,
)


class TestStepParams:
    def test_no_decay_limit(self):
        p = step_params(1.0, 0.0)
        assert p.exchange_rate == 1.0
        assert p.duration == pytest.approx(math.pi / 2)
        assert p.swap_amp == 1.0
        assert p.double_amp == 1.0

    def test_frozen_values_at_tenth_ratio(self):
        # frozen from the 2x2 eigendecomposition: G = sqrt(1 - 0.01/16),
        # t = [pi - atan(4G/kappa)]/G, swap = exp(-kappa t/4) exactly at the root
        p = step_params(1.0, 0.1)
        assert p.exchange_rate == pytest.approx(0.9996874511566103, rel=1e-14)
        assert p.duration == pytest.approx(1.5962978527418374, rel=1e-14)
        assert p.swap_amp == pytest.approx(0.9608783678672953, rel=1e-13)
        assert p.swap_amp == pytest.approx(math.exp(-0.1 * p.duration / 4), rel=1e-13)
        assert p.double_amp == pytest.approx(0.9232872378353175, rel=1e-13)

    @pytest.mark.parametrize("lam, kappa", [(float("nan"), 0.0), (1.0, float("nan")),
                                            (float("inf"), 0.0), (1.0, float("inf"))])
    def test_non_finite_inputs_rejected(self, lam, kappa):
        with pytest.raises(ArgumentError):
            step_params(lam, kappa)

    def test_load_root_kills_qubit_excited_stay(self, rng):
        for _ in range(50):
            lam = float(rng.uniform(0.3, 3.0))
            kappa = float(rng.uniform(0.0, 0.1)) * lam
            p = step_params(lam, kappa)
            stay_q, _, _, _ = _branch_coefficients(lam, kappa, p.duration)
            assert abs(stay_q) < 1e-12

    def test_drain_root_kills_cavity_excited_stay(self, rng):
        for _ in range(50):
            lam = float(rng.uniform(0.3, 3.0))
            kappa = float(rng.uniform(1e-6, 0.1)) * lam
            p = step_params(lam, kappa, DRAIN)
            _, stay_c, _, _ = _branch_coefficients(lam, kappa, p.duration)
            assert abs(stay_c) < 1e-12
            assert p.duration < step_params(lam, kappa, LOAD).duration

    def test_tiny_decay_continuous_with_zero(self):
        p0 = step_params(1.0, 0.0)
        p1 = step_params(1.0, 1e-12)
        assert p1.duration == pytest.approx(p0.duration, rel=1e-10)

    def test_overdamped_rejected(self):
        with pytest.raises(RegimeError):
            step_params(1.0, 4.0)


class TestSingleStepMap:
    def test_dark_component_unchanged(self):
        p = step_params(1.0, 0.05)
        psi = make_basis_state([0], 0, 2)
        out = single_step_map(psi, 1, p, 0.37)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_full_transfer_at_no_decay(self):
        p = step_params(1.0, 0.0)
        psi = make_basis_state([0], 1, 2)          # photon present, qubit ground
        out = single_step_map(psi, 1, p, p.duration)
        assert out.amplitude([1], 0) == pytest.approx(-1j, abs=1e-12)
        assert abs(out.amplitude([0], 1)) < 1e-12

    def test_matches_propagator_on_random_input(self, rng):
        lam, ratio = 1.0, 0.08
        kappa = ratio * lam
        p = step_params(lam, kappa)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = StateVector(amps / np.linalg.norm(amps), 2, 2)
        duration = 0.7 / lam
        out = single_step_map(psi, 2, p, duration)
        h = oracle_hamiltonian((0.0, lam), kappa, {2})
        expected = oracle_evolve(h, psi.amplitudes, duration)
        assert np.linalg.norm(out.amplitudes - expected) < 1e-8

    def test_acts_only_on_target_qubit(self, rng):
        p = step_params(1.0, 0.0)
        psi = make_basis_state([1, 1], 0, 2)
        out = single_step_map(psi, 2, p, p.duration)
        # qubit 1 untouched: amplitude stays in the bit1=1 sector
        grid = out.amplitudes.reshape(2, 2, 2)
        assert np.linalg.norm(grid[0]) < 1e-12

    def test_photon_two_weight_rejected(self):
        p = step_params(1.0, 0.0)
        psi = make_basis_state([0], 2, 3)
        with pytest.raises(SectorError):
            single_step_map(psi, 1, p, 0.1)


class TestClusterSchedule:
    def test_equal_couplings_no_decay(self):
        sched = cluster_schedule(EffectiveModel((1.0, 1.0), 0.0), 2)
        assert sched.steps == ((1, 1.0, math.pi / 2), (2, 1.0, math.pi / 2))

    def test_durations_scale_inversely_with_coupling(self):
        sched = cluster_schedule(EffectiveModel((1.0, 2.0, 1.0), 0.0), 3)
        durations = [t for _, _, t in sched.steps]
        assert durations == pytest.approx([math.pi / 2, math.pi / 4, math.pi / 2])

    def test_each_step_satisfies_its_transfer_condition(self):
        model = EffectiveModel((1.0,) * 4, 0.05)
        sched = cluster_schedule(model, 4)
        for j, lam, duration in sched.steps:
            stay_q, stay_c, _, _ = _branch_coefficients(lam, 0.05, duration)
            if j < 4:
                assert abs(stay_q) < 1e-12     # loading steps park the qubit branch
            else:
                assert abs(stay_c) < 1e-12     # the last step drains the photon
        # loading steps share one duration; the drain root is shorter
        durations = [t for _, _, t in sched.steps]
        assert durations[0] == durations[1] == durations[2]
        assert durations[3] < durations[0]


class TestIdealCluster:
    def test_single_qubit_is_plus(self):
        s = ideal_cluster(1)
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_two_qubit_sign_pattern(self):
        # hand expansion: (|00> - |01> + |10> + |11>)/2
        s = ideal_cluster(2)
        assert np.allclose(s.amplitudes * 2, [1, -1, 1, 1])

    def test_three_qubit_sign_pattern(self):
        # hand expansion under sigma_z = |1><1| - |0><0|
        s = ideal_cluster(3)
        expected = np.array([1, -1, -1, -1, 1, -1, 1, 1]) / 2**1.5
        assert np.allclose(s.amplitudes, expected)

    def test_matches_independent_expansion(self):
        for n in range(1, 7):
            assert np.allclose(ideal_cluster(n).amplitudes, ideal_cluster_vector(n))

    def test_unit_norm_and_range(self):
        assert ideal_cluster(5).norm_sq() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ArgumentError):
            ideal_cluster(0)
        with pytest.raises(ArgumentError):
            ideal_cluster(25)


class TestClusterAnalytic:
    def test_no_decay_reduces_to_ideal(self):
        for n in (2, 3, 6, 10):
            model = EffectiveModel((1.0,) * n, 0.0)
            state, report = cluster_analytic(model, n)
            assert np.allclose(state.amplitudes, ideal_cluster(n).amplitudes, atol=1e-12)
            assert report.fidelity == pytest.approx(1.0, abs=1e-12)
            assert report.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_propagator_run(self, rng):
        for n in (2, 3, 4):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = 0.08 * min(lams)
            state, _ = cluster_analytic(EffectiveModel(lams, kappa), n)
            joint = oracle_cluster_protocol(lams, kappa)
            register = joint.reshape(-1, 2)[:, 0]      # cavity factor |0>_c
            cavity_residual = np.linalg.norm(joint.reshape(-1, 2)[:, 1])
            assert cavity_residual < 1e-12
            assert np.linalg.norm(state.amplitudes - register) < 1e-8

    def test_norm_strictly_decreasing_in_decay(self):
        norms = []
        for ratio in np.linspace(0.01, 0.1, 10):
            model = EffectiveModel((1.0, 1.0), ratio)
            state, _ = cluster_analytic(model, 2)
            norms.append(state.norm_sq())
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert all(v < 1.0 for v in norms)

    def test_per_step_norms_non_increasing(self):
        model = EffectiveModel((1.0,) * 4, 0.09)
        _, report = cluster_analytic(model, 4)
        values = [v for _, v in report.per_step]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_capacity_error_beyond_dense_limit(self):
        model = EffectiveModel((1.0,) * 25, 0.0)
        with pytest.raises(CapacityError):
            cluster_analytic(model, 25)


class TestClusterFidelityRecursive:
    def test_no_decay_is_perfect(self):
        for n in (2, 5, 30, 64):
            f, p = cluster_fidelity_recursive(EffectiveModel((1.0,) * n, 0.0), n)
            assert f == pytest.approx(1.0, abs=1e-12)
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_path(self, rng):
        from cavity_entangler import fidelity, ideal_cluster as ideal
        for _ in range(10):
            n = int(rng.integers(2, 11))
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = float(rng.uniform(0.0, 0.1)) * min(lams)
            model = EffectiveModel(lams, kappa)
            state, report = cluster_analytic(model, n)
            f, p = cluster_fidelity_recursive(model, n)
            assert f == pytest.approx(report.fidelity, abs=1e-10)
            assert p == pytest.approx(report.success_probability, abs=1e-10)

    def test_large_register_runtime(self):
        import time
        model = EffectiveModel((1.0,) * 64, 0.05)
        cluster_fidelity_recursive(model, 64)          # warm up
        best = min(
            _timed(lambda: cluster_fidelity_recursive(model, 64)) for _ in range(10)
        )
        assert best < 1e-3

    def test_thousands_of_qubits_stay_finite(self):
        # the power-of-two rescaling keeps the scalars bounded far beyond the
        # range where the raw recursion would overflow
        model = EffectiveModel((1.0,) * 2048, 0.01)
        f, p = cluster_fidelity_recursive(model, 2048)
        assert 0.0 < f <= 1.0
        assert 0.0 <= p < 1.0
        assert np.isfinite(f) and np.isfinite(p)

    def test_monotone_in_decay_and_size(self):
        ratios = np.linspace(0.0, 0.1, 6)
        table = {
            n: [cluster_fidelity_recursive(EffectiveModel((1.0,) * n, r), n)
                for r in ratios]
            for n in (2, 3, 4)
        }
        for n, rows in table.items():
            fs = [f for f, _ in rows]
            ps = [p for _, p in rows]
            assert all(a >= b for a, b in zip(fs, fs[1:]))
            assert all(a >= b for a, b in zip(ps, ps[1:]))
        for i in range(len(ratios)):
            assert table[2][i][0] >= table[3][i][0] >= table[4][i][0]

    @pytest.mark.parametrize("n", list(range(2, 65)) + [1000, 4800, 20000])
    def test_matches_sequential_reference(self, rng, n):
        tiny = np.finfo(float).tiny
        for lams in ((1.3,) * n, tuple(rng.uniform(0.5, 2.0, n))):
            for ratio in (0.0, float(rng.uniform(0.0, 0.1)), 0.0999):
                kappa = ratio * min(lams)
                f, p = cluster_fidelity_recursive(EffectiveModel(lams, kappa), n)
                f_ref, p_ref = sequential_recursion(lams, kappa)
                assert f_ref >= tiny
                assert f == pytest.approx(f_ref, rel=1e-11, abs=0.0)
                if p_ref >= tiny:
                    assert p == pytest.approx(p_ref, rel=1e-11, abs=0.0)

    def test_no_underflow_at_twenty_thousand_qubits(self):
        # F is 2.62338579342156e-11 in a 120-bit evaluation of the recursion;
        # P is about 9e-678, below the double range, so 0.0 is correctly rounded
        n = 20000
        f, p = cluster_fidelity_recursive(EffectiveModel((1.0,) * n, 0.1), n)
        assert f == pytest.approx(2.62338579342156e-11, rel=1e-11, abs=0.0)
        assert p == 0.0

    def test_no_decay_is_exact_at_twenty_thousand_qubits(self):
        n = 20000
        f, p = cluster_fidelity_recursive(EffectiveModel((0.7,) * n, 0.0), n)
        assert f == 1.0 and p == 1.0

    def test_one_step_params_call_per_distinct_coupling(self, monkeypatch):
        calls = []

        def counting(lam, kappa, role=LOAD):
            calls.append(role)
            return step_params(lam, kappa, role)

        monkeypatch.setattr(analytic, "step_params", counting)
        n = 20000
        cluster_fidelity_recursive(EffectiveModel((1.0,) * n, 0.05), n)
        assert sorted(calls) == [DRAIN, LOAD]

    def test_cluster_analytic_bit_identical_to_per_step_coefficients(self, rng, monkeypatch):
        models = []
        for n in range(2, 17):
            lams = tuple(rng.choice([0.8, 1.0, 1.7], n))     # repeats exercise the dedupe
            models.append((EffectiveModel(lams, float(rng.uniform(0.0, 0.1)) * 0.8), n))
        batched = [cluster_analytic(model, n) for model, n in models]

        def per_step(model, n):
            rows = []
            for lam in model.lambdas[: n - 1]:
                p = step_params(lam, model.kappa, LOAD)
                rows.append((p.swap_amp, p.double_amp, model.kappa * p.swap_amp / (2.0 * lam)))
            drain = step_params(model.lambdas[n - 1], model.kappa, DRAIN)
            return np.array(rows), np.arange(n - 1), drain.swap_amp

        monkeypatch.setattr(analytic, "_step_coefficients", per_step)
        for (model, n), (state, report) in zip(models, batched):
            ref_state, ref_report = cluster_analytic(model, n)
            assert np.array_equal(state.amplitudes, ref_state.amplitudes)
            assert report.fidelity == ref_report.fidelity
            assert report.success_probability == ref_report.success_probability
            assert report.per_step == ref_report.per_step


def sequential_recursion(lams, kappa):
    """(F, P) from the six-scalar loop, one step at a time, each scalar family
    rescaled by an exact power of two after every step."""
    s = u = p = q = g = gt = 1.0
    e_su = e_pq = 0
    for lam in lams[:-1]:
        step = step_params(lam, kappa, LOAD)
        a, b = step.swap_amp, step.double_amp
        d = kappa * a / (2.0 * lam)
        s, u, gt = (s + a * u) / 2.0, (a * s + b * u + d * gt) / 2.0, (-a * s + b * u - d * gt) / 2.0
        p, q, g = (
            (p + a * a * q) / 2.0,
            (a * a * p + (b * b + d * d) * q + 2.0 * a * d * g) / 2.0,
            (-a * p + a * b * q - d * g) / 2.0,
        )
        _, k = math.frexp(max(abs(s), abs(u), abs(gt)))
        s, u, gt, e_su = math.ldexp(s, -k), math.ldexp(u, -k), math.ldexp(gt, -k), e_su + k
        _, k = math.frexp(max(abs(p), abs(q), abs(g)))
        p, q, g, e_pq = math.ldexp(p, -k), math.ldexp(q, -k), math.ldexp(g, -k), e_pq + k
    drain = step_params(lams[-1], kappa, DRAIN).swap_amp
    num = s + drain * u
    den = p + drain * drain * q
    return math.ldexp(0.5 * num * num / den, 2 * e_su - e_pq), math.ldexp(0.5 * den, e_pq)


def _timed(fn):
    import time
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestWSolve:
    def test_no_decay_closed_form(self):
        sol = w_solve_lambda1([1.0, 1.0, 1.0], 0.0)
        assert sol.lambda1 == pytest.approx(math.sqrt(3), rel=1e-14)
        assert sol.duration == pytest.approx(math.pi / math.sqrt(6), rel=1e-14)

    def test_fixed_point_residual(self):
        sol = w_solve_lambda1([1.0, 1.0, 1.0], 0.1)
        assert sol.lambda1 > math.sqrt(3)
        assert sol.residual < 1e-12

    def test_first_coupling_dominates(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            rest = rng.uniform(0.3, 2.0, m)
            kappa = float(rng.uniform(0.0, 0.1)) * min(rest)
            sol = w_solve_lambda1(rest, kappa)
            assert sol.lambda1 >= math.sqrt(sol.rest_coupling_sq) - 1e-14
            assert sol.residual < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ArgumentError):
            w_solve_lambda1([], 0.0)
        with pytest.raises(ArgumentError):
            w_solve_lambda1([1.0, -1.0], 0.0)


class TestWAmplitudes:
    def test_initial_condition(self):
        model = EffectiveModel((1.0, 1.0, 1.0), 0.05)
        amps = w_amplitudes(model, 0.0)
        assert amps[0] == pytest.approx(1.0)
        assert np.allclose(amps[1:], 0.0)

    def test_no_decay_half_collective_period(self):
        # at t = 4 pi / B the oscillatory factor hits -1, so the bright
        # component is reflected: c1 = 1 - 2 lam1^2/A^2, ck = -2 lam1 lamk/A^2
        lams = (1.0, 1.0, 1.0, 1.0)
        model = EffectiveModel(lams, 0.0)
        a_sq = 4.0
        b = math.sqrt(16 * a_sq)
        amps = w_amplitudes(model, 4 * math.pi / b)
        assert amps[0] == pytest.approx(1 - 2 / a_sq, abs=1e-12)
        for c in amps[1:-1]:
            assert c == pytest.approx(-2 / a_sq, abs=1e-12)
        assert abs(amps[-1]) < 1e-12

    def test_matches_propagator_in_single_excitation_sector(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = float(rng.uniform(0.0, 0.1)) * min(lams)
            model = EffectiveModel(lams, kappa)
            t = float(rng.uniform(0.1, 2.0)) / max(lams)
            predicted = w_amplitudes(model, t)
            h = oracle_hamiltonian(lams, kappa, set(range(1, n + 1)))
            vec = np.zeros((1 << n) * 2, dtype=complex)
            vec[(1 << (n - 1)) * 2] = 1.0
            out = oracle_evolve(h, vec, t)
            actual = np.empty(n + 1, dtype=complex)
            for j in range(1, n + 1):
                actual[j - 1] = out[(1 << (n - j)) * 2]
            actual[-1] = out[1]
            assert np.max(np.abs(actual - predicted)) < 1e-8

    def test_overdamped_rejected(self):
        with pytest.warns(Warning):
            model = EffectiveModel((0.01,), 10.0, active={1})
        with pytest.raises(RegimeError):
            w_amplitudes(model, 1.0)


class TestWTarget:
    def test_equal_couplings_uniform(self):
        s = w_target([1.0, 1.0, 1.0], 0.0, 1.0)
        nonzero = s.amplitudes[s.amplitudes != 0]
        assert np.allclose(nonzero, 1 / math.sqrt(3))
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-14)

    def test_weighted_couplings(self):
        s = w_target([1.0, 2.0], 0.0, 1.0)
        assert s.amplitude([1, 0], 0) == pytest.approx(1 / math.sqrt(5))
        assert s.amplitude([0, 1], 0) == pytest.approx(2 / math.sqrt(5))

    def test_norm_is_survival_probability(self, rng):
        for _ in range(10):
            rest = rng.uniform(0.5, 2.0, 3)
            kappa = float(rng.uniform(0.0, 0.2))
            t = float(rng.uniform(0.1, 3.0))
            s = w_target(rest, kappa, t)
            assert s.norm_sq() == pytest.approx(math.exp(-kappa * t / 4), rel=1e-12)


class TestWConditionCancellation:
    def test_first_qubit_and_cavity_empty_at_solution(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 6))
            rest = tuple(rng.uniform(0.5, 2.0, m))
            kappa = float(rng.uniform(0.0, 0.1)) * min(rest)
            sol = w_solve_lambda1(rest, kappa)
            model = EffectiveModel((sol.lambda1,) + rest, kappa)
            amps = w_amplitudes(model, sol.duration)
            assert abs(amps[0]) < 1e-10
            assert abs(amps[-1]) < 1e-12

    def test_remaining_state_matches_target_up_to_global_phase(self, rng):
        rest = (1.0, 1.3, 0.6)
        kappa = 0.05
        sol = w_solve_lambda1(rest, kappa)
        model = EffectiveModel((sol.lambda1,) + rest, kappa)
        amps = w_amplitudes(model, sol.duration)[1:-1]
        target = w_target(rest, kappa, sol.duration)
        target_amps = np.array(
            [target.amplitude([1 if k == j else 0 for k in range(3)], 0)
             for j in range(3)]
        )
        overlap = abs(np.vdot(target_amps, amps)) ** 2
        denom = np.vdot(amps, amps).real * np.vdot(target_amps, target_amps).real
        assert overlap / denom == pytest.approx(1.0, abs=1e-10)
        # the evolved amplitudes come out as the negative of the target
        assert np.allclose(amps, -target_amps, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.1),
)
def test_swap_amplitude_equals_decay_envelope_at_roots(lam, ratio):
    # at either stay root, sin(Gt) = G/lam exactly, so the swap amplitude
    # collapses to the decay envelope alone
    kappa = ratio * lam
    for role in (LOAD, DRAIN):
        p = step_params(lam, kappa, role)
        assert p.swap_amp == pytest.approx(
            math.exp(-kappa * p.duration / 4), rel=1e-12
        )
