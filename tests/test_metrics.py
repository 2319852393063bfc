import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_entangler import (
    ArgumentError,
    EffectiveModel,
    SingleExcitation,
    StateVector,
    cluster_analytic,
    fidelity,
    ideal_cluster,
    inner,
    make_basis_state,
    run_cluster,
)

from conftest import stabilizer_expectation


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(amps, n, 1)


class TestFidelity:
    def test_self_fidelity(self, rng):
        for _ in range(5):
            s = random_state(rng, 3)
            assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = make_basis_state([0], 0, 1)
        b = make_basis_state([1], 0, 1)
        assert fidelity(a, b) == 0.0

    def test_single_excitation_registers_match_their_dense_forms(self, rng):
        for m in (1, 2, 7):
            a, b = (SingleExcitation(rng.normal(size=m) + 1j * rng.normal(size=m))
                    for _ in range(2))
            assert fidelity(a, b) == pytest.approx(fidelity(a.to_dense(), b.to_dense()), abs=1e-15)

    def test_mixed_register_types_rejected(self):
        reg = SingleExcitation(np.array([1.0, 1.0]))
        with pytest.raises(ArgumentError):
            fidelity(reg, reg.to_dense())

    def test_protocol_output_vs_target(self):
        model = EffectiveModel((1.0,) * 3, 0.0)
        state, _ = cluster_analytic(model, 3)
        assert fidelity(state, ideal_cluster(3)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_invariance_and_symmetry(self, rng):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        base = fidelity(a, b)
        assert fidelity(b, a) == pytest.approx(base, abs=1e-12)
        scaled = StateVector(a.amplitudes * (0.3 - 1.7j), 2, 1)
        assert fidelity(scaled, b) == pytest.approx(base, abs=1e-12)

    def test_zero_norm_rejected(self):
        zero = StateVector(np.zeros(2, complex), 1, 1)
        with pytest.raises(ArgumentError):
            fidelity(zero, make_basis_state([0], 0, 1))

    def test_raw_convention_folds_in_norm(self, rng):
        # the CLI's raw convention F * P is the unnormalized overlap |<b|a>|^2 / |b|^2
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        assert abs(inner(b, a)) ** 2 / b.norm_sq() == pytest.approx(
            fidelity(a, b) * a.norm_sq(), rel=1e-12
        )


class TestSuccessProbability:
    def test_no_decay_run(self):
        state, _ = cluster_analytic(EffectiveModel((1.0, 1.0), 0.0), 2)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_decay_shrinks_norm(self):
        state, report = cluster_analytic(EffectiveModel((1.0, 1.0), 0.04), 2)
        p = state.norm_sq()
        assert 0.0 < p < 1.0
        assert p == pytest.approx(float(np.vdot(state.amplitudes, state.amplitudes).real))
        assert p == pytest.approx(report.success_probability, abs=1e-15)


class TestStabilizers:
    def test_ideal_cluster_is_stabilized_at_every_site(self):
        for n in range(2, 7):
            state = ideal_cluster(n)
            for a in range(1, n + 1):
                assert abs(stabilizer_expectation(state, a)) == pytest.approx(1.0, abs=1e-12)

    def test_sign_pattern_small_registers(self):
        # frozen from brute-force operator application: with the
        # |1><1| - |0><0| sign convention every site reads -1 except site N
        expected = {
            2: [-1, 1],
            3: [-1, -1, 1],
            4: [-1, -1, -1, 1],
        }
        for n, signs in expected.items():
            state = ideal_cluster(n)
            got = [stabilizer_expectation(state, a) for a in range(1, n + 1)]
            assert got == pytest.approx(signs, abs=1e-12)

    def test_product_state_interior_site_vanishes(self):
        state = make_basis_state([0, 0, 0], 0, 1)
        assert stabilizer_expectation(state, 2) == pytest.approx(0.0, abs=1e-12)

    def test_degrades_monotonically_with_decay(self):
        values = []
        for ratio in np.linspace(0.0, 0.1, 6):
            state, _ = run_cluster(EffectiveModel((1.0,) * 3, ratio), 3, "analytic")
            worst = min(abs(stabilizer_expectation(state, a)) for a in (1, 2, 3))
            values.append(worst)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_infinity=False, allow_nan=False)
)
def test_fidelity_invariant_under_rescaling(z):
    rng = np.random.default_rng(7)
    a = random_state(rng, 2)
    b = random_state(rng, 2)
    scaled = StateVector(a.amplitudes * z, 2, 1)
    assert fidelity(scaled, b) == pytest.approx(fidelity(a, b), rel=1e-9)
