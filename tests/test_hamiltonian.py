import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_entangler import (
    ArgumentError,
    EffectiveModel,
    RegimeWarning,
    ThreeLevelModel,
    build_effective,
    build_full_rotated,
    build_single_excitation,
    effective_coupling,
    kappa_from_quality,
)
from cavity_entangler.hamiltonian import decay_term, exchange_term, out_of_regime

from conftest import excitation_operator, number_operator, oracle_hamiltonian


class TestEffectiveModel:
    def test_fields_are_the_couplings_and_kappa(self):
        assert [f.name for f in dataclasses.fields(EffectiveModel)] == ["lambdas", "kappa"]

    def test_lambdas_are_an_owned_read_only_array(self):
        lams = np.array([1.0, 2.0])
        m = EffectiveModel(lams, 0.1)
        lams[0] = 5.0
        assert m.lambdas.dtype == np.float64 and m.lambdas.tolist() == [1.0, 2.0]
        assert not m.lambdas.flags.writeable
        with pytest.raises(ValueError):
            m.lambdas[0] = 5.0
        assert EffectiveModel((1, 2), 0.1).lambdas.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("lams", [(), [[1.0, 2.0]], 1.0])
    def test_empty_or_non_vector_couplings_rejected(self, lams):
        with pytest.raises(ArgumentError):
            EffectiveModel(lams, 0.0)

    def test_out_of_regime_flagged_not_rejected(self):
        with pytest.warns(RegimeWarning):
            m = EffectiveModel((1.0,), 0.5)
        assert out_of_regime(m.kappa, min(m.lambdas))

    def test_regime_edge_built_by_multiplication_is_inside(self, rng):
        lams = rng.uniform(0.1, 1e9, 1000)
        assert any(0.1 * lam / lam > 0.1 for lam in lams)   # the quotient rounds up
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            for lam in lams:
                EffectiveModel((lam, 2 * lam), 0.1 * lam)
                assert not out_of_regime(0.1 * lam, lam)
        for lam in lams[:20]:
            kappa = float(np.nextafter(0.1 * lam, np.inf))
            with pytest.warns(RegimeWarning):
                EffectiveModel((lam,), kappa)
            assert out_of_regime(kappa, lam)

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(ArgumentError):
            EffectiveModel((0.0,), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ArgumentError):
            EffectiveModel((1.0, 1.0), bad)
        with pytest.raises(ArgumentError):
            EffectiveModel((1.0, bad), 0.01)


class TestBuildSingleExcitation:
    @staticmethod
    def single_excitation_indices(n):
        # |1_j>|0>_c for j = 1..n, then |0...0>|1>_c; cavity innermost
        return [(1 << (n - j)) * 2 for j in range(1, n + 1)] + [1]

    def test_equals_dense_restriction_exactly(self, rng):
        for n in range(1, 7):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            kappa = float(rng.uniform(0.0, 0.1)) * min(lams)
            model = EffectiveModel(lams, kappa)
            idx = self.single_excitation_indices(n)
            dense = build_effective(model, n, 2).matrix[np.ix_(idx, idx)]
            block = build_single_excitation(model, n)
            assert np.array_equal(block.matrix, dense)
            # coupled subsets, as the cluster steps use them: the terms summed
            # over the subset are the hand-built Hamiltonian of that subset
            for active in ({1}, set(range(2, n + 1))):
                h = sum((lams[j - 1] * exchange_term(n, j) for j in active), decay_term(n, kappa))
                assert np.array_equal(h, oracle_hamiltonian(lams, kappa, active))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            build_single_excitation(EffectiveModel((1.0, 1.0), 0.0), 3)


class TestBuildEffective:
    def test_single_qubit_no_decay_matrix(self):
        h = build_effective(EffectiveModel((1.0,), 0.0), 1, 2).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0   # (bit=0,n=1) <-> (bit=1,n=0)
        assert np.array_equal(h, expected)

    def test_decay_adds_imaginary_diagonal(self):
        h = build_effective(EffectiveModel((1.0,), 0.1), 1, 2).matrix
        assert h[1, 1] == pytest.approx(-0.05j)
        assert h[3, 3] == pytest.approx(-0.05j)
        assert h[0, 0] == 0 and h[2, 2] == 0

    def test_matches_independent_construction(self, rng):
        lams = tuple(rng.uniform(0.5, 2.0, 3))
        h = build_effective(EffectiveModel(lams, 0.07), 3, 2).matrix
        assert np.allclose(h, oracle_hamiltonian(lams, 0.07, {1, 2, 3}), atol=1e-15)

    def test_commutes_with_excitation_number(self, rng):
        for _ in range(5):
            lams = tuple(rng.uniform(0.5, 2.0, 3))
            kappa = float(rng.uniform(0, 0.1)) * min(lams)
            h = build_effective(EffectiveModel(lams, kappa), 3, 3).matrix
            n_exc = excitation_operator(3, 3)
            comm = h @ n_exc - n_exc @ h
            assert np.max(np.abs(comm)) < 1e-14

    def test_hermitian_iff_no_decay(self):
        h0 = build_effective(EffectiveModel((1.0, 1.0), 0.0), 2, 2)
        assert np.max(np.abs(h0.matrix - h0.matrix.conj().T)) == 0
        h1 = build_effective(EffectiveModel((1.0, 1.0), 0.1), 2, 2)
        anti = (h1.matrix - h1.matrix.conj().T) / 2
        assert np.allclose(anti, -0.05j * number_operator(2, 2), atol=1e-15)

    def test_empty_active_set_is_pure_decay(self):
        h = decay_term(1, 0.2, 2)
        assert np.count_nonzero(h) == 2
        assert h[1, 1] == pytest.approx(-0.1j)
        assert np.array_equal(h, oracle_hamiltonian((1.0,), 0.2, set()))

    def test_step_term_outside_the_register_rejected(self):
        for j in (0, 3):
            with pytest.raises(ArgumentError):
                exchange_term(2, j)

    def test_small_cutoff_rejected(self):
        with pytest.raises(ArgumentError):
            build_effective(EffectiveModel((1.0,), 0.0), 1, 1)


class TestThreeLevelModel:
    def test_regime_enforced(self):
        with pytest.raises(ArgumentError):
            ThreeLevelModel((1.0,), (1.0,), (2.0,))   # ratio 0.5 > 0.2

    def test_strict_false_allows_out_of_regime(self):
        with pytest.warns(RegimeWarning):
            m = ThreeLevelModel((1.0,), (1.0,), (2.0,), strict=False)
        assert m.adiabatic_ratio == pytest.approx(0.5)

    def test_warning_zone(self):
        with pytest.warns(RegimeWarning):
            ThreeLevelModel((0.15,), (0.1,), (1.0,))


class TestBuildFullRotated:
    def test_drive_free_model_is_diagonal_detuning(self):
        m = ThreeLevelModel((0.0,), (0.0,), (10.0,))
        h = build_full_rotated(m, 1, 2).matrix
        expected = np.zeros((6, 6), dtype=complex)
        expected[4, 4] = expected[5, 5] = 10.0   # level |2> sector
        assert np.array_equal(h, expected)

    def test_hermitian(self, rng):
        m = ThreeLevelModel((0.1, 0.2), (0.15, 0.1), (2.0, 3.0))
        h = build_full_rotated(m, 2, 2).matrix
        assert np.max(np.abs(h - h.conj().T)) == 0

    def test_second_order_coupling_from_eigensystem(self):
        # far-detuned level |2| mediates an exchange at g*omega/delta; the
        # bright/dark splitting of the single-excitation block measures it
        g = omega = 0.1
        delta = 10.0
        h = build_full_rotated(ThreeLevelModel((g,), (omega,), (delta,)), 1, 2).matrix
        # single-excitation sector: |1,0>, |2,0>, |0,1> -> flat indices 2, 4, 1
        sector = h[np.ix_([2, 4, 1], [2, 4, 1])]
        evals = sorted(np.linalg.eigvalsh(sector).tolist(), key=abs)
        coupling = abs(evals[0] - evals[1]) / 2
        assert coupling == pytest.approx(g * omega / delta, rel=1e-3)

    def test_three_qubits_rejected(self):
        m = ThreeLevelModel((0.1,) * 3, (0.1,) * 3, (2.0,) * 3)
        with pytest.raises(ArgumentError):
            build_full_rotated(m, 3, 2)


class TestUnitHelpers:
    def test_feasibility_coupling(self):
        lam = effective_coupling(1.8e8, 8.5e7, 1.5e9)
        assert lam == pytest.approx(1.02e7, rel=1e-12)

    def test_coupling_edge_cases(self):
        assert effective_coupling(0.0, 1.0, 1.0) == 0.0
        assert effective_coupling(1.0, 1.0, 1.0) == 1.0
        with pytest.raises(ArgumentError):
            effective_coupling(1.0, 1.0, 0.0)

    def test_quality_factor_conversion(self):
        kappa = kappa_from_quality(1e7, 4e10)
        assert kappa == pytest.approx(2.513e4, rel=1e-3)
        assert 1.0 / kappa == pytest.approx(3.98e-5, rel=1e-2)

    def test_high_quality_limit(self):
        assert kappa_from_quality(1e12, 4e10) < 1.0

    def test_unit_quality(self):
        assert kappa_from_quality(2 * np.pi, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("q, nu_c", [(math.nan, 4e10), (math.inf, 4e10),
                                         (1e7, math.nan), (1e7, math.inf)])
    def test_non_finite_quality_rejected(self, q, nu_c):
        with pytest.raises(ArgumentError):
            kappa_from_quality(q, nu_c)

    @pytest.mark.parametrize("g, omega, delta", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                                 (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)])
    def test_non_finite_coupling_inputs_rejected(self, g, omega, delta):
        with pytest.raises(ArgumentError):
            effective_coupling(g, omega, delta)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scaling_degrees(self, g, omega, delta, c):
        # coupling is degree-1 homogeneous in rad/s; kappa scales inversely with Q
        assert effective_coupling(c * g, c * omega, c * delta) == pytest.approx(
            c * effective_coupling(g, omega, delta), rel=1e-12
        )
        assert kappa_from_quality(c * g, omega) == pytest.approx(
            kappa_from_quality(g, omega) / c, rel=1e-12
        )
