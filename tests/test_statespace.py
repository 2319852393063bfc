import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_entangler import (
    ArgumentError,
    EffectiveModel,
    CapacityError,
    FactorizationError,
    SingleExcitation,
    StateVector,
    TruncationError,
    build_effective,
    factor_out_cavity,
    inner,
    make_basis_state,
)
from cavity_entangler.statespace import matrix_dump_lines, state_dump_lines

from conftest import superpose


def random_state(rng, n, cutoff=2):
    amps = rng.normal(size=(1 << n) * cutoff) + 1j * rng.normal(size=(1 << n) * cutoff)
    return StateVector(amps, n, cutoff)


class TestMakeBasisState:
    def test_single_qubit_vacuum(self):
        s = make_basis_state([0], photon=0, cutoff=2)
        assert s.norm_sq() == pytest.approx(1.0)
        assert s.amplitude([0], 0) == 1.0

    def test_two_qubit_with_photon(self):
        s = make_basis_state([1, 0], photon=1, cutoff=2)
        assert s.amplitude([1, 0], 1) == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_photon_at_cutoff_rejected(self):
        with pytest.raises(TruncationError):
            make_basis_state([0], photon=2, cutoff=2)

    def test_empty_bits_rejected(self):
        with pytest.raises(ArgumentError):
            make_basis_state([], photon=0, cutoff=2)

    def test_qubit_only_register_uses_cutoff_one(self):
        s = make_basis_state([0, 1], photon=0, cutoff=1)
        assert s.dim == 4


class TestSuperpose:
    def test_plus_state(self):
        k0 = make_basis_state([0], 0, 2)
        k1 = make_basis_state([1], 0, 2)
        plus = StateVector((k0.amplitudes + k1.amplitudes) / math.sqrt(2), 1, 2)
        assert plus.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_cavity_input_superposition(self):
        vac = make_basis_state([0], 0, 2)
        one = make_basis_state([0], 1, 2)
        cav = StateVector((vac.amplitudes + 1j * one.amplitudes) / math.sqrt(2), 1, 2)
        assert cav.amplitude([0], 1) == pytest.approx(1j / math.sqrt(2))
        assert cav.norm_sq() == pytest.approx(1.0)


class TestInner:
    def test_orthonormal_kets(self):
        k0 = make_basis_state([0], 0, 2)
        k1 = make_basis_state([1], 0, 2)
        assert inner(k0, k0) == pytest.approx(1.0)
        assert inner(k0, k1) == 0.0

    def test_plus_minus_orthogonal(self):
        k0 = make_basis_state([0], 0, 2)
        k1 = make_basis_state([1], 0, 2)
        plus = superpose([(1 / math.sqrt(2), k0), (1 / math.sqrt(2), k1)])
        minus = superpose([(1 / math.sqrt(2), k0), (-1 / math.sqrt(2), k1)])
        assert abs(inner(plus, minus)) < 1e-15

    def test_conjugate_linear_first_argument(self, rng):
        a = random_state(rng, 2)
        b = random_state(rng, 2)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_bilinearity_on_random_triples(self, rng):
        for _ in range(20):
            a, b, c = (random_state(rng, 2) for _ in range(3))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            lhs = inner(superpose([(alpha, a), (beta, b)]), c)
            rhs = np.conj(alpha) * inner(a, c) + np.conj(beta) * inner(b, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFactorOutCavity:
    def test_product_state(self):
        s = make_basis_state([0, 0], 0, 2)
        reg = factor_out_cavity(s, photon=0)
        assert reg.fock_cutoff == 1
        assert reg.amplitude([0, 0], 0) == 1.0

    def test_entangled_state_rejected(self):
        k = superpose([
            (1 / math.sqrt(2), make_basis_state([0], 0, 2)),
            (1 / math.sqrt(2), make_basis_state([1], 1, 2)),
        ])
        with pytest.raises(FactorizationError) as err:
            factor_out_cavity(k, photon=0)
        assert err.value.residual == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_roundtrip_against_retensoring(self, rng):
        reg_amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        full = np.kron(reg_amps, np.array([0.0, 1.0]))   # photon exactly 1
        s = StateVector(full, 2, 2)
        reg = factor_out_cavity(s, photon=1)
        rebuilt = np.kron(reg.amplitudes, np.array([0.0, 1.0]))
        assert np.allclose(rebuilt, s.amplitudes, atol=1e-12)


class TestImmutability:
    def test_amplitudes_not_writable(self):
        s = make_basis_state([0], 0, 2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5.0


class TestCapacity:
    def test_dense_register_capped(self):
        # the cap fires before shape validation, so no giant allocation needed
        with pytest.raises(CapacityError):
            StateVector(np.zeros(2, complex), 25, 1)


class TestSingleExcitation:
    def test_dense_form_places_qubit_one_on_the_top_bit(self, rng):
        for m in range(1, 9):
            amps = rng.normal(size=m) + 1j * rng.normal(size=m)
            dense = SingleExcitation(amps).to_dense()
            assert (dense.qubit_count, dense.fock_cutoff) == (m, 1)
            for k in range(m):
                bits = [int(j == k) for j in range(m)]
                assert dense.amplitude(bits) == amps[k]
            assert np.count_nonzero(dense.amplitudes) == m

    def test_queries_match_the_dense_form(self, rng):
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        reg = SingleExcitation(amps)
        dense = reg.to_dense()
        assert (reg.dim, reg.qubit_count) == (5, 5)
        assert reg.norm_sq() == pytest.approx(dense.norm_sq(), rel=1e-15)

    def test_inner_is_the_dense_inner_product(self, rng):
        a, b = (SingleExcitation(rng.normal(size=6) + 1j * rng.normal(size=6)) for _ in range(2))
        assert inner(a, b) == pytest.approx(inner(a.to_dense(), b.to_dense()), rel=1e-14)

    def test_mixed_or_mismatched_registers_rejected(self):
        reg = SingleExcitation(np.ones(2))
        with pytest.raises(ArgumentError, match="mixed"):
            inner(reg, reg.to_dense())
        with pytest.raises(ArgumentError, match="mixed"):
            inner(reg.to_dense(), reg)
        with pytest.raises(ArgumentError, match="mismatched"):
            inner(reg, SingleExcitation(np.ones(3)))

    def test_immutable_owned_copy(self):
        amps = np.ones(3, dtype=complex)
        reg = SingleExcitation(amps)
        amps[0] = 5.0
        assert reg.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            reg.amplitudes[0] = 5.0

    def test_no_dense_form_above_the_dense_cap(self):
        reg = SingleExcitation(np.ones(25))
        assert reg.norm_sq() == 25.0
        with pytest.raises(CapacityError):
            reg.to_dense()

    @pytest.mark.parametrize("amps", [[], [[1.0, 0.0]]])
    def test_shape_checked(self, amps):
        with pytest.raises(ArgumentError):
            SingleExcitation(np.array(amps))


class TestLabels:
    def test_roundtrip(self):
        # index = int(bits, base=2) * cutoff + photon, qubit 1 the top bit
        for idx in range(16):
            bits, photon = divmod(idx, 2)
            label = [int(b) for b in format(bits, "03b")]
            s = make_basis_state(label, photon, 2)
            assert np.flatnonzero(s.amplitudes).tolist() == [idx]
            assert s.amplitude(label, photon) == 1.0

    def test_invalid_bits(self):
        with pytest.raises(ArgumentError):
            make_basis_state((0, 2), 0, 2)
        with pytest.raises(ArgumentError):
            make_basis_state([0, 1], 0, 2).amplitude((0, 2), 0)


class TestDumpFormat:
    def test_lines_sorted_and_parseable(self):
        k0 = make_basis_state([0, 1], 0, 2)
        k1 = make_basis_state([1, 0], 1, 2)
        s = superpose([(0.5, k0), (0.5j, k1)])
        lines = state_dump_lines(s)
        assert lines == ["01 0 0.5 0", "10 1 0 0.5"]

    def test_state_dump_matches_per_label_loop(self, rng):
        def loop_lines(s):
            lines = []
            for idx in range(s.dim):
                amp = s.amplitudes[idx]
                if amp == 0:
                    continue
                bits, photon = divmod(idx, s.fock_cutoff)
                label = "".join(str((bits >> (s.qubit_count - 1 - j)) & 1)
                                for j in range(s.qubit_count))
                lines.append(f"{label} {photon} {amp.real:.17g} {amp.imag:.17g}")
            return lines

        for n, cutoff in ((1, 1), (3, 2), (4, 3)):
            amps = rng.normal(size=(1 << n) * cutoff) + 1j * rng.normal(size=(1 << n) * cutoff)
            amps[::3] = 0.0
            amps[1::5] = complex(-0.0, 0.5)   # signed zeros keep their sign
            amps[2::7] = complex(0.25, -0.0)
            s = StateVector(amps, n, cutoff)
            assert state_dump_lines(s) == loop_lines(s)
        assert any(" -0" in line for line in state_dump_lines(s))

    def test_seventeen_digit_amplitudes(self):
        s = StateVector(np.array([1 / 3, 0, 0, 0], complex), 1, 2)
        assert state_dump_lines(s) == ["0 0 0.33333333333333331 0"]

    def test_matrix_dump_matches_elementwise_loop(self):
        def loop_lines(m):
            lines = []
            for row in range(m.shape[0]):
                for col in range(m.shape[1]):
                    v = m[row, col]
                    if v == 0:
                        continue
                    lines.append(f"{row} {col} {v.real:.17g} {v.imag:.17g}")
            return lines

        h = build_effective(EffectiveModel((1.0 / 3.0, 0.7, 1.9), 0.03), 3, 2).matrix
        assert "\n".join(matrix_dump_lines(h)) == "\n".join(loop_lines(h))
        real = np.array([[0.0, -0.0, 2.5], [1 / 7, 0.0, 0.0]])
        assert matrix_dump_lines(real) == loop_lines(real) == ["0 2 2.5 0", "1 0 0.14285714285714285 0"]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=1))
def test_basis_states_are_orthonormal(idx, photon):
    bits = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
    s = make_basis_state(bits, photon, 2)
    assert s.norm_sq() == pytest.approx(1.0)
    assert s.amplitude(bits, photon) == 1.0
