import math
from fractions import Fraction

import numpy as np
import pytest

from cavity_entangler import (
    ArgumentError,
    EffectiveModel,
    OperatorMatrix,
    PropagatorOptions,
    build_effective,
    evolve,
    evolve_vector,
    make_basis_state,
)

from cavity_entangler import numeric
from cavity_entangler.hamiltonian import build_single_excitation

from conftest import number_operator

RK_OPTS = PropagatorOptions(method="adaptive-integrator")


def random_state(rng, n, cutoff=2):
    from cavity_entangler import StateVector
    amps = rng.normal(size=(1 << n) * cutoff) + 1j * rng.normal(size=(1 << n) * cutoff)
    return StateVector(amps / np.linalg.norm(amps), n, cutoff)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self, rng):
        h = OperatorMatrix(np.zeros((4, 4)))
        psi = random_state(rng, 1)
        out = evolve(h, psi, 3.7)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_full_rabi_transfer(self):
        # resonant exchange swaps the excitation with a -i phase after a
        # quarter period
        h = build_effective(EffectiveModel((1.0,), 0.0), 1, 2)
        psi = make_basis_state([1], 0, 2)
        out = evolve(h, psi, math.pi / 2)
        assert out.amplitude([0], 1) == pytest.approx(-1j, abs=1e-10)
        assert abs(out.amplitude([1], 0)) < 1e-10

    def test_matches_closed_form_with_decay(self):
        # frozen from the 2x2 eigendecomposition (eigenvalues -i kappa/4 +- G)
        lam, kappa, t = 1.0, 0.1, 1.0
        g = math.sqrt(lam**2 - kappa**2 / 16)
        e = math.exp(-kappa * t / 4)
        h = build_effective(EffectiveModel((lam,), kappa), 1, 2)
        out = evolve(h, make_basis_state([1], 0, 2), t)
        stay = e * (math.cos(g * t) + (kappa / (4 * g)) * math.sin(g * t))
        hop = -1j * e * (lam / g) * math.sin(g * t)
        assert out.amplitude([1], 0) == pytest.approx(stay, abs=1e-8)
        assert out.amplitude([0], 1) == pytest.approx(hop, abs=1e-8)
        # the photon-carrying branch decays faster: cos - (kappa/4G) sin
        out2 = evolve(h, make_basis_state([0], 1, 2), t)
        stay_c = e * (math.cos(g * t) - (kappa / (4 * g)) * math.sin(g * t))
        assert out2.amplitude([0], 1) == pytest.approx(stay_c, abs=1e-8)

    def test_norm_never_grows_with_decay(self, rng):
        h = build_effective(EffectiveModel((1.0, 1.5), 0.1), 2, 2)
        psi = random_state(rng, 2)
        out = evolve(h, psi, 2.0)
        assert out.norm_sq() <= psi.norm_sq() + 1e-12

    def test_negative_time_rejected(self):
        h = OperatorMatrix(np.zeros((4, 4)))
        with pytest.raises(ArgumentError):
            evolve(h, make_basis_state([0], 0, 2), -1.0)

    def test_dimension_mismatch(self):
        h = OperatorMatrix(np.zeros((8, 8)))
        with pytest.raises(ArgumentError):
            evolve(h, make_basis_state([0], 0, 2), 1.0)

    def test_non_finite_hamiltonian_rejected(self):
        from cavity_entangler import NumericError
        bad = np.zeros((4, 4))
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            evolve(OperatorMatrix(bad), make_basis_state([0], 0, 2), 1.0)


class TestBlockEvolution:
    @pytest.mark.parametrize("opts, tol", [(PropagatorOptions(), 1e-14), (RK_OPTS, 1e-9)])
    def test_block_matches_per_column(self, rng, opts, tol):
        h = build_effective(EffectiveModel((1.3, 0.8), 0.07), 2, 2).matrix
        block = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        out = evolve_vector(h, block, 1.7, opts)
        for k in range(block.shape[1]):
            column = evolve_vector(h, block[:, k], 1.7, opts)
            assert np.max(np.abs(out[:, k] - column)) <= tol


F = Fraction
# the Dormand-Prince 5(4) tableau
DP_A = [
    [],
    [F(1, 5)],
    [F(3, 40), F(9, 40)],
    [F(44, 45), F(-56, 15), F(32, 9)],
    [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
    [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
    [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)],
]
DP_B5 = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84), F(0)]
DP_B4 = [F(5179, 57600), F(0), F(7571, 16695), F(393, 640), F(-92097, 339200),
         F(187, 2100), F(1, 40)]


def stability_polynomial(b):
    """Coefficients of z^0..z^7 of y + h sum_i b_i k_i for y' = M y, z = hM."""
    stages = []                       # stage i input as a polynomial in z times y
    for row in DP_A:
        poly = [F(1)] + [F(0)] * 7
        for a, prev in zip(row, stages):
            for k in range(7):
                poly[k + 1] += a * prev[k]
        stages.append(poly)
    out = [F(1)] + [F(0)] * 7
    for b_i, poly in zip(b, stages):
        for k in range(7):
            out[k + 1] += b_i * poly[k]
    return out


def stage_form_dopri5(h, y0, t_end):
    """The integrator written stage by stage, with the same step control."""
    a = [[float(x) for x in row] for row in DP_A]
    b5, b4 = [float(x) for x in DP_B5], [float(x) for x in DP_B4]
    m = -1j * h
    rtol, atol = numeric.TOL, numeric.TOL * 1e-3 * max(np.linalg.norm(y0), 1.0)
    scale0 = np.linalg.norm(m, 1)
    step = min(t_end, 0.1 / scale0) if scale0 > 0 else t_end
    t, y = 0.0, y0.astype(complex)
    while t < t_end:
        step = min(step, t_end - t)
        k = [m @ y]
        for i in range(1, 7):
            k.append(m @ (y + step * sum(aij * kj for aij, kj in zip(a[i], k))))
        y5 = y + step * sum(bi * ki for bi, ki in zip(b5, k))
        y4 = y + step * sum(bi * ki for bi, ki in zip(b4, k))
        ratio = np.linalg.norm(y5 - y4) / (atol + rtol * max(np.linalg.norm(y), np.linalg.norm(y5)))
        if ratio <= 1.0:
            t, y = t + step, y5
        step *= min(5.0, max(0.2, 0.9 * ratio ** (-0.2) if ratio > 0 else 5.0))
    return y


class TestDormandPrinceLinearForm:
    def test_polynomials_are_the_tableau_exactly(self):
        r5, r4 = stability_polynomial(DP_B5), stability_polynomial(DP_B4)
        assert [float(c) for c in r5] == numeric._R5.tolist()
        assert [float(x - y) for x, y in zip(r5, r4)] == numeric._ERR.tolist()

    def test_matches_stage_form(self, rng):
        blocks = []
        for _ in range(3):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            blocks.append(((h + h.conj().T) / 2 - 0.1j * np.diag(rng.uniform(0, 1, 4)),
                           np.eye(4, dtype=complex)))
        for n in (3, 8, 20):
            lams = tuple(rng.uniform(0.5, 2.0, n))
            h = build_single_excitation(EffectiveModel(lams, 0.05 * min(lams)), n).matrix
            start = np.zeros(n + 1, dtype=complex)
            start[0] = 1.0
            blocks.append((h, start))
        for h, y0 in blocks:
            t = float(rng.uniform(0.5, 2.0))
            got = numeric._dopri5(h, y0, t)
            ref = stage_form_dopri5(h, y0, t)
            assert np.max(np.abs(got - ref)) <= 1e-14


class TestStepSequence:
    def test_semigroup_property(self, rng):
        h = build_effective(EffectiveModel((1.0,), 0.05), 1, 2)
        psi = random_state(rng, 1)
        split = evolve(h, evolve(h, psi, 0.6), 0.6)
        whole = evolve(h, psi, 1.2)
        assert np.allclose(split.amplitudes, whole.amplitudes, atol=1e-10)


class TestHermitianNormPreservation:
    def test_random_hermitian_preserves_norm(self, rng):
        for _ in range(5):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = OperatorMatrix((m + m.conj().T) / 2)
            psi = random_state(rng, 2)
            t = float(rng.uniform(0.1, 3.0))
            out = evolve(h, psi, t)
            assert out.norm() == pytest.approx(psi.norm(), abs=1e-10)


class TestMethodCrossCheck:
    def test_methods_agree_on_random_nonhermitian(self, rng):
        for dim in (8, 32, 64):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = m / np.linalg.norm(m, 2) * 2.0
            m = m - 0.5j * np.diag(rng.uniform(0, 0.2, dim))   # mild decay
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            a = evolve_vector(m, vec, 1.3)
            b = evolve_vector(m, vec, 1.3, RK_OPTS)
            assert np.linalg.norm(a - b) < 1e-8


class TestNormDecayLaw:
    def test_norm_derivative_tracks_photon_number(self, rng):
        # d|psi|^2/dt = -kappa <a^dag a> along the trajectory, probed by
        # central differences at step 1e-4 / lambda
        lam, kappa = 1.0, 0.08
        model = EffectiveModel((lam, lam), kappa)
        h = build_effective(model, 2, 2)
        n_op = number_operator(2, 2)
        psi0 = random_state(rng, 2)
        dt = 1e-4 / lam
        for t in (0.3, 0.7, 1.1):
            mid = evolve(h, psi0, t)
            fwd = evolve(h, psi0, t + dt)
            bwd = evolve(h, psi0, t - dt)
            deriv = (fwd.norm_sq() - bwd.norm_sq()) / (2 * dt)
            expected = -kappa * float(
                np.vdot(mid.amplitudes, n_op @ mid.amplitudes).real
            )
            assert deriv == pytest.approx(expected, rel=1e-5)


class TestOptions:
    def test_unknown_method(self):
        with pytest.raises(ArgumentError):
            PropagatorOptions(method="magic")
