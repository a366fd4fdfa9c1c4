import numpy as np
import pytest

import costap as cs
from costap.waveform_solvers import WaveformProblem

from helpers import gram, random_complex, random_factor


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(cs.hermitian_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        out = cs.hermitian_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstruction_of_rank_one_sum(self):
        # F0-style input: a PSD sum of rank-1 terms, possibly singular
        rng = np.random.default_rng(3)
        for q in (3, 10):
            u = random_complex(rng, q, 8)
            f = u.T @ u.conj()
            s = cs.hermitian_sqrt(f)
            assert np.max(np.abs(s.conj().T @ s - f)) <= 1e-10 * max(1.0, np.max(np.abs(f)))

    def test_roundtrip_up_to_condition_1e12(self):
        rng = np.random.default_rng(4)
        f = gram(random_factor(rng, 6, eig_lo=1e-12, eig_hi=1.0))
        s = cs.hermitian_sqrt(f)
        assert np.max(np.abs(s.conj().T @ s - f)) <= 1e-10

    def test_not_hermitian(self):
        with pytest.raises(cs.NotHermitian):
            cs.hermitian_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_not_psd(self):
        with pytest.raises(cs.NotPSD):
            cs.hermitian_sqrt(np.diag([1.0, -1e-3]))

    def test_rejects_non_finite(self):
        with pytest.raises(cs.NumericalFailure):
            cs.hermitian_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_negative_noise_is_clamped(self):
        # eigenvalues within -tau of zero round to zero instead of erroring
        f = np.diag([1.0, -1e-14])
        s = cs.hermitian_sqrt(f)
        np.testing.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-12)


class TestVectorProjector:
    # the tangent projector P = I - y y^H/||y||^2 that every tangent route
    # applies through WaveformProblem.project, built here column by column
    @staticmethod
    def projector(y):
        problem = WaveformProblem._validated(np.eye(y.size), y, 1.0, 1.0)
        return np.column_stack([problem.project(e) for e in np.eye(y.size, dtype=complex)])

    def test_idempotent_hermitian_annihilation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            y = random_complex(rng, 6)
            p = self.projector(y)
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert np.max(np.abs(p.conj().T - p)) <= 1e-12
            assert np.linalg.norm(p @ y) <= 1e-12 * np.linalg.norm(y)

    def test_matches_outer_product_formula(self):
        rng = np.random.default_rng(8)
        y = random_complex(rng, 8)
        expected = np.eye(8) - np.outer(y, y.conj()) / np.real(y.conj() @ y)
        np.testing.assert_allclose(self.projector(y), expected, atol=1e-14)
        # the N x m form that builds C = B P, all columns at once
        problem = WaveformProblem._validated(np.eye(8), y, 1.0, 1.0)
        np.testing.assert_allclose(problem.project(np.eye(8)), expected, atol=1e-14)


class TestBisectRoot:
    def test_linear(self):
        assert cs.bisect_root(lambda x: 1.0 - x, lambda x: -1.0, 0.0, 2.0) == 1.0

    def test_sqrt_two(self):
        root = cs.bisect_root(lambda x: 2.0 - x * x, lambda x: -2.0 * x, 0.0, 2.0)
        assert abs(root - np.sqrt(2.0)) <= 4e-16

    def test_bracket_expansion(self):
        # root at 1000, initial hi = 1: needs doubling
        root = cs.bisect_root(lambda x: 1000.0 - x, lambda x: -1.0, 0.0, 1.0)
        assert root == 1000.0

    def test_no_sign_change(self):
        with pytest.raises(cs.NoSignChange):
            cs.bisect_root(lambda x: 1.0 + np.exp(-x), lambda x: -np.exp(-x), 0.0, 1.0)

    def test_negative_at_lower_end(self):
        with pytest.raises(cs.NoSignChange):
            cs.bisect_root(lambda x: -1.0 - x, lambda x: -1.0, 0.0, 1.0)

    def test_nan_is_a_numerical_failure(self):
        with pytest.raises(cs.NumericalFailure):
            cs.bisect_root(lambda x: 1.0 if x == 0.0 else np.nan, lambda x: -1.0, 0.0, 1.0)

    def test_infinite_at_lower_end(self):
        # a secular function with a pole at the lower end, as qcqp's is when
        # the linear term leaves the range of the Hessian
        root = cs.bisect_root(lambda x: np.inf if x == 0.0 else 1.0 / x**2 - 4.0,
                              lambda x: -2.0 / x**3, 0.0, 1.0)
        assert abs(root - 0.5) <= 1e-16

    @pytest.mark.parametrize("scale", [1e-200, 1e-20, 1.0, 1e20, 1e200])
    def test_float_resolution_at_every_scale(self, scale):
        # an absolute tolerance would stop at the lower end for tiny scales
        # and never stop for huge ones
        root = cs.bisect_root(lambda x: scale * (1e-9 - x) / (1.0 + x),
                              lambda x: -scale * (1.0 + 1e-9) / (1.0 + x) ** 2, 0.0, 1.0)
        assert abs(root - 1e-9) <= 1e-24

    def test_secular_root_matches_dense_grid(self):
        # independent full-space evaluation of the tangent secular
        # function, vectorized over a dense multiplier grid
        rng = np.random.default_rng(9)
        n = 5
        b = random_factor(rng, n, eig_lo=0.1, eig_hi=2.0)
        f0 = gram(b)
        y = random_complex(rng, n)
        kappa = 1.0
        ny2 = float(np.real(y.conj() @ y))
        p_o = 1.02 * kappa**2 / ny2  # tight budget so the root is positive

        pperp = np.eye(n) - np.outer(y, y.conj()) / ny2
        m = pperp @ f0 @ pperp
        c = (kappa / ny2) * (pperp @ f0 @ y)
        evals, evecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        chat2 = np.abs(evecs.conj().T @ c) ** 2
        r2 = p_o - kappa**2 / ny2

        def phi(g):
            return float(np.sum(chat2 / (evals + g) ** 2)) - r2

        def dphi(g):
            return float(-2.0 * np.sum(chat2 / (evals + g) ** 3))

        problem = WaveformProblem._validated(b, y, kappa, p_o)
        root = cs.bisect_root(problem.secular, dphi, 0.0, 1.0)

        grid = np.linspace(1e-9, 4.0, 1_000_000)
        vals = np.sum(chat2[None, :] / (evals[None, :] + grid[:, None]) ** 2, axis=1) - r2
        sign_change = np.nonzero(np.diff(np.sign(vals)))[0]
        assert sign_change.size == 1
        grid_root = 0.5 * (grid[sign_change[0]] + grid[sign_change[0] + 1])
        spacing = grid[1] - grid[0]
        assert abs(root - grid_root) <= spacing
        assert abs(phi(root)) <= 1e-10
