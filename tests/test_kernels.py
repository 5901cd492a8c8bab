"""Gram-matrix construction and centering."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import reference as ref
from mvdtest import KernelSpec, as_sample, build_gram_set, center_gram, gram, kernel_eval
from mvdtest.kernels import gram_set_from_blocks

# Hand-frozen 3x3 cross-Gram: x = (0, 1, 3), y = (0.5, 2, 2.5), sigma = 0.7.
FROZEN_X = np.array([[0.0], [1.0], [3.0]])
FROZEN_Y = np.array([[0.5], [2.0], [2.5]])
FROZEN_K = np.array([
    [0.83945702076920736, 0.06081006262521797, 0.012588142242434],
    [0.83945702076920736, 0.49658530379140953, 0.20700755268115265],
    [0.012588142242434, 0.49658530379140953, 0.83945702076920736],
])
FROZEN_K_CENTERED = np.array([
    [0.39406405870571359, -0.17207572824733863, -0.22198833045837499],
    [0.18399917483741021, 0.05363462905054952, -0.23763380388795968],
    [-0.57806323354312372, 0.11844109919678907, 0.45962213434633464],
])


class TestAsSample:
    def test_column_vector_from_1d(self):
        out = as_sample([1.0, 2.0, 3.0], "x")
        assert out.shape == (3, 1)
        assert out.dtype == np.float64

    def test_2d_passthrough_is_contiguous_float(self):
        out = as_sample(np.arange(12).reshape(4, 3)[:, ::2], "x")
        assert out.shape == (4, 2)
        assert out.flags.c_contiguous

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="expected a 2-d array"):
            as_sample(np.zeros((2, 2, 2)), "x")

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            as_sample([[1.0, 2.0]], "x")

    def test_rejects_zero_columns(self):
        with pytest.raises(ValueError, match="at least 1 column"):
            as_sample(np.zeros((3, 0)), "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_sample([[1.0], [np.nan]], "x")

    def test_error_names_the_sample(self):
        with pytest.raises(ValueError, match="left sample:"):
            as_sample([[np.inf], [0.0]], "left sample")


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec(sigma=0.5)
        assert spec.log_scale == 0.0
        assert spec.family == "gaussian"

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be a positive finite real"):
            KernelSpec(sigma=sigma)

    def test_rejects_nonfinite_log_scale(self):
        with pytest.raises(ValueError, match="log_scale must be finite"):
            KernelSpec(sigma=1.0, log_scale=np.inf)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec(sigma=1.0, family="laplace")

    def test_frozen(self):
        spec = KernelSpec(sigma=1.0)
        with pytest.raises(AttributeError):
            spec.sigma = 2.0


class TestKernelEval:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            sigma = rng.uniform(0.1, 2.0)
            c = rng.uniform(-1.0, 1.0)
            got = kernel_eval(x, y, KernelSpec(sigma=sigma, log_scale=c))
            want = ref.kernel_scalar(x, y, sigma, c)
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_identical_points_at_zero_scale(self):
        assert kernel_eval([1.0, 2.0], [1.0, 2.0], KernelSpec(sigma=0.3)) == 1.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="point dimensions differ"):
            kernel_eval([1.0], [1.0, 2.0], KernelSpec(sigma=1.0))


class TestGram:
    def test_frozen_cross_gram(self):
        g = gram(FROZEN_X, FROZEN_Y, KernelSpec(sigma=0.7))
        np.testing.assert_allclose(g, FROZEN_K, rtol=1e-14, atol=1e-16)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(202)
        for _ in range(10):
            n, m, d = rng.integers(2, 9, size=3)
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(m, d))
            sigma = rng.uniform(0.05, 1.5)
            c = rng.uniform(-0.5, 0.5)
            got = gram(x, y, KernelSpec(sigma=sigma, log_scale=c))
            want = ref.gram_by_loops(x, y, sigma, c)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_log_scale_multiplies_entries(self):
        rng = np.random.default_rng(203)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(5, 2))
        base = gram(x, y, KernelSpec(sigma=0.4))
        lifted = gram(x, y, KernelSpec(sigma=0.4, log_scale=1.3))
        np.testing.assert_allclose(lifted, np.exp(1.3) * base, rtol=1e-13)

    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 20.0])
    @pytest.mark.parametrize("c", [-3.0, 0.0, 0.5])
    def test_in_place_steps_match_exp_formula(self, sigma, c):
        rng = np.random.default_rng(205)
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=(6, 3))
        got = gram(x, y, KernelSpec(sigma=sigma, log_scale=c))
        np.testing.assert_array_equal(got, np.exp(c - sigma * cdist(x, y, "sqeuclidean")))
        assert not np.shares_memory(got, x) and not np.shares_memory(got, y)
        own = gram(x, x, KernelSpec(sigma=sigma, log_scale=c))
        np.testing.assert_array_equal(own, np.exp(c - sigma * cdist(x, x, "sqeuclidean")))
        assert not np.shares_memory(own, x)

    def test_out_buffer_is_filled_and_returned(self):
        rng = np.random.default_rng(206)
        x, y = rng.normal(size=(9, 3)), rng.normal(size=(6, 3))
        spec = KernelSpec(sigma=0.7, log_scale=0.5)
        buf = np.full((9, 6), np.nan)
        for a in (x, 2.0 * x):  # the second call overwrites the first block
            got = gram(a, y, spec, out=buf)
            assert got is buf
            np.testing.assert_array_equal(got, gram(a, y, spec))

    def test_unit_diagonal_at_zero_scale(self):
        rng = np.random.default_rng(204)
        x = rng.normal(size=(6, 3))
        g = gram(x, x, KernelSpec(sigma=0.9))
        np.testing.assert_array_equal(np.diag(g), np.ones(6))


class TestCenterGram:
    def test_frozen_centered_gram(self):
        got = center_gram(FROZEN_K)
        np.testing.assert_allclose(got, FROZEN_K_CENTERED, rtol=1e-13, atol=1e-15)

    def test_matches_projection_reference(self):
        rng = np.random.default_rng(303)
        for _ in range(10):
            n, m = rng.integers(2, 10, size=2)
            k = rng.uniform(size=(n, m))
            np.testing.assert_allclose(center_gram(k), ref.center_by_projection(k),
                                       rtol=1e-12, atol=1e-14)

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(304)
        k = rng.uniform(size=(7, 5))
        c = center_gram(k)
        np.testing.assert_allclose(c.sum(axis=0), 0.0, atol=1e-13)
        np.testing.assert_allclose(c.sum(axis=1), 0.0, atol=1e-13)

    def test_idempotent(self):
        rng = np.random.default_rng(305)
        k = rng.uniform(size=(6, 6))
        once = center_gram(k)
        np.testing.assert_allclose(center_gram(once), once, atol=1e-14)

    def test_leaves_its_argument_unchanged(self):
        k = np.random.default_rng(306).uniform(size=(7, 5))
        before = k.tobytes()
        c = center_gram(k)
        assert k.tobytes() == before
        assert not np.shares_memory(c, k)


class TestGramSet:
    def test_shapes_and_sizes(self):
        rng = np.random.default_rng(404)
        g = build_gram_set(rng.normal(size=(5, 2)), rng.normal(size=(7, 2)), KernelSpec(sigma=0.5))
        assert (g.n, g.m) == (5, 7)
        assert g.k_x.shape == (5, 5)
        assert g.k_y.shape == (7, 7)
        assert g.k_xy.shape == (5, 7)
        assert g.kc_xy.shape == (5, 7)

    def test_own_blocks_symmetric(self):
        rng = np.random.default_rng(405)
        g = build_gram_set(rng.normal(size=(6, 3)), rng.normal(size=(4, 3)),
                           KernelSpec(sigma=0.8, log_scale=0.2))
        np.testing.assert_allclose(g.k_x, g.k_x.T, rtol=1e-12)
        np.testing.assert_allclose(g.k_y, g.k_y.T, rtol=1e-12)
        np.testing.assert_allclose(g.kc_x, g.kc_x.T, rtol=1e-12, atol=1e-15)

    def test_centered_blocks_annihilate_ones(self):
        rng = np.random.default_rng(406)
        g = build_gram_set(rng.normal(size=(8, 2)), rng.normal(size=(5, 2)), KernelSpec(sigma=0.6))
        bound = 1e-9 * 8 * np.abs(g.k_xy).max()
        assert np.abs(g.kc_xy @ np.ones(5)).max() < bound
        assert np.abs(g.kc_xy.T @ np.ones(8)).max() < bound
        assert np.abs(g.kc_x @ np.ones(8)).max() < bound
        assert np.abs(g.kc_y @ np.ones(5)).max() < bound

    def test_accepts_1d_samples(self):
        g = build_gram_set([0.0, 1.0, 2.0], [0.5, 1.5], KernelSpec(sigma=1.0))
        assert (g.n, g.m) == (3, 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different dimensions"):
            build_gram_set(np.zeros((3, 2)), np.zeros((3, 3)), KernelSpec(sigma=1.0))

    def test_blocks_reject_inconsistent_shapes(self):
        with pytest.raises(ValueError, match="inconsistent Gram block shapes"):
            gram_set_from_blocks(np.eye(3), np.eye(4), np.zeros((4, 3)))

    def test_blocks_roundtrip(self):
        rng = np.random.default_rng(407)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(6, 2))
        spec = KernelSpec(sigma=0.7)
        direct = build_gram_set(x, y, spec)
        rebuilt = gram_set_from_blocks(gram(x, x, spec), gram(y, y, spec), gram(x, y, spec))
        np.testing.assert_allclose(rebuilt.kc_xy, direct.kc_xy, atol=1e-15)
