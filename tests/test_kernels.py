from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from tokengate.block import _mlp_forward
from tokengate.costs import CostLedger, NullLedger
from tokengate.kernels import (
    LAYER_NORM_EPS,
    as_index_set,
    exp_rows,
    gelu,
    layer_norm,
    row_l2_norms,
    softmax_rows,
)

from oracles import complement_indices

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def small_matrix(max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=finite)))


def matmul(a, b):
    """The library's one product kernel: every product goes through a ledger."""
    return CostLedger().matmul("token_wise", a, b)


def mlp(x, w1, b1, w2, b2):
    """The block's MLP, as GatedBlock and block_baseline run it."""
    w = SimpleNamespace(w1=w1, b1=b1, w2=w2, b2=b2)
    return _mlp_forward(x, w, NullLedger())


class TestMatmul:
    def test_identity(self):
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(matmul(np.eye(2), x), x)

    def test_zero(self):
        out = matmul(np.zeros((2, 3)), np.ones((3, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_hand_case(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
        np.testing.assert_array_equal(out, [[17.0], [39.0]])

    def test_bit_determinism(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(17, 23)), rng.normal(size=(23, 9))
        first = matmul(a, b)
        for _ in range(5):
            np.testing.assert_array_equal(matmul(a, b), first)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))


class TestSoftmaxRows:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 3))),
                                   [[1 / 3, 1 / 3, 1 / 3]])

    def test_closed_form(self):
        out = softmax_rows(np.array([[0.0, np.log(2.0)]]))
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_empty_passthrough(self):
        out = softmax_rows(np.zeros((0, 4)))
        assert out.shape == (0, 4)

    @settings(deadline=None)
    @given(small_matrix())
    def test_rows_sum_to_one(self, x):
        sums = softmax_rows(x).sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(x.shape[0]), atol=1e-6)

    @settings(deadline=None)
    @given(small_matrix(), finite)
    def test_shift_invariance(self, x, shift):
        np.testing.assert_allclose(softmax_rows(x + shift), softmax_rows(x),
                                   atol=1e-6)

    def test_large_values_stable(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, 500.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0)


class TestExpRows:
    def test_in_place_returns_maxes_and_sums(self):
        x = np.array([[0.0, np.log(2.0)], [3.0, 1.0]])
        peak, total = exp_rows(x, x)
        np.testing.assert_array_equal(peak, [np.log(2.0), 3.0])
        np.testing.assert_allclose(x, [[0.5, 1.0], [1.0, np.exp(-2.0)]])
        np.testing.assert_array_equal(total, x.sum(axis=1))

    def test_into_another_array_leaves_the_input(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = np.empty_like(x)
        exp_rows(x, out)
        np.testing.assert_array_equal(x, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(out, np.exp(x - 3.0))


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        out = layer_norm(np.full((2, 4), 7.0), np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_unit_variance_fixed_point(self):
        out = layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
        unit = 1 / np.sqrt(1 + LAYER_NORM_EPS)
        np.testing.assert_allclose(out, [[unit, -unit]], atol=1e-6)

    def test_beta_shift(self):
        beta = np.array([1.0, 2.0, 3.0])
        out = layer_norm(np.zeros((2, 3)), np.ones(3), beta)
        np.testing.assert_allclose(out, np.tile(beta, (2, 1)), atol=1e-9)

    def test_moments(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 32)) * 5
        out = layer_norm(x, np.ones(32), np.zeros(32))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_bad_param_length(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((2, 3)), np.ones(2), np.zeros(3))

    def test_bitwise_equals_textbook_form(self):
        rng = np.random.default_rng(8)
        for shape in ((1024, 192), (576, 128), (196, 768), (7, 3)):
            x = rng.normal(loc=3.0, scale=5.0, size=shape)
            gamma, beta = rng.normal(size=shape[1]), rng.normal(size=shape[1])
            before = x.copy()
            mu = x.mean(axis=1, keepdims=True)
            var = np.mean((x - mu) ** 2, axis=1, keepdims=True)
            want = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
            np.testing.assert_array_equal(layer_norm(x, gamma, beta), want)
            np.testing.assert_array_equal(x, before)


def mlp_row_oracle(row, w1, b1, w2, b2):
    """Scalar-by-scalar evaluation of the two-layer perceptron for one token."""
    from math import erf, sqrt

    hidden = []
    for j in range(w1.shape[1]):
        acc = b1[j]
        for i in range(row.size):
            acc += row[i] * w1[i, j]
        hidden.append(0.5 * acc * (1.0 + erf(acc / sqrt(2.0))))
    out = []
    for j in range(w2.shape[1]):
        acc = b2[j]
        for i in range(len(hidden)):
            acc += hidden[i] * w2[i, j]
        out.append(acc)
    return np.array(out)


class TestMlp:
    def test_zero_weights(self):
        d = 3
        out = mlp(np.ones((2, d)), np.zeros((d, 4 * d)), np.zeros(4 * d),
                  np.zeros((4 * d, d)), np.zeros(d))
        np.testing.assert_array_equal(out, np.zeros((2, d)))

    def test_tokenwise_independence(self):
        rng = np.random.default_rng(2)
        d = 4
        w1, b1 = rng.normal(size=(d, 4 * d)), rng.normal(size=4 * d)
        w2, b2 = rng.normal(size=(4 * d, d)), rng.normal(size=d)
        x = rng.normal(size=(5, d))
        full = mlp(x, w1, b1, w2, b2)
        single = mlp(x[2:3], w1, b1, w2, b2)
        # batched and single-row evaluation may pick different BLAS kernels,
        # so agreement is to float precision rather than bit-exact
        np.testing.assert_allclose(full[2:3], single, rtol=1e-12, atol=1e-14)

    def test_against_row_oracle(self):
        rng = np.random.default_rng(3)
        d = 5
        w1, b1 = rng.normal(size=(d, 4 * d)), rng.normal(size=4 * d)
        w2, b2 = rng.normal(size=(4 * d, d)), rng.normal(size=d)
        x = rng.normal(size=(2, d))
        out = mlp(x, w1, b1, w2, b2)
        for i in range(2):
            np.testing.assert_allclose(out[i], mlp_row_oracle(x[i], w1, b1, w2, b2),
                                       atol=1e-6)

    def test_gelu_uses_exact_erf(self):
        # at x=1 the exact form gives 0.841345..., the tanh approximation 0.841192
        np.testing.assert_allclose(gelu(np.array([1.0]))[0], 0.8413447460685429,
                                   rtol=1e-12)

    def test_gelu_bitwise_equals_textbook_form(self):
        x = np.random.default_rng(7).normal(scale=4.0, size=(300, 512))
        x[0, :4] = [0.0, -0.0, 40.0, -40.0]
        before = x.copy()
        want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_array_equal(gelu(x), want)
        np.testing.assert_array_equal(x, before)


class TestRowNorms:
    def test_zero_row(self):
        assert row_l2_norms(np.zeros((1, 4)))[0] == 0.0

    def test_hand_case(self):
        assert row_l2_norms(np.array([[3.0, 4.0]]))[0] == 5.0

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7))
        np.testing.assert_allclose(row_l2_norms(-2.5 * x),
                                   2.5 * row_l2_norms(x), rtol=1e-12)


class TestIndexSets:
    def test_validation(self):
        np.testing.assert_array_equal(as_index_set([0, 2, 5], 6), [0, 2, 5])
        with pytest.raises(IndexError):
            as_index_set([-1], 4)
        with pytest.raises(ValueError):
            as_index_set([2, 1], 4)

    def test_complement(self):
        np.testing.assert_array_equal(
            complement_indices(np.array([1, 3]), 5), [0, 2, 4])
