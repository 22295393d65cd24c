import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from tdc import kernels
from tdc.errors import ArgumentError, NumericError
from tdc.segmenter import frame_similarities
from tdc.timeline import VideoTimeline

finite_floats = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def test_softmax_uniform_row():
    np.testing.assert_allclose(kernels.softmax_rows(np.zeros((1, 3))), [[1 / 3] * 3])


def test_softmax_direct():
    np.testing.assert_allclose(kernels.softmax_rows(np.array([[math.log(2), 0.0]])), [[2 / 3, 1 / 3]])


@given(m=npst.arrays(np.float64, (3, 5), elements=finite_floats), c=finite_floats)
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance_and_row_sums(m, c):
    base = kernels.softmax_rows(m)
    shifted = kernels.softmax_rows(m + c)
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    assert np.all(base >= 0)
    np.testing.assert_allclose(base.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.isfinite(base))


def test_softmax_of_a_stack_is_the_three_step_formula_and_leaves_its_input():
    # subtract, exp and divide in one output buffer: the same bits as three temporaries
    m = np.random.default_rng(3).normal(scale=30.0, size=(7, 4, 16, 194))
    before = m.copy()
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = kernels.softmax_rows(m)
    np.testing.assert_array_equal(out, e / e.sum(axis=-1, keepdims=True))
    np.testing.assert_array_equal(m, before)
    assert not np.shares_memory(out, m)


def test_layer_norm_constant_row_is_zero():
    out, _ = kernels.layer_norm(np.full((1, 3), 5.0), np.ones(3), np.zeros(3))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    # unit variance already: only LN_EPS moves the row
    out, _ = kernels.layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out, [[1.0, -1.0]] / np.sqrt(1.0 + kernels.LN_EPS), rtol=0, atol=1e-15)


def test_layer_norm_gamma_zero_collapses_to_beta():
    out, _ = kernels.layer_norm(np.random.default_rng(0).standard_normal((4, 3)), np.zeros(3), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out, np.tile([1.0, 2.0, 3.0], (4, 1)))


@pytest.mark.parametrize("shape", [(27, 64), (7, 16, 64)], ids=["rows", "stack"])
def test_layer_norm_and_grad_are_the_mean_formula(shape):
    # each row mean is sum / d: the same bits as .mean()
    rng = np.random.default_rng(4)
    x, dy = rng.normal(scale=3.0, size=(2, *shape))
    gamma, beta = rng.standard_normal((2, shape[-1]))
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + kernels.LN_EPS)
    xhat = centered * inv
    out, cache = kernels.layer_norm(x, gamma, beta)
    np.testing.assert_array_equal(out, xhat * gamma + beta)
    np.testing.assert_array_equal(cache[0], xhat)
    np.testing.assert_array_equal(cache[1], inv)
    dxhat = dy * gamma
    d_x = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    np.testing.assert_array_equal(kernels.layer_norm_grad(dy, cache, gamma)[0], d_x)


@pytest.mark.parametrize("shape", [(27, 256), (7, 16, 256)], ids=["rows", "stack"])
def test_gelu_and_layer_norm_in_one_buffer_are_their_formulas_and_leave_read_only_inputs(shape):
    # each kernel computes in place in the arrays it allocates: the bits of the
    # formula written out, and a write to an input would raise
    rng = np.random.default_rng(6)
    x = rng.normal(scale=2.0, size=shape)
    gamma, beta = rng.standard_normal((2, shape[-1]))
    for a in (x, gamma, beta):
        a.setflags(write=False)
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + k * (x * x * x)))
    out, tanh = kernels.gelu(x)
    np.testing.assert_array_equal(out, 0.5 * x * (1.0 + t))
    np.testing.assert_array_equal(tanh, t)
    tanh.setflags(write=False)
    np.testing.assert_array_equal(kernels.gelu_grad(x, tanh), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * k * x * x))
    d = shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + kernels.LN_EPS)
    xhat = centered * inv
    out, cache = kernels.layer_norm(x, gamma, beta)
    np.testing.assert_array_equal(out, xhat * gamma + beta)
    np.testing.assert_array_equal(cache[0], xhat)
    np.testing.assert_array_equal(cache[1], inv)


def test_gelu_fixed_points():
    assert kernels.gelu(np.zeros((1, 1)))[0][0, 0] == 0.0
    assert kernels.gelu(np.array([[10.0]]))[0][0, 0] == pytest.approx(10.0, abs=1e-6)
    assert kernels.gelu(np.array([[-10.0]]))[0][0, 0] == pytest.approx(0.0, abs=1e-6)


def test_gelu_grad_matches_finite_differences():
    x = np.linspace(-4, 4, 33)
    h = 1e-6
    fd = (kernels.gelu(x + h)[0] - kernels.gelu(x - h)[0]) / (2 * h)
    np.testing.assert_allclose(kernels.gelu_grad(x, kernels.gelu(x)[1]), fd, atol=1e-8)


def test_gelu_and_grad_match_tanh_formula_with_power():
    x = np.concatenate([np.linspace(-30.0, 30.0, 6001), [0.0, 1e-8, -1e-8]])
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    t = np.tanh(c * (x + a * np.power(x, 3)))
    gelu = 0.5 * x * (1.0 + t)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * np.power(x, 2))
    out, tanh = kernels.gelu(x)
    np.testing.assert_allclose(out, gelu, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(kernels.gelu_grad(x, tanh), grad, rtol=1e-13, atol=1e-15)


def test_pool_sizes_near_equal_larger_first():
    # enumeration of the partition rule: 10 items over 4 groups
    assert [b - a for a, b in kernels.contiguous_groups(10, 4)] == [3, 3, 2, 2]
    assert [b - a for a, b in kernels.contiguous_groups(144, 16)] == [9] * 16


def test_pool_dense_frame_grouping():
    m = np.random.default_rng(1).standard_normal((144, 5))
    out = kernels.pool_matrix(144, 16) @ m
    assert out.shape == (16, 5)
    np.testing.assert_allclose(out[3], m[27:36].mean(axis=0))


def test_pool_identical_rows():
    v = np.array([1.0, -2.0, 0.5])
    m = np.tile(v, (10, 1))
    np.testing.assert_allclose(kernels.pool_matrix(10, 4) @ m, np.tile(v, (4, 1)))


def test_pool_matrix_agrees_with_mean_pool():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((11, 3))
    # groups of 3, 3, 3, 2 rows
    means = [m[0:3].mean(axis=0), m[3:6].mean(axis=0), m[6:9].mean(axis=0), m[9:11].mean(axis=0)]
    np.testing.assert_allclose(kernels.pool_matrix(11, 4) @ m, np.array(means), atol=1e-12)


@given(
    m=npst.arrays(np.float64, npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12), elements=finite_floats)
)
@settings(max_examples=50, deadline=None)
def test_pool_edge_group_counts(m):
    rows = m.shape[0]
    np.testing.assert_allclose(kernels.pool_matrix(rows, rows) @ m, m)
    np.testing.assert_allclose(kernels.pool_matrix(rows, 1) @ m, m.mean(axis=0, keepdims=True), atol=1e-9)


def test_pool_rejects_bad_counts():
    with pytest.raises(ArgumentError):
        kernels.pool_matrix(3, 4)
    with pytest.raises(ArgumentError):
        kernels.pool_matrix(3, 0)


def test_layer_norm_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 5))
    gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
    dy = rng.standard_normal((3, 5))
    _, cache = kernels.layer_norm(x, gamma, beta)
    dx, dgamma, dbeta = kernels.layer_norm_grad(dy, cache, gamma)
    h = 1e-6

    def fd(arr):
        out = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            hi = np.sum(dy * kernels.layer_norm(x, gamma, beta)[0])
            arr[idx] = orig - h
            lo = np.sum(dy * kernels.layer_norm(x, gamma, beta)[0])
            arr[idx] = orig
            out[idx] = (hi - lo) / (2 * h)
        return out

    np.testing.assert_allclose(dx, fd(x), atol=1e-7)
    np.testing.assert_allclose(dgamma, fd(gamma), atol=1e-7)
    np.testing.assert_allclose(dbeta, fd(beta), atol=1e-7)


# Cosine similarity lives in segmenter.frame_similarities, one vectorised
# expression over consecutive descriptor pairs; these check it on one pair.


def pair_similarity(u, v) -> float:
    desc = np.array([u, v], dtype=np.float32)
    tokens = np.ones((2, 1, 1), dtype=np.float32)
    return float(frame_similarities(VideoTimeline(tokens, tokens, desc))[0])


def test_cosine_basic_values():
    v = np.array([1.0, 2.0, 3.0])
    assert pair_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert pair_similarity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert pair_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_zero_vector_is_degenerate():
    with pytest.raises(NumericError, match="^frame 0 has a zero-norm descriptor$"):
        pair_similarity([0.0, 0.0], [1.0, 0.0])


# integer entries and power-of-two scales are exact in float32 descriptors
exact_vectors = npst.arrays(np.float64, 6, elements=st.integers(-100, 100).map(float))
power_of_two = st.integers(-8, 8).map(lambda e: 2.0**e)


@given(u=exact_vectors, v=exact_vectors, alpha=power_of_two, beta=power_of_two)
@settings(max_examples=100, deadline=None)
def test_cosine_symmetry_and_scale_invariance(u, v, alpha, beta):
    if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
        return
    base = pair_similarity(u, v)
    assert -1.0 <= base <= 1.0
    assert pair_similarity(v, u) == pytest.approx(base, abs=1e-12)
    assert pair_similarity(alpha * u, beta * v) == pytest.approx(base, abs=1e-12)
