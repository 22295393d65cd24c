"""Dense numeric kernels used by every other module.

All kernels compute in 64-bit IEEE-754 regardless of input dtype, return
fresh float64 arrays and never mutate their inputs.  Row-wise kernels work
on the last axis, so a stack of matrices (..., rows, cols) is one call.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, ShapeError

# tanh-form gelu constants
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, raising ShapeError otherwise."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def softmax_rows(m) -> np.ndarray:
    """Softmax over the last axis, computed with max-subtraction for stability.

    Every output row is nonnegative and sums to 1 to within 1e-9 even for
    inputs with entries of magnitude ~1e4.
    """
    a = np.asarray(m, dtype=np.float64)
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(m, gamma, beta, eps: float = 1e-5):
    """Normalization of each last-axis row to mean 0 / variance 1, then gamma*x + beta.

    Returns (output, cache); the cache (normalized rows, per-row reciprocal
    standard deviation) is what layer_norm_grad needs.
    """
    a = np.asarray(m, dtype=np.float64)
    g = np.asarray(gamma, dtype=np.float64).ravel()
    b = np.asarray(beta, dtype=np.float64).ravel()
    if g.shape[0] != a.shape[-1] or b.shape[0] != a.shape[-1]:
        raise ShapeError(
            f"gamma/beta lengths {g.shape[0]}/{b.shape[0]} do not match {a.shape[-1]} columns"
        )
    if not eps > 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    centered = a - a.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * g + b, (xhat, inv)


def layer_norm_grad(dy, cache, gamma):
    """Gradients (d input, d gamma, d beta) of layer_norm for upstream dy.

    d gamma and d beta are summed over every row of every leading axis.
    """
    xhat, inv = cache
    d = xhat.shape[-1]
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def gelu(m) -> np.ndarray:
    """Elementwise gelu: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    a = np.asarray(m, dtype=np.float64)
    inner = _GELU_C * (a + _GELU_A * a**3)
    return 0.5 * a * (1.0 + np.tanh(inner))


def gelu_grad(m) -> np.ndarray:
    """Elementwise derivative of the tanh-form gelu."""
    a = np.asarray(m, dtype=np.float64)
    inner = _GELU_C * (a + _GELU_A * a**3)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * a * a)


def pool_group_sizes(rows: int, k: int) -> list[int]:
    """Sizes of k contiguous near-equal groups over `rows` items, larger first."""
    if not 1 <= k <= rows:
        raise ArgumentError(f"group count {k} must be in [1, {rows}]")
    base, extra = divmod(rows, k)
    return [base + 1] * extra + [base] * (k - extra)


def pool_matrix(rows: int, k: int) -> np.ndarray:
    """The (k x rows) matrix P whose product P @ m averages k contiguous
    near-equal row groups of m (larger groups first)."""
    sizes = pool_group_sizes(rows, k)
    p = np.zeros((k, rows))
    start = 0
    for g, size in enumerate(sizes):
        p[g, start : start + size] = 1.0 / size
        start += size
    return p

