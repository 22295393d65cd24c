"""Dense numeric kernels used by every other module.

Kernels take their arrays as given, with no cast or check: the model hands
them float64 (it converts frame tokens at its edge, and a checked
``QFormerParams`` holds float64 tensors, norms at the row width), so they
compute in 64-bit IEEE-754.  They return fresh arrays and never mutate their
inputs.  Row-wise kernels work on the last axis, so a stack of matrices
(..., rows, cols) is one call.  layer_norm returns (output, cache) and gelu
(output, t): what layer_norm_grad and gelu_grad read, so neither gradient
recomputes its forward.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError

LN_EPS = 1e-5  # added to each row's variance in layer_norm

# tanh-form gelu constants
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def softmax_rows(m) -> np.ndarray:
    """Softmax over the last axis, computed with max-subtraction for stability.

    Every output row is nonnegative and sums to 1 to within 1e-9 even for
    inputs with entries of magnitude ~1e4.
    """
    # one fresh buffer: subtract, exp and divide in place, never touching m
    out = m - m.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def layer_norm(m, gamma, beta):
    """Normalization of each last-axis row to mean 0 / variance 1, then gamma*x + beta.

    Returns (output, cache); the cache (normalized rows, per-row reciprocal
    standard deviation) is what layer_norm_grad needs.
    """
    d = m.shape[-1]  # each row mean as sum / d: np.mean's own arithmetic without its Python wrapper
    xhat = m - m.sum(axis=-1, keepdims=True) / d
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    return np.add(np.multiply(xhat, gamma, out=out), beta, out=out), (xhat, inv)


def layer_norm_grad(dy, cache, gamma):
    """Gradients (d input, d gamma, d beta) of layer_norm for upstream dy.

    d gamma and d beta are summed over every row of every leading axis.
    """
    xhat, inv = cache
    d = xhat.shape[-1]
    dgamma = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbeta = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gamma
    m1 = dxhat.sum(axis=-1, keepdims=True) / d
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    return inv * (dxhat - m1 - xhat * m2), dgamma, dbeta


def gelu(m) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise gelu: (0.5*x*(1 + t), t) with t = tanh(sqrt(2/pi)*(x + 0.044715*x^3)), the t
    that gelu_grad reads.  The cube is multiplied out: numpy's pow is ~50x slower."""
    t = m * m
    t *= m
    t *= _GELU_A
    t += m
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5  # exact, as 0.5*x is for x not subnormal: the bits of 0.5*x*(1 + tanh)
    return np.multiply(out, m, out=out), t


def gelu_grad(m, t) -> np.ndarray:
    """Elementwise derivative of the tanh-form gelu at m, given gelu(m)'s t:
    0.5*(1 + t) + 0.5*x*(1 - t*t)*sqrt(2/pi)*(1 + 3*0.044715*x*x)."""
    out = t * t
    np.subtract(1.0, out, out=out)
    out *= 0.5  # halving 1 - t*t is exact, as halving x is: the bits of 0.5*x*(1 - t*t)
    out *= m
    out *= _GELU_C
    poly = m * (3.0 * _GELU_A)
    poly *= m
    poly += 1.0
    out *= poly
    half = t + 1.0
    half *= 0.5
    return np.add(out, half, out=out)


def contiguous_groups(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """The [start, stop) of k contiguous near-equal groups covering [0, n), larger first."""
    if not 1 <= k <= n:
        raise ArgumentError(f"cannot split {n} items into {k} groups")
    base, extra = divmod(n, k)
    edges = [g * base + min(g, extra) for g in range(k + 1)]
    return tuple(zip(edges, edges[1:]))


def pool_matrix(rows: int, k: int) -> np.ndarray:
    """The (k x rows) matrix P whose product P @ m averages the k
    contiguous_groups of m's rows."""
    p = np.zeros((k, rows))
    for g, (start, stop) in enumerate(contiguous_groups(rows, k)):
        p[g, start:stop] = 1.0 / (stop - start)
    return p
