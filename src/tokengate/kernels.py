"""Dense token-matrix kernels: index sets, normalization, nonlinearities.

Token matrices are plain float64 ndarrays of shape (tokens, width), row per
token.  Sparsity is always expressed as a sorted index array plus
gather/scatter against dense storage; there are no sparse matrix formats
anywhere in the library.  ``is_integer`` and ``is_real`` are the one integer
and one number check; ``check_integer`` and ``check_heads`` are the one size
rule of every shape the library takes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

TokenMatrix = np.ndarray
IndexSet = np.ndarray

_SQRT2 = np.sqrt(2.0)
LAYER_NORM_EPS = 1e-5


def is_integer(x) -> bool:
    """Whether x is a Python or NumPy integer (a bool is not one)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """Whether x is a Python or NumPy integer or float (a bool is not one)."""
    return is_integer(x) or isinstance(x, (float, np.floating))


def check_integer(name: str, value, minimum: int | None = None):
    """Raise ValueError naming ``name`` unless value is an integer (a bool is
    not one) and, when a minimum is given, at least that."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def check_heads(d: int, heads: int):
    """Raise ValueError unless heads is an integer of at least 1 over which
    width d splits evenly."""
    check_integer("heads", heads, 1)
    if d % heads:
        raise ValueError("width must divide evenly across heads")


def as_index_set(indices, n: int) -> IndexSet:
    """Validate and canonicalize indices: int64, strictly increasing, in [0, n).

    Non-empty indices must have an integer dtype: floats are not truncated
    and a boolean mask is not read as indices."""
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False).reshape(-1)
    if idx.size:
        if idx[0] < 0 or idx[-1] >= n:
            raise IndexError(f"index out of range for {n} tokens")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("indices must be strictly increasing")
    return idx


def full_index_set(n: int) -> IndexSet:
    return np.arange(n, dtype=np.int64)


def exp_rows(x: TokenMatrix, out: TokenMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Write each row's exp(x - row max) into ``out``, which may be x itself,
    and return the row maxes and sums; a row with no entries raises."""
    peak = x.max(axis=-1)
    np.subtract(x, peak[..., None], out=out)
    np.exp(out, out=out)
    return peak, out.sum(axis=-1)


def softmax_rows(x: TokenMatrix) -> TokenMatrix:
    """Row-wise softmax: ``exp_rows`` into one new array, normalized in
    place.  An input with no rows gives an empty result."""
    x = np.asarray(x, dtype=np.float64)
    e = np.empty_like(x)
    _, total = exp_rows(x, e)
    e /= total[..., None]
    return e


def layer_norm(x: TokenMatrix, gamma, beta) -> TokenMatrix:
    """Per-row normalization (biased variance, plus ``LAYER_NORM_EPS``),
    scaled by gamma, shifted by beta, in place on one centred copy of x."""
    x = np.asarray(x, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ValueError("gamma/beta length must equal the token width")
    y = x - x.mean(axis=1, keepdims=True)
    var = np.mean(y * y, axis=1, keepdims=True)
    y /= np.sqrt(var + LAYER_NORM_EPS)
    y *= gamma
    y += beta
    return y


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU, x * Phi(x), via erf (no tanh approximation).

    Evaluated in one temporary, bitwise equal to the textbook form
    0.5 * x * (1 + erf(x / sqrt 2)).
    """
    x = np.asarray(x, dtype=np.float64)
    y = x / _SQRT2
    erf(y, out=y)
    y += 1.0
    y *= x
    y *= 0.5
    return y


def row_l2_norms(x: TokenMatrix) -> np.ndarray:
    """Euclidean norm of each row."""
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", x, x))
