"""Low-level tensor utilities for the numpy NN library.

Weight initialisers plus the unfold/im2col/col2im transforms that turn
2-D convolution into matrix multiplication — the standard trick that
makes a pure-numpy CNN fast enough to train on CPU.

Array layout convention throughout the library: images are ``(N, C, H, W)``
float32; patches from :func:`unfold` are ``(N, C*kh*kw, out_h*out_w)``;
columns from :func:`im2col` are ``(N * out_h * out_w, C*kh*kw)``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["he_init", "xavier_init", "unfold", "im2col", "col2im", "conv_output_size"]


def he_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation (for ReLU layers)."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)


def xavier_init(
    shape: tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Xavier/Glorot-uniform initialisation (for linear/tanh layers)."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fans must be positive")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution collapses spatial size {size} with k={kernel}, s={stride}, p={pad}"
        )
    return out


def unfold(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int, int]:
    """Per-sample patch matrices of ``x`` (``(N, C, H, W)``).

    Returns ``(patches, out_h, out_w)`` where ``patches`` is the
    C-contiguous ``(N, C*kh*kw, out_h*out_w)`` array; ``patches[i].T``
    holds sample ``i``'s receptive fields, one per row.  The image is
    zero-padded into a fresh buffer, and one copy gathers every entry out
    of a strided ``(N, C, kh, kw, out_h, out_w)`` window view of it.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad:
        img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        img[:, :, pad : pad + h, pad : pad + w] = x
    else:
        img = x
    sn, sc, sh, sw = img.strides
    windows = as_strided(
        img,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int, int]:
    """Unfold image patches into rows.

    ``x`` is ``(N, C, H, W)``.  Returns ``(cols, out_h, out_w)`` where
    ``cols`` is ``(N*out_h*out_w, C*kh*kw)`` — each row one receptive field.
    For N = 1 ``cols`` is a transposed (Fortran-ordered) view of the
    patch matrix, for N > 1 a C-ordered copy; BLAS may round products of
    the two layouts differently, so this layout is part of the numerics.
    """
    patches, out_h, out_w = unfold(x, kh, kw, stride, pad)
    n, k, p = patches.shape
    return patches.transpose(0, 2, 1).reshape(n * p, k), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold column gradients back to image layout (adjoint of im2col)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    col = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kh):
        y_max = ky + stride * out_h
        for kx in range(kw):
            x_max = kx + stride * out_w
            img[:, :, ky:y_max:stride, kx:x_max:stride] += col[:, :, ky, kx, :, :]
    if pad:
        return img[:, :, pad:-pad, pad:-pad]
    return img
