"""Frozen reference implementation of IL-CNN inference.

A test-only copy of how :class:`~repro.agent.ilcnn.ILCNN` used to run
its inference forward pass: ``np.pad`` im2col with one slice copy per
kernel offset, 2-D ``x @ W`` products in every convolution and dense
layer, and camera pooling through a strided ``mean``.  It reads the
weights of a live model, so it scores exactly the network the model
holds.

It is the oracle the production forward must match byte for byte, row
by row (``reference_forward`` on one sample at a time), and the
baseline the inference benchmark times it against.  Do not optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.agent.ilcnn import SPEED_SCALE, ILCNN
from repro.agent.nn.layers import Conv2d, Dense, Dropout, Flatten, ReLU, Sequential
from repro.agent.nn.tensorlib import conv_output_size


def reference_im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int, int]:
    """``(cols, out_h, out_w)`` exactly as the ``np.pad`` im2col made them."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    img = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)], mode="constant") if pad else x
    col = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for ky in range(kh):
        y_max = ky + stride * out_h
        for kx in range(kw):
            x_max = kx + stride * out_w
            col[:, :, ky, kx, :, :] = img[:, :, ky:y_max:stride, kx:x_max:stride]
    cols = col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kh * kw)
    return cols, out_h, out_w


def reference_preprocess(image: np.ndarray, input_hw: tuple[int, int]) -> np.ndarray:
    """Camera frame -> network tensor exactly as the ``mean`` pooling made it."""
    h_out, w_out = input_hw
    h_in, w_in = image.shape[:2]
    fy, fx = h_in // h_out, w_in // w_out
    x = image.astype(np.float32) / 255.0
    x = x.reshape(h_out, fy, w_out, fx, 3).mean(axis=(1, 3))
    np.nan_to_num(x, copy=False, nan=0.0, posinf=1.0, neginf=0.0)
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def _run(block: Sequential, x: np.ndarray) -> np.ndarray:
    for module in block.modules:
        if isinstance(module, Conv2d):
            n = x.shape[0]
            k = module.kernel
            cols, out_h, out_w = reference_im2col(x, k, k, module.stride, module.pad)
            out = cols @ module.W.data + module.b.data
            x = out.reshape(n, out_h, out_w, module.out_channels).transpose(0, 3, 1, 2)
        elif isinstance(module, Dense):
            x = x @ module.W.data + module.b.data
        elif isinstance(module, ReLU):
            x = np.where(x > 0, x, 0.0)
        elif isinstance(module, Flatten):
            x = x.reshape(x.shape[0], -1)
        elif isinstance(module, Dropout):
            pass  # identity at inference time
        else:  # pragma: no cover - the IL-CNN uses no other layer
            raise TypeError(f"no reference for {type(module).__name__}")
    return x


def reference_forward(
    model: ILCNN, images: np.ndarray, speeds: np.ndarray, commands: np.ndarray
) -> np.ndarray:
    """The inference forward pass of ``model`` as it used to be computed."""
    n = images.shape[0]
    speeds = np.asarray(speeds, dtype=np.float32).reshape(n, 1) / SPEED_SCALE
    np.nan_to_num(speeds, copy=False, nan=0.0, posinf=10.0, neginf=-10.0)
    np.clip(speeds, -10.0, 10.0, out=speeds)
    commands = np.asarray(commands)
    features = _run(model.trunk, images.astype(np.float32))
    speed_feat = _run(model.speed_head, speeds)
    joint = _run(model.join, np.concatenate([features, speed_feat], axis=1))
    out = np.zeros((n, 3), dtype=np.float32)
    for b, branch in enumerate(model.branches):
        mask = commands == b
        if np.any(mask):
            out[mask] = _run(branch, joint[mask])
    return out
