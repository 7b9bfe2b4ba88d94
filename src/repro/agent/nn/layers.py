"""Neural-network layers with explicit forward/backward passes.

A deliberately small library: enough to build and train the conditional
imitation-learning CNN on CPU, with two features AVFI needs that off-the-
shelf frameworks would hide:

* every layer exposes its parameters as :class:`Param` objects whose raw
  ``float32`` buffers fault injectors can flip bits in;
* every :class:`Module` has a ``forward_hooks`` list, called with
  ``(module, output)`` after each forward — the seam used by
  activation-fault injection.

No autograd: each layer implements ``backward`` explicitly and caches what
it needs during ``forward``.  Training code drives the chain rule by hand,
which keeps the whole stack inspectable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .tensorlib import col2im, conv_output_size, he_init, im2col, unfold, xavier_init

__all__ = [
    "Param",
    "Module",
    "Dense",
    "Conv2d",
    "ReLU",
    "Tanh",
    "Flatten",
    "Dropout",
    "Sequential",
]


class Param:
    """A trainable tensor with its gradient buffer."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def size(self) -> int:
        """Number of scalar weights."""
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the gradient buffer."""
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Param({self.name}, shape={self.data.shape})"


ForwardHook = Callable[["Module", np.ndarray], np.ndarray]


class Module:
    """Base class: forward/backward plus hook and parameter plumbing."""

    def __init__(self) -> None:
        self.training = True
        self.forward_hooks: list[ForwardHook] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output (and cache for backward)."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad`` w.r.t. the output; returns grad w.r.t. input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        for hook in self.forward_hooks:
            out = hook(self, out)
        return out

    def parameters(self) -> list[Param]:
        """All trainable parameters of this module (possibly empty)."""
        return []

    def set_training(self, flag: bool) -> None:
        """Switch between training and inference behaviour (Dropout etc.)."""
        self.training = flag

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for p in self.parameters():
            p.zero_grad()


class Dense(Module):
    """Fully connected layer ``y = x W + b``.

    Training multiplies the whole batch in one GEMM.  Inference
    (``training`` false) multiplies each sample on its own, so the output
    rows do not depend on how many samples share the batch.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.W = Param("W", he_init((in_features, out_features), in_features, rng))
        self.b = Param("b", np.zeros(out_features, dtype=np.float32))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(f"Dense expected {self.in_features} features, got {x.shape[-1]}")
        self._x = x
        if self.training:
            return x @ self.W.data + self.b.data
        # One (1, K) @ (K, M) product per sample: BLAS then takes the
        # same path whatever the batch size, so every output row is
        # bitwise what a batch of one gives.
        return (x[..., None, :] @ self.W.data)[..., 0, :] + self.b.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.W.grad += self._x.T @ grad
        self.b.grad += grad.sum(axis=0)
        return grad @ self.W.data.T

    def parameters(self) -> list[Param]:
        return [self.W, self.b]


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` tensors via im2col.

    Training multiplies the im2col rows of the whole batch in one GEMM.
    Inference multiplies each sample's rows on its own, laid out as the
    GEMM of a batch of one lays them out, so output rows do not depend on
    the batch size (see :func:`~repro.agent.nn.tensorlib.im2col`).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel * kernel
        self.W = Param("W", he_init((fan_in, out_channels), fan_in, rng))
        self.b = Param("b", np.zeros(out_channels, dtype=np.float32))
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def output_shape(self, h: int, w: int) -> tuple[int, int, int]:
        """``(C_out, H_out, W_out)`` for an ``(h, w)`` input."""
        return (
            self.out_channels,
            conv_output_size(h, self.kernel, self.stride, self.pad),
            conv_output_size(w, self.kernel, self.stride, self.pad),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        k = self.kernel
        if self.training:
            cols, out_h, out_w = im2col(x, k, k, self.stride, self.pad)
        else:
            # (N, P, K) per-sample views, each laid out as im2col lays
            # out a batch of one: the product is one GEMM per sample.
            patches, out_h, out_w = unfold(x, k, k, self.stride, self.pad)
            cols = patches.transpose(0, 2, 1)
        self._cols = cols
        self._x_shape = x.shape
        out = cols @ self.W.data + self.b.data
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._x_shape is not None
        n, c_out, out_h, out_w = grad.shape
        g = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        cols = self._cols.reshape(-1, self._cols.shape[-1])
        self.W.grad += cols.T @ g
        self.b.grad += g.sum(axis=0)
        dcols = g @ self.W.data.T
        return col2im(dcols, self._x_shape, self.kernel, self.kernel, self.stride, self.pad)

    def parameters(self) -> list[Param]:
        return [self.W, self.b]


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad * self._mask


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._out is not None
        return grad * (1.0 - self._out**2)


class Flatten(Module):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return grad.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; identity at inference time."""

    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for module in reversed(self.modules):
            grad = module.backward(grad)
        return grad

    def parameters(self) -> list[Param]:
        return [p for module in self.modules for p in module.parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Param]]:
        """Yield ``(dotted_name, param)`` pairs, stable across runs."""
        for i, module in enumerate(self.modules):
            if isinstance(module, Sequential):
                yield from module.named_parameters(f"{prefix}{i}.")
            else:
                for p in module.parameters():
                    yield f"{prefix}{i}.{p.name}", p

    def set_training(self, flag: bool) -> None:
        super().set_training(flag)
        for module in self.modules:
            module.set_training(flag)

    def zero_grad(self) -> None:
        for module in self.modules:
            module.zero_grad()

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)
