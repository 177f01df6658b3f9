"""Branched-network parameters, `Tensor` and `OperationParams`, and their
optimizers, `SGD` and `Adam`, which take a learning rate and read the rest
from the constants below. Everything is double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NumericError
from .graph import SupergraphSpec

SGD_MOMENTUM = 0.9
SGD_WEIGHT_DECAY = 1e-4
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 5e-5


class Tensor:
    """A parameter's array, data.

    Construction validates finiteness, so a NaN or Inf in a parameter
    raises at once instead of corrupting training.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds NaN or Inf")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape


class OperationParams:
    """Branched-network weights. Layer l's operations are stacked: weights[l-1]
    is one Tensor of shape (C_l, in, out) and biases[l-1] one of shape
    (C_l, out), with one operation per task in the supergraph and one per
    block once retrained. The task heads are stacked the same way, one
    (T, enc_out, dim) Tensor head_weights and one (T, dim) head_biases, so
    every head has one width. `init` draws one weight matrix per layer and
    copies it to every candidate, so that before any training the mixed
    output is independent of routing.
    """

    def __init__(self, weights, biases, head_weights, head_biases):
        self.weights = weights
        self.biases = biases
        self.head_weights = head_weights
        self.head_biases = head_biases
        for w, b in zip(weights, biases):
            if w.data.ndim != 3 or b.shape != (w.shape[0], w.shape[2]):
                raise DimensionMismatch("layer weights must be (C, in, out), biases (C, out)")
        hw = head_weights.data
        if hw.ndim != 3 or head_biases.shape != (hw.shape[0], hw.shape[2]):
            raise DimensionMismatch("head weights must be (T, in, dim), biases (T, dim)")

    @classmethod
    def init(
        cls,
        spec: SupergraphSpec,
        num_tasks: int,
        head_dim: int,
        rng: np.random.Generator,
    ) -> "OperationParams":
        weights, biases = [], []
        for in_dim, out_dim in spec.layer_dims:
            w = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, out_dim))
            weights.append(Tensor(np.repeat(w[None], num_tasks, axis=0)))
            biases.append(Tensor(np.zeros((num_tasks, out_dim))))
        enc_out = spec.layer_dims[-1][1]
        head_w = rng.normal(0.0, 1.0 / np.sqrt(enc_out), size=(num_tasks, enc_out, head_dim))
        head_b = np.zeros((num_tasks, head_dim))
        return cls(weights, biases, Tensor(head_w), Tensor(head_b))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[Tensor]:
        """Each layer's weights then biases, then the heads' weights and biases."""
        layers = [p for wb in zip(self.weights, self.biases) for p in wb]
        return layers + [self.head_weights, self.head_biases]


class SGD:
    """Momentum SGD (SGD_MOMENTUM), L2 weight decay (SGD_WEIGHT_DECAY) folded into the gradient.

    The parameters and their velocity live in one contiguous buffer, and
    each parameter's .data becomes a view into it, so that a step is a few
    whole-buffer ufuncs, computed elementwise in the order of the per-array
    update. lr_scales supports the shared-op rule of dividing the learning
    rate by the number of tasks using an operation: one factor per
    parameter, a float or an array that broadcasts against it, expanded
    once into the per-element step size lr * s. reset_momentum implements
    the restart that follows an architecture change. step takes the
    gradients in the order of params and leaves them unchanged.
    """

    def __init__(self, params, lr, lr_scales=None):
        params = list(params)
        self.lr = float(lr)
        scales = lr_scales if lr_scales is not None else [1.0] * len(params)
        if len(scales) != len(params):
            raise DimensionMismatch("one lr scale per parameter required")
        size = sum(p.data.size for p in params)
        buffer = np.zeros(2 * size)
        self.flat, self.velocity = buffer[:size], buffer[size:]
        self.step_size = np.empty(size)
        start = 0
        for p, s in zip(params, scales):
            stop = start + p.data.size
            view = self.flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            self.step_size[start:stop].reshape(p.data.shape)[...] = self.lr * np.asarray(
                s, dtype=np.float64
            )
            p.data, start = view, stop

    def step(self, grads):
        g = np.concatenate(grads, axis=None)
        g += SGD_WEIGHT_DECAY * self.flat
        self.velocity *= SGD_MOMENTUM
        self.velocity += g
        self.flat -= self.step_size * self.velocity

    def reset_momentum(self):
        self.velocity[...] = 0.0


class Adam:
    """Adam on one array, value (the architecture logits), L2 weight decay
    ADAM_WEIGHT_DECAY folded into the gradient."""

    def __init__(self, value, lr):
        self.value = np.asarray(value, dtype=np.float64)
        self.lr = float(lr)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.t = 0

    def step(self, grad):
        self.t += 1
        b1, b2 = ADAM_BETAS
        g = grad + ADAM_WEIGHT_DECAY * self.value
        self.m *= b1
        self.m += (1.0 - b1) * g
        self.v *= b2
        self.v += (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        self.value = self.value - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
