"""Branched-network parameters, `OperationParams`, plain float64 arrays in
one flat buffer, and their optimizers, `SGD` and `Adam`, which take a
learning rate and read the rest from the constants below.
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
    """Empty: `benchmarks/tracing.py` counts calls through its __init__, and
    nothing constructs one. ROADMAP item 1 removes it with that counter."""


class OperationParams:
    """Branched-network weights as views of one flat float64 array, flat.
    Layer l's operations are stacked: weights[l-1] is one array of shape
    (C_l, in, out) and biases[l-1] one of shape (C_l, out), with one
    operation per task in the supergraph and one per block once retrained.
    The task heads are stacked the same way, one (T, enc_out, dim) array
    head_weights and one (T, dim) head_biases, so every head has one width.
    Construction copies the arrays into flat in the order of `parameters()`
    and raises NumericError if one holds a NaN or Inf. `init` draws one
    weight matrix per layer and copies it to every candidate, so that
    before any training the mixed output is independent of routing.
    """

    def __init__(self, weights, biases, head_weights, head_biases):
        arrays = [*(p for wb in zip(weights, biases) for p in wb), head_weights, head_biases]
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        for w, b in zip(arrays[::2], arrays[1::2]):  # each layer's pair, then the heads'
            if w.ndim != 3 or b.shape != (w.shape[0], w.shape[2]):
                raise DimensionMismatch("weights must be (C, in, out) and biases (C, out)")
        self.flat = np.concatenate(arrays, axis=None)
        if not np.isfinite(self.flat).all():
            raise NumericError("tensor holds NaN or Inf")
        ends = np.cumsum([a.size for a in arrays[:-1]])
        views = [v.reshape(a.shape) for v, a in zip(np.split(self.flat, ends), arrays)]
        self.weights, self.biases = views[:-2:2], views[1:-2:2]
        self.head_weights, self.head_biases = views[-2:]

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
            weights.append(np.repeat(w[None], num_tasks, axis=0))
            biases.append(np.zeros((num_tasks, out_dim)))
        enc_out = spec.layer_dims[-1][1]
        head_w = rng.normal(0.0, 1.0 / np.sqrt(enc_out), size=(num_tasks, enc_out, head_dim))
        return cls(weights, biases, head_w, np.zeros((num_tasks, head_dim)))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Each layer's weights then biases, then the heads' weights and
        biases: the views of flat, in its order."""
        layers = [p for wb in zip(self.weights, self.biases) for p in wb]
        return layers + [self.head_weights, self.head_biases]


class SGD:
    """Momentum SGD (SGD_MOMENTUM), L2 weight decay (SGD_WEIGHT_DECAY) folded into the gradient.

    step updates params.flat in place by a few whole-buffer ufuncs,
    computed elementwise in the order of the per-array update, so every
    optimizer built on one OperationParams steps the same storage. lr_scales
    supports the shared-op rule of dividing the learning rate by the number
    of tasks using an operation: one factor per parameter, a float or an
    array that broadcasts against it, expanded once into the per-element
    step size lr * s. reset_momentum implements the restart that follows an
    architecture change. step takes the gradients in the order of
    `params.parameters()` and leaves them unchanged.
    """

    def __init__(self, params, lr, lr_scales=None):
        arrays = params.parameters()
        scales = lr_scales if lr_scales is not None else [1.0] * len(arrays)
        if len(scales) != len(arrays):
            raise DimensionMismatch("one lr scale per parameter required")
        self.flat = params.flat
        self.velocity = np.zeros_like(self.flat)
        steps = [float(lr) * np.asarray(s, dtype=np.float64) for s in scales]
        self.step_size = np.concatenate(
            [np.broadcast_to(s, p.shape) for s, p in zip(steps, arrays)], axis=None
        )

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
