"""Branched-network parameters, optimizers, and a reverse-mode tape.

Training does not run on the tape: `search._features` and
`search._backward_tasks` compute the branched network's forward and backward
by hand over the stacked arrays of `OperationParams` (each layer's
operations, and the task heads, stacked along a leading axis), reading each
parameter's `.data` and writing its `.grad`. `SGD` keeps every parameter in
one flat buffer, of which each `.data` is a view, and steps it from their
`.grad` with whole-buffer ufuncs; `Adam` steps one array, the architecture
logits. Both take a learning rate and read the rest from the constants below.
The tape (`Tensor`, `backward`, and the ops `candidate_forward`,
`mixed_layer_forward`, `head_forward` and `task_loss`) is the slow,
define-by-run reference that checks that engine and the end-to-end
gradients: ops record their parents and a closure that maps the output
gradient to parent gradients, and `backward` replays the tape in reverse
topological order. Everything is double precision; the vocabulary is
affine + tanh operations, affine task heads of one width and MSE.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundsError, DimensionMismatch, DomainError, ModeError, NumericError
from .graph import SupergraphSpec
from .resloss import softmax as _softmax

SGD_MOMENTUM = 0.9
SGD_WEIGHT_DECAY = 1e-4
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 5e-5


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward op."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse mode.

    Construction validates finiteness, so a NaN or Inf produced anywhere
    in a forward pass raises immediately instead of corrupting training.
    """

    __slots__ = ("data", "grad", "_parents", "_grad_fn")

    def __init__(self, data, _parents=(), _grad_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds NaN or Inf")
        self.data = arr
        self.grad = None
        self._parents = _parents
        self._grad_fn = _grad_fn

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __matmul__(self, other):
        other = _wrap(other)
        a, b = self.data, other.data

        def grad_fn(g):
            return g @ b.T, a.T @ g

        return Tensor(a @ b, (self, other), grad_fn)

    def __add__(self, other):
        other = _wrap(other)

        def grad_fn(g):
            return (
                _unbroadcast(g, self.data.shape),
                _unbroadcast(g, other.data.shape),
            )

        return Tensor(self.data + other.data, (self, other), grad_fn)

    def __sub__(self, other):
        other = _wrap(other)

        def grad_fn(g):
            return (
                _unbroadcast(g, self.data.shape),
                _unbroadcast(-g, other.data.shape),
            )

        return Tensor(self.data - other.data, (self, other), grad_fn)

    def __mul__(self, other):
        other = _wrap(other)
        a, b = self.data, other.data

        def grad_fn(g):
            return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

        return Tensor(a * b, (self, other), grad_fn)

    __rmul__ = __mul__

    def __getitem__(self, idx):
        def grad_fn(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor(np.array(self.data[idx]), (self,), grad_fn)

    def tanh(self):
        out = np.tanh(self.data)

        def grad_fn(g):
            return (g * (1.0 - out * out),)

        return Tensor(out, (self,), grad_fn)

    def mean(self):
        size = self.data.size

        def grad_fn(g):
            return (np.full(self.data.shape, float(g) / size),)

        return Tensor(self.data.mean(), (self,), grad_fn)

    def softmax1d(self):
        if self.data.ndim != 1:
            raise DimensionMismatch("softmax1d expects a vector")
        y = _softmax(self.data)

        def grad_fn(g):
            return (y * (g - float(y @ g)),)

        return Tensor(y, (self,), grad_fn)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo_order(root: Tensor) -> list:
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    order.reverse()
    return order


def backward(root: Tensor, seed: float = 1.0):
    """Populate .grad along the tape rooted at a scalar.

    Gradients accumulate into any existing .grad, so several backward
    calls sum their contributions; use reset_grads between steps.
    """
    if not isinstance(root, Tensor):
        raise ModeError("backward needs the recorded forward output")
    if root.data.shape != ():
        raise DimensionMismatch("backward root must be a scalar")
    pending = {id(root): np.asarray(float(seed))}
    for node in _topo_order(root):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            got = pending.get(id(parent))
            pending[id(parent)] = pg if got is None else got + pg


def collect_grads(params) -> list:
    """Gradients in parameter order; parameters off the tape count as zero."""
    return [
        p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
    ]


def reset_grads(params):
    for p in params:
        p.grad = None


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


def candidate_forward(params: OperationParams, layer: int, candidate: int, x) -> Tensor:
    """tanh(x W + b) for one candidate op; layer is 1-based."""
    if not 1 <= layer <= params.num_layers:
        raise BoundsError(f"layer {layer} out of range")
    if not 0 <= candidate < params.weights[layer - 1].shape[0]:
        raise BoundsError(f"candidate {candidate} out of range")
    x = _wrap(x)
    w = params.weights[layer - 1][candidate]
    if x.shape[-1] != w.shape[0]:
        raise DimensionMismatch(
            f"input width {x.shape[-1]} does not match layer width {w.shape[0]}"
        )
    return (x @ w + params.biases[layer - 1][candidate]).tanh()


def mixed_layer_forward(params: OperationParams, layer: int, z_row, x) -> Tensor:
    """Convex mixture of all candidate outputs, weighted by the routing row.

    A Tensor z_row participates in differentiation (soft routing); a plain
    array is treated as constants (discrete or frozen routing).
    """
    if not 1 <= layer <= params.num_layers:
        raise BoundsError(f"layer {layer} out of range")
    count = params.weights[layer - 1].shape[0]
    values = z_row.data if isinstance(z_row, Tensor) else np.asarray(z_row, dtype=np.float64)
    if values.shape != (count,):
        raise DimensionMismatch("routing row length must equal the operation count")
    if abs(float(values.sum()) - 1.0) > 1e-9:
        raise DomainError("routing row must sum to 1")
    out = None
    for j in range(count):
        zj = z_row[(j,)] if isinstance(z_row, Tensor) else float(values[j])
        term = zj * candidate_forward(params, layer, j, x)
        out = term if out is None else out + term
    return out


def head_forward(params: OperationParams, task: int, features) -> Tensor:
    """Affine task head; excluded from every resource cost."""
    if not 0 <= task < params.head_weights.shape[0]:
        raise BoundsError(f"task {task} out of range")
    features = _wrap(features)
    return features @ params.head_weights[task] + params.head_biases[task]


def task_loss(prediction, target) -> Tensor:
    prediction = _wrap(prediction)
    target = _wrap(target)
    if prediction.shape != target.shape:
        raise DimensionMismatch("prediction and target shapes disagree")
    diff = prediction - target
    return (diff * diff).mean()


class SGD:
    """Momentum SGD (SGD_MOMENTUM), L2 weight decay (SGD_WEIGHT_DECAY) folded into the gradient.

    The parameters and their velocity live in one contiguous buffer, and
    each parameter's .data becomes a view into it, so that a step is a few
    whole-buffer ufuncs, computed elementwise in the order of the per-array
    update. lr_scales supports the shared-op rule of dividing the learning
    rate by the number of tasks using an operation: one factor per
    parameter, a float or an array that broadcasts against it, expanded
    once into the per-element step size lr * s. reset_momentum implements
    the restart that follows an architecture change.
    """

    def __init__(self, params, lr, lr_scales=None):
        self.params = list(params)
        self.lr = float(lr)
        scales = lr_scales if lr_scales is not None else [1.0] * len(self.params)
        if len(scales) != len(self.params):
            raise DimensionMismatch("one lr scale per parameter required")
        size = sum(p.data.size for p in self.params)
        buffer = np.zeros(2 * size)
        self.flat, self.velocity = buffer[:size], buffer[size:]
        self.step_size = np.empty(size)
        start = 0
        for p, s in zip(self.params, scales):
            stop = start + p.data.size
            view = self.flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            self.step_size[start:stop].reshape(p.data.shape)[...] = self.lr * np.asarray(
                s, dtype=np.float64
            )
            p.data, start = view, stop

    def step(self):
        g = np.concatenate(collect_grads(self.params), axis=None)
        g += SGD_WEIGHT_DECAY * self.flat
        self.velocity *= SGD_MOMENTUM
        self.velocity += g
        self.flat -= self.step_size * self.velocity

    def reset_momentum(self):
        self.velocity[...] = 0.0


class Adam:
    """Adam on one array, value, L2 weight decay ADAM_WEIGHT_DECAY folded into the gradient."""

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
