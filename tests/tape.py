"""A reverse-mode autodiff tape of the branched network, the slow,
define-by-run reference that checks the gradients of the batched engine in
`bmtas.search`.

Ops record their parents and a closure that maps the output gradient to
parent gradients, and `backward` replays the tape in reverse topological
order. The ops take the engine's `OperationParams`, whose plain arrays
enter a forward pass as constants, or `TapeParams`, whose `Tensor` leaves
`leaves` builds over the same arrays and whose `.grad` `backward` fills.
Everything is double precision; the vocabulary is affine + tanh
operations, affine task heads of one width and MSE.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from bmtas.errors import BmtasError, BoundsError, DimensionMismatch, DomainError, NumericError
from bmtas.nncore import OperationParams
from bmtas.resloss import softmax as _softmax


class ModeError(BmtasError, ValueError):
    """An argument is of the wrong kind, such as a value off the tape."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward op."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _index(x, idx) -> Tensor:
    """x[idx] on the tape, for a tape Tensor or a plain parameter array."""
    value = x.data if isinstance(x, Holder) else x

    def grad_fn(g):
        full = np.zeros_like(value)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor(np.array(value[idx]), (x,), grad_fn)


class Holder:
    """A float64 array, data, checked finite at construction, so that a NaN
    or Inf produced anywhere in a forward pass raises at once."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds NaN or Inf")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape


class Tensor(Holder):
    """A value plus the bookkeeping needed for reverse mode: its gradient,
    grad, None until `backward` reaches it, and its parents."""

    __slots__ = ("grad", "_parents", "_grad_fn")

    def __init__(self, data, _parents=(), _grad_fn=None):
        super().__init__(data)
        self.grad = None
        self._parents = _parents
        self._grad_fn = _grad_fn

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
    __getitem__ = _index

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


def _wrap(x) -> Holder:
    return x if isinstance(x, Holder) else Tensor(x)


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
        for parent in getattr(node, "_parents", ()):  # a plain array is a leaf
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
        if not isinstance(node, Tensor):
            raise ModeError("a plain parameter array takes no gradient; wrap it with leaves")
        node.grad = g if node.grad is None else node.grad + g
        grad_fn = getattr(node, "_grad_fn", None)
        if grad_fn is None:
            continue
        for parent, pg in zip(node._parents, grad_fn(g)):
            got = pending.get(id(parent))
            pending[id(parent)] = pg if got is None else got + pg


def reset_grads(params):
    for p in params:
        p.grad = None


class TapeParams(NamedTuple):
    """The four fields of `OperationParams`, each parameter a tape `Tensor`."""

    weights: list
    biases: list
    head_weights: Tensor
    head_biases: Tensor

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    parameters = OperationParams.parameters


def leaves(params: OperationParams) -> TapeParams:
    """params with each parameter a tape leaf over the same array."""
    return TapeParams(
        [Tensor(w) for w in params.weights],
        [Tensor(b) for b in params.biases],
        Tensor(params.head_weights),
        Tensor(params.head_biases),
    )


def candidate_forward(
    params: OperationParams | TapeParams, layer: int, candidate: int, x
) -> Tensor:
    """tanh(x W + b) for one candidate op; layer is 1-based."""
    if not 1 <= layer <= params.num_layers:
        raise BoundsError(f"layer {layer} out of range")
    if not 0 <= candidate < params.weights[layer - 1].shape[0]:
        raise BoundsError(f"candidate {candidate} out of range")
    x = _wrap(x)
    w = _index(params.weights[layer - 1], candidate)
    if x.shape[-1] != w.shape[0]:
        raise DimensionMismatch(
            f"input width {x.shape[-1]} does not match layer width {w.shape[0]}"
        )
    return (x @ w + _index(params.biases[layer - 1], candidate)).tanh()


def mixed_layer_forward(params: OperationParams | TapeParams, layer: int, z_row, x) -> Tensor:
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


def head_forward(params: OperationParams | TapeParams, task: int, features) -> Tensor:
    """Affine task head; excluded from every resource cost."""
    if not 0 <= task < params.head_weights.shape[0]:
        raise BoundsError(f"task {task} out of range")
    features = _wrap(features)
    return features @ _index(params.head_weights, task) + _index(params.head_biases, task)


def task_loss(prediction, target) -> Tensor:
    prediction = _wrap(prediction)
    target = _wrap(target)
    if prediction.shape != target.shape:
        raise DimensionMismatch("prediction and target shapes disagree")
    diff = prediction - target
    return (diff * diff).mean()
