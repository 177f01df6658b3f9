"""The engine's earlier formulas, kept as bit-for-bit oracles of the fast
paths in `bmtas.search` and `bmtas.resloss`: one fresh temporary per
numpy call, the operations mixed by a left-fold loop, every discrete layer
gathered and its gradients scattered into per-task slots and summed, and
the subset products grown by concatenation."""

import numpy as np

from bmtas.errors import NumericError
from bmtas.resloss import softmax


def mix_by_loop(r, y):
    """sum_c r[:, c] * y[:, c], one operation at a time, in order."""
    h = r[:, 0, None, None] * y[:, 0]
    for c in range(1, r.shape[1]):
        h = h + r[:, c, None, None] * y[:, c]
    return h


def features(params, routing, x):
    h, cache = x[None], []
    for w, b, r in zip(params.weights, params.biases, routing):
        soft = r.ndim == 2
        w, b = (w, b[:, None]) if soft else (w[r], b[r, None])
        pre = (h[:, None] if soft else h) @ w + b
        if not np.isfinite(pre).all():
            raise NumericError("tensor holds NaN or Inf")
        y = np.tanh(pre)
        cache.append((h, y, w))
        h = mix_by_loop(r, y) if soft else y
    return h, cache


def backward_tasks(params, routing, data, idx, omega, row_grads=False):
    """Losses and gradients as `search.backward` returns them: without
    row_grads, one fresh array per parameter in parameter order."""
    h, cache = features(params, routing, data.inputs_train[idx])
    hw, hb = params.head_weights, params.head_biases
    diff = h @ hw + hb[:, None] - data.targets_train[:, idx]
    size = diff[0].size
    losses = (diff * diff).sum(axis=(1, 2)) / size
    if not np.isfinite(losses).all():
        raise NumericError("tensor holds NaN or Inf")
    g = (np.asarray(omega, dtype=np.float64) / size)[:, None, None] * diff
    g = g + g
    if not row_grads:
        head_grads = [h.swapaxes(1, 2) @ g, g.sum(axis=1)]
    dh, grads = g @ hw.swapaxes(1, 2), []
    for l in reversed(range(params.num_layers)):
        w, b, r, (h, y, wr) = params.weights[l], params.biases[l], routing[l], cache[l]
        if r.ndim == 1:
            dpre = dh * (1.0 - y * y)
            if not row_grads:
                tasks = np.arange(len(r))
                dw, db = np.zeros((len(r),) + w.shape), np.zeros((len(r),) + b.shape)
                dw[tasks, r], db[tasks, r] = h.swapaxes(1, 2) @ dpre, dpre.sum(axis=1)
                grads[:0] = dw.sum(axis=0), db.sum(axis=0)
            if l:
                dh = dpre @ wr.swapaxes(1, 2)
        else:
            if row_grads:
                grads.insert(0, (dh[:, None] * y).sum(axis=2).sum(axis=2))
            dpre = dh[:, None] * r[:, :, None, None] * (1.0 - y * y)
            if not row_grads:
                dw = (h[:, None].swapaxes(2, 3) @ dpre).sum(axis=0)
                grads[:0] = dw, dpre.sum(axis=2).sum(axis=0)
            if l:
                dh = (dpre @ wr.swapaxes(1, 2)).sum(axis=1)
    return losses.tolist(), grads if row_grads else grads + head_grads


def subsets(logits):
    """(sign, prod, agree) over task subsets, grown by concatenation; the
    empty subset agrees with chance 1."""
    pi = softmax(logits, axis=2)
    prod = np.ones((1,) + pi.shape[1:])
    sign = np.array([-1.0])
    for u in range(len(logits)):
        prod = np.concatenate([prod, prod * pi[u]])
        sign = np.concatenate([sign, -sign])
    sign[0] = 0.0
    agree = prod.sum(axis=2)
    agree[0] = 1.0
    return sign, prod, agree
