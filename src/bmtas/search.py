"""Branching search: warm-up, alternating architecture/weight updates with
an annealed Gumbel-Softmax, argmax discretization, and from-scratch
retraining of the found structure. The soft sample multiplies candidate
outputs directly (a mixture); there is no straight-through pass.

One batched engine carries every stage. `_features` runs all tasks'
encoders at once over the stacked operation arrays of `OperationParams`,
layer by layer through `candidate_forward` and `mixed_layer_forward`;
`head_forward` and `task_loss` finish the forward pass, and `backward` is
its hand-written reverse pass: it returns the gradients of the
omega-weighted task losses as fresh arrays in parameter order, or the
gradient of each routing row. Each layer is routed either by one
operation index per task (warm-up, retraining and `features`), which
gathers the T weight slices used unless task t takes operation t, or by a
(tasks, operations) array of Gumbel-Softmax mixture rows (the search). The
task heads are one stacked affine map, so loss and head gradients are one
batched call each. The architecture gradient is the softmax's chain rule on
the row gradients. Arrays are combined in the order of the ops of the
reverse-mode tape in `tests/tape.py`, the engine's test oracle. Three
reductions fix the bits: numpy's sum mixes the operations, a left fold, but
an accumulate mixes eight or more one-element terms, which numpy adds
pairwise; batch sums fold a batch-major copy in one loop, as numpy folds a
batch of width 2 or more, and keep numpy's pairwise sum at width 1; numpy's
reduction sums a shared operation's gradient over tasks, pairwise for eight
or more such terms.

Every iteration draws fresh routing noise, takes one weight step on the
large data split, one architecture step (task loss plus the weighted,
normalized expected cost) on the small split, and resets weight momentum
whenever the discretized architecture changes; the structure is derived
again only when some task's argmax pick changes. Each stage draws its
batches a block at a time, bit for bit as successive `Generator.choice`
calls draw them, and gathers rows and routed weights with `take`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import BoundsError, ConfigError, NumericError, SearchError
from .eval import Dataset
from .graph import BranchedStructure, SupergraphSpec, derive_groupings, structure_hash
from .nncore import SGD, Adam, OperationParams, Tensor
from .resloss import ArchitectureParams, _cost_and_grad, softmax
# benchmarks/tracing.py patches these names here; nothing in this module calls them
from .resloss import expected_cost, expected_cost_grad
from .seeding import rng_stream

BATCH_SIZE = 32  # training rows per weight or architecture step
BATCH_BLOCK = 256  # batches drawn at once; bounds a stage's draws whatever its steps
ALPHA_DATA_FRACTION = 0.2  # share of the training rows kept for the architecture steps
# keeps -log(-log(u)) finite at both ends of the uniform draw
NOISE_EPS = 1e-12


class SearchConfig:
    """Hyperparameters of one run, and the only home of their defaults.

    The parameters are the `search` keys of a run config plus the seed; the
    config's lambda is resource_weight, the multiplier on the normalized
    expected cost (1.0 = fully shared), so its useful range is independent
    of the cost table's units. The temperature anneals linearly from
    tau_start to tau_end over the search steps. theta_lr is the SGD
    learning rate of warm-up, search and retraining, alpha_lr Adam's. omega
    weights the task losses, all 1 when None. Fixed training details are
    constants: BATCH_SIZE and ALPHA_DATA_FRACTION here, the rest in `nncore`.
    """

    def __init__(
        self,
        resource_weight: float = 0.0,
        warmup_steps: int = 300,
        search_steps: int = 300,
        tau_start: float = 5.0,
        tau_end: float = 0.1,
        theta_lr: float = 0.3,
        alpha_lr: float = 0.01,
        retrain_steps: int = 400,
        seed: int = 0,
        omega: Sequence[float] | None = None,
    ):
        # an integer past the largest float raises OverflowError here
        self.resource_weight = float(resource_weight)
        self.warmup_steps, self.search_steps = warmup_steps, search_steps
        self.tau_start, self.tau_end = float(tau_start), float(tau_end)
        self.theta_lr, self.alpha_lr = float(theta_lr), float(alpha_lr)
        self.retrain_steps, self.seed, self.omega = retrain_steps, seed, omega
        if not 0 <= self.resource_weight < float("inf"):
            raise ConfigError("resource_weight must be non-negative and finite")
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        if min(warmup_steps, retrain_steps) < 0 or search_steps < 1:
            raise ConfigError("step counts out of range")
        if not self.tau_start >= self.tau_end > 0:
            raise ConfigError("need tau_start >= tau_end > 0")
        if omega is not None:
            self.omega = tuple(float(w) for w in omega)
            if not all(w > 0 for w in self.omega):
                raise ConfigError("omega weights must be positive")

    def weights_for(self, dataset: Dataset) -> tuple[float, ...]:
        if self.omega is None:
            return (1.0,) * dataset.num_tasks
        if len(self.omega) != dataset.num_tasks:
            raise ConfigError("omega length does not match the task count")
        return self.omega


class TraceRow(NamedTuple):
    """Post-update snapshot of one search iteration."""

    step: int
    tau: float
    task_losses: tuple[float, ...]
    resource_loss: float
    expected_cost: float
    structure_hash: str


class SearchResult(NamedTuple):
    structure: BranchedStructure
    alpha_final: ArchitectureParams
    trace: list[TraceRow]


def _batches(rng: np.random.Generator, pool: np.ndarray, steps: int):
    """steps batches of k = min(BATCH_SIZE, len(pool)) rows of pool, each as
    pool[rng.choice(len(pool), k, replace=False)] draws it: per block, one
    integers call makes choice's Floyd draws, in 0..j for j = n-k .. n-1, then
    its Fisher-Yates draws, in 0..i for i = k-1 .. 1, for every batch. choice
    leaves Floyd only for n > 10000 and k > n // 50, which k <= 32 never meets."""
    n, k = len(pool), min(BATCH_SIZE, len(pool))
    bounds = np.r_[n - k + 1 : n + 1, k : 1 : -1]  # exclusive upper bounds
    for start in range(0, steps, BATCH_BLOCK):
        draws = rng.integers(bounds, size=(min(BATCH_BLOCK, steps - start), len(bounds)))
        idx = draws[:, :k].copy()
        for c in range(1, k):  # Floyd: a draw already taken takes j instead
            idx[(idx[:, :c] == idx[:, c, None]).any(axis=1), c] = n - k + c
        flat, first = idx.reshape(-1), np.arange(0, idx.size, k)
        for i, j in zip(range(k - 1, 0, -1), draws[:, k:].T):
            flat[first + i], flat[first + j] = flat[first + j], flat[first + i]
        yield from pool.take(idx)


def _loss_scale(omega, data: Dataset, pool: np.ndarray) -> np.ndarray:
    """omega[t] / (batch rows * target width) as (T, 1, 1), for batches from pool."""
    size = min(BATCH_SIZE, len(pool)) * data.targets_train.shape[2]
    return (np.asarray(omega, dtype=np.float64) / size)[:, None, None]


def candidate_forward(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tanh(h @ w + b), one layer's routed operations w, b on their inputs h;
    NumericError if h @ w + b holds a NaN or Inf, which tanh would hide."""
    pre = h @ w
    pre += b
    if not np.isfinite(pre).all():
        raise NumericError("tensor holds NaN or Inf")
    return np.tanh(pre, out=pre)


def mixed_layer_forward(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_c r[:, c] * y[:, c], task t's mixture by its routing row r[t] of the
    outputs y (T or 1, C, B, out) of the layer's C operations, shape (T, B, out).
    numpy's sum is a left fold but for 8 or more 1-element terms."""
    m = r[:, :, None, None] * y
    pairwise = m.shape[1] >= 8 and m[0, 0].size == 1
    return np.add.accumulate(m, axis=1)[:, -1] if pairwise else m.sum(axis=1)


def head_forward(params: OperationParams, h: np.ndarray) -> np.ndarray:
    """Every task head on its task's encoder output h (T, B, enc_out)."""
    return h @ params.head_weights.data + params.head_biases.data[:, None]


def task_loss(prediction: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each task's mean squared error, shape (T,), and the residual
    prediction - targets; NumericError if a loss is not finite."""
    diff = prediction - targets
    losses = (diff * diff).sum(axis=(1, 2)) / diff[0].size
    if not np.isfinite(losses).all():
        raise NumericError("tensor holds NaN or Inf")
    return losses, diff


def _features(params: OperationParams, routing, x: np.ndarray):
    """Every routed task's encoder output, shape (T, B, out), and per layer
    the (input, outputs, weights) triple that `backward` reuses.

    routing[l] routes layer l+1, and its kind selects the computation. An
    integer array of shape (T,) holds task t's operation index: the layer
    gathers those T weight slices and runs each on its task's input,
    (T, B, out); None routes task t to operation t and gathers nothing. A
    (T, C) array's row t mixes the layer's C operations for task t: layer 1
    runs each operation once on x, (1, C, B, out), deeper layers every
    operation on every task's input, (T, C, B, out), and the outputs are
    summed by a left fold in the tape's order, so that sums match it bitwise.
    """
    h, cache = x[None], []
    for w, b, r in zip(params.weights, params.biases, routing):
        soft = r is not None and r.ndim == 2
        w, b = w.data, b.data[:, None]
        if r is not None and not soft:
            w, b = w.take(r, axis=0), b.take(r, axis=0)
        y = candidate_forward(h[:, None] if soft else h, w, b)
        cache.append((h, y, w))
        h = mixed_layer_forward(r, y) if soft else y
    return h, cache


def _batch_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=2) of a (T, C, B, out) array, bit for bit: numpy's left fold
    over the batch for out >= 2, run as one long loop over a batch-major copy."""
    if a.shape[3] == 1:  # numpy sums a batch of width 1 pairwise
        return a.sum(axis=2)
    return np.ascontiguousarray(a.transpose(2, 0, 1, 3)).sum(axis=0)


def backward(params: OperationParams, routing, data: Dataset, idx, scale, row_grads=False):
    """Unweighted losses of the T tasks on the training rows idx, task t
    routed by routing[l][t] (see `_features`), and gradients as fresh
    arrays. By default these are the gradients of sum_t omega[t] * loss_t,
    scale being `_loss_scale`, in the order of `params.parameters()`; with
    row_grads, instead, per layer the gradient of the soft routing[l]."""
    h, cache = _features(params, routing, data.inputs_train.take(idx, axis=0))
    losses, diff = task_loss(head_forward(params, h), data.targets_train.take(idx, axis=1))
    g = scale * diff
    g += g  # d/d diff of diff * diff, one term per factor
    if not row_grads:
        head_grads = [h.swapaxes(1, 2) @ g, g.sum(axis=1)]
    dh, grads = g @ params.head_weights.data.swapaxes(1, 2), []
    for l in reversed(range(params.num_layers)):
        w, b, r, (h, y, wr) = params.weights[l], params.biases[l], routing[l], cache[l]
        if r is None or r.ndim == 1:
            dpre = np.subtract(1.0, np.multiply(y, y, out=y), out=y)  # y is spent here
            dpre *= dh
            if not row_grads and r is None:  # one term per operation: no scatter, no sum
                grads[:0] = h.swapaxes(1, 2) @ dpre, dpre.sum(axis=1)
            elif not row_grads:
                # each task's term in its operation's slot and zeros elsewhere,
                # summed over tasks by the mixture path's reduction and order
                tasks = np.arange(len(r))
                dw, db = np.zeros((len(r),) + w.shape), np.zeros((len(r),) + b.shape)
                dw[tasks, r], db[tasks, r] = h.swapaxes(1, 2) @ dpre, dpre.sum(axis=1)
                grads[:0] = dw.sum(axis=0), db.sum(axis=0)
            if l:
                dh = dpre @ wr.swapaxes(1, 2)
        else:
            if row_grads:
                grads.insert(0, _batch_sum(dh[:, None] * y).sum(axis=2))
                if not l:
                    break  # nothing reads layer 1's dpre
            dpre = dh[:, None] * r[:, :, None, None]
            dpre *= np.subtract(1.0, np.multiply(y, y, out=y), out=y)
            if not row_grads:
                dw = (h[:, None].swapaxes(2, 3) @ dpre).sum(axis=0)
                grads[:0] = dw, _batch_sum(dpre).sum(axis=0)
            if l:
                dh = (dpre @ wr.swapaxes(1, 2)).sum(axis=1)
    return losses.tolist(), grads if row_grads else grads + head_grads


def _architecture_grad(params, logits, noise, tau, data, idx, scale) -> np.ndarray:
    """d sum_t omega[t] * loss_t / d logits under the routing rows
    softmax((logits + noise) / tau), the softmax's chain rule on the row
    gradients."""
    inv_tau = 1.0 / tau
    z = softmax((logits + noise) * inv_tau, axis=2)
    dz = backward(params, list(z.swapaxes(0, 1)), data, idx, scale, row_grads=True)[1]
    dz = np.stack(dz, axis=1)
    return z * (dz - (z[..., None, :] @ dz[..., None])[..., 0]) * inv_tau


def _fit(stage, params, routing, data, omega, steps, rng, lr, lr_scales=None):
    """Plain momentum SGD at learning rate lr, one batch a step; errors name stage and step."""
    opt = SGD(params.parameters(), lr, lr_scales)
    all_rows = np.arange(data.inputs_train.shape[0])
    scale = _loss_scale(omega, data, all_rows)
    # a diverging step overflows; the finiteness checks of the engine and
    # ArchitectureParams raise NumericError for it, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for step, idx in enumerate(_batches(rng, all_rows, steps), start=1):
            try:
                grads = backward(params, routing, data, idx, scale)[1]
            except NumericError as exc:
                message = f"non-finite value at {stage} step {step}: {exc}"
                raise NumericError(message, stage, step) from exc
            opt.step(grads)


def warm_up(supergraph: SupergraphSpec, data: Dataset, config: SearchConfig) -> OperationParams:
    """Assign candidate j to task j for config's warmup_steps of plain SGD.

    Candidates start identical; warm-up is what differentiates them, giving
    the later search a meaningful candidate-task affinity to exploit. The
    learning rate is config's theta_lr.
    """
    rng = rng_stream(config.seed, "warmup")
    params = OperationParams.init(supergraph, data.num_tasks, data.targets_train.shape[2], rng)
    routing = [None] * supergraph.num_layers  # task t on operation t
    ones = (1.0,) * data.num_tasks
    _fit("warm-up", params, routing, data, ones, config.warmup_steps, rng, config.theta_lr)
    return params


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel draws via -log(-log(u)), u kept away from {0, 1}."""
    u = rng.uniform(NOISE_EPS, 1.0 - NOISE_EPS, size=shape)
    return -np.log(-np.log(u))


def schedule_tau(start: float, end: float, step: int, total: int) -> float:
    """The temperature at step 0..total of a linear anneal from start to end."""
    if not 0 <= step <= total:
        raise BoundsError(f"step {step} outside 0..{total}")
    return start + (end - start) * (step / total)


def discretize(alpha: ArchitectureParams) -> np.ndarray:
    """The (tasks, layers) array of argmax picks: picks[t, l] is the operation
    task t takes at layer l + 1. Ties resolve to the lowest candidate index."""
    return alpha.logits.argmax(axis=2)


def search(
    config: SearchConfig,
    supergraph: SupergraphSpec,
    data: Dataset,
    params: OperationParams | None = None,
) -> SearchResult:
    """Run the alternating optimization and return the discretized result.

    When params is omitted, warm-up runs first with this config's settings.
    Raises ConfigError for fewer than two training rows and SearchError
    (with the partial trace attached) if training hits a non-finite value.
    """
    logits_shape = (data.num_tasks, supergraph.num_layers, data.num_tasks)
    omega = config.weights_for(data)
    n_train = data.inputs_train.shape[0]
    if n_train < 2:  # each split keeps at least one row
        raise ConfigError("search needs at least 2 training rows, one for each data split")
    perm = rng_stream(config.seed, "search", "split").permutation(n_train)
    n_alpha = min(max(1, round(ALPHA_DATA_FRACTION * n_train)), n_train - 1)
    alpha_rows, theta_rows = perm[:n_alpha], perm[n_alpha:]

    if params is None:
        params = warm_up(supergraph, data, config)

    steps, seed = config.search_steps, config.seed
    gumbel_rng = rng_stream(seed, "search", "gumbel")
    theta_batches = _batches(rng_stream(seed, "search", "theta-batches"), theta_rows, steps)
    alpha_batches = _batches(rng_stream(seed, "search", "alpha-batches"), alpha_rows, steps)

    theta_opt = SGD(params.parameters(), config.theta_lr)
    alpha_opt = Adam(np.zeros(logits_shape), config.alpha_lr)
    shared_cost = supergraph.cost_table.fully_shared_cost
    penalized, penalty = config.resource_weight > 0, config.resource_weight / shared_cost
    alpha_now = ArchitectureParams(alpha_opt.value)
    picks = discretize(alpha_now)
    structure = derive_groupings(picks)
    digest = structure_hash(structure)
    # each step's cost pass also yields the gradient the next step uses
    cost_grad = _cost_and_grad(alpha_now, supergraph.cost_table, penalized)[1]

    theta_scale, alpha_scale = (_loss_scale(omega, data, pool) for pool in (theta_rows, alpha_rows))
    horizon = max(steps - 1, 1)
    trace: list[TraceRow] = []
    with np.errstate(over="ignore", invalid="ignore"):  # as in _fit
        for step in range(1, steps + 1):
            tau = schedule_tau(config.tau_start, config.tau_end, step - 1, horizon)
            noise = gumbel_noise(logits_shape, gumbel_rng)
            try:
                # weight phase: routing is a constant sample
                rows = list(softmax((alpha_opt.value + noise) / tau, axis=2).swapaxes(0, 1))
                idx = next(theta_batches)
                losses, grads = backward(params, rows, data, idx, theta_scale)
                theta_opt.step(grads)

                # architecture phase: same noise, routing differentiated
                idx = next(alpha_batches)
                value = alpha_opt.value
                grad = _architecture_grad(params, value, noise, tau, data, idx, alpha_scale)
                if penalized:
                    grad = grad + penalty * cost_grad
                alpha_opt.step(grad)
                alpha_now = ArchitectureParams(alpha_opt.value)
                cost, cost_grad = _cost_and_grad(alpha_now, supergraph.cost_table, penalized)
            except NumericError as exc:
                raise SearchError(f"non-finite value at step {step}: {exc}", trace) from exc

            now = discretize(alpha_now)
            if not np.array_equal(now, picks):
                picks, structure = now, derive_groupings(now)
                digest = structure_hash(structure)
                theta_opt.reset_momentum()
            trace.append(TraceRow(step, tau, tuple(losses), cost / shared_cost, cost, digest))

    return SearchResult(structure=structure, alpha_final=alpha_now, trace=trace)


class RetrainedModel(NamedTuple):
    """A branched network trained from scratch on a fixed structure.

    params holds one operation per (layer, block), in the order of
    `structure.groupings[l].blocks()`, so task t takes operation
    `groupings[l].rgs[t]` at layer l+1.
    """

    structure: BranchedStructure
    params: OperationParams
    test_mse: dict[str, float]

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """Every task's encoder output on inputs, shape (T, N, out)."""
        routing = [np.array(g.rgs) for g in self.structure.groupings]
        return _features(self.params, routing, inputs)[0]


def retrain(
    structure: BranchedStructure,
    supergraph: SupergraphSpec,
    data: Dataset,
    config: SearchConfig,
) -> RetrainedModel:
    """Train the branched network from fresh weights and score it on the test split.

    One op instance per (layer, block); a shared op's learning rate, from
    config's theta_lr, is divided by the number of tasks in its block.
    Initialization streams are keyed by the task names inside each block,
    which makes a fully branched run reproduce independently trained
    single-task networks exactly. Every stream is keyed by config.seed.
    """
    if structure.num_tasks != data.num_tasks:
        raise ConfigError("structure task count does not match the dataset")
    if structure.num_layers != supergraph.num_layers:
        raise ConfigError("structure depth does not match the supergraph")
    names = data.task_names
    seed, omega = config.seed, config.weights_for(data)

    weights, biases, scales = [], [], []
    for layer, grouping in enumerate(structure.groupings, start=1):
        in_dim, out_dim = supergraph.layer_dims[layer - 1]
        blocks = grouping.blocks()
        w = []
        for block in blocks:
            stream = rng_stream(seed, "retrain-op", layer, *(names[t] for t in block))
            w.append(stream.normal(0.0, 1.0 / np.sqrt(in_dim), (in_dim, out_dim)))
        weights.append(Tensor(np.stack(w)))
        biases.append(Tensor(np.zeros((len(blocks), out_dim))))
        share = np.array([1.0 / len(block) for block in blocks])
        scales += [share[:, None, None], share[:, None]]

    enc_out, dim = supergraph.layer_dims[-1][1], data.targets_train.shape[2]
    scale = 1.0 / np.sqrt(enc_out)
    head_w = [
        rng_stream(seed, "retrain-head", name).normal(0.0, scale, (enc_out, dim))
        for name in names
    ]
    head_b = np.zeros((len(names), dim))
    params = OperationParams(weights, biases, Tensor(np.stack(head_w)), Tensor(head_b))
    routing = [np.array(g.rgs) for g in structure.groupings]
    batches = rng_stream(seed, "retrain-batches")
    steps, lr = config.retrain_steps, config.theta_lr
    _fit("retrain", params, routing, data, omega, steps, batches, lr, scales + [1.0, 1.0])

    # the test error in backward's order of operations, which fixes its bits
    err = head_forward(params, _features(params, routing, data.inputs_test)[0]) - data.targets_test
    test_mse = {name: float((e * e).mean()) for name, e in zip(names, err)}
    return RetrainedModel(structure, params, test_mse)

