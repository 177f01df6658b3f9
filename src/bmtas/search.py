"""Branching search: warm-up, alternating architecture/weight updates with
an annealed Gumbel-Softmax, argmax discretization, and from-scratch
retraining of the found structure.

One batched engine carries every stage. `_features` runs all tasks'
encoders at once over the stacked operation arrays of `OperationParams`, each
layer routed by a (tasks, operations) array of mixture rows, and
`_backward_tasks` is its hand-written reverse pass: it writes the gradients
of the omega-weighted task losses into the parameters' `.grad` and returns
the gradient of each routing row. Warm-up, retraining and prediction pass
one-hot rows, the search Gumbel-Softmax rows; the architecture gradient is
the softmax's chain rule on the row gradients. Arrays are combined in the
order of the `nncore` tape's ops, which stays as the engine's test oracle.

Every iteration draws fresh routing noise, takes one weight step on the
large data split, one architecture step (task loss plus the weighted,
normalized expected cost) on the small split, and resets weight momentum
whenever the discretized architecture changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import softmax

from .errors import BoundsError, ConfigError, NumericError, SearchError
from .eval import Dataset
from .graph import BranchedStructure, SupergraphSpec, derive_groupings, structure_hash
from .nncore import SGD, Adam, LossWeights, OperationParams, Tensor
from .nncore import (  # benchmarks/tracing.py patches these names here
    backward,
    candidate_forward,
    head_forward,
    mixed_layer_forward,
    task_loss,
)
from .relax import TemperatureSchedule, discretize, gumbel_noise, schedule_tau
from .resloss import ArchitectureParams, _cost_and_grad
from .resloss import expected_cost, expected_cost_grad  # as above, for the tracer
from .seeding import rng_stream


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters of one search run.

    resource_weight is the multiplier on the normalized expected cost
    (1.0 = fully shared), so its useful range is independent of the cost
    table's units.
    """

    resource_weight: float = 0.0
    warmup_steps: int = 300
    search_steps: int = 300
    alpha_data_fraction: float = 0.2
    schedule: TemperatureSchedule | None = None
    theta_lr: float = 0.3
    theta_momentum: float = 0.9
    theta_weight_decay: float = 1e-4
    alpha_lr: float = 0.01
    alpha_betas: tuple[float, float] = (0.9, 0.999)
    alpha_weight_decay: float = 5e-5
    batch_size: int = 32
    retrain_steps: int = 400
    retrain_lr: float | None = None
    seed: int = 0
    omega: LossWeights | None = None

    def __post_init__(self):
        if not 0 <= self.resource_weight < float("inf"):
            raise ConfigError("resource_weight must be non-negative and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.alpha_data_fraction < 1:
            raise ConfigError("alpha_data_fraction must lie strictly in (0, 1)")
        if min(self.warmup_steps, self.retrain_steps) < 0 or self.search_steps < 1:
            raise ConfigError("step counts out of range")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.schedule is None:
            steps = max(self.search_steps - 1, 1)
            object.__setattr__(self, "schedule", TemperatureSchedule(total_steps=steps))

    def weights_for(self, dataset: Dataset) -> LossWeights:
        if self.omega is None:
            return LossWeights.ones(dataset.num_tasks)
        if len(self.omega.omega) != dataset.num_tasks:
            raise ConfigError("omega length does not match the task count")
        return self.omega


@dataclass(frozen=True)
class TraceRow:
    """Post-update snapshot of one search iteration."""

    step: int
    tau: float
    task_losses: tuple[float, ...]
    resource_loss: float
    expected_cost: float
    structure_hash: str


@dataclass
class SearchResult:
    structure: BranchedStructure
    alpha_final: ArchitectureParams
    trace: list[TraceRow]


def _batch(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    return pool[rng.choice(len(pool), size=min(size, len(pool)), replace=False)]


def _features(params: OperationParams, rows, x: np.ndarray):
    """Every routed task's encoder output, shape (T, B, out), and per layer
    the (input, operation outputs) pair that `_backward_tasks` reuses.

    rows[l] is a (T, C) array whose row t mixes layer l+1's C operations for
    task t; a one-hot row picks one operation exactly, as 1*a + 0*b = a for
    finite b. Layer 1 runs each operation once on x, (1, C, B, out); deeper
    layers run every operation on every task's input, (T, C, B, out).
    """
    h, cache = x[None], []
    for w, b, z in zip(params.weights, params.biases, rows):
        pre = h[:, None] @ w.data + b.data[:, None]
        if not np.isfinite(pre).all():  # before tanh, which would hide it
            raise NumericError("tensor holds NaN or Inf")
        y = np.tanh(pre)
        cache.append((h, y))
        # one operation at a time, in the tape's order, so sums match it bitwise
        h = z[:, 0, None, None] * y[:, 0]
        for c in range(1, z.shape[1]):
            h = h + z[:, c, None, None] * y[:, c]
    return h, cache


def _backward_tasks(
    params: OperationParams, rows, data: Dataset, idx, omega, row_grads=False
):
    """Fresh .grad on every parameter for sum_t omega[t] * loss_t on the
    training rows idx, task t routed by row t of every rows[l]. Returns the
    unweighted losses and, if row_grads, per layer the gradient of rows[l],
    (T, C)."""
    h, cache = _features(params, rows, data.inputs_train[idx])
    losses, dh = [], np.empty_like(h)
    for t, (w, b) in enumerate(zip(params.head_weights, params.head_biases)):
        diff = h[t] @ w.data + b.data - data.targets_train[t][idx]
        losses.append(float((diff * diff).mean()))
        if not np.isfinite(losses[-1]):
            raise NumericError("tensor holds NaN or Inf")
        g = float(omega[t]) / diff.size * diff
        g = g + g  # d/d diff of diff * diff, one term per factor
        w.grad, b.grad = h[t].T @ g, g.sum(axis=0)
        dh[t] = g @ w.data.T
    dz = []
    for l in reversed(range(params.num_layers)):
        w, b, z, (h, y) = params.weights[l], params.biases[l], rows[l], cache[l]
        if row_grads:
            dz.insert(0, (dh[:, None] * y).sum(axis=2).sum(axis=2))
        dpre = dh[:, None] * z[:, :, None, None] * (1.0 - y * y)
        w.grad = (h[:, None].swapaxes(2, 3) @ dpre).sum(axis=0)
        b.grad = dpre.sum(axis=2).sum(axis=0)
        if l:
            dh = (dpre @ w.data.swapaxes(1, 2)).sum(axis=1)
    return losses, dz


def _architecture_grad(params, logits, noise, tau, data, idx, omega) -> np.ndarray:
    """d sum_t omega[t] * loss_t / d logits under the routing rows
    softmax((logits + noise) / tau), the softmax's chain rule on the row
    gradients."""
    inv_tau = 1.0 / tau
    z = softmax((logits + noise) * inv_tau, axis=2)
    dz = _backward_tasks(params, list(z.swapaxes(0, 1)), data, idx, omega, True)[1]
    dz = np.stack(dz, axis=1)
    return z * (dz - (z[..., None, :] @ dz[..., None])[..., 0]) * inv_tau


def _fit(params, rows, data, omega, steps, rng, config, lr, lr_scales=None):
    """Plain momentum SGD with config's theta_* settings, one batch a step."""
    opt = SGD(
        params.parameters(),
        lr,
        config.theta_momentum,
        config.theta_weight_decay,
        lr_scales=lr_scales,
    )
    all_rows = np.arange(data.inputs_train.shape[0])
    for _ in range(steps):
        idx = _batch(rng, all_rows, config.batch_size)
        # a diverging step overflows; the finiteness checks of the engine and
        # ArchitectureParams raise NumericError for it, so numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore"):
            _backward_tasks(params, rows, data, idx, omega)
            opt.step()


def warm_up(
    supergraph: SupergraphSpec,
    data: Dataset,
    steps: int,
    rng: np.random.Generator,
    config: SearchConfig | None = None,
) -> OperationParams:
    """Assign candidate j to task j for a few steps of plain SGD.

    Candidates start identical; warm-up is what differentiates them, giving
    the later search a meaningful candidate-task affinity to exploit. The
    SGD and batch settings are config's theta_* and batch_size.
    """
    if data.num_tasks != supergraph.num_tasks:
        raise ConfigError("dataset task count does not match the supergraph")
    if config is None:
        config = SearchConfig()
    params = OperationParams.init(supergraph, data.target_dims, rng)
    rows = [np.eye(data.num_tasks)] * supergraph.num_layers
    ones = (1.0,) * data.num_tasks
    _fit(params, rows, data, ones, steps, rng, config, config.theta_lr)
    return params


def search(
    config: SearchConfig,
    supergraph: SupergraphSpec,
    data: Dataset,
    params: OperationParams | None = None,
) -> SearchResult:
    """Run the alternating optimization and return the discretized result.

    When params is omitted, warm-up runs first with this config's settings.
    Raises SearchError (with the partial trace attached) if training hits a
    non-finite value.
    """
    num_tasks = supergraph.num_tasks
    if data.num_tasks != num_tasks:
        raise ConfigError("dataset task count does not match the supergraph")
    omega = config.weights_for(data).omega

    if params is None:
        params = warm_up(
            supergraph, data, config.warmup_steps, rng_stream(config.seed, "warmup"), config
        )

    split_rng = rng_stream(config.seed, "search", "split")
    gumbel_rng = rng_stream(config.seed, "search", "gumbel")
    theta_batches = rng_stream(config.seed, "search", "theta-batches")
    alpha_batches = rng_stream(config.seed, "search", "alpha-batches")

    n_train = data.inputs_train.shape[0]
    perm = split_rng.permutation(n_train)
    n_alpha = min(max(1, round(config.alpha_data_fraction * n_train)), n_train - 1)
    alpha_rows, theta_rows = perm[:n_alpha], perm[n_alpha:]

    alpha_param = Tensor(np.zeros((num_tasks, supergraph.num_layers, num_tasks)))
    theta_opt = SGD(
        params.parameters(),
        config.theta_lr,
        config.theta_momentum,
        config.theta_weight_decay,
    )
    alpha_opt = Adam(
        [alpha_param],
        config.alpha_lr,
        config.alpha_betas,
        weight_decay=config.alpha_weight_decay,
    )
    shared_cost = supergraph.cost_table.fully_shared_cost
    penalized = config.resource_weight > 0
    alpha_now = ArchitectureParams(alpha_param.data.copy())
    prev_hash = structure_hash(derive_groupings(discretize(alpha_now)))
    # each step's cost pass also yields the gradient the next step uses
    cost_grad = _cost_and_grad(alpha_now, supergraph, penalized)[1]

    trace: list[TraceRow] = []
    for step in range(1, config.search_steps + 1):
        tau = schedule_tau(
            config.schedule, min(step - 1, config.schedule.total_steps)
        )
        noise = gumbel_noise(
            (num_tasks, supergraph.num_layers, num_tasks), gumbel_rng
        )
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # as in _fit
                # weight phase: routing is a constant sample
                z_const = softmax((alpha_param.data + noise) / tau, axis=2)
                idx = _batch(theta_batches, theta_rows, config.batch_size)
                rows = list(z_const.swapaxes(0, 1))
                losses = _backward_tasks(params, rows, data, idx, omega)[0]
                theta_opt.step()

                # architecture phase: same noise, routing differentiated
                idx = _batch(alpha_batches, alpha_rows, config.batch_size)
                grad = _architecture_grad(
                    params, alpha_param.data, noise, tau, data, idx, omega
                )
                if penalized:
                    grad = grad + (config.resource_weight / shared_cost) * cost_grad
                alpha_opt.step([grad])
                alpha_now = ArchitectureParams(alpha_param.data.copy())
                cost, cost_grad = _cost_and_grad(alpha_now, supergraph, penalized)
        except NumericError as exc:
            raise SearchError(f"non-finite value at step {step}: {exc}", trace) from exc

        structure = derive_groupings(discretize(alpha_now))
        digest = structure_hash(structure)
        if digest != prev_hash:
            theta_opt.reset_momentum()
            prev_hash = digest
        trace.append(
            TraceRow(
                step=step,
                tau=tau,
                task_losses=tuple(losses),
                resource_loss=cost / shared_cost,
                expected_cost=cost,
                structure_hash=digest,
            )
        )

    return SearchResult(structure=structure, alpha_final=alpha_now, trace=trace)


@dataclass
class RetrainedModel:
    """A branched network trained from scratch on a fixed structure.

    params holds one operation per (layer, block), in the order of
    `structure.groupings[l].blocks()`, so task t takes operation
    `groupings[l].rgs[t]` at layer l+1.
    """

    structure: BranchedStructure
    task_names: tuple[str, ...]
    params: OperationParams
    test_mse: dict[str, float]

    def encoder_features(self, task: int, inputs: np.ndarray) -> np.ndarray:
        """Final shared-trunk output for one task."""
        if not 0 <= task < len(self.task_names):
            raise BoundsError(f"task {task} out of range")
        rows = [np.eye(g.num_blocks)[[g.rgs[task]]] for g in self.structure.groupings]
        return _features(self.params, rows, inputs)[0][0]

    def predict(self, task: int, inputs: np.ndarray) -> np.ndarray:
        features = self.encoder_features(task, inputs)
        w, b = self.params.head_weights[task], self.params.head_biases[task]
        return features @ w.data + b.data


def retrain_model(
    structure: BranchedStructure,
    supergraph: SupergraphSpec,
    data: Dataset,
    config: SearchConfig,
    seed: int,
) -> RetrainedModel:
    """Train the branched network from fresh weights.

    One op instance per (layer, block); a shared op's learning rate is
    divided by the number of tasks in its block. Initialization streams
    are keyed by the task names inside each block, which makes a fully
    branched run reproduce independently trained single-task networks
    exactly.
    """
    if structure.num_tasks != data.num_tasks:
        raise ConfigError("structure task count does not match the dataset")
    if structure.num_layers != supergraph.num_layers:
        raise ConfigError("structure depth does not match the supergraph")
    names = data.task_names
    omega = config.weights_for(data).omega
    lr = config.retrain_lr if config.retrain_lr is not None else config.theta_lr

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

    enc_out = supergraph.layer_dims[-1][1]
    head_w, head_b = [], []
    for t, name in enumerate(names):
        stream = rng_stream(seed, "retrain-head", name)
        dim = data.target_dims[t]
        w = stream.normal(0.0, 1.0 / np.sqrt(enc_out), (enc_out, dim))
        head_w.append(Tensor(w))
        head_b.append(Tensor(np.zeros(dim)))
        scales += [1.0, 1.0]

    params = OperationParams(weights, biases, head_w, head_b)
    rows = [np.eye(g.num_blocks)[list(g.rgs)] for g in structure.groupings]
    batches = rng_stream(seed, "retrain-batches")
    steps = config.retrain_steps
    _fit(params, rows, data, omega, steps, batches, config, lr, scales)

    model = RetrainedModel(structure, names, params, test_mse={})
    for t, name in enumerate(names):
        err = model.predict(t, data.inputs_test) - data.targets_test[t]
        model.test_mse[name] = float((err * err).mean())
    return model


def retrain(
    structure: BranchedStructure,
    supergraph: SupergraphSpec,
    data: Dataset,
    config: SearchConfig,
    seed: int,
) -> dict[str, float]:
    """Per-task test MSE of the retrained structure."""
    return retrain_model(structure, supergraph, data, config, seed).test_mse
