"""Branching search: warm-up, alternating architecture/weight updates with
an annealed Gumbel-Softmax, argmax discretization, and from-scratch
retraining of the found structure.

One branched network serves every stage. `_features` runs a task's encoder,
routed per layer by one operation's index or a row of mixture weights, and
`_backward_tasks` backpropagates the omega-weighted task losses. Warm-up,
search, retraining and prediction differ only in the routing they pass.

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
from .nncore import (
    SGD,
    Adam,
    LossWeights,
    OperationParams,
    Tensor,
    backward,
    candidate_forward,
    collect_grads,
    head_forward,
    mixed_layer_forward,
    reset_grads,
    task_loss,
)
from .relax import TemperatureSchedule, discretize, gumbel_noise, schedule_tau
from .resloss import ArchitectureParams, expected_cost, expected_cost_grad
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


def _features(params: OperationParams, routing, x) -> Tensor:
    """One task's encoder output. routing[l] is either the index of the
    operation the task takes at layer l+1 or a row of mixture weights over
    that layer's operations."""
    h = x
    for layer, choice in enumerate(routing, start=1):
        if isinstance(choice, int):
            h = candidate_forward(params, layer, choice, h)
        else:
            h = mixed_layer_forward(params, layer, choice, h)
    return h


def _backward_tasks(params: OperationParams, routings, data: Dataset, idx, omega):
    """Fresh gradients of sum_t omega[t] * loss_t on the training rows idx,
    task t routed by routings[t]; returns the unweighted losses."""
    reset_grads(params.parameters())
    x = Tensor(data.inputs_train[idx])
    losses = []
    for t, routing in enumerate(routings):
        pred = head_forward(params, t, _features(params, routing, x))
        loss = task_loss(pred, data.targets_train[t][idx])
        backward(loss, omega[t])
        losses.append(float(loss.data))
    return losses


def _fit(params, routings, data, omega, steps, rng, config, lr, lr_scales=None):
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
        _backward_tasks(params, routings, data, idx, omega)
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
    routings = [[t] * supergraph.num_layers for t in range(data.num_tasks)]
    ones = (1.0,) * data.num_tasks
    _fit(params, routings, data, ones, steps, rng, config, config.theta_lr)
    return params


def _soft_rows_tape(alpha_param: Tensor, task: int, noise: np.ndarray, tau: float):
    """Per-layer soft routing rows that keep the architecture on the tape."""
    rows = []
    for layer in range(noise.shape[0]):
        scores = (alpha_param[(task, layer)] + Tensor(noise[layer])) * (1.0 / tau)
        rows.append(scores.softmax1d())
    return rows


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
    prev_hash = structure_hash(
        derive_groupings(discretize(ArchitectureParams(alpha_param.data.copy())))
    )

    trace: list[TraceRow] = []
    for step in range(1, config.search_steps + 1):
        tau = schedule_tau(
            config.schedule, min(step - 1, config.schedule.total_steps)
        )
        noise = gumbel_noise(
            (num_tasks, supergraph.num_layers, num_tasks), gumbel_rng
        )
        try:
            # weight phase: routing is a constant sample
            z_const = softmax((alpha_param.data + noise) / tau, axis=2)
            idx = _batch(theta_batches, theta_rows, config.batch_size)
            routings = [list(z) for z in z_const]
            losses = _backward_tasks(params, routings, data, idx, omega)
            theta_opt.step()

            # architecture phase: same noise, routing on the tape
            idx = _batch(alpha_batches, alpha_rows, config.batch_size)
            reset_grads([alpha_param])
            routings = [
                _soft_rows_tape(alpha_param, t, noise[t], tau) for t in range(num_tasks)
            ]
            _backward_tasks(params, routings, data, idx, omega)
            grad = collect_grads([alpha_param])[0]
            if config.resource_weight > 0:
                at = ArchitectureParams(alpha_param.data.copy())
                grad = grad + (config.resource_weight / shared_cost) * (
                    expected_cost_grad(at, supergraph)
                )
            alpha_opt.step([grad])
            alpha_now = ArchitectureParams(alpha_param.data.copy())
        except NumericError as exc:
            raise SearchError(f"non-finite value at step {step}: {exc}", trace) from exc

        structure = derive_groupings(discretize(alpha_now))
        digest = structure_hash(structure)
        if digest != prev_hash:
            theta_opt.reset_momentum()
            prev_hash = digest
        cost = expected_cost(alpha_now, supergraph)
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
        routing = [g.rgs[task] for g in self.structure.groupings]
        return _features(self.params, routing, inputs).data

    def predict(self, task: int, inputs: np.ndarray) -> np.ndarray:
        features = self.encoder_features(task, inputs)
        return head_forward(self.params, task, features).data


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
        weights.append([])
        biases.append([])
        for block in grouping.blocks():
            stream = rng_stream(
                seed, "retrain-op", layer, *(names[t] for t in block)
            )
            w = stream.normal(0.0, 1.0 / np.sqrt(in_dim), (in_dim, out_dim))
            weights[-1].append(Tensor(w))
            biases[-1].append(Tensor(np.zeros(out_dim)))
            scales += [1.0 / len(block)] * 2

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
    routings = [[g.rgs[t] for g in structure.groupings] for t in range(len(names))]
    batches = rng_stream(seed, "retrain-batches")
    steps = config.retrain_steps
    _fit(params, routings, data, omega, steps, batches, config, lr, scales)

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
