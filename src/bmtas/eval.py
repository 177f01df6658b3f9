"""Multi-task evaluation: the averaged relative metric, representational
similarity between task encoders, and a synthetic benchmark whose ground
truth grouping is known by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError
from .partition import Partition


@dataclass(frozen=True)
class MetricRecord:
    """Per-task metric values plus the direction that counts as better."""

    values: tuple[float, ...]
    lower_better: tuple[bool, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        flags = tuple(bool(b) for b in self.lower_better)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lower_better", flags)
        if len(values) != len(flags):
            raise DimensionMismatch("one direction flag per metric required")
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            object.__setattr__(self, "names", names)
            if len(names) != len(values):
                raise DimensionMismatch("one name per metric required")
        if not all(np.isfinite(v) for v in values):
            raise DomainError("metric values must be finite")

    @classmethod
    def from_json(cls, obj: dict) -> "MetricRecord":
        """Read by JSON type: nothing is coerced, so bool("no") is never a direction."""
        rows = [(r["value"], r["lower_better"], r["name"]) for r in obj["tasks"]]
        if not {tuple(map(type, row)) for row in rows} <= {(int, bool, str), (float, bool, str)}:
            raise TypeError("a task needs a number value, boolean lower_better and string name")
        return cls(*zip(*rows)) if rows else cls((), (), ())


def delta_m(model: MetricRecord, baseline: MetricRecord) -> float:
    """Average per-task relative change vs the baseline, in percent.

    Sign-adjusted so that negative always means worse: improvements on
    lower-is-better metrics count positive.
    """
    if len(model.values) != len(baseline.values):
        raise DimensionMismatch("records cover different task counts")
    if not baseline.values:
        raise DomainError("records cover no tasks")
    if model.lower_better != baseline.lower_better:
        raise DimensionMismatch("records disagree on metric directions")
    if model.names is not None and baseline.names is not None:
        if model.names != baseline.names:
            raise DimensionMismatch("records cover different tasks")
    total = 0.0
    for m, b, lower in zip(model.values, baseline.values, model.lower_better):
        if b == 0.0:
            raise DomainError("baseline metric of 0 makes the ratio undefined")
        sign = -1.0 if lower else 1.0
        total += sign * (m - b) / b
    if not np.isfinite(mean := 100.0 * total / len(model.values)):  # beyond the largest float
        raise DomainError("the average relative change is not finite")
    return mean


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the average ranks, NaN for a constant or NaN-holding
    input: scipy.stats.spearmanr's statistic, bit for bit."""
    if np.all(a == a[0]) or np.all(b == b[0]) or np.isnan(a).any() or np.isnan(b).any():
        return np.nan
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    return np.corrcoef(ranks, rowvar=False)[1, 0]


def rsa_matrix(features: Sequence[np.ndarray]) -> np.ndarray:
    """Second-order similarity of task encoders over a shared probe set.

    For each task, the probe-pair dissimilarity pattern is 1 - Pearson
    correlation between feature vectors; entry (i, j) is the Spearman
    correlation of those patterns. Tasks with constant features get NaN
    off-diagonal entries (the pattern is undefined).
    """
    feats = [np.asarray(f, dtype=np.float64) for f in features]
    if not feats:
        raise DimensionMismatch("need at least one task")
    probes = feats[0].shape[0]
    if any(f.ndim != 2 or f.shape[0] != probes for f in feats):
        raise DimensionMismatch("every task needs features for the same probes")
    if probes < 3:
        raise DimensionMismatch("need at least 3 probes for a rank correlation")

    rows, cols = np.triu_indices(probes, k=1)
    condensed = []
    for f in feats:
        if np.any(f.std(axis=1) == 0):
            condensed.append(None)
            continue
        corr = np.corrcoef(f)
        condensed.append((1.0 - corr)[rows, cols])

    num_tasks = len(feats)
    out = np.full((num_tasks, num_tasks), np.nan)
    np.fill_diagonal(out, 1.0)
    for i in range(num_tasks):
        for j in range(i + 1, num_tasks):
            if condensed[i] is None or condensed[j] is None:
                continue
            out[i, j] = out[j, i] = _spearman(condensed[i], condensed[j])
    return out


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Recipe for related regression tasks.

    Each task's target is a private projection applied to a group-shared
    projection of the input; tasks in one relatedness block see the same
    shared projection, so they can be solved by one branch while unrelated
    tasks compete for capacity.
    """

    num_tasks: int
    input_dim: int
    hidden_dim: int
    target_dim: int
    relatedness: Partition
    noise_std: float = 0.01
    train_samples: int = 512
    test_samples: int = 256
    signal_scale: float = 0.2

    def __post_init__(self):
        # an integer past the largest float raises OverflowError here
        for name in ("noise_std", "signal_scale"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.relatedness.num_tasks != self.num_tasks:
            raise DimensionMismatch("relatedness partition covers wrong task count")
        if self.noise_std < 0:
            raise DomainError("noise_std must be non-negative")
        if self.signal_scale <= 0:
            raise DomainError("signal_scale must be positive")
        if min(self.input_dim, self.hidden_dim, self.target_dim) < 1:
            raise DomainError("dimensions must be positive")
        if not self.target_dim <= self.hidden_dim <= self.input_dim:
            raise DomainError("dimensions need target_dim <= hidden_dim <= input_dim")
        if min(self.train_samples, self.test_samples) < 1:
            raise DomainError("sample counts must be positive")


@dataclass
class Dataset:
    """Inputs are (N, input_dim); targets are one (T, N, target_dim) array,
    every task with the same target width."""

    task_names: tuple[str, ...]
    inputs_train: np.ndarray
    inputs_test: np.ndarray
    targets_train: np.ndarray
    targets_test: np.ndarray

    @property
    def num_tasks(self) -> int:
        return len(self.task_names)


def _orthonormal_columns(rng: np.random.Generator, count: int, dim: int, cols: int) -> np.ndarray:
    """count stacked (dim, cols) matrices, each with orthonormal columns."""
    return np.linalg.qr(rng.normal(size=(count, dim, cols)))[0]


def generate_tasks(spec: SyntheticTaskSpec, rng: np.random.Generator) -> Dataset:
    """Sample the benchmark: standard-normal inputs, projected noisy targets.

    When every group's shared projection fits inside the input dimension
    they are drawn jointly orthonormal, making unrelated tasks genuinely
    independent; otherwise each group is orthonormalized on its own.
    """
    groups, hidden = spec.relatedness.num_blocks, spec.hidden_dim
    if groups * hidden <= spec.input_dim:
        joint = _orthonormal_columns(rng, 1, spec.input_dim, groups * hidden)[0]
        shared = joint.reshape(spec.input_dim, groups, hidden).swapaxes(0, 1)
    else:
        shared = _orthonormal_columns(rng, groups, spec.input_dim, hidden)
    proj = shared[list(spec.relatedness.rgs)]  # task t's group projection, transposed

    # signal_scale sets the target amplitude.  Task losses (and their
    # architecture gradients) shrink quadratically with it while the resource
    # term is amplitude-free, so this is what keeps resource weights on a
    # small grid (0.05, 0.5) able to tip grouping decisions.
    priv = spec.signal_scale * _orthonormal_columns(rng, spec.num_tasks, hidden, spec.target_dim)

    x_train = rng.normal(size=(spec.train_samples, spec.input_dim))
    x_test = rng.normal(size=(spec.test_samples, spec.input_dim))

    def targets(x):
        clean = x @ proj @ priv
        return clean + spec.noise_std * rng.normal(size=clean.shape)

    return Dataset(
        task_names=tuple(f"t{t}" for t in range(spec.num_tasks)),
        inputs_train=x_train,
        inputs_test=x_test,
        targets_train=targets(x_train),
        targets_test=targets(x_test),
    )
