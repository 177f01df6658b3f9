"""Task-grouping algebra on set partitions of {0, ..., T-1}.

A grouping is encoded canonically as a restricted-growth string (RGS):
entry ``i`` holds the block index of task ``i``, with blocks numbered in
order of first appearance. Canonicality makes structural equality of the
RGS coincide with set-partition equality, and lexicographic order on the
RGS gives the deterministic enumeration order used everywhere else.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import BoundsError, DimensionMismatch

# Largest task count a grouping may cover; the config schema's num_tasks
# bound reads it. Neither the expected cost nor the grouping distribution
# needs lattice tables.
MAX_TASKS = 8


class Partition:
    """A task grouping in canonical restricted-growth form."""

    def __init__(self, rgs: Sequence[int]):
        self.rgs = rgs = tuple(map(int, rgs))
        if not 1 <= len(rgs) <= MAX_TASKS:
            raise BoundsError(
                f"partition covers {len(rgs)} tasks; supported range is 1..{MAX_TASKS}"
            )
        top = -1
        for i, v in enumerate(rgs):
            if v < 0 or v > top + 1:
                raise ValueError(
                    f"rgs {rgs} is not in canonical restricted-growth form "
                    f"(violation at position {i})"
                )
            if v > top:
                top = v

    def __eq__(self, other):
        if type(other) is not Partition:
            return NotImplemented
        return self.rgs == other.rgs

    def __hash__(self):
        return hash(self.rgs)

    @property
    def num_tasks(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return 1 + max(self.rgs)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Canonicalize an arbitrary block labeling (tasks grouped iff equal labels)."""
        seen: dict[int, int] = {}
        rgs = []
        for v in labels:
            if v not in seen:
                seen[v] = len(seen)
            rgs.append(seen[v])
        return cls(tuple(rgs))

    def blocks(self) -> list[list[int]]:
        """Blocks as task-index lists, ordered by smallest member."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for task, b in enumerate(self.rgs):
            out[b].append(task)
        return out

    @classmethod
    def from_json(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Rebuild from a block list; must cover 0..T-1 exactly once."""
        labels: dict[int, int] = {}
        for b, members in enumerate(blocks):
            for task in members:
                if type(task) is not int:  # a JSON integer: not 1.5, not true
                    raise TypeError(f"task index {task!r} is not an integer")
                if task in labels:
                    raise ValueError(f"task {task} appears in more than one block")
                labels[task] = b
        n = len(labels)
        if n == 0 or set(labels) != set(range(n)):
            raise ValueError("blocks must cover tasks 0..T-1 exactly")
        return cls.from_labels([labels[t] for t in range(n)])

    def __str__(self) -> str:
        return "".join(str(v) for v in self.rgs)


@lru_cache(maxsize=None)
def rgs_table(num_tasks: int) -> np.ndarray:
    """Every grouping of {0..T-1} as a read-only (B_T, T) array of RGS rows,
    in lexicographic order.

    Grown one position at a time: a row whose largest entry is top has
    top + 2 children, taking 0..top+1 at the new position, and keeping each
    row's children together and in order keeps the rows lexicographic.
    """
    if not 1 <= num_tasks <= MAX_TASKS:
        raise BoundsError(
            f"task count must be in 1..{MAX_TASKS}, got {num_tasks}"
        )
    rows = np.zeros((1, 1), dtype=np.int64)
    top = np.zeros(1, dtype=np.int64)
    for _ in range(1, num_tasks):
        children = top + 2
        start = np.cumsum(children) - children
        new = np.arange(children.sum()) - np.repeat(start, children)
        rows = np.column_stack([np.repeat(rows, children, axis=0), new])
        top = np.maximum(np.repeat(top, children), new)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def block_masks(num_tasks: int) -> np.ndarray:
    """masks[k, b]: bitmask of block b of row k of rgs_table(num_tasks) (bit u
    set iff task u is in it), 0 past the row's last block; read-only."""
    rgs = rgs_table(num_tasks)
    masks = np.zeros(rgs.shape, dtype=np.int64)
    for u, block in enumerate(rgs.T):
        masks[np.arange(len(rgs)), block] |= 1 << u
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=None)
def enumerate_partitions(num_tasks: int) -> tuple[Partition, ...]:
    """All set partitions of {0..T-1}, in lexicographic RGS order.

    The length of the result is the Bell number B_T.
    """
    return tuple(Partition(tuple(rgs)) for rgs in rgs_table(num_tasks).tolist())


def _check_same_tasks(a: Partition, b: Partition):
    if a.num_tasks != b.num_tasks:
        raise DimensionMismatch(
            f"partitions cover {a.num_tasks} and {b.num_tasks} tasks"
        )


def refines(a: Partition, b: Partition) -> bool:
    """True iff every block of ``a`` lies inside a single block of ``b``."""
    _check_same_tasks(a, b)
    image: dict[int, int] = {}
    for la, lb in zip(a.rgs, b.rgs):
        if image.setdefault(la, lb) != lb:
            return False
    return True


def meet(a: Partition, b: Partition) -> Partition:
    """Coarsest partition refining both: tasks grouped iff grouped in both."""
    _check_same_tasks(a, b)
    return Partition.from_labels(list(zip(a.rgs, b.rgs)))

