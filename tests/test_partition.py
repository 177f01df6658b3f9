import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmtas.errors import BoundsError, DimensionMismatch
from bmtas.partition import (
    MAX_TASKS,
    Partition,
    block_masks,
    enumerate_partitions,
    meet,
    refines,
    rgs_table,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def brute_force_partitions(num_tasks):
    """Independent enumeration: canonicalize every label vector in T^T."""
    seen = set()
    for labels in itertools.product(range(num_tasks), repeat=num_tasks):
        canon = []
        remap = {}
        for v in labels:
            if v not in remap:
                remap[v] = len(remap)
            canon.append(remap[v])
        seen.add(tuple(canon))
    return seen


def grow_partitions(num_tasks):
    """Recursive enumeration in lexicographic RGS order: position i takes
    every label 0..top+1, top being the largest label before it."""
    out = []
    rgs = [0] * num_tasks

    def grow(i, top):
        if i == num_tasks:
            out.append(tuple(rgs))
            return
        for v in range(top + 2):
            rgs[i] = v
            grow(i + 1, max(top, v))

    grow(1, 0)
    return out


partitions_st = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
).map(Partition.from_labels)


def test_canonical_form_rejected_when_broken():
    with pytest.raises(ValueError):
        Partition((0, 2))  # skips label 1
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((0, -1))


@pytest.mark.parametrize("num_tasks", [0, 9, 12])
def test_task_count_bounds(num_tasks):
    with pytest.raises(BoundsError):
        Partition((0,) * num_tasks) if num_tasks else Partition(())
    with pytest.raises(BoundsError):
        enumerate_partitions(num_tasks)


@pytest.mark.parametrize("num_tasks", range(1, MAX_TASKS + 1))
def test_rgs_table_matches_recursive_enumeration(num_tasks):
    table = rgs_table(num_tasks)
    assert table.shape == (BELL[num_tasks], num_tasks)
    assert [tuple(row) for row in table.tolist()] == grow_partitions(num_tasks)
    assert [p.rgs for p in enumerate_partitions(num_tasks)] == grow_partitions(num_tasks)
    with pytest.raises(ValueError):
        table[0, 0] = 1


@pytest.mark.parametrize("num_tasks", [0, MAX_TASKS + 1])
def test_rgs_table_bounds(num_tasks):
    with pytest.raises(BoundsError):
        rgs_table(num_tasks)


@pytest.mark.parametrize("num_tasks", range(1, 6))
def test_block_masks_match_blocks(num_tasks):
    masks = block_masks(num_tasks)
    for row, p in zip(masks.tolist(), enumerate_partitions(num_tasks)):
        want = [sum(1 << t for t in block) for block in p.blocks()]
        assert row == want + [0] * (num_tasks - len(want))


@pytest.mark.parametrize("num_tasks", range(1, MAX_TASKS + 1))
def test_block_masks_match_the_one_hot_product(num_tasks):
    # the scatter build against the (B_T, T, T) one-hot cube times the task bits
    rgs = rgs_table(num_tasks)
    tasks = np.arange(num_tasks)
    want = (rgs[:, None, :] == tasks[:, None]) @ (1 << tasks)
    got = block_masks(num_tasks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and not got.flags.writeable  # one table per T, shared
    assert np.array_equal(got, want)
    assert block_masks(num_tasks) is got


@pytest.mark.parametrize("num_tasks", range(1, 6))
def test_enumeration_matches_brute_force(num_tasks):
    got = {p.rgs for p in enumerate_partitions(num_tasks)}
    assert got == brute_force_partitions(num_tasks)
    assert len(got) == BELL[num_tasks]
    assert set(enumerate_partitions(num_tasks)) == set(map(Partition, got))


def test_enumeration_is_lexicographic():
    for n in range(2, 7):
        rgs = [p.rgs for p in enumerate_partitions(n)]
        assert rgs == sorted(rgs)


def test_from_labels_canonicalizes():
    assert Partition.from_labels([5, 5, 2, 5]).rgs == (0, 0, 1, 0)
    assert Partition.from_labels([3, 1, 2]).rgs == (0, 1, 2)
    # equal by value and hashed by rgs: every labelling of one grouping is one set member
    labellings = ([5, 5, 2, 5], [0, 0, 1, 0], [9, 9, -1, 9])
    assert {Partition.from_labels(labels) for labels in labellings} == {Partition((0, 0, 1, 0))}
    assert Partition((0, 0, 1, 0)) != Partition((0, 1, 1, 0))
    assert Partition((0, 1)) != (0, 1)  # nor equal to its bare rgs


@given(partitions_st)
def test_from_labels_idempotent_on_canonical(p):
    assert Partition.from_labels(p.rgs) == p


def test_coarsest_finest():
    assert Partition.from_labels([7, 7, 7, 7]).num_blocks == 1
    assert Partition.from_labels([3, 2, 1, 0]).rgs == (0, 1, 2, 3)
    assert Partition((0, 1, 2, 3)).num_blocks == 4


def test_blocks_ordered_by_smallest_member():
    p = Partition((0, 1, 0, 2, 1))
    assert p.blocks() == [[0, 2], [1, 4], [3]]
    assert p.num_blocks == 3


def test_json_round_trip():
    assert Partition.from_json([[0, 2], [1, 4], [3]]) == Partition((0, 1, 0, 2, 1))
    assert Partition.from_json([[3, 0], [1], [2]]) == Partition((0, 1, 2, 0))
    for p in enumerate_partitions(4):
        assert Partition.from_json(p.blocks()) == p


def test_from_json_rejects_bad_blocks():
    with pytest.raises(ValueError):
        Partition.from_json([[0, 1], [1]])  # duplicate task
    with pytest.raises(ValueError):
        Partition.from_json([[0], [2]])  # gap
    with pytest.raises(ValueError):
        Partition.from_json([])


def test_refines_requires_matching_size():
    with pytest.raises(DimensionMismatch):
        refines(Partition((0, 0)), Partition((0, 0, 0)))
    with pytest.raises(DimensionMismatch):
        meet(Partition((0, 0)), Partition((0, 0, 0)))


def test_refinement_is_partial_order_t4():
    """Reflexive, antisymmetric, transitive; checked exhaustively."""
    parts = enumerate_partitions(4)
    for a in parts:
        assert refines(a, a)
    for a, b in itertools.product(parts, repeat=2):
        if refines(a, b) and refines(b, a):
            assert a == b
    for a, b, c in itertools.product(parts, repeat=3):
        if refines(a, b) and refines(b, c):
            assert refines(a, c)


def test_meet_is_greatest_lower_bound_t4():
    parts = enumerate_partitions(4)
    for a, b in itertools.product(parts, repeat=2):
        m = meet(a, b)
        assert refines(m, a) and refines(m, b)
        for c in parts:
            if refines(c, a) and refines(c, b):
                assert refines(c, m)


@given(partitions_st, st.data())
def test_meet_algebra(a, data):
    n = a.num_tasks
    b = data.draw(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
            Partition.from_labels
        )
    )
    assert meet(a, a) == a
    assert meet(a, b) == meet(b, a)
    finest = Partition(tuple(range(n)))
    assert meet(a, Partition((0,) * n)) == a
    assert meet(a, finest) == finest


def test_str_and_properties():
    p = Partition((0, 1, 1, 2))
    assert str(p) == "0112"
    assert p.num_tasks == 4
    assert p.num_blocks == 3
