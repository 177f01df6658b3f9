import inspect
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmtas.cli
import bmtas.graph
import bmtas.resloss
from bmtas.errors import BoundsError, DimensionMismatch
from bmtas.eval import SyntheticTaskSpec
from bmtas.graph import (
    BranchedStructure,
    CostTable,
    SupergraphSpec,
    count_structures,
    derive_groupings,
    export_dot,
    structure_cost,
    structure_from_json,
    structure_hash,
    structure_to_json,
)
from bmtas.partition import Partition, enumerate_partitions, refines
from bmtas.resloss import ArchitectureParams
from bmtas.search import SearchConfig


class TestCostTable:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            CostTable(())
        with pytest.raises(ValueError):
            CostTable((1.0, 0.0))
        with pytest.raises(ValueError):
            CostTable((1.0, float("inf")))

    def test_analytic_madds(self):
        # the default cost of a layer is 2 * in_width * out_width
        table = SupergraphSpec([16, 8, 4]).cost_table
        assert table.unit_cost == (256.0, 64.0)
        assert table == CostTable([256, 64]) and table != CostTable((256.0, 63.0))
        assert table != (256.0, 64.0)  # equal by value, to cost tables only
        assert table.num_layers == 2
        assert table.fully_shared_cost == 320.0


class TestSupergraphSpec:
    def test_chain_builds_matching_dims_and_costs(self):
        sg = SupergraphSpec([16, 8, 8])
        assert sg.widths == (16, 8, 8)
        assert sg.num_layers == 2
        assert sg.layer_dims == ((16, 8), (8, 8))
        assert sg.cost_table.unit_cost == (256.0, 128.0)

    def test_chain_accepts_explicit_costs(self):
        sg = SupergraphSpec([4, 4], unit_costs=[7.0])
        assert sg.cost_table.unit_cost == (7.0,)

    def test_depth_and_dims_derive_from_the_widths(self):
        sg = SupergraphSpec(np.array([16, 8, 4]), (1.0, 1.0))
        assert sg.widths == (16, 8, 4)
        assert {type(w) for w in sg.widths} == {int}
        assert sg.num_layers == 2
        assert sg.layer_dims == ((16, 8), (8, 4))

    def test_is_built_from_widths_and_unit_costs_only(self):
        sg = SupergraphSpec([4, 4], [7])
        assert sg == SupergraphSpec((4, 4), unit_costs=(7.0,))
        assert sg != SupergraphSpec((4, 4))
        # worker processes get it pickled, which runs no __init__
        assert pickle.loads(pickle.dumps(sg)) == sg
        # so do the job's other members, which compare by their attributes
        spec = SyntheticTaskSpec(4, 8, 4, 2, Partition((0, 0, 1, 1)), noise_std=0)
        config = SearchConfig(seed=3, resource_weight=1, omega=[1, 2])
        for obj in (spec, config):
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj) and vars(back) == vars(obj)
        with pytest.raises(TypeError):
            SupergraphSpec((4, 4), cost_table=sg.cost_table)

    def test_rejects_cost_table_mismatch(self):
        with pytest.raises(DimensionMismatch):
            SupergraphSpec((4, 4), (1.0, 1.0))

    @pytest.mark.parametrize("widths", [(4,)], ids=["no-layers"])
    def test_rejects_no_layers_or_no_tasks(self, widths):
        # a supergraph holds no task count: the logits and the data carry it
        with pytest.raises(ValueError):
            SupergraphSpec(widths, (1.0,))

    @pytest.mark.parametrize("widths", [(0, 4), (4, 0), (-2, -2, -2), (-2, 2, 2)])
    def test_rejects_widths_below_one(self, widths):
        with pytest.raises(ValueError, match="widths must be at least 1"):
            SupergraphSpec(widths, (1.0,) * (len(widths) - 1))
        # checked before the default unit costs 2 * in * out are derived
        with pytest.raises(ValueError, match="widths must be at least 1"):
            SupergraphSpec(widths)


class TestDeriveGroupings:
    def test_agreement_prefix_shares(self):
        # tasks 0,1 agree on layer 1 then split; task 2 alone throughout
        s = derive_groupings([(0, 0), (0, 1), (2, 2)])
        assert [str(k) for k in s.groupings] == ["001", "012"]
        assert s.edge_choice == ((0, 0, 2), (0, 1, 2))

    def test_no_remerge_after_split(self):
        # same edge at layer 2 does not re-merge tasks split at layer 1
        s = derive_groupings(np.array([[0, 0], [1, 0]]))
        assert [str(k) for k in s.groupings] == ["01", "01"]

    @pytest.mark.parametrize(
        "picks",
        [[], [[]], np.zeros((2, 0), dtype=int), [0, 1], [[0.0, 1.0], [1.0, 0.0]]],
        ids=["empty", "empty-row", "no-layers", "1-d", "float"],
    )
    def test_rejects_picks_that_are_not_a_2d_integer_array(self, picks):
        with pytest.raises(DimensionMismatch):
            derive_groupings(picks)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            derive_groupings([[0, 1], [0]])

    def test_edge_choice_holds_python_ints(self):
        # structure_hash digests repr(edge_choice), which must not name numpy types
        s = derive_groupings(np.array([[1], [0]], dtype=np.int32))
        assert s.edge_choice == ((1, 0),)
        assert {type(j) for row in s.edge_choice for j in row} == {int}


class TestBranchedStructure:
    def test_rejects_non_refining_chain(self):
        # a file whose groups re-merge at layer 2: the picks induce 01, 01
        obj = {
            "tasks": ["a", "b"],
            "layers": [{"groups": [[0], [1]]}, {"groups": [[0, 1]]}],
            "edge_choice": [[0, 1], [0, 0]],
        }
        with pytest.raises(ValueError, match="disagree"):
            structure_from_json(obj)

    def test_rejects_edge_inconsistent_chain(self):
        # edges disagree at layer 1 but the file's groups claim sharing
        obj = {"tasks": ["a", "b"], "layers": [{"groups": [[0, 1]]}], "edge_choice": [[0, 1]]}
        with pytest.raises(ValueError, match="disagree"):
            structure_from_json(obj)

    def test_rejects_zero_layers(self):
        with pytest.raises(DimensionMismatch):
            BranchedStructure(())

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            BranchedStructure(((0, 1), (0,)))

    @pytest.mark.parametrize("row", [(2, 0), (0, -1), (7, 7)])
    def test_rejects_picks_outside_the_operations(self, row):
        # a layer has one operation per task, numbered 0..T-1
        with pytest.raises(BoundsError):
            BranchedStructure(((0, 0), row))

    def test_picks_become_python_ints(self):
        s = BranchedStructure([np.array([1, 0], dtype=np.int32), (np.int64(1), 1)])
        assert s.edge_choice == ((1, 0), (1, 1))
        assert {type(j) for row in s.edge_choice for j in row} == {int}
        with pytest.raises(TypeError):
            BranchedStructure(((0.5, 1.7),))  # not truncated to (0, 1)

    def test_rows_are_the_transposed_picks(self):
        picks = [(0, 0), (0, 1), (2, 2)]
        s = BranchedStructure(((0, 0, 2), (0, 1, 2)))
        assert s == derive_groupings(picks)
        assert s != BranchedStructure(((0, 0, 2), (0, 1, 1)))
        assert s != derive_groupings(picks[:2])
        assert (s.num_tasks, s.num_layers) == (3, 2)
        assert [str(k) for k in s.groupings] == ["001", "012"]

    def test_cost_counts_blocks_per_layer(self):
        s = derive_groupings([(0, 0), (0, 1), (2, 2)])
        table = CostTable((10.0, 100.0))
        assert [k.num_blocks for k in s.groupings] == [2, 3]
        assert structure_cost(s, table) == 2 * 10.0 + 3 * 100.0

    def test_cost_table_depth_must_match(self):
        s = derive_groupings([(0,), (1,)])
        with pytest.raises(DimensionMismatch):
            structure_cost(s, CostTable((1.0, 1.0)))


def test_removed_names_are_gone():
    assert not hasattr(bmtas.graph, "grouping_cost")
    assert not hasattr(CostTable, "from_layer_dims")
    assert list(inspect.signature(BranchedStructure).parameters) == ["edge_choice"]
    assert list(vars(derive_groupings([[0]]))) == ["edge_choice", "groupings"]
    assert list(vars(SupergraphSpec((4, 4)))) == ["widths", "cost_table"]
    # the constructor, given widths and unit costs, is the one way to build it
    assert list(inspect.signature(SupergraphSpec).parameters) == ["widths", "unit_costs"]
    assert not hasattr(SupergraphSpec, "chain")
    assert not hasattr(bmtas.cli, "_build_supergraph")
    assert not hasattr(bmtas.resloss, "_EdgeTables")
    # the task count lives only with the logits and the data
    assert not hasattr(ArchitectureParams, "num_candidates")
    assert not hasattr(bmtas.cli, "_spec_from_args")
    assert not hasattr(bmtas.cli, "_unit_costs")


def brute_force_chain_count(num_tasks, num_layers):
    parts = enumerate_partitions(num_tasks)
    total = 0
    for chain in itertools.product(parts, repeat=num_layers):
        if all(refines(chain[i + 1], chain[i]) for i in range(num_layers - 1)):
            total += 1
    return total


@pytest.mark.parametrize(
    "num_tasks,num_layers",
    [(2, 1), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)],
)
def test_count_structures_matches_brute_force(num_tasks, num_layers):
    assert count_structures(num_tasks, num_layers) == brute_force_chain_count(
        num_tasks, num_layers
    )


def refines_chain_count(num_tasks, num_layers):
    """Chains counted layer by layer over every pair (k, m) with k refining m."""
    parts = enumerate_partitions(num_tasks)
    counts = [1] * len(parts)
    for _ in range(num_layers - 1):
        counts = [sum(c for c, m in zip(counts, parts) if refines(k, m)) for k in parts]
    return sum(counts)


@pytest.mark.parametrize(
    "num_tasks,num_layers", [(1, 3), (4, 0), (4, 5), (5, 4), (6, 3)]
)
def test_count_structures_matches_pairwise_recurrence(num_tasks, num_layers):
    assert count_structures(num_tasks, num_layers) == refines_chain_count(
        num_tasks, num_layers
    )


def test_count_structures_known_values():
    # T=2: the split point can sit after any of the L layers, or nowhere
    for L in range(1, 6):
        assert count_structures(2, L) == L + 1
    assert count_structures(3, 1) == 5  # B_3
    assert count_structures(6, 200) == 7303558113551
    assert count_structures(8, 1000) == 316035592591647943515501


@pytest.mark.parametrize("num_tasks", [7, 8])
def test_three_layer_count_from_the_middle_grouping(num_tasks):
    # a three-layer chain is a middle grouping k, one of its B_(blocks of k)
    # coarsenings and one of its prod_(blocks b) B_|b| refinements
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    want = sum(
        bell[k.num_blocks] * math.prod(bell[len(b)] for b in k.blocks())
        for k in enumerate_partitions(num_tasks)
    )
    assert count_structures(num_tasks, 3) == want
    assert want == {7: 146115, 8: 1855570}[num_tasks]


def test_count_structures_stays_exact_past_int64():
    count = count_structures(8, 300)
    assert type(count) is int and count > 2**63


routings_st = st.tuples(st.integers(2, 4), st.integers(1, 4)).flatmap(
    lambda tl: st.lists(
        st.lists(st.integers(0, tl[0] - 1), min_size=tl[1], max_size=tl[1]),
        min_size=tl[0],
        max_size=tl[0],
    )
)


@given(routings_st)
@settings(max_examples=60)
def test_derived_structures_always_validate(choices):
    s = derive_groupings(choices)
    for l, k in enumerate(s.groupings, start=1):
        # tasks share at layer l iff their picks agree at layers 1..l
        assert k == Partition.from_labels([tuple(row[:l]) for row in choices])
        assert l == 1 or refines(k, s.groupings[l - 2])
    table = CostTable((1.0,) * s.num_layers)
    cost = structure_cost(s, table)
    assert s.num_layers <= cost <= s.num_tasks * s.num_layers


def test_structure_hash_stable_and_sensitive():
    a = derive_groupings([(0, 0), (0, 1), (2, 2)])
    b = derive_groupings([(0, 0), (0, 1), (2, 2)])
    c = derive_groupings([(0, 0), (1, 1), (2, 2)])
    assert structure_hash(a) == structure_hash(b)
    assert structure_hash(a) != structure_hash(c)
    assert len(structure_hash(a)) == 12


def test_json_round_trip_preserves_structure():
    s = derive_groupings([(0, 0), (0, 1), (2, 2)])
    obj = structure_to_json(s, ["seg", "depth", "norm"])
    back, names = structure_from_json(obj)
    assert back == s
    assert names == ["seg", "depth", "norm"]
    assert obj["layers"][0] == {"groups": [[0, 1], [2]]}


def test_json_requires_one_name_per_task():
    s = derive_groupings([(0,), (1,)])
    with pytest.raises(DimensionMismatch):
        structure_to_json(s, ["only"])


@pytest.mark.parametrize("name", ['a"b', "a\\b", "a\nb", "a\x00b", "a\x7fb", "a\x85b"])
def test_json_rejects_names_that_would_break_a_dot_label(name):
    obj = structure_to_json(derive_groupings([(0,), (0,)]), [name, "c"])
    with pytest.raises(ValueError, match="task names"):
        structure_from_json(obj)


def test_json_keeps_names_with_spaces_and_non_ascii():
    obj = structure_to_json(derive_groupings([(0,), (0,)]), ["sem seg", "Größe"])
    assert structure_from_json(obj)[1] == ["sem seg", "Größe"]


class TestExportDot:
    def setup_method(self):
        self.s = derive_groupings([(0, 0), (0, 1), (2, 2)])
        self.dot = export_dot(self.s, ["a", "b", "c"])

    def test_is_a_digraph_with_source_and_sink(self):
        assert self.dot.startswith("digraph")
        assert self.dot.count("{") == self.dot.count("}") == 1
        assert "in [shape=point]" in self.dot
        assert "out [shape=point]" in self.dot

    def test_one_node_per_layer_block(self):
        assert 'l1_t0 [shape=box, label="a,b"]' in self.dot
        assert 'l2_t1 [shape=box, label="b"]' in self.dot
        assert 'l2_t2 [shape=box, label="c"]' in self.dot

    def test_edges_follow_the_branching(self):
        assert "l1_t0 -> l2_t0" in self.dot
        assert "l1_t0 -> l2_t1" in self.dot
        assert "l1_t2 -> l2_t1" not in self.dot

    def test_deterministic(self):
        again = export_dot(
            derive_groupings([(0, 0), (0, 1), (2, 2)]), ["a", "b", "c"]
        )
        assert again == self.dot
