import ast
import concurrent.futures
import contextlib
import copy
import csv
import hashlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmtas import cli, resloss
from bmtas.cli import load_config, main
from bmtas.errors import ConfigError, SearchError
from bmtas.graph import (
    CostTable,
    SupergraphSpec,
    derive_groupings,
    structure_cost,
    structure_from_json,
    structure_to_json,
)
from bmtas.nncore import OperationParams
from bmtas.partition import MAX_TASKS, Partition, enumerate_partitions
from bmtas.resloss import (
    ENUM_GUARD,
    ArchitectureParams,
    _edge_tables,
    brute_force_expected_cost,
    expected_cost,
    grouping_distribution,
)
from bmtas.schema import CONFIG_SCHEMA
from bmtas.seeding import rng_stream
from conftest import PINNED_PLATFORM, fresh_env, fresh_python, random_alpha

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def base_config(**overrides):
    cfg = {
        "experiment": "toy",
        "supergraph": {"widths": [8, 6, 6]},
        "benchmark": {
            "num_tasks": 3,
            "input_dim": 8,
            "hidden_dim": 4,
            "target_dim": 2,
            "relatedness": [[0, 1], [2]],
            "train_samples": 96,
            "test_samples": 32,
        },
        "search": {
            "warmup_steps": 20,
            "search_steps": 25,
            "retrain_steps": 20,
        },
        "seeds": [0],
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def partitions_built(monkeypatch):
    """Every Partition constructed from here on; the enumerate_partitions
    cache starts empty, so a cached tuple cannot hide a rebuild."""
    built = []
    init = Partition.__init__

    def counted(self, rgs):
        built.append(self)
        init(self, rgs)

    enumerate_partitions.cache_clear()
    monkeypatch.setattr(Partition, "__init__", counted)
    return built


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# load_config's oracle: 2020-12 with Draft 4's type checker, whose integer is never 3.0
JSONSCHEMA_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=jsonschema.Draft4Validator.TYPE_CHECKER
)(CONFIG_SCHEMA)


def schema_paths(schema=CONFIG_SCHEMA, path=()) -> dict:
    """Each object or array path that the schema names -> its keys, or its
    indices 0..2."""
    children = schema.get("properties") or dict.fromkeys(range(3), schema.get("items"))
    children = {k: v for k, v in children.items() if v is not None}
    paths = {path: list(children)} if children else {}
    for key, child in children.items():
        paths.update(schema_paths(child, (*path, key)))
    return paths


SCHEMA_PATHS = schema_paths()
# wrong types (a bool and 3.0 among them), values at and past the bounds, empties
ODD_VALUES = [
    True, False, None, "", "x", [], [1], [[0]], {}, {"a": 1},
    -1, 0, 1, 2, 3.0, 8, 9, 16, 10**400, -0.5, 0.0, 1e-300,
]
DELETE = object()


@st.composite
def config_fault(draw):
    """One fault as a list of (path, value) edits: a wrong value, a deleted
    key or item, an unknown key, or wrong values at two siblings."""
    parent = draw(st.sampled_from(sorted(SCHEMA_PATHS, key=str)))
    keys = SCHEMA_PATHS[parent]
    kind = draw(st.sampled_from(["set", "delete", "unknown", "siblings"]))
    if kind == "unknown" and isinstance(keys[0], str):
        return [((*parent, draw(st.sampled_from(["aaa", "extra", "zzz"]))), 1)]
    if kind == "siblings":
        pair = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
        return [((*parent, key), draw(st.sampled_from(ODD_VALUES))) for key in pair]
    value = DELETE if kind == "delete" else draw(st.sampled_from(ODD_VALUES))
    return [((*parent, draw(st.sampled_from(keys))), value)]


def node_at(cfg, path):
    """The value at path in cfg, or None where the path leaves cfg."""
    for step in path:
        if isinstance(cfg, dict) and step in cfg:
            cfg = cfg[step]
        elif isinstance(cfg, list) and isinstance(step, int) and step < len(cfg):
            cfg = cfg[step]
        else:
            return None
    return cfg


def edited(cfg, edits):
    """A copy of cfg with each edit made where its parent exists; an index
    one past the end of an array appends."""
    cfg = copy.deepcopy(cfg)
    for path, value in edits:
        node, key = node_at(cfg, path[:-1]), path[-1]
        if isinstance(node, dict) and isinstance(key, str) and value is DELETE:
            node.pop(key, None)
        elif isinstance(node, dict) and isinstance(key, str):
            node[key] = copy.deepcopy(value)  # no edit may change another's value
        elif isinstance(node, list) and isinstance(key, int) and key <= len(node):
            node[key : key + 1] = [] if value is DELETE else [copy.deepcopy(value)]
    return cfg


class TestLoadConfig:
    def test_accepts_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg["experiment"] == "toy"

    def test_rejects_unknown_keys(self, tmp_path):
        bad = base_config()
        bad["search"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(write_config(tmp_path, bad))

    def test_rejects_missing_sections(self, tmp_path):
        bad = base_config()
        del bad["benchmark"]
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))

    def test_rejects_width_benchmark_disagreement(self, tmp_path):
        bad = base_config()
        bad["benchmark"]["input_dim"] = 10
        with pytest.raises(ConfigError, match="input_dim"):
            load_config(write_config(tmp_path, bad))

    def test_rejects_short_unit_costs(self, tmp_path):
        bad = base_config()
        bad["supergraph"]["unit_costs"] = [1.0]
        with pytest.raises(ConfigError, match="unit_costs"):
            load_config(write_config(tmp_path, bad))

    def test_rejects_out_of_range_relatedness(self, tmp_path):
        bad = base_config()
        bad["benchmark"]["relatedness"] = [[0, 1], [5]]
        with pytest.raises(ConfigError, match="relatedness"):
            load_config(write_config(tmp_path, bad))

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_schema_is_valid(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_schema_vocabulary(self):
        # every keyword and type the schema uses, so that a reader or
        # replacement of the validator knows the whole of what it must cover
        keywords, types = set(), set()

        def walk(node):
            keywords.update(node)
            types.add(node["type"])
            for child in node.get("properties", {}).values():
                walk(child)
            if "items" in node:
                walk(node["items"])

        walk(CONFIG_SCHEMA)
        assert keywords == {
            "type",
            "required",
            "properties",
            "additionalProperties",
            "items",
            "minItems",
            "minLength",
            "minimum",
            "maximum",
            "exclusiveMinimum",
        }
        assert types == {"object", "array", "string", "integer", "number"}

    @given(st.lists(config_fault(), min_size=1, max_size=4).map(lambda faults: sum(faults, [])))
    @example([(("search", "alpha_lr"), 0), (("search", "theta_lr"), 0)])  # the greater path
    @example([(("supergraph", "widths", 0), 0), (("supergraph", "widths", 2), 0)])
    @example([(("benchmark", "zzz"), 1), (("benchmark", "num_tasks"), DELETE)])  # schema order
    @example([(("search", "zzz"), 1), (("search", "aaa"), 1)])  # the unknown keys sorted
    @example([(("search", "lambda"), True), (("benchmark", "num_tasks"), 3.0)])
    @example([(("seeds",), [])])
    @example([(("experiment",), "")])
    @example([(("supergraph", "widths"), [8])])
    @settings(max_examples=300, deadline=None)
    def test_messages_match_jsonschema_best_match(self, tmp_path_factory, edits):
        cfg = edited(pinned_configs()["pairs/seed0"][1], edits)
        path = write_config(tmp_path_factory.getbasetemp(), cfg, "mutated.json")
        want = jsonschema.exceptions.best_match(JSONSCHEMA_VALIDATOR.iter_errors(cfg))
        try:
            load_config(path)
            got = None
        except ConfigError as exc:
            got = str(exc)
        if want is None:  # the checks across keys come after the schema's
            assert got is None or not got.startswith(f"{path}: $"), got
        else:
            assert got == f"{path}: {want.json_path}: {want.message}"

    @pytest.mark.parametrize(
        "section, edits",
        [
            ("search", {"learning_rate": 0.1}),
            ("benchmark", {"num_tasks": 99}),
            ("benchmark", {"relatedness": [[0, "a"]]}),
            ("supergraph", {"widths": [8]}),
        ],
    )
    def test_messages_match_jsonschema_validate(self, tmp_path, section, edits):
        bad = base_config()
        bad[section].update(edits)
        path = write_config(tmp_path, bad)
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            load_config(path)
        assert str(got.value) == f"{path}: {want.value.json_path}: {want.value.message}"


class TestExitCodes:
    def test_config_problems_exit_2(self, tmp_path, capsys):
        bad = base_config()
        bad["benchmark"]["num_tasks"] = 99
        code = main(["search", "--config", write_config(tmp_path, bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["event"] == "config_error"

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["search", "--config", str(tmp_path / "absent.json")]) == 2

    def test_runtime_problems_exit_1(self, tmp_path, capsys):
        # a valid config whose weight steps diverge: SearchError
        argv = bad_config(tmp_path, search={"theta_lr": 1e8, "warmup_steps": 0})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(tmp_path / "runs")]) == 1
        # a warning would print among the JSON lines of stderr
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["event"] for line in lines][-1] == "runtime_error"

    def test_a_diverging_search_keeps_its_partial_trace(self, tmp_path, capsys):
        argv = bad_config(tmp_path, search={"theta_lr": 1e8, "warmup_steps": 0})
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        seed_dir = tmp_path / "runs" / "toy" / "seed0"
        failure = json.loads((seed_dir / "failure.json").read_text())
        assert failure["stage"] == "search" and failure["message"] == error
        assert error.startswith(f"non-finite value at step {failure['step']}: ")
        rows = list(csv.reader(io.StringIO((seed_dir / "trace.csv").read_text())))
        assert rows[0][:2] == ["step", "tau"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, failure["step"]))

    @pytest.mark.parametrize(
        "stage, settings, step",
        [
            ("warm-up", {"theta_lr": 1e8}, 19),
            (
                "retrain",
                {"warmup_steps": 0, "search_steps": 1, "retrain_steps": 400, "theta_lr": 3},
                162,
            ),
        ],
        ids=["warm-up", "retrain"],
    )
    def test_a_diverging_warm_up_or_retraining_keeps_its_failure(
        self, tmp_path, capsys, stage, settings, step
    ):
        assert main(bad_config(tmp_path, search=settings)) == 1
        line = json.loads(capsys.readouterr().err.splitlines()[-1])
        message = f"non-finite value at {stage} step {step}: tensor holds NaN or Inf"
        assert line == {"event": "runtime_error", "error": message, "kind": "NumericError"}
        seed_dir = tmp_path / "runs" / "toy" / "seed0"
        failure = json.loads((seed_dir / "failure.json").read_text())
        assert failure == {"stage": stage, "step": step, "message": message}
        if stage == "warm-up":  # no search step finished
            assert sorted(p.name for p in seed_dir.iterdir()) == ["failure.json"]
            return
        assert sorted(p.name for p in seed_dir.iterdir()) == ["failure.json", "trace.csv"]
        # the finished search's trace: that of the same run with no retraining
        clean = tmp_path / "clean"
        clean.mkdir()
        assert main(bad_config(clean, search={**settings, "retrain_steps": 0})) == 0
        clean_trace = (clean / "runs" / "toy" / "seed0" / "trace.csv").read_text()
        assert (seed_dir / "trace.csv").read_text() == clean_trace

    def test_impossible_width_is_one_runtime_error(self, tmp_path, capsys):
        # numpy refuses a (8, 10**18) float64 array before allocating anything
        argv = bad_config(tmp_path, supergraph={"widths": [8, 10**18, 6]})
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {
            "event": "runtime_error",
            "error": "array is too big; `arr.size * arr.dtype.itemsize` is larger than "
            "the maximum possible size.",
            "kind": "MemoryError",
        }

    def test_memory_error_is_one_runtime_error(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(OperationParams, "init", refuse)
        assert main(bad_config(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {
            "event": "runtime_error",
            "error": "out of memory",
            "kind": "MemoryError",
        }

    def test_other_value_errors_still_raise(self, tmp_path, monkeypatch):
        # only numpy's size refusal is read as running out of memory
        def broken(*args, **kwargs):
            raise ValueError("a bug, not a refused allocation")

        monkeypatch.setattr(OperationParams, "init", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(bad_config(tmp_path))

    def test_diverging_warm_up_names_its_stage_and_step(self, tmp_path, capsys):
        argv = bad_config(tmp_path, search={"theta_lr": 1e300})
        assert main(argv + ["--out", str(tmp_path / "runs")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "event": "runtime_error",
            "error": "non-finite value at warm-up step 2: tensor holds NaN or Inf",
            "kind": "NumericError",
        }


def bad_config(tmp_path, **edits):
    """search argv for base_config with edits {section: {key: value}}, or
    {key: value} for a top-level key that is not a section; the strings "INF"
    and "BIG" are written as the JSON numbers 1e400 and 10**400. Its
    output_dir is under tmp_path, so a config that is wrongly accepted writes
    nothing into the working directory."""
    cfg = base_config(output_dir=str(tmp_path / "runs"))
    for section, values in edits.items():
        if isinstance(values, dict):
            cfg[section].update(values)
        else:
            cfg[section] = values
    path = tmp_path / "run.json"
    text = json.dumps(cfg).replace('"INF"', "1e400").replace('"BIG"', str(10**400))
    path.write_text(text)
    return ["search", "--config", str(path)]


def input_file(tmp_path, text, name="input.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


ALPHA_2x1 = "[[[0, 0]], [[0, 0]]]"
ALPHA_2x2 = "[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]"  # the worked example


def record(*rows):
    """Metric record JSON with one higher-is-better task per (name, value)."""
    tasks = [{"name": n, "value": v, "lower_better": False} for n, v in rows]
    return json.dumps({"tasks": tasks})


def eval_argv(tmp_path, model, baseline):
    return [
        "eval",
        "--model", input_file(tmp_path, model, "model.json"),
        "--baseline", input_file(tmp_path, baseline, "baseline.json"),
    ]


def export_dot_argv(tmp_path, tasks, groups, edge_choice):
    """export-dot on a structure file with these names, per-layer groups and picks."""
    obj = {"tasks": tasks, "layers": [{"groups": g} for g in groups], "edge_choice": edge_choice}
    return ["export-dot", "--structure", input_file(tmp_path, json.dumps(obj))]


BAD_INPUTS = {
    "relatedness-repeats-a-task": lambda p: bad_config(
        p, benchmark={"relatedness": [[0, 0]]}
    ),
    "relatedness-misses-a-task": lambda p: bad_config(
        p, benchmark={"relatedness": [[0, 1]]}
    ),
    "tau_start-below-tau_end": lambda p: bad_config(
        p, search={"tau_start": 0.05, "tau_end": 0.5}
    ),
    "omega-with-a-zero-weight": lambda p: bad_config(p, search={"omega": [1, 0, 1]}),
    "unit-cost-overflows-to-inf": lambda p: bad_config(
        p, supergraph={"unit_costs": ["INF", 1]}
    ),
    "unit-cost-integer-too-large-for-a-float": lambda p: bad_config(
        p, supergraph={"unit_costs": ["BIG", 1]}
    ),
    "unit-costs-whose-expected-cost-overflows": lambda p: bad_config(
        p, supergraph={"unit_costs": [1e308, 1e308]}
    ),
    "search-lambda-override-NaN": lambda p: bad_config(p) + ["--lambda", "nan"],
    "search-negative-seed": lambda p: bad_config(p) + ["--seed", "-1"],
    "search-sets-a-removed-setting": lambda p: bad_config(p, search={"batch_size": 16}),
    "search-out-under-a-file": lambda p: bad_config(p) + ["--out", input_file(p, "", "a-file")],
    "enumerate-non-numeric-unit-costs": lambda p: [
        "enumerate", "--tasks", "2", "--layers", "2", "--unit-costs", "a,b"
    ],
    "enumerate-zero-layers": lambda p: ["enumerate", "--tasks", "2", "--layers", "0"],
    "enumerate-negative-layers": lambda p: ["enumerate", "--tasks", "2", "--layers", "-5"],
    "enumerate-nine-tasks": lambda p: ["enumerate", "--tasks", "9", "--layers", "2"],
    "expected-cost-non-numeric-widths": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x1), "--widths", "a,b"
    ],
    "expected-cost-zero-unit-cost": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x1), "--unit-costs", "0"
    ],
    "expected-cost-unit-costs-whose-sum-overflows": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2), "--unit-costs", "1e308,1e308"
    ],
    "expected-cost-NaN-logit": lambda p: [
        "expected-cost", "--alpha", input_file(p, "[[[NaN, 0]], [[0, 0]]]")
    ],
    "expected-cost-three-candidates-for-two-tasks": lambda p: [
        "expected-cost", "--alpha", input_file(p, "[[[0, 0, 0]], [[0, 0, 0]]]")
    ],
    "expected-cost-oracle-past-the-enumeration-guard": lambda p: [
        "expected-cost", "--alpha", input_file(p, json.dumps([[[0] * 4] * 3] * 4)), "--oracle"
    ],
    "expected-cost-nine-tasks": lambda p: [
        "expected-cost", "--alpha", input_file(p, json.dumps([[[0] * 9] * 2] * 9))
    ],
    "eval-record-without-tasks": lambda p: [
        "eval", "--model", input_file(p, "{}"), "--baseline", input_file(p, "{}")
    ],
    "eval-records-with-empty-task-lists": lambda p: eval_argv(p, record(), record()),
    "eval-zero-baseline": lambda p: eval_argv(
        p, record(("a", 1.0)), record(("a", 0.0))
    ),
    # finite values whose relative change overflows to inf and to -inf
    "eval-change-overflows-upward": lambda p: eval_argv(
        p, record(("a", 1e308)), record(("a", 1e-310))
    ),
    "eval-change-overflows-downward": lambda p: eval_argv(
        p, record(("a", 1e308)), record(("a", -1e308))
    ),
    "eval-records-name-different-tasks": lambda p: eval_argv(
        p, record(("a", 1.0)), record(("b", 1.0))
    ),
    "export-dot-structure-without-layers": lambda p: [
        "export-dot", "--structure", input_file(p, '{"tasks": ["a"]}')
    ],
    "export-dot-structure-with-no-layers": lambda p: [
        "export-dot",
        "--structure",
        input_file(p, '{"tasks": ["a", "b"], "layers": [], "edge_choice": []}'),
    ],
    "export-dot-pick-outside-the-operations": lambda p: export_dot_argv(
        p, ["a", "b"], [[[0, 1]]], [[7, 7]]
    ),
    "export-dot-groups-disagree-with-the-picks": lambda p: export_dot_argv(
        p, ["a", "b"], [[[0, 1]]], [[0, 1]]
    ),
    "export-dot-three-names-for-two-tasks": lambda p: export_dot_argv(
        p, ["a", "b", "c"], [[[0, 1]]], [[0, 0]]
    ),
    "expected-cost-widths-and-unit-costs": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2),
        "--widths", "4,4,4", "--unit-costs", "1,1",
    ],
    # the = form: argparse would read "--widths -2,-2,-2" as an option
    "expected-cost-negative-widths": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2), "--widths=-2,-2,-2"
    ],
    "expected-cost-mixed-sign-widths": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2), "--widths=-2,2,2"
    ],
    "export-dot-name-with-a-quote": lambda p: export_dot_argv(
        p, ['a"b', "c"], [[[0, 1]]], [[0, 0]]
    ),
    # an empty value is given, not absent
    "expected-cost-empty-widths-and-unit-costs": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2), "--widths=", "--unit-costs", "3,3"
    ],
    "expected-cost-empty-widths": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2), "--widths="
    ],
    "expected-cost-empty-unit-costs": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x2), "--unit-costs="
    ],
    "enumerate-empty-unit-costs": lambda p: [
        "enumerate", "--tasks", "3", "--layers", "2", "--unit-costs="
    ],
    # the benchmark's widths must satisfy target_dim <= hidden_dim <= input_dim
    "hidden_dim-above-input_dim": lambda p: bad_config(
        p, supergraph={"widths": [4, 6, 6]}, benchmark={"input_dim": 4, "hidden_dim": 5}
    ),
    "target_dim-above-hidden_dim": lambda p: bad_config(
        p, benchmark={"hidden_dim": 2, "target_dim": 6}
    ),
    # a bad command line: argparse would print its usage text instead
    "enumerate-non-integer-tasks": lambda p: ["enumerate", "--tasks", "x", "--layers", "2"],
    "search-non-integer-seed": lambda p: bad_config(p) + ["--seed", "abc"],
    "no-verb": lambda p: [],
    "unknown-verb": lambda p: ["optimize"],
    "expected-cost-without-alpha": lambda p: ["expected-cost", "--unit-costs", "1,1"],
    # outside JSON is read by its type, never coerced
    "eval-value-is-a-string": lambda p: eval_argv(p, record(("a", 2)), record(("a", "1"))),
    "eval-direction-is-a-string": lambda p: eval_argv(
        p, *(json.dumps({"tasks": [{"name": "a", "value": v, "lower_better": "no"}]})
             for v in (2, 1))
    ),
    "export-dot-tasks-is-a-string": lambda p: export_dot_argv(p, "ab", [[[0, 1]]], [[0, 0]]),
    "export-dot-fractional-task-index": lambda p: export_dot_argv(
        p, ["a", "b"], [[[0], [1.5]]], [[0, 1]]
    ),
    "export-dot-boolean-pick": lambda p: export_dot_argv(
        p, ["a", "b"], [[[0], [1]]], [[True, False]]
    ),
    "expected-cost-logit-true": lambda p: [
        "expected-cost", "--alpha", input_file(p, "[[[true, 0]], [[0, 0]]]")
    ],
    "expected-cost-logit-false": lambda p: [
        "expected-cost", "--alpha", input_file(p, "[[[0, 0]], [[false, 0]]]")
    ],
    "expected-cost-logit-string": lambda p: [
        "expected-cost", "--alpha", input_file(p, '[[[0, "1"]], [[0, 0]]]')
    ],
    # a config integer is a JSON integer: 3.0 is a number, not an integer
    "num_tasks-written-as-a-float": lambda p: bad_config(p, benchmark={"num_tasks": 3.0}),
    "warmup_steps-written-as-a-float": lambda p: bad_config(p, search={"warmup_steps": 20.0}),
    "train_samples-written-as-a-float": lambda p: bad_config(
        p, benchmark={"train_samples": 96.0}
    ),
    "width-written-as-a-float": lambda p: bad_config(p, supergraph={"widths": [8.0, 6, 6]}),
    "seed-written-as-a-float": lambda p: bad_config(p, seeds=[0.0]),
    # a number key written as an integer past the largest float
    "theta_lr-integer-too-large-for-a-float": lambda p: bad_config(p, search={"theta_lr": "BIG"}),
    "lambda-integer-too-large-for-a-float": lambda p: bad_config(p, search={"lambda": "BIG"}),
    "signal_scale-integer-too-large-for-a-float": lambda p: bad_config(
        p, benchmark={"signal_scale": "BIG"}
    ),
    "seeds-repeat-a-seed": lambda p: bad_config(p, seeds=[0, 0, 0]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_config_error(case, tmp_path, capsys):
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["event"] == "config_error"
    assert captured.out == ""


def test_a_float_integer_names_its_path_and_type(tmp_path, capsys):
    argv = BAD_INPUTS["num_tasks-written-as-a-float"](tmp_path)
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "event": "config_error",
        "error": f"{argv[2]}: $.benchmark.num_tasks: 3.0 is not of type 'integer'",
    }


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["enumerate", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bmtas enumerate")


# command lines that parse, for each verb: every option, = forms and an abbreviation
GOOD_COMMAND_LINES = [
    ["search", "--config", "run.json"],
    ["search", "--config", "run.json", "--seed", "3", "--out", "o", "--lambda", "0.5"],
    ["search", "--conf=run.json", "--lambda=-1e3", "--seed=0"],
    ["expected-cost", "--alpha", "a.json"],
    ["expected-cost", "--alpha", "a.json", "--widths", "4,2", "--oracle"],
    ["expected-cost", "--alpha=a.json", "--unit-costs=", "--widths=x"],
    ["enumerate", "--tasks", "3", "--layers", "2"],
    ["enumerate", "--layers", "-5", "--tasks", "9", "--unit-costs", "1,2"],
    ["eval", "--model", "m.json", "--baseline", "b.json"],
    ["export-dot", "--structure", "s.json"],
]

TOP_LEVEL_HELP = """\
usage: bmtas [-h] {search,expected-cost,enumerate,eval,export-dot} ...

Branched multi-task architecture search on a toy supergraph.

positional arguments:
  {search,expected-cost,enumerate,eval,export-dot}
    search              run warm-up, search and retraining per seed
    expected-cost       expected cost of a logit tensor
    enumerate           partition and structure counts
    eval                average relative metric vs a baseline
    export-dot          render a structure JSON as Graphviz

options:
  -h, --help            show this help message and exit
"""


def parse_outcome(parser, argv) -> tuple[bool, str]:
    """Whether parse_args accepts argv, and the repr of the namespace it fills
    (a NaN equals itself there) or the text of its ConfigError."""
    try:
        return True, repr(parser.parse_args(argv))
    except ConfigError as exc:
        return False, str(exc)


# the BAD_INPUTS that the parser rejects: a bad command line, not a bad input
PARSER_CASES = {
    "enumerate-non-integer-tasks",
    "search-non-integer-seed",
    "expected-cost-without-alpha",
}
# the BAD_INPUTS that name no verb, for which main builds every verb's parser
NO_VERB_CASES = {"no-verb", "unknown-verb"}


class TestOneVerbParser:
    """A command line that names a verb first is parsed by that verb's parser
    alone; the parser of every verb, build_parser(None), is its oracle."""

    def test_every_verb_has_a_parser_of_its_own(self):
        def verbs(parser):
            return list(parser._subparsers._group_actions[0].choices)

        assert verbs(cli.build_parser(None)) == list(cli._VERBS)
        for verb in cli._VERBS:
            assert verbs(cli.build_parser(verb)) == [verb]

    @pytest.mark.parametrize("argv", GOOD_COMMAND_LINES, ids=" ".join)
    def test_good_command_lines_fill_the_same_namespace(self, argv):
        one = parse_outcome(cli.build_parser(argv[0]), argv)
        assert one[0] and one == parse_outcome(cli.build_parser(None), argv)

    @pytest.mark.parametrize("case", [c for c in BAD_INPUTS if c not in NO_VERB_CASES])
    def test_bad_inputs_parse_alike(self, case, tmp_path):
        argv = BAD_INPUTS[case](tmp_path)
        assert argv[0] in cli._VERBS
        full = parse_outcome(cli.build_parser(None), argv)
        assert parse_outcome(cli.build_parser(argv[0]), argv) == full
        # the command-line cases fail in the parser, the others after it
        assert full[0] == (case not in PARSER_CASES)

    @pytest.mark.parametrize("verb", cli._VERBS)
    def test_help_is_byte_identical(self, verb, capsys):
        texts = []
        for parser in (cli.build_parser(verb), cli.build_parser(None)):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args([verb, "-h"])
            assert exit_.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        assert texts[0].out.startswith(f"usage: bmtas {verb} [-h]") and texts[0].err == ""

    def test_no_verb_prints_every_verbs_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0
        assert capsys.readouterr() == (TOP_LEVEL_HELP, "")
        errors = {
            (): "the following arguments are required: command",
            ("optimize",): "argument command: invalid choice: 'optimize' (choose from "
            "'search', 'expected-cost', 'enumerate', 'eval', 'export-dot')",
        }
        for argv, error in errors.items():
            assert main(list(argv)) == 2
            line = json.dumps({"error": error, "event": "config_error"}) + "\n"
            assert capsys.readouterr() == ("", line)


# inputs whose arithmetic overflows: numpy would warn on stderr
OVERFLOWING = {
    "search-signal-scale-1e308": (
        lambda p: bad_config(p, benchmark={"signal_scale": 1e308}), 1, ["runtime_error"]
    ),
    "expected-cost-logits-1e308-apart": (
        lambda p: [
            "expected-cost", "--alpha",
            input_file(p, "[[[1e308, -1e308], [0, 0]], [[0, 0], [0, 0]]]"),
        ],
        0,
        [],
    ),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_overflow_leaves_no_numpy_warning(case, workers, tmp_path, monkeypatch, capsys):
    """pytest would hide a warning from capsys, so warnings are errors here; a
    forked pool worker inherits that, and its error would reach main."""
    make_argv, status, events = OVERFLOWING[case]
    argv = make_argv(tmp_path)
    if argv[0] == "search":  # two seeds, so that BMTAS_WORKERS=2 starts a pool
        cfg = json.loads(Path(argv[2]).read_text())
        argv[2] = write_config(tmp_path, {**cfg, "seeds": [0, 1]}, "two-seeds.json")
    monkeypatch.setenv("BMTAS_WORKERS", workers)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == status
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["event"] for line in lines] == events


@pytest.mark.parametrize("widths", ["-2,-2,-2", "-2,2,2"])
def test_negative_widths_report_the_width_rule(widths, tmp_path, capsys):
    argv = ["expected-cost", "--alpha", input_file(tmp_path, ALPHA_2x2), f"--widths={widths}"]
    assert main(argv) == 2
    assert "widths must be at least 1" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("layers", ["0", "-5"])
def test_layers_below_one_report_the_layers_rule(layers, capsys):
    assert main(["enumerate", "--tasks", "3", "--layers", layers]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"--layers must be at least 1, got {layers}"


class TestEnumerate:
    def test_counts(self, capsys):
        assert main(["enumerate", "--tasks", "3", "--layers", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell"] == 5
        assert report["structures"] == 12
        assert report["min_cost"] == 2.0
        assert report["max_cost"] == 6.0

    def test_eight_tasks_build_no_partitions(self, capsys, partitions_built):
        assert main(["enumerate", "--tasks", "8", "--layers", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["bell"], report["structures"]) == (4140, 1855570)
        assert partitions_built == []

    def test_unit_layer_costs_build_no_cost_table(self, capsys, monkeypatch):
        built = []
        init = CostTable.__init__

        def counted(self, unit_cost):
            built.append(self)
            init(self, unit_cost)

        monkeypatch.setattr(CostTable, "__init__", counted)
        assert main(["enumerate", "--tasks", "8", "--layers", "1000000000"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["min_cost"], report["max_cost"]) == (1e9, 8e9)
        assert built == []

    def test_unit_costs(self, capsys):
        assert (
            main(
                [
                    "enumerate",
                    "--tasks",
                    "2",
                    "--layers",
                    "2",
                    "--unit-costs",
                    "3,5",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["min_cost"] == 8.0
        assert report["max_cost"] == 16.0


class TestExpectedCost:
    def write_alpha(self, tmp_path, logits):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(logits))
        return str(path)

    def test_uniform_worked_example(self, tmp_path, capsys):
        alpha = self.write_alpha(tmp_path, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
        code = main(
            ["expected-cost", "--alpha", alpha, "--unit-costs", "1,1", "--oracle"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["expected_cost"] == pytest.approx(3.25)
        assert report["normalized"] == pytest.approx(1.625)
        assert report["oracle"] == pytest.approx(3.25)
        layer1 = {
            json.dumps(e["partition"]): e["prob"]
            for e in report["grouping_distribution"][0]["probs"]
        }
        assert layer1[json.dumps([[0, 1]])] == pytest.approx(0.5)

    def test_widths_build_the_cost_table(self, tmp_path, capsys):
        alpha = self.write_alpha(tmp_path, [[[0, 0]], [[0, 0]]])
        assert main(["expected-cost", "--alpha", alpha, "--widths", "4,2"]) == 0
        report = json.loads(capsys.readouterr().out)
        # E[blocks] = 1.5, unit cost 2*4*2 = 16
        assert report["expected_cost"] == pytest.approx(24.0)

    def test_eight_tasks_run_without_lattice_tables(self, tmp_path, capsys):
        logits = random_alpha(np.random.default_rng(8), 8, 4)
        alpha = self.write_alpha(tmp_path, logits.tolist())
        before = _edge_tables.cache_info()
        assert main(["expected-cost", "--alpha", alpha, "--unit-costs", "3,5,2,4"]) == 0
        assert _edge_tables.cache_info() == before
        report = json.loads(capsys.readouterr().out)
        layers = report["grouping_distribution"]
        assert all(e["prob"] >= 0 for layer in layers for e in layer["probs"])
        folded = sum(
            unit * sum(e["prob"] * len(e["partition"]) for e in layer["probs"])
            for unit, layer in zip([3, 5, 2, 4], layers)
        )
        assert folded == pytest.approx(report["expected_cost"], rel=1e-12)

    def test_a_deep_chain_reports_valid_json(self, tmp_path, capsys):
        # 8^342 passes the largest float; the cost read NaN, which is not JSON
        alpha = self.write_alpha(tmp_path, np.zeros((8, 342, 8)).tolist())
        assert main(["expected-cost", "--alpha", alpha]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["expected_cost"] == pytest.approx(2732.76, abs=0.005)
        assert report["normalized"] == pytest.approx(report["expected_cost"] / 342)

    def test_calls_in_one_process_share_the_parser_and_no_options(self, tmp_path, capsys):
        alpha = self.write_alpha(tmp_path, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
        argv = ["expected-cost", "--alpha", alpha]
        cli.build_parser.cache_clear()
        assert main(argv + ["--unit-costs", "1,1", "--oracle"]) == 0
        assert "oracle" in json.loads(capsys.readouterr().out)
        assert main(argv + ["--unit-costs", "1,1"]) == 0
        assert "oracle" not in json.loads(capsys.readouterr().out)
        # the earlier --unit-costs does not trip the not-both rule
        assert main(argv + ["--widths", "4,2,2"]) == 0
        # unit costs 16 and 8; E[blocks] is 1.5 at layer 1 and 1.75 at layer 2
        assert json.loads(capsys.readouterr().out)["expected_cost"] == pytest.approx(38.0)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        # a second verb builds its own parser once; the first verb's stays
        for _ in range(2):
            assert main(["enumerate", "--tasks", "2", "--layers", "1"]) == 0
        assert main(argv) == 0
        capsys.readouterr()
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)

    def test_a_reader_that_closes_early_gets_one_runtime_error(self, tmp_path):
        alpha = self.write_alpha(tmp_path, random_alpha(np.random.default_rng(7), 7, 4).tolist())
        with subprocess.Popen(
            [sys.executable, "-m", "bmtas.cli", "expected-cost", "--alpha", alpha],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=fresh_env(),
        ) as proc:
            # the report is about 1.1 MB, far more than a pipe holds
            assert proc.stdout.read(2) == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "runtime_error"

    def test_eight_tasks_build_no_partitions(self, tmp_path, capsys, partitions_built):
        alpha = self.write_alpha(tmp_path, random_alpha(np.random.default_rng(8), 8, 4).tolist())
        resloss._merge_tables.cache_clear()
        cli._probs_entries.cache_clear()
        assert main(["expected-cost", "--alpha", alpha]) == 0
        assert len(json.loads(capsys.readouterr().out)["grouping_distribution"]) == 4
        assert partitions_built == []


# sha256 of `bmtas expected-cost` stdout, each checked by hand against the
# implementation it replaced: the cost-t7 benchmark's seed-21 inputs with
# --widths 16,8,8,8,8, T=8 scale-2 logits, and the worked example
EXPECTED_COST_DIGESTS = {
    "uniform": "f830caca2fb06245cb5a9959e5a078b8c4e3b13666c8fdec337e2016e79a9301",
    "scale2": "fb8ee0b47374e64e420e46c4808b949e7699168f435f4463e71ae4d72c611071",
    "onehot": "521abf49fa5e82a565aec571e90e5ca204310ed16730d062aa1c36fc9f8f802d",
    "t8": "6aaae3a22cc14b48f579253c95826e66fc109882e981f96549fde294755ce46a",
    "worked": "e9151afde3bf844c448272f95c7ef84bb05eb6d7dc2175f45f58c82d0d528e0b",
}


def test_expected_cost_output_matches_its_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    cost = workloads.CostWorkload()
    cost.prepare(tmp_path, 21)
    argvs = {
        kind: ["expected-cost", "--alpha", str(path), "--widths", "16,8,8,8,8"]
        for (kind, _, _), path in zip(workloads.COST_KINDS, cost.paths)
    }
    t8 = 2.0 * np.random.default_rng(8).standard_normal((8, 4, 8))
    argvs["t8"] = [
        "expected-cost", "--alpha", input_file(tmp_path, json.dumps(t8.tolist()), "t8.json"),
        "--unit-costs", "3,5,2,4",
    ]
    argvs["worked"] = [
        "expected-cost", "--alpha", input_file(tmp_path, ALPHA_2x2, "worked.json"),
        "--unit-costs", "1,1", "--oracle",
    ]
    digests = {}
    for name, argv in argvs.items():
        assert main(argv) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == EXPECTED_COST_DIGESTS, PINNED_PLATFORM


# criterion 10's run config
DETERMINISM_CONFIG = {
    "experiment": "determinism",
    "supergraph": {"widths": [16, 8, 8, 8]},
    "benchmark": {
        "num_tasks": 4,
        "input_dim": 16,
        "hidden_dim": 8,
        "target_dim": 4,
        "relatedness": [[0, 1], [2, 3]],
    },
    "search": {"lambda": 0.05, "warmup_steps": 150, "search_steps": 150, "retrain_steps": 150},
}

# a short eight-task run, the one pinned run whose soft layers mix C=8
# operations and whose shared operations sum the gradients of eight tasks
EIGHT_TASK_CONFIG = {
    "experiment": "eight",
    "supergraph": {"widths": [16, 8, 8, 8]},
    "benchmark": {
        "num_tasks": 8,
        "input_dim": 16,
        "hidden_dim": 4,
        "target_dim": 2,
        "relatedness": [[0, 1], [2, 3], [4, 5], [6, 7]],
    },
    "search": {"lambda": 0.05, "warmup_steps": 60, "search_steps": 60, "retrain_steps": 60},
}

# sha256 of the `bmtas search` artifacts of the README config at seed 0, of
# criterion 10's config at seed 3 and of the eight-task config at seed 0
SEARCH_DIGESTS = {
    "pairs/seed0": {
        "structure.json": "33584c06ae42504212785c52cc35c08aae17ba0dcb31ffa5a37f579cfd224e8a",
        "structure.dot": "93f122d773388c0a6e9f3117b86819a32d61e7c31cfed3dd1aa61e11450887f5",
        "trace.csv": "73065468b3cb964c4f27a5f1c10af75ca1662947820a48ca708d66c4755eb56d",
        "metrics.json": "43503be8124fbb697f322aeb247dcda3865d684475cbe4f6770a8b8093f69a42",
    },
    "determinism/seed3": {
        "structure.json": "f47c535adea066f93bbefc2fda28853267fea61e7767217e74803e4895d292f6",
        "structure.dot": "190cff03cbd8825cb145a953474447231caeadfb882429ad50a1bd906cad0a40",
        "trace.csv": "d03b741878441749e2ac376ba960d575da633d34fd9161fc0667f4960a12fb75",
        "metrics.json": "52747474edc5bd8698fa7b039022832ae29bc2093d59746be87d31bab0311c0d",
    },
    "eight/seed0": {
        "structure.json": "dccbf1f62cdefb27bb7a9d6b4ceca57be54a47f8784170be0fab5ed15964106d",
        "structure.dot": "db5ef38511cf8401594e78d4968a644a0bde0ca4edf28184d9d5f09bbc4750c6",
        "trace.csv": "fe5a5d8ee061af5e52cf7227e8f9a1eedfc6e6e81f4a9dec2f848d50e1819d9a",
        "metrics.json": "ba7de98b4b05d4be07ef5737c7cc033a87e26ede932e8c4445cebe218665a43f",
    },
}


def pinned_configs():
    """Run directory -> (seed, config) of each pinned search run."""
    readme = (BENCHMARKS.parent / "README.md").read_text()
    return {
        "pairs/seed0": (0, json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])),
        "determinism/seed3": (3, DETERMINISM_CONFIG),
        "eight/seed0": (0, EIGHT_TASK_CONFIG),
    }


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """The output directory of the pinned search runs, made once."""
    out = tmp_path_factory.mktemp("pinned")
    for seed, cfg in pinned_configs().values():
        path = input_file(out, json.dumps(cfg), f"{cfg['experiment']}.json")
        assert main(["search", "--config", path, "--seed", str(seed), "--out", str(out)]) == 0
    return out


def test_search_artifacts_match_their_pinned_digests(pinned_runs):
    digests = {
        run: {n: hashlib.sha256((pinned_runs / run / n).read_bytes()).hexdigest() for n in pins}
        for run, pins in SEARCH_DIGESTS.items()
    }
    assert digests == SEARCH_DIGESTS, PINNED_PLATFORM


def test_a_pinned_run_on_two_blas_threads_writes_the_pinned_bytes(tmp_path):
    """OPENBLAS_NUM_THREADS is read when the library loads, so the run is a
    new process."""
    run = "eight/seed0"
    seed, cfg = pinned_configs()[run]
    path = input_file(tmp_path, json.dumps(cfg), "eight.json")
    argv = ["search", "--config", path, "--seed", str(seed), "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "bmtas.cli", *argv],
        capture_output=True,
        text=True,
        env={**fresh_env(), "OPENBLAS_NUM_THREADS": "2"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pins = SEARCH_DIGESTS[run]
    digests = {n: hashlib.sha256((tmp_path / run / n).read_bytes()).hexdigest() for n in pins}
    assert digests == pins, PINNED_PLATFORM


def test_a_pooled_pinned_run_writes_the_serial_bytes(tmp_path, monkeypatch):
    """Pool workers build the artifacts' text: seed 0 of a two-worker run must
    match its pins, and seed 1 a serial run of that seed."""
    path = input_file(tmp_path, json.dumps({**EIGHT_TASK_CONFIG, "seeds": [0, 1]}), "eight.json")
    serial, pooled = tmp_path / "serial" / "eight", tmp_path / "pooled" / "eight"
    assert main(["search", "--config", path, "--seed", "1", "--out", str(serial.parent)]) == 0
    monkeypatch.setenv("BMTAS_WORKERS", "2")
    assert main(["search", "--config", path, "--out", str(pooled.parent)]) == 0
    pins = SEARCH_DIGESTS["eight/seed0"]
    digests = {n: hashlib.sha256((pooled / "seed0" / n).read_bytes()).hexdigest() for n in pins}
    assert digests == pins, PINNED_PLATFORM
    for name in pins:
        assert (pooled / "seed1" / name).read_bytes() == (serial / "seed1" / name).read_bytes()


@pytest.mark.parametrize("run", list(SEARCH_DIGESTS))
def test_pinned_artifacts_agree_with_each_other(run, pinned_runs, capsys):
    run_dir = pinned_runs / run
    metrics = json.loads((run_dir / "metrics.json").read_text())
    capsys.readouterr()
    assert main(["export-dot", "--structure", str(run_dir / "structure.json")]) == 0
    assert capsys.readouterr().out == (run_dir / "structure.dot").read_text()
    with open(run_dir / "trace.csv", newline="") as f:
        assert list(csv.DictReader(f))[-1]["structure_hash"] == metrics["structure_hash"]
    structure = structure_from_json(json.loads((run_dir / "structure.json").read_text()))[0]
    table = SupergraphSpec(**pinned_configs()[run][1]["supergraph"]).cost_table
    assert structure_cost(structure, table) == metrics["structure_cost"]


UNIT_COSTS = [3.0, 5.0, 2.0, 4.0]
# (logit standard deviation, boost of one candidate per row); the boosted
# kind puts many groupings under CLAMP_EPS, so their entries are dropped
LOGIT_KINDS = {"small": (0.1, 0.0), "scale2": (2.0, 0.0), "onehot": (1.0, 30.0)}


def kind_logits(kind, num_tasks, num_layers, seed):
    sd, boost = LOGIT_KINDS[kind]
    rng = np.random.default_rng(seed)
    logits = sd * rng.standard_normal((num_tasks, num_layers, num_tasks))
    picks = rng.integers(num_tasks, size=(num_tasks, num_layers))
    logits[np.arange(num_tasks)[:, None], np.arange(num_layers), picks] += boost
    return logits


def json_dumps_report(logits, oracle, oracle_offset=0.0):
    """The expected-cost report with every entry written by json.dumps."""
    alpha = ArchitectureParams(logits)
    layers = alpha.num_layers
    table = CostTable(UNIT_COSTS[:layers])
    dist = grouping_distribution(alpha, table)
    cost = expected_cost(alpha, table)
    report = {
        "expected_cost": cost,
        "normalized": cost / table.fully_shared_cost,
        "grouping_distribution": [
            {
                "layer": l + 1,
                "probs": [
                    {"partition": Partition(rgs).blocks(), "prob": p}
                    for rgs, p in zip(dist.rgs.tolist(), dist.layers[l].tolist())
                    if p > 0
                ],
            }
            for l in range(layers)
        ],
    }
    if oracle:
        report["oracle"] = brute_force_expected_cost(alpha, table) + oracle_offset
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run_expected_cost(path, logits, oracle=False):
    """Exit code and stdout of `bmtas expected-cost` on logits."""
    path.write_text(json.dumps(logits.tolist()))
    costs = ",".join(str(c) for c in UNIT_COSTS[: logits.shape[1]])
    argv = ["expected-cost", "--alpha", str(path), "--unit-costs", costs]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--oracle"] * oracle)
    return code, out.getvalue()


class TestReportText:
    """The report text is assembled from cached entry texts; it must equal
    json.dumps(report, sort_keys=True, indent=2) byte for byte."""

    @given(
        st.integers(1, 7),
        st.integers(1, 4),
        st.sampled_from(sorted(LOGIT_KINDS)),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @example(2, 1, "small", 0, True)
    @example(7, 4, "onehot", 0, False)
    @settings(max_examples=40, deadline=None)
    def test_matches_json_dumps(self, tmp_path_factory, tasks, layers, kind, seed, oracle):
        oracle = oracle and tasks ** (tasks * layers) <= ENUM_GUARD
        logits = kind_logits(kind, tasks, layers, seed)
        path = tmp_path_factory.mktemp("alpha") / "alpha.json"
        code, out = run_expected_cost(path, logits, oracle)
        assert code == 0
        assert out == json_dumps_report(logits, oracle)

    def test_drops_groupings_of_zero_probability(self, tmp_path):
        logits = kind_logits("onehot", 6, 3, 5)
        code, out = run_expected_cost(tmp_path / "alpha.json", logits)
        assert code == 0
        assert out == json_dumps_report(logits, False)
        listed = [len(layer["probs"]) for layer in json.loads(out)["grouping_distribution"]]
        assert max(listed) < 203  # B_6

    def test_eight_tasks(self, tmp_path):
        logits = kind_logits("scale2", 8, 4, 8)
        code, out = run_expected_cost(tmp_path / "alpha.json", logits)
        assert code == 0
        assert out == json_dumps_report(logits, False)

    def test_oracle_mismatch_prints_the_same_report(self, tmp_path, monkeypatch):
        real = cli.brute_force_expected_cost
        monkeypatch.setattr(cli, "brute_force_expected_cost", lambda a, s: real(a, s) + 1.0)
        logits = kind_logits("scale2", 3, 2, 4)
        code, out = run_expected_cost(tmp_path / "alpha.json", logits, oracle=True)
        assert code == 1
        assert out == json_dumps_report(logits, True, oracle_offset=1.0)

    def test_a_layer_without_positive_probability_lists_nothing(self):
        # no softmax yields such a layer, but repr([]) would split into [""]
        parts = enumerate_partitions(3)
        layers = np.array([[0.0] * 5, [0.5, 0.0, 0.25, 0.0, 0.25], [0.0] * 4 + [1.0]])
        dist = SimpleNamespace(rgs=np.array([p.rgs for p in parts]), layers=layers)
        holes = [{"layer": l, "probs": cli._HOLE} for l in (1, 2, 3)]

        def probs(row):
            return [{"partition": q.blocks(), "prob": p} for q, p in zip(parts, row) if p > 0]

        lists = [{"layer": l, "probs": probs(r)} for l, r in zip((1, 2, 3), layers.tolist())]
        got = cli._report_text({"grouping_distribution": holes}, dist)
        assert got == json.dumps({"grouping_distribution": lists}, sort_keys=True, indent=2)


class TestTaskCountCaches:
    def test_interleaved_task_counts_reproduce_their_output(self, tmp_path):
        outputs = [
            run_expected_cost(tmp_path / "alpha.json", kind_logits("scale2", t, 2, 1))
            for t in (3, 5, 3, 7, 3)
        ]
        assert all(code == 0 for code, _ in outputs)
        assert outputs[2][1] == outputs[0][1]
        assert outputs[4][1] == outputs[0][1]
        assert outputs[0][1] == json_dumps_report(kind_logits("scale2", 3, 2, 1), False)

    @pytest.mark.parametrize("tasks", [1, 4, 7])
    def test_cold_merge_tables_give_the_warm_distribution(self, tasks):
        alpha = ArchitectureParams(kind_logits("scale2", tasks, 3, 2))
        table = CostTable(UNIT_COSTS[:3])
        warm = grouping_distribution(alpha, table)
        resloss._merge_tables.cache_clear()
        cold = grouping_distribution(alpha, table)
        assert resloss._merge_tables.cache_info().currsize == 1
        assert np.array_equal(cold.rgs, warm.rgs)
        assert np.array_equal(cold.layers, warm.layers)
        assert np.array_equal(grouping_distribution(alpha, table).layers, warm.layers)

    def test_import_leaves_both_caches_empty(self):
        code = (
            "import bmtas.cli as c, bmtas.partition as p, bmtas.resloss as r; "
            "print(c._probs_entries.cache_info().currsize, "
            "r._merge_tables.cache_info().currsize, "
            "p.rgs_table.cache_info().currsize, "
            "p.block_masks.cache_info().currsize, "
            "p.enumerate_partitions.cache_info().currsize)"
        )
        assert fresh_python(code) == "0 0 0 0 0\n"

    def test_a_cold_expected_cost_builds_one_rgs_table(self):
        # the per-T tables read rgs_table(T) alone, not one table per block count
        code = (
            "import contextlib, io, json, numpy as np, bmtas.cli as c, bmtas.partition as p\n"
            "from pathlib import Path\n"
            "import tempfile\n"
            "path = Path(tempfile.mkdtemp()) / 'alpha.json'\n"
            "path.write_text(json.dumps(np.random.default_rng(7).normal(size=(7, 4, 7)).tolist()))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = c.main(['expected-cost', '--alpha', str(path)])\n"
            "import sys\n"
            "print(code, p.rgs_table.cache_info().currsize, "
            "p.block_masks.cache_info().currsize, 'bmtas.schema' in sys.modules)"
        )
        # one mask table serves _merge_tables and _probs_entries; no config schema
        assert fresh_python(code) == "0 1 1 False\n"

    def test_enumerate_builds_one_rgs_table(self):
        code = (
            "import bmtas.graph as g, bmtas.partition as p; "
            "print(g.count_structures(8, 3), p.rgs_table.cache_info().currsize)"
        )
        assert fresh_python(code) == "1855570 1\n"

    @pytest.mark.parametrize("tasks", [1, 4, 8])
    def test_probs_entries_are_a_read_only_object_array(self, tasks):
        entries = cli._probs_entries(tasks)
        assert entries.dtype == object and entries.shape == (len(enumerate_partitions(tasks)),)
        assert entries.flags.c_contiguous and not entries.flags.writeable
        assert all(type(e) is str for e in entries)

    @pytest.mark.parametrize("tasks", range(1, MAX_TASKS + 1))
    def test_probs_entries_match_json_dumps_for_every_grouping(self, tasks):
        entries = cli._probs_entries(tasks)
        parts = enumerate_partitions(tasks)
        assert len(entries) == len(parts)
        for head, part in zip(entries, parts):
            entry = {"partition": part.blocks(), "prob": 0.25}
            want = json.dumps(entry, sort_keys=True, indent=2).replace("\n", "\n" + " " * 8)
            # each entry carries the separator that closes the one before it
            tail = cli._ENTRY_TAIL
            assert want.endswith(tail)
            assert f"{head}{0.25!r}" == f"{tail},{cli._ENTRY_BREAK}{want[: -len(tail)]}"

    def test_import_builds_no_parser(self):
        code = "import bmtas.cli as c; print(c.build_parser.cache_info().currsize)"
        assert fresh_python(code) == "0\n"

    def test_a_dropped_cli_module_is_freed_after_load_config(self, tmp_path):
        # the benchmark re-imports bmtas every cycle; a reference cycle that the
        # garbage collector cannot see would keep every earlier import alive
        code = (
            "import gc, sys, weakref\n"
            "import bmtas.cli as c\n"
            f"c.load_config({write_config(tmp_path, base_config())!r})\n"
            "ref = weakref.ref(c)\n"
            "del c\n"
            "for name in [m for m in sys.modules if m.startswith('bmtas')]:\n"
            "    del sys.modules[name]\n"
            "gc.collect()\n"
            "print(ref() is None)"
        )
        assert fresh_python(code) == "True\n"


def modules_loaded_by(argv) -> tuple[list, list]:
    """The top-level modules outside the standard library that a fresh
    interpreter loads from files while it runs `bmtas argv` in process, and
    the bmtas modules that running it adds to those `import bmtas.cli` loads.
    What site's .pth files load at start-up is not counted, nor the modules
    that Cython's runtime makes without a file."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io\n"
        "from bmtas.cli import main\n"
        "imported = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "new = set(sys.modules) - before\n"
        "loaded = {m.split('.')[0] for m in new if getattr(sys.modules[m], '__file__', None)}\n"
        "added = [m[len('bmtas.'):] for m in set(sys.modules) - imported if m.startswith('bmtas.')]\n"
        "print((sorted(loaded - sys.stdlib_module_names), sorted(added)))"
    )
    return ast.literal_eval(fresh_python(code))


# each verb's command line, and the bmtas modules that the verb loads beyond
# those `import bmtas.cli` loads
VERBS = {
    "expected-cost": (
        lambda p: [
            "expected-cost",
            "--alpha",
            input_file(p, json.dumps(rng_stream(5, "alpha").normal(size=(7, 4, 7)).tolist())),
        ],
        [],
    ),
    "enumerate": (lambda p: ["enumerate", "--tasks", "4", "--layers", "3"], []),
    "eval": (lambda p: eval_argv(p, record(("a", 1.0)), record(("a", 2.0))), ["eval"]),
    "export-dot": (
        lambda p: [
            "export-dot",
            "--structure",
            input_file(
                p, json.dumps(structure_to_json(derive_groupings([[0, 0], [0, 1]]), ["a", "b"]))
            ),
        ],
        [],
    ),
}


@pytest.fixture(scope="module")
def loaded_by_search(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("search")
    argv = ["search", "--config", write_config(tmp, base_config()), "--out", str(tmp / "runs")]
    return modules_loaded_by(argv)


class TestLazyImports:
    def test_import_leaves_the_process_pool_unloaded(self):
        code = "import sys, bmtas.cli; print('concurrent.futures.process' in sys.modules)"
        assert fresh_python(code) == "False\n"

    def test_import_leaves_the_schema_checker_unloaded(self):
        # the benchmark compiles every module it imports, on every cycle
        code = "import sys, bmtas.cli; print('bmtas.schema' in sys.modules)"
        assert fresh_python(code) == "False\n"

    def test_import_leaves_dataclasses_unloaded(self):
        # the record classes are NamedTuples and plain classes: no generated code
        code = "import sys, bmtas.cli; print('dataclasses' in sys.modules)"
        assert fresh_python(code) == "False\n"

    def test_import_leaves_hashlib_unloaded(self):
        # only a search hashes structures, and OpenSSL's hashlib takes ms to load
        code = "import sys, bmtas.cli; print('hashlib' in sys.modules)"
        assert fresh_python(code) == "False\n"

    def test_import_loads_exactly_these_bmtas_modules(self):
        # a guard against import creep: every verb and benchmark cycle compiles
        # each of these; the training stack and `schema` load only when
        # `load_config` first runs
        code = (
            "import sys, bmtas.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'bmtas')))"
        )
        names = "cli errors graph partition resloss".split()
        assert fresh_python(code) == " ".join(["bmtas"] + [f"bmtas.{n}" for n in names]) + "\n"

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_verbs_other_than_search_load_neither_scipy_nor_jsonschema(self, verb, tmp_path):
        # nor any bmtas module that they do not run
        argv, loads = VERBS[verb]
        assert modules_loaded_by(argv(tmp_path)) == (["bmtas", "numpy"], loads)

    def test_search_loads_neither_scipy_nor_jsonschema(self, loaded_by_search):
        loads = ["eval", "nncore", "schema", "search", "seeding"]
        assert loaded_by_search == (["bmtas", "numpy"], loads)

    def test_numpy_is_the_only_runtime_dependency(self, loaded_by_search):
        tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
        project = tomllib.loads((BENCHMARKS.parent / "pyproject.toml").read_text())["project"]
        assert project["dependencies"] == ["numpy>=1.24"]
        assert any(d.startswith("jsonschema") for d in project["optional-dependencies"]["test"])
        assert loaded_by_search[0] == ["bmtas", "numpy"]


TRACED_SPANS = {
    "cli.load_config",
    "eval.generate_tasks",
    "search.warm_up",
    "search.search",
    "search.retrain",
    "nncore.forward",
    "nncore.backward",
    "resloss.grouping_distribution",
    "resloss.expected_cost",
}


def test_a_traced_search_and_expected_cost_record_their_spans(tmp_path):
    """What `benchmarks/run.py --trace 1` does: install benchmarks/tracing.py's
    Tracer on a fresh bmtas, then run both workloads' verbs through main()."""
    cfg = base_config(output_dir=str(tmp_path / "runs"))
    cfg["search"].update(warmup_steps=2, search_steps=2, retrain_steps=2)
    argvs = [
        ["search", "--config", write_config(tmp_path, cfg)],
        ["expected-cost", "--alpha", input_file(tmp_path, ALPHA_2x2), "--unit-costs", "1,1"],
    ]
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(BENCHMARKS)!r})\n"
        "import bmtas.cli, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        f"    codes = [bmtas.cli.main(argv) for argv in {argvs!r}]\n"
        "print((codes, sorted({span[0] for span in tracer.spans})))"
    )
    codes, spans = ast.literal_eval(fresh_python(code))
    assert codes == [0, 0]
    assert TRACED_SPANS <= set(spans)


class TestEval:
    def test_prints_two_decimal_delta(self, tmp_path, capsys):
        model = {
            "tasks": [
                {"name": "a", "value": 90.0, "lower_better": False},
                {"name": "b", "value": 11.0, "lower_better": True},
            ]
        }
        baseline = {
            "tasks": [
                {"name": "a", "value": 100.0, "lower_better": False},
                {"name": "b", "value": 10.0, "lower_better": True},
            ]
        }
        mp = tmp_path / "model.json"
        bp = tmp_path / "baseline.json"
        mp.write_text(json.dumps(model))
        bp.write_text(json.dumps(baseline))
        assert main(["eval", "--model", str(mp), "--baseline", str(bp)]) == 0
        assert capsys.readouterr().out.strip() == "-10.00"


class TestSearchCommand:
    def run_search(self, tmp_path, cfg=None, extra=()):
        cfg = cfg or base_config()
        out = tmp_path / "runs"
        code = main(
            [
                "search",
                "--config",
                write_config(tmp_path, cfg),
                "--out",
                str(out),
                *extra,
            ]
        )
        return code, out / cfg["experiment"]

    def test_writes_all_artifacts(self, tmp_path, capsys):
        code, exp_dir = self.run_search(tmp_path)
        assert code == 0
        seed_dir = exp_dir / "seed0"
        for name in ("structure.json", "structure.dot", "trace.csv", "metrics.json"):
            assert (seed_dir / name).exists()
        assert not list(seed_dir.glob("*.tmp"))

        structure = json.loads((seed_dir / "structure.json").read_text())
        assert structure["tasks"] == ["t0", "t1", "t2"]
        assert len(structure["layers"]) == 2

        metrics = json.loads((seed_dir / "metrics.json").read_text())
        assert metrics["experiment"] == "toy"
        assert metrics["seed"] == 0
        assert set(metrics["test_mse"]) == {"t0", "t1", "t2"}
        assert metrics["structure_cost"] >= 2 * 96  # at least the shared cost

        with open(seed_dir / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert rows[0]["step"] == "1"
        assert float(rows[0]["tau"]) == 5.0

        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert any(e["event"] == "seed_done" for e in events)
        assert events[-1]["event"] == "search_done"

    def test_trace_tau_runs_from_tau_start_to_tau_end(self, tmp_path):
        for steps, last in ((25, 0.2), (1, 3.0)):
            cfg = base_config(experiment=f"steps{steps}")
            cfg["search"].update(search_steps=steps, tau_start=3.0, tau_end=0.2)
            code, exp_dir = self.run_search(tmp_path, cfg)
            assert code == 0
            with open(exp_dir / "seed0" / "trace.csv") as fh:
                taus = [float(row["tau"]) for row in csv.DictReader(fh)]
            assert len(taus) == steps
            assert taus[0] == pytest.approx(3.0, abs=1e-12)
            assert taus[-1] == pytest.approx(last, abs=1e-12)

    def test_seed_override_runs_one_seed(self, tmp_path):
        cfg = base_config(seeds=[0, 1])
        code, exp_dir = self.run_search(tmp_path, cfg, extra=("--seed", "1"))
        assert code == 0
        assert (exp_dir / "seed1").exists()
        assert not (exp_dir / "seed0").exists()

    def test_lambda_override_lands_in_metrics(self, tmp_path):
        code, exp_dir = self.run_search(tmp_path, extra=("--lambda", "0.25"))
        assert code == 0
        metrics = json.loads((exp_dir / "seed0" / "metrics.json").read_text())
        assert metrics["lambda"] == 0.25

    def test_eight_tasks_run_without_lattice_tables(self, tmp_path):
        # the search's resource term needs no partition lattice, so the
        # largest admitted task count runs
        cfg = base_config(
            supergraph={"widths": [16, 8, 8]},
            benchmark={
                "num_tasks": 8,
                "input_dim": 16,
                "hidden_dim": 4,
                "target_dim": 2,
                "relatedness": [[0, 1], [2, 3], [4, 5], [6, 7]],
                "train_samples": 64,
                "test_samples": 16,
            },
            search={"warmup_steps": 3, "search_steps": 3, "retrain_steps": 3},
        )
        before = _edge_tables.cache_info()
        code, exp_dir = self.run_search(tmp_path, cfg)
        assert code == 0
        metrics = json.loads((exp_dir / "seed0" / "metrics.json").read_text())
        assert len(metrics["test_mse"]) == 8
        assert _edge_tables.cache_info() == before

    def test_non_integer_worker_count_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BMTAS_WORKERS", "abc")
        code, exp_dir = self.run_search(tmp_path, base_config(seeds=[0, 1]))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "event": "config_error",
            "error": "BMTAS_WORKERS must be a whole number, got 'abc'",
        }
        assert not exp_dir.exists()

    @pytest.mark.parametrize(
        "workers, seeds, pools",
        [
            ("1", [0, 1], []),
            ("2", [0, 1], [2]),
            ("3", [0, 1], [2]),
            ("1000000", [0, 1], [2]),
            ("1000000", [0], []),
        ],
    )
    def test_pool_has_no_more_workers_than_seeds(
        self, workers, seeds, pools, tmp_path, monkeypatch
    ):
        # a pool starts all of its workers at its first task, so this records
        # the sizes asked for in place of a pool, and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("BMTAS_WORKERS", workers)
        cfg = base_config(seeds=seeds)
        cfg["search"].update(warmup_steps=1, search_steps=1, retrain_steps=1)
        code, exp_dir = self.run_search(tmp_path, cfg)
        assert code == 0
        assert sizes == pools
        assert sorted(p.name for p in exp_dir.iterdir()) == [f"seed{s}" for s in seeds]

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        cfg = base_config(seeds=[0, 1])
        _, serial_dir = self.run_search(tmp_path, cfg)
        monkeypatch.setenv("BMTAS_WORKERS", "2")
        out2 = tmp_path / "runs2"
        code = main(
            [
                "search",
                "--config",
                write_config(tmp_path, cfg, "run2.json"),
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        for seed in (0, 1):
            for name in ("structure.json", "metrics.json", "trace.csv"):
                a = (serial_dir / f"seed{seed}" / name).read_bytes()
                b = (out2 / cfg["experiment"] / f"seed{seed}" / name).read_bytes()
                assert a == b

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_failing_seed_keeps_the_seeds_before_it(
        self, workers, tmp_path, monkeypatch, capsys
    ):
        # seeds before the failing seed are written, later seeds are not; the
        # failing seed writes its partial trace and failure.json. A pool's
        # forked workers inherit the patched search, and its pickled
        # SearchError would carry no trace
        (tmp_path / "clean").mkdir()
        _, clean_dir = self.run_search(tmp_path / "clean", base_config(seeds=[0, 1]))
        search = cli.search

        def failing(config, *args):
            result = search(config, *args)
            if config.seed == 1:
                raise SearchError("non-finite value at step 4: injected", result.trace[:3])
            return result

        monkeypatch.setattr(cli, "search", failing)
        monkeypatch.setenv("BMTAS_WORKERS", workers)
        capsys.readouterr()
        code, exp_dir = self.run_search(tmp_path, base_config(seeds=[0, 1, 2]))
        assert code == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["event"] for e in events] == ["seed_done", "runtime_error"]
        assert events[0]["seed"] == 0 and events[1]["kind"] == "SearchError"
        assert events[1]["error"] == "non-finite value at step 4: injected"
        assert sorted(p.name for p in exp_dir.iterdir()) == ["seed0", "seed1"]
        for name in ("structure.json", "structure.dot", "trace.csv", "metrics.json"):
            got = (exp_dir / "seed0" / name).read_bytes()
            assert got == (clean_dir / "seed0" / name).read_bytes()
        assert sorted(p.name for p in (exp_dir / "seed1").iterdir()) == [
            "failure.json",
            "trace.csv",
        ]
        # the header and the three steps before the failing one, as a clean run wrote them
        clean_trace = (clean_dir / "seed1" / "trace.csv").read_text().splitlines(keepends=True)
        assert (exp_dir / "seed1" / "trace.csv").read_text() == "".join(clean_trace[:4])
        failure = (exp_dir / "seed1" / "failure.json").read_text()
        assert failure.endswith("}\n")
        assert json.loads(failure) == {
            "stage": "search",
            "step": 4,
            "message": "non-finite value at step 4: injected",
        }

    @pytest.mark.parametrize("workers, target", [("1", "run"), ("2", "run"), ("2", "group")])
    def test_sigint_ends_in_one_line(self, workers, target, tmp_path):
        # the signal goes once the run reports its first seed, so that some
        # seeds are left whatever the machine's speed: to the run's own
        # process, or to its process group, workers too, as a terminal's ^C
        # does; the group is empty once no worker is left
        cfg = base_config(seeds=list(range(6)))
        cfg["search"].update(warmup_steps=100, search_steps=200, retrain_steps=100)
        argv = ["search", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
        with subprocess.Popen(
            [sys.executable, "-m", "bmtas.cli", *argv],
            stderr=subprocess.PIPE,
            text=True,
            env={**fresh_env(), "BMTAS_WORKERS": workers},
            start_new_session=True,
        ) as proc:
            try:
                first = json.loads(proc.stderr.readline())
                if target == "run":
                    proc.send_signal(signal.SIGINT)
                else:
                    os.killpg(proc.pid, signal.SIGINT)
                rest = proc.stderr.read()
                assert proc.wait(timeout=120) == 130
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert first["event"] == "seed_done"
        assert "Traceback" not in rest
        events = [json.loads(line) for line in rest.splitlines()]
        assert {e["event"] for e in events[:-1]} <= {"seed_done"}
        assert len(events) < len(cfg["seeds"])
        assert events[-1] == {
            "event": "runtime_error",
            "error": "interrupted",
            "kind": "KeyboardInterrupt",
        }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "block, event, code, named",
        [
            # seed1's directory cannot be made: a config problem, as for the output root
            (lambda seed1: seed1.touch(), "config_error", 2, "seed1"),
            # seed1's trace.csv cannot be replaced
            (
                lambda seed1: (seed1 / "trace.csv").mkdir(parents=True),
                "runtime_error",
                1,
                "seed1/trace.csv",
            ),
        ],
        ids=["seed-dir-is-a-file", "trace-is-a-directory"],
    )
    def test_a_failed_artifact_write_is_one_line(
        self, block, event, code, named, workers, tmp_path, monkeypatch, capsys
    ):
        cfg = base_config(seeds=[0, 1])
        cfg["search"].update(warmup_steps=1, search_steps=1, retrain_steps=1)
        exp_dir = tmp_path / "runs" / cfg["experiment"]
        exp_dir.mkdir(parents=True)
        block(exp_dir / "seed1")
        monkeypatch.setenv("BMTAS_WORKERS", workers)
        assert self.run_search(tmp_path, cfg)[0] == code
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["event"] for e in events] == ["seed_done", event]
        assert str(exp_dir / named) in events[1]["error"]
        if event == "runtime_error":
            assert events[1]["kind"] == "IsADirectoryError"
        assert len(list((exp_dir / "seed0").iterdir())) == 4
        assert list(exp_dir.rglob("*.tmp")) == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_a_pool_of_fresh_workers_matches_serial(self, method, tmp_path):
        # such a worker imports bmtas.cli afresh, so that no name of the
        # training stack is bound in it until its first seed
        cfg = base_config(seeds=[0, 1])
        _, serial_dir = self.run_search(tmp_path, cfg)
        out = tmp_path / method
        argv = ["search", "--config", write_config(tmp_path, cfg, "pool.json"), "--out", str(out)]
        fresh_python(
            "import multiprocessing, os, sys\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "os.environ['BMTAS_WORKERS'] = '2'\n"
            "from bmtas.cli import main\n"
            f"sys.exit(main({argv!r}))"
        )
        for seed in (0, 1):
            for name in ("structure.json", "structure.dot", "trace.csv", "metrics.json"):
                got = (out / cfg["experiment"] / f"seed{seed}" / name).read_bytes()
                assert got == (serial_dir / f"seed{seed}" / name).read_bytes()


class TestExportDot:
    def test_round_trips_a_structure_file(self, tmp_path, capsys):
        _, exp_dir = TestSearchCommand().run_search(tmp_path)
        structure_path = exp_dir / "seed0" / "structure.json"
        assert main(["export-dot", "--structure", str(structure_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out == (exp_dir / "seed0" / "structure.dot").read_text()
