import csv
import json

import numpy as np
import pytest

from bmtas.cli import load_config, main
from bmtas.errors import ConfigError


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


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
        with np.errstate(all="ignore"):
            assert main(argv + ["--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["event"] == "runtime_error"


def bad_config(tmp_path, **edits):
    """search argv for base_config with edits {section: {key: value}}; the
    strings "INF" and "BIG" are written as the JSON numbers 1e400 and 10**400."""
    cfg = base_config()
    for section, values in edits.items():
        cfg[section].update(values)
    path = tmp_path / "run.json"
    text = json.dumps(cfg).replace('"INF"', "1e400").replace('"BIG"', str(10**400))
    path.write_text(text)
    return ["search", "--config", str(path)]


def input_file(tmp_path, text, name="input.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


ALPHA_2x1 = "[[[0, 0]], [[0, 0]]]"


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
    "unit-cost-overflows-to-inf": lambda p: bad_config(
        p, supergraph={"unit_costs": ["INF", 1]}
    ),
    "unit-cost-integer-too-large-for-a-float": lambda p: bad_config(
        p, supergraph={"unit_costs": ["BIG", 1]}
    ),
    "search-lambda-override-NaN": lambda p: bad_config(p) + ["--lambda", "nan"],
    "search-negative-seed": lambda p: bad_config(p) + ["--seed", "-1"],
    "enumerate-non-numeric-unit-costs": lambda p: [
        "enumerate", "--tasks", "2", "--layers", "2", "--unit-costs", "a,b"
    ],
    "enumerate-zero-layers": lambda p: ["enumerate", "--tasks", "2", "--layers", "0"],
    "enumerate-nine-tasks": lambda p: ["enumerate", "--tasks", "9", "--layers", "2"],
    "expected-cost-non-numeric-widths": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x1), "--widths", "a,b"
    ],
    "expected-cost-zero-unit-cost": lambda p: [
        "expected-cost", "--alpha", input_file(p, ALPHA_2x1), "--unit-costs", "0"
    ],
    "expected-cost-NaN-logit": lambda p: [
        "expected-cost", "--alpha", input_file(p, "[[[NaN, 0]], [[0, 0]]]")
    ],
    "expected-cost-three-candidates-for-two-tasks": lambda p: [
        "expected-cost", "--alpha", input_file(p, "[[[0, 0, 0]], [[0, 0, 0]]]")
    ],
    "eval-record-without-tasks": lambda p: [
        "eval", "--model", input_file(p, "{}"), "--baseline", input_file(p, "{}")
    ],
    "eval-records-with-empty-task-lists": lambda p: eval_argv(p, record(), record()),
    "eval-zero-baseline": lambda p: eval_argv(
        p, record(("a", 1.0)), record(("a", 0.0))
    ),
    "eval-records-name-different-tasks": lambda p: eval_argv(
        p, record(("a", 1.0)), record(("b", 1.0))
    ),
    "export-dot-structure-without-layers": lambda p: [
        "export-dot", "--structure", input_file(p, '{"tasks": ["a"]}')
    ],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_with_one_config_error(case, tmp_path, capsys):
    assert main(BAD_INPUTS[case](tmp_path)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["event"] == "config_error"
    assert captured.out == ""


class TestEnumerate:
    def test_counts(self, capsys):
        assert main(["enumerate", "--tasks", "3", "--layers", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell"] == 5
        assert report["structures"] == 12
        assert report["min_cost"] == 2.0
        assert report["max_cost"] == 6.0

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


class TestExportDot:
    def test_round_trips_a_structure_file(self, tmp_path, capsys):
        _, exp_dir = TestSearchCommand().run_search(tmp_path)
        structure_path = exp_dir / "seed0" / "structure.json"
        assert main(["export-dot", "--structure", str(structure_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out == (exp_dir / "seed0" / "structure.dot").read_text()
