"""Acceptance suite: ten gate criteria, one printed verdict line each.

Runs the whole pipeline at desk scale; tolerances and instance sizes are
fixed here on purpose, so loosening one is a visible diff.
"""

import itertools
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import softmax

from bmtas.cli import main
from bmtas.eval import (
    MetricRecord,
    SyntheticTaskSpec,
    delta_m,
    generate_tasks,
    rsa_matrix,
)
from bmtas.graph import CostTable, SupergraphSpec, derive_groupings, structure_cost
from bmtas.nncore import OperationParams
from bmtas.partition import Partition, enumerate_partitions, refines
from bmtas.resloss import (
    ENUM_GUARD,
    ArchitectureParams,
    brute_force_expected_cost,
    expected_cost,
    expected_cost_grad,
)
from bmtas.resloss import softmax as bmtas_softmax
from bmtas.search import (
    SearchConfig,
    _architecture_grad,
    _loss_scale,
    backward,
    gumbel_noise,
    retrain,
    search,
)
from bmtas.seeding import rng_stream
from conftest import PINNED_PLATFORM, central_diff, random_alpha, relative_error


# each criterion's verdict detail, the line without its state, name and
# timing, as last checked by hand
VERDICTS = {
    "criterion 01 oracle equivalence":
        "8 (T,L) combos x 50 alphas, max |diff| = 7.99e-15 <= 1e-9",
    "criterion 02 resource-loss gradient":
        "20 instances, worst relative error = 1.21e-09 <= 1e-6",
    "criterion 03 end-to-end differentiation":
        "relative error alpha = 5.20e-09, theta = 1.60e-10 <= 1e-5",
    "criterion 04 delta_m reproduction":
        "five-task -6.349 vs -6.35, four-task -3.233 vs -3.23 (+-0.01)",
    "criterion 05 Bell/lattice combinatorics":
        "counts (1, 2, 5, 15, 52, 203) match brute force; partial order exhaustive to T=5",
    "criterion 06 Gumbel-Softmax limit":
        "5 rows x 10^4 samples, worst |freq - softmax| = 0.0074 <= 0.02",
    "criterion 07 lambda monotonicity":
        "median costs 2048 -> 1024 -> 512, lam 0 > lam 0.5 in 5/5 paired seeds (need >= 4)",
    "criterion 08 grouping recovery":
        "pairs recovered in 4/5 seeds (need >= 3); RSA median within = 0.387 > cross = 0.033",
    "criterion 09 structural invariant fuzz":
        "1000 routings, max |structure_cost - expected_cost| = 3.55e-15 <= 1e-12",
    "criterion 10 determinism": "two runs of the search command produced byte-identical "
        "structure, metrics and trace artifacts",
}


def verdict(capsys, ok: bool, name: str, detail: str, t0: float):
    """Print the verdict line; a passing criterion's detail must be the pinned
    one (its caller asserts ok)."""
    with capsys.disabled():
        state = "PASS" if ok else "FAIL"
        print(f"[{state}] {name}: {detail} ({time.time() - t0:.1f}s)")
    if ok:
        assert detail == VERDICTS[name], PINNED_PLATFORM


def unit_table(num_layers):
    return CostTable([1.0] * num_layers)


def test_criterion_01_oracle_equivalence(capsys):
    """Inclusion-exclusion expected cost equals literal enumeration, diff <= 1e-9."""
    t0 = time.time()
    max_diff, combos = 0.0, 0
    for num_tasks, num_layers in itertools.product((2, 3, 4), (1, 2, 3)):
        if num_tasks ** (num_tasks * num_layers) > ENUM_GUARD:
            continue
        combos += 1
        table = unit_table(num_layers)
        rng = rng_stream(100, "oracle", num_tasks, num_layers)
        for _ in range(50):
            a = ArchitectureParams(random_alpha(rng, num_tasks, num_layers))
            diff = abs(expected_cost(a, table) - brute_force_expected_cost(a, table))
            max_diff = max(max_diff, diff)
    ok = max_diff <= 1e-9 and combos == 8
    verdict(
        capsys,
        ok,
        "criterion 01 oracle equivalence",
        f"{combos} (T,L) combos x 50 alphas, max |diff| = {max_diff:.2e} <= 1e-9",
        t0,
    )
    assert ok


def test_criterion_02_resource_gradient(capsys):
    """Analytic expected-cost gradient vs central differences at T=3, L=3."""
    t0 = time.time()
    table = unit_table(3)
    rng = rng_stream(101, "grad")
    worst = 0.0
    for _ in range(20):
        logits = random_alpha(rng, 3, 3)
        grad = expected_cost_grad(ArchitectureParams(logits), table)
        fd = central_diff(
            lambda x: expected_cost(ArchitectureParams(x.copy()), table),
            logits,
            h=1e-5,
        )
        worst = max(worst, relative_error(grad, fd))
    ok = worst <= 1e-6
    verdict(
        capsys,
        ok,
        "criterion 02 resource-loss gradient",
        f"20 instances, worst relative error = {worst:.2e} <= 1e-6",
        t0,
    )
    assert ok


def _flat(tensors):
    return np.concatenate([t.data.ravel() for t in tensors])


def _load_flat(tensors, vec):
    at = 0
    for t in tensors:
        n = t.data.size
        t.data = vec[at : at + n].reshape(t.data.shape).copy()
        at += n


def test_criterion_03_end_to_end_gradients(capsys):
    """The engine's search-loss gradients for theta and alpha vs finite differences."""
    t0 = time.time()
    supergraph = SupergraphSpec([6, 5, 4, 4])
    rng = rng_stream(102, "e2e")
    params = OperationParams.init(supergraph, 3, 2, rng)
    # break candidate symmetry; the heads draw task by task, weight then bias,
    # in the order of the per-task head arrays this instance was drawn for
    for p in params.parameters()[:-2]:
        p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
    for t in range(3):
        params.head_weights.data[t] += 0.05 * rng.standard_normal((4, 2))
        params.head_biases.data[t] += 0.05 * rng.standard_normal(2)
    x_np = rng.normal(size=(8, 6))
    targets = [rng.normal(size=(8, 2)) for _ in range(3)]
    noise = gumbel_noise((3, 3, 3), rng)
    alpha0 = 0.5 * rng.standard_normal((3, 3, 3))
    tau, lam = 1.0, 0.3
    shared = supergraph.cost_table.fully_shared_cost
    # the task part of the loss is the sum of the tasks' mean squared errors
    # on all 8 rows, one batch: omega = 1
    data = SimpleNamespace(inputs_train=x_np, targets_train=np.stack(targets))
    idx = np.arange(8)
    scale = _loss_scale((1.0,) * 3, data, idx)

    def routing_of(alpha):
        return list(softmax((alpha + noise) / tau, axis=2).swapaxes(0, 1))

    def task_term(routing):
        return sum(backward(params, routing, data, idx, scale)[0])

    def loss_of_alpha(alpha):
        return task_term(routing_of(alpha)) + lam / shared * expected_cost(
            ArchitectureParams(alpha.copy()), supergraph.cost_table
        )

    # analytic alpha gradient: the search's architecture pass, exact resource part
    grad_alpha = _architecture_grad(params, alpha0, noise, tau, data, idx, scale)
    grad_alpha = grad_alpha + lam / shared * expected_cost_grad(
        ArchitectureParams(alpha0.copy()), supergraph.cost_table
    )
    fd_alpha = central_diff(loss_of_alpha, alpha0.copy(), h=1e-5)
    err_alpha = relative_error(grad_alpha, fd_alpha)

    # analytic theta gradient at fixed routing: the search's weight pass
    rows_const = routing_of(alpha0)
    grads = backward(params, rows_const, data, idx, scale)[1]
    grad_theta = np.concatenate([g.ravel() for g in grads])
    tensors = params.parameters()
    theta0 = _flat(tensors)

    def loss_of_theta(vec):
        _load_flat(tensors, vec)
        return task_term(rows_const)

    fd_theta = central_diff(loss_of_theta, theta0.copy(), h=1e-5)
    _load_flat(tensors, theta0)
    err_theta = relative_error(grad_theta, fd_theta)

    ok = err_alpha <= 1e-5 and err_theta <= 1e-5
    verdict(
        capsys,
        ok,
        "criterion 03 end-to-end differentiation",
        f"relative error alpha = {err_alpha:.2e}, theta = {err_theta:.2e} <= 1e-5",
        t0,
    )
    assert ok


def test_criterion_04_delta_m_reproduction(capsys):
    """Published shared-vs-single rows give -6.35 and -3.23, within 0.01."""
    t0 = time.time()
    five_single = MetricRecord(
        values=(65.11, 57.54, 65.41, 13.98, 69.50),
        lower_better=(False, False, False, True, False),
    )
    five_shared = MetricRecord(
        values=(59.69, 55.96, 63.03, 16.02, 67.80),
        lower_better=(False, False, False, True, False),
    )
    four_single = MetricRecord(
        values=(40.08, 0.5479, 21.67, 70.10),
        lower_better=(False, True, True, False),
    )
    four_shared = MetricRecord(
        values=(38.37, 0.5766, 22.66, 70.90),
        lower_better=(False, True, True, False),
    )
    got5 = delta_m(five_shared, five_single)
    got4 = delta_m(four_shared, four_single)
    ok = abs(got5 - (-6.35)) <= 0.01 and abs(got4 - (-3.23)) <= 0.01
    verdict(
        capsys,
        ok,
        "criterion 04 delta_m reproduction",
        f"five-task {got5:+.3f} vs -6.35, four-task {got4:+.3f} vs -3.23 (+-0.01)",
        t0,
    )
    assert ok


def test_criterion_05_bell_and_lattice(capsys):
    """Partition counts match brute force for T<=6; refinement is a partial order T<=5."""
    t0 = time.time()
    want = (1, 2, 5, 15, 52, 203)
    counts_ok = True
    for n in range(1, 7):
        seen = set()
        for labels in itertools.product(range(n), repeat=n):
            remap, canon = {}, []
            for v in labels:
                remap.setdefault(v, len(remap))
                canon.append(remap[v])
            seen.add(tuple(canon))
        counts_ok &= len(seen) == want[n - 1] == len(enumerate_partitions(n))

    order_ok = True
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        order_ok &= all(refines(a, a) for a in parts)
        for a, b in itertools.product(parts, repeat=2):
            if refines(a, b) and refines(b, a) and a != b:
                order_ok = False
        for a, b, c in itertools.product(parts, repeat=3):
            if refines(a, b) and refines(b, c) and not refines(a, c):
                order_ok = False

    ok = counts_ok and order_ok
    verdict(
        capsys,
        ok,
        "criterion 05 Bell/lattice combinatorics",
        f"counts {want} match brute force; partial order exhaustive to T=5",
        t0,
    )
    assert ok


def test_criterion_06_gumbel_softmax_limit(capsys):
    """At tau = 0.1, argmax frequencies track softmax(alpha) within 0.02."""
    t0 = time.time()
    rng = rng_stream(103, "limit")
    logits = rng.normal(size=(5, 1, 4))
    worst = 0.0
    for row in range(5):
        # 10^4 routing rows as the search draws them, one Gumbel draw per logit
        noise = gumbel_noise((10_000, 4), rng)
        picks = bmtas_softmax((logits[row, 0] + noise) / 0.1, axis=1).argmax(axis=1)
        counts = np.bincount(picks, minlength=4)
        worst = max(worst, np.abs(counts / 10_000 - softmax(logits[row, 0])).max())
    ok = worst <= 0.02
    verdict(
        capsys,
        ok,
        "criterion 06 Gumbel-Softmax limit",
        f"5 rows x 10^4 samples, worst |freq - softmax| = {worst:.4f} <= 0.02",
        t0,
    )
    assert ok


BENCH_WIDTHS = [16, 8, 8, 8]
_SEARCH_CACHE: dict = {}


def _grid_search(lam: float, seed: int):
    key = (lam, seed)
    if key not in _SEARCH_CACHE:
        spec = SyntheticTaskSpec(
            num_tasks=4,
            input_dim=16,
            hidden_dim=8,
            target_dim=4,
            relatedness=Partition((0, 0, 1, 1)),
        )
        data = generate_tasks(spec, rng_stream(seed, "data"))
        supergraph = SupergraphSpec(BENCH_WIDTHS)
        config = SearchConfig(resource_weight=lam, seed=seed)
        _SEARCH_CACHE[key] = (search(config, supergraph, data), data, supergraph)
    return _SEARCH_CACHE[key]


def test_criterion_07_lambda_monotonicity(capsys):
    """Median discretized cost never increases along the lambda grid."""
    t0 = time.time()
    costs = {}
    for lam in (0.0, 0.05, 0.5):
        costs[lam] = []
        for seed in range(5):
            result, _, supergraph = _grid_search(lam, seed)
            costs[lam].append(structure_cost(result.structure, supergraph.cost_table))
    medians = [float(np.median(costs[lam])) for lam in (0.0, 0.05, 0.5)]
    paired_wins = sum(a > b for a, b in zip(costs[0.0], costs[0.5]))
    ok = medians[0] >= medians[1] >= medians[2] and paired_wins >= 4
    verdict(
        capsys,
        ok,
        "criterion 07 lambda monotonicity",
        f"median costs {medians[0]:.0f} -> {medians[1]:.0f} -> {medians[2]:.0f}, "
        f"lam 0 > lam 0.5 in {paired_wins}/5 paired seeds (need >= 4)",
        t0,
    )
    assert ok


def _fully_branched(num_tasks, num_layers):
    return derive_groupings([[t] * num_layers for t in range(num_tasks)])


def test_criterion_08_grouping_recovery(capsys):
    """lambda = 0.05 recovers the generating pairs; RSA agrees with them."""
    t0 = time.time()
    target = Partition((0, 0, 1, 1))
    recovered = 0
    within_all, cross_all = [], []
    for seed in range(5):
        result, data, supergraph = _grid_search(0.05, seed)
        nontrivial = [k for k in result.structure.groupings if k.num_blocks > 1]
        if nontrivial and nontrivial[-1] == target:
            recovered += 1
        # RSA over per-task encoders, trained with nothing shared
        model = retrain(
            _fully_branched(4, supergraph.num_layers),
            supergraph,
            data,
            SearchConfig(seed=seed),
        )
        rsa = rsa_matrix(model.features(data.inputs_test))
        within_all += [rsa[0, 1], rsa[2, 3]]
        cross_all += [rsa[0, 2], rsa[0, 3], rsa[1, 2], rsa[1, 3]]
    within, cross = float(np.median(within_all)), float(np.median(cross_all))
    ok = recovered >= 3 and within > cross
    verdict(
        capsys,
        ok,
        "criterion 08 grouping recovery",
        f"pairs recovered in {recovered}/5 seeds (need >= 3); "
        f"RSA median within = {within:.3f} > cross = {cross:.3f}",
        t0,
    )
    assert ok


def test_criterion_09_structural_fuzz(capsys):
    """1000 random routings: valid chains, discrete cost = degenerate expected cost."""
    t0 = time.time()
    rng = rng_stream(104, "fuzz")
    worst = 0.0
    for _ in range(1000):
        num_tasks = int(rng.integers(2, 5))
        num_layers = int(rng.integers(1, 4))
        units = rng.uniform(0.5, 2.0, size=num_layers)
        table = CostTable(units)
        choices = rng.integers(0, num_tasks, size=(num_tasks, num_layers))
        structure = derive_groupings(choices)  # validates the chain on build
        logits = np.full((num_tasks, num_layers, num_tasks), -60.0)
        for t in range(num_tasks):
            logits[t, np.arange(num_layers), choices[t]] = 60.0
        diff = abs(
            structure_cost(structure, table)
            - expected_cost(ArchitectureParams(logits), table)
        )
        worst = max(worst, diff)
    ok = worst <= 1e-12
    verdict(
        capsys,
        ok,
        "criterion 09 structural invariant fuzz",
        f"1000 routings, max |structure_cost - expected_cost| = {worst:.2e} <= 1e-12",
        t0,
    )
    assert ok


def test_criterion_10_determinism(capsys, tmp_path):
    """The search command writes byte-identical artifacts on a rerun."""
    t0 = time.time()
    cfg = {
        "experiment": "determinism",
        "supergraph": {"widths": BENCH_WIDTHS},
        "benchmark": {
            "num_tasks": 4,
            "input_dim": 16,
            "hidden_dim": 8,
            "target_dim": 4,
            "relatedness": [[0, 1], [2, 3]],
        },
        "search": {
            "lambda": 0.05,
            "warmup_steps": 150,
            "search_steps": 150,
            "retrain_steps": 150,
        },
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(cfg))
    blobs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = main(
            ["search", "--config", str(config_path), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        seed_dir = out / "determinism" / "seed3"
        blobs.append(
            tuple(
                (seed_dir / name).read_bytes()
                for name in ("structure.json", "metrics.json", "trace.csv")
            )
        )
    ok = blobs[0] == blobs[1]
    verdict(
        capsys,
        ok,
        "criterion 10 determinism",
        "two runs of the search command produced byte-identical "
        "structure, metrics and trace artifacts",
        t0,
    )
    assert ok
