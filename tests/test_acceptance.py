"""Acceptance gate: the eleven headline checks, one test and one verdict each.

Every test prints a single PASS line with its key numbers and elapsed time;
run with `pytest -v tests/test_acceptance.py` (add -s for the verdict lines).
The workloads are sized to their stated wall-clock budgets, which are also
asserted.
"""

import json
import time

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad
from eegnn.cells import cell_weights, make_cell_params, sas_step
from eegnn.cli import main as cli_main
from eegnn.config import RunConfig
from eegnn.diagnostics import (descent_suite, dirichlet_traces,
                               oracle_exit_eval, spectrum_suite)
from eegnn.exits import gumbel_softmax_st
from eegnn.graphs import degrees, gen_minesweeper_grid, gen_sbm, norm_adj
from eegnn.training import (build_model, evaluate, forward_node, loss_eval,
                            metric_eval, operators_for, train_run)
from test_autodiff import _one_op_cases
from test_training import ABLATION_CASES, ablation_case


@pytest.fixture(scope="module")
def grid900():
    return gen_minesweeper_grid(30, 30, 0.2, seed=0, unknown_frac=0.5)


def verdict(num, name, elapsed, budget_s, detail):
    assert elapsed < budget_s, f"criterion {num} overran: {elapsed:.0f}s"
    print(f"criterion {num:>2} ({name}): PASS [{elapsed:.1f}s] {detail}")


def connected_sbm(seed, sizes, p_in, p_out, m, shift=1.0):
    for s in range(seed, seed + 50):
        g = gen_sbm(list(sizes), p_in, p_out, seed=s, feature_dim=m,
                    feature_shift=shift)
        if degrees(g).min() > 0:
            return g
    raise AssertionError("no isolated-free draw found")


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    # this (graph, init, noise) draw keeps every parameter gradient above
    # the scale where the relative-error denominator floor turns roundoff
    # into the headline number; absolute agreement is ~1e-12 regardless
    g = connected_sbm(5, (10, 10), 0.7, 0.2, m=8)
    cfg = RunConfig.from_dict(dict(model="eegnn", depth=4, hidden=8, tau=0.9,
                                   metric="accuracy", seed=0))
    rng = np.random.Generator(np.random.PCG64(3))
    model = build_model(cfg, g.X.shape[1], 2, rng)
    frozen = [rng.gumbel(size=(g.n, 2)) for _ in range(cfg.depth)]
    ops = operators_for(model, g)

    def loss():
        logits, _ = forward_node(model, ops, "train_sample", noise=frozen)
        return loss_eval(logits, g.y, "ce", mask=g.masks["train"])

    full_err = ad.fd_check(loss, [p for _, p in model.parameters()])
    assert full_err <= 1e-4

    op_err = 0.0
    for seed in range(20):
        op_rng = np.random.default_rng(2000 + seed)
        for name, params, op_loss in _one_op_cases(op_rng):
            err = ad.fd_check(op_loss, params)
            assert err <= 1e-6, f"{name}: {err}"
            op_err = max(op_err, err)
    verdict(1, "gradient correctness", time.time() - t0, 60,
            f"full-model fd {full_err:.2e}, worst per-op fd {op_err:.2e}")


def test_criterion_02_spectrum_suite():
    t0 = time.time()
    rep = spectrum_suite(n_configs=100, width_lo=2, width_hi=16, seed=0)
    assert rep["configs"] == 100
    assert rep["max_re_lambda"] <= 1e-8
    assert rep["pass"]
    verdict(2, "jacobian spectra", time.time() - t0, 60,
            f"max |Re lambda| {rep['max_re_lambda']:.2e}")


def test_criterion_03_energy_descent_suite():
    t0 = time.time()
    rep = descent_suite(n_cases=100, steps=50, tau=0.05,
                        edge_modes=("zero", "neg_relu"), seed=0)
    assert rep["cases"] == 200                 # 100 draws per edge mode
    assert rep["violations"] == 0
    assert rep["pass"]
    verdict(3, "energy descent", time.time() - t0, 120,
            f"{rep['cases']} trajectories of {rep['steps']} steps, 0 rises")


def test_criterion_04_dirichlet_contrast(grid900):
    t0 = time.time()
    ratios = {}
    for kind, tau in (("gcn", 1.0), ("sas", 0.05)):
        cfg = RunConfig.from_dict(dict(model=kind, depth=50, hidden=32,
                                       tau=tau, metric="auroc", seed=0))
        rng = np.random.Generator(np.random.PCG64(0))
        model = build_model(cfg, grid900.X.shape[1], 2, rng)
        tr, _ = dirichlet_traces(model, grid900)
        ratios[kind] = float(tr.values[-1] / tr.values[0])
    assert ratios["gcn"] < 1e-3
    assert 0.1 <= ratios["sas"] <= 10.0
    verdict(4, "dirichlet contrast", time.time() - t0, 300,
            f"gcn ratio {ratios['gcn']:.1e}, sas ratio {ratios['sas']:.2f}")


def test_criterion_05_depth_retention(grid900):
    t0 = time.time()
    scores = {}
    for depth in (10, 50):
        cfg = RunConfig.from_dict(dict(model="sas", depth=depth, hidden=32,
                                       tau=0.5, epochs=200, lr=1e-2,
                                       metric="auroc", seed=0))
        model, _ = train_run(cfg, grid900)
        scores[depth] = evaluate(model, grid900, "test")["value"]
    assert scores[10] >= 0.75 and scores[50] >= 0.75
    assert abs(scores[10] - scores[50]) <= 0.05
    verdict(5, "depth retention", time.time() - t0, 900,
            f"auroc L=10 {scores[10]:.4f}, L=50 {scores[50]:.4f}, "
            f"gap {abs(scores[10]-scores[50]):.4f}")


def test_criterion_06_parameter_invariance():
    t0 = time.time()

    def counts(kind, depth):
        # the model train builds: feat 10, hidden 32, out 2
        cfg = RunConfig.from_dict(dict(model=kind, depth=depth, hidden=32))
        return build_model(cfg, 10, 2, np.random.default_rng(6)).param_counts()

    for kind in ("sas", "eegnn"):
        assert counts(kind, 10) == counts(kind, 20)
    gcn = [counts("gcn", L)["total"] for L in (1, 5, 10, 20)]
    assert all(a < b for a, b in zip(gcn, gcn[1:]))
    verdict(6, "parameter invariance", time.time() - t0, 1,
            f"sas/eegnn totals depth-free, gcn totals {gcn}")


def test_criterion_07_early_exit_semantics():
    t0 = time.time()
    rng = np.random.default_rng(7)

    # (a) the hard exit decision is exactly one-hot
    logits = ad.constant(rng.normal(size=(40, 2)))
    inv_nu = ad.constant(np.full((40, 1), 0.8))
    smp = rng.gumbel(size=(40, 2))
    _, hard = gumbel_softmax_st(logits, inv_nu, g=smp)
    assert set(np.unique(hard)) <= {0.0, 1.0}
    assert np.array_equal(hard.sum(axis=1), np.ones(40))

    # (b) zero per-node tau freezes that row at the bit level
    g = connected_sbm(21, (10, 10), 0.7, 0.2, m=6)
    params = make_cell_params(rng, "sas", 6, 6, 2)
    H = ad.constant(rng.normal(size=(g.n, 6)))
    tau = rng.uniform(0.2, 1.0, size=(g.n, 1))
    frozen_rows = [0, 3, 4, 11]
    tau[frozen_rows, 0] = 0.0
    out = sas_step(H, norm_adj(g), params, cell_weights(params, "sas"),
                   tau=ad.constant(tau)).value
    for i in frozen_rows:
        assert np.array_equal(out[i], H.value[i])

    # (c) zero exit heads (equal exit logits, so tau 0.5 and no exit) make
    # the exit loop reproduce the fixed-depth sas cell at tau 0.5 bit for bit,
    # on a node task, a graph set and a node task with an edge term
    for case in ABLATION_CASES:
        ablation, data, twin = ablation_case(case)
        ablated, state = forward_node(ablation, operators_for(ablation, data))
        fixed, _ = forward_node(twin, operators_for(twin, data))
        assert ablated.value.tobytes() == fixed.value.tobytes()
        assert not state.exited.any()

    # (d) eval-mode forwards are deterministic across reruns
    cfg = RunConfig.from_dict(dict(model="eegnn", depth=6, hidden=8, tau=0.1,
                                   metric="accuracy", seed=0))
    model = build_model(cfg, g.X.shape[1], 2,
                        np.random.Generator(np.random.PCG64(2)))
    runs = [forward_node(model, operators_for(model, g), "eval_argmax")
            for _ in range(2)]
    assert np.array_equal(runs[0][0].value, runs[1][0].value)
    assert np.array_equal(runs[0][1].exit_layer, runs[1][1].exit_layer)
    assert np.array_equal(runs[0][1].exit_time, runs[1][1].exit_time)
    verdict(7, "early-exit semantics", time.time() - t0, 60,
            "one-hot, frozen rows, ablation identity, eval determinism")


def test_criterion_08_oracle_exit_dominance():
    t0 = time.time()
    gains = []
    for seed in range(5):
        g = gen_sbm([50, 50], 0.35, 0.55, seed=seed, feature_dim=8,
                    feature_shift=0.8)
        if degrees(g).min() == 0:
            continue
        for kind in ("sas", "eegnn"):
            cfg = RunConfig.from_dict(dict(model=kind, depth=10, hidden=16,
                                           tau=0.5, epochs=30, lr=1e-2,
                                           metric="accuracy", seed=seed))
            model, _ = train_run(cfg, g)
            oracle, final = oracle_exit_eval(model, g)
            assert oracle >= final, f"seed {seed} {kind}: {oracle} < {final}"
            gains.append(oracle - final)
    assert max(gains) >= 0.01               # over-thinking shows up somewhere
    verdict(8, "oracle-exit dominance", time.time() - t0, 600,
            f"{len(gains)} runs, all oracle >= final, max gain {max(gains):.3f}")


def test_criterion_09_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(4, 31))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        d1 = abs(metric_eval(scores, labels, "auroc")
                 - oracles.auroc_pair_count(scores, labels))
        d2 = abs(metric_eval(scores, labels, "ap")
                 - oracles.ap_threshold_sweep(scores, labels))
        k = int(rng.integers(2, 6))
        pred = rng.integers(0, k, size=n)
        targ = rng.integers(0, k, size=n)
        k_seen = int(max(pred.max(), targ.max())) + 1
        d3 = abs(metric_eval(pred, targ, "macro_f1")
                 - oracles.macro_f1_confusion(pred, targ, k_seen))
        worst = max(worst, d1, d2, d3)
        assert worst <= 1e-12
    verdict(9, "metric oracles", time.time() - t0, 60,
            f"10000 instances, worst |impl - oracle| {worst:.1e}")


def test_criterion_10_exit_distribution_reporting(tmp_path):
    t0 = time.time()
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "dataset": "sbm", "sizes": [60, 60], "p_in": 0.7, "p_out": 0.15,
        "feature_dim": 8, "seed": 0}))
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--config", str(gen_cfg),
                     "--out", str(data_dir)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "model": "eegnn", "depth": 20, "hidden": 8,
        "epochs": 15, "lr": 1e-2, "metric": "accuracy", "seed": 0}))
    run_dir = tmp_path / "run"
    assert cli_main(["train", "--config", str(train_cfg),
                     "--data", str(data_dir / "graph.json"),
                     "--out", str(run_dir)]) == 0

    graph = json.loads((data_dir / "graph.json").read_text())
    n_test = int(np.sum(graph["masks"]["test"]))
    rows = (run_dir / "exits.csv").read_text().splitlines()[1:]
    assert len(rows) == n_test
    layers = np.array([int(r.split(",")[1]) for r in rows])
    times = np.array([float(r.split(",")[2]) for r in rows])
    hist = np.bincount(layers, minlength=21)
    assert hist.sum() == n_test
    assert layers.min() <= int(np.median(layers)) <= layers.max()
    assert np.all((layers >= 0) & (layers <= 20))
    assert np.all(times >= 0.0) and np.all(np.isfinite(times))
    verdict(10, "exit distribution", time.time() - t0, 300,
            f"{n_test} test nodes, layers {layers.min()}"
            f"..{int(np.median(layers))}..{layers.max()}")


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.time()
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"dataset": "sbm", "sizes": [15, 15],
                                   "p_in": 0.8, "p_out": 0.15,
                                   "feature_dim": 5, "seed": 1}))
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--config", str(gen_cfg),
                     "--out", str(data_dir)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"model": "eegnn", "depth": 4, "hidden": 6,
                                     "epochs": 6,
                                     "metric": "accuracy", "seed": 0}))
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        assert cli_main(["train", "--config", str(train_cfg),
                         "--data", str(data_dir / "graph.json"),
                         "--out", str(out)]) == 0
        pairs.append(out)
    train_files = ("resolved_config.json", "history.csv", "checkpoint.json",
                   "metrics.json", "exits.csv")
    for name in train_files:
        assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()

    diag_cfg = tmp_path / "diag.json"
    diag_cfg.write_text(json.dumps({"cases": 10}))
    diag_pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"diag_{tag}"
        assert cli_main(["diagnose", "spectrum", "--config", str(diag_cfg),
                         "--out", str(out)]) == 0
        diag_pairs.append(out)
    for name in ("resolved_config.json", "report.json"):
        assert (diag_pairs[0] / name).read_bytes() == \
            (diag_pairs[1] / name).read_bytes()
    verdict(11, "reproducibility", time.time() - t0, 300,
            f"train x2 identical ({len(train_files)} files), diagnose x2 identical")
