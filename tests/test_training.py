"""Config validation, losses, metrics, the optimizer, and full training runs."""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad
from eegnn.cells import EDGE_MODES, MODEL_KINDS
from eegnn.exits import ExitState, eegnn_forward_node
from eegnn.graphs import arc_rows, gen_minesweeper_grid, gen_sbm, save_graph
from eegnn.training import (ConfigError, GraphSet, OptimState,
                            RunConfig, TrainDivergenceError, adam_step,
                            build_model, coerce_keys, evaluate, exit_csv,
                            forward_node, history_csv, load_checkpoint,
                            load_dataset, loss_eval, metric_eval, model_for,
                            operators_for, save_checkpoint, scores_from_logits,
                            train_run)


def sbm(seed=0, n=24, m=6, shift=2.0):
    return gen_sbm([n // 2, n - n // 2], 0.8, 0.1, seed=seed,
                   feature_dim=m, feature_shift=shift)


def quick_cfg(**kw):
    base = dict(model="sas", depth=3, hidden=8, tau=0.5, epochs=40,
                metric="accuracy", lr=3e-2, seed=0)
    base.update(kw)
    return RunConfig.from_dict(base)


# ------------------------------------------------------------------- config

def test_config_defaults():
    cfg = RunConfig()
    assert (cfg.task, cfg.model, cfg.depth, cfg.hidden) == ("node_class", "sas", 10, 16)
    assert (cfg.tau, cfg.metric, cfg.loss, cfg.lr) == (1.0, "auroc", "ce", 3e-3)


def test_config_collects_every_error_at_once():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"modle": "sas", "depht": 3, "tau": 2.0, "lr": -1.0})
    msgs = exc.value.messages
    assert len(msgs) == 4
    assert sum("unknown config key" in m for m in msgs) == 2
    assert any("tau" in m for m in msgs)
    assert any("lr" in m for m in msgs)
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"dec_hidden": [4, 0]})
    assert exc.value.messages == ["dec_hidden must be a tuple of widths >= 1, got (4, 0)"]


def test_config_coercion_failure_reported_by_key():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"depth": "deep"})
    assert any("depth" in m and "coerce" in m for m in exc.value.messages)


@pytest.mark.parametrize("key, value", [
    ("decoupled_wd", "false"), ("decoupled_wd", 0), ("depth", 2.7),
    ("depth", True), ("epochs", True), ("tau", False), ("lr", "0.01"),
    ("hidden", "16"), ("depth", float("inf")), ("model", 3), ("nu0", float("inf")),
    ("lr", float("inf")), ("weight_decay", float("inf")), ("tau", float("nan")),
    ("dec_hidden", [2.5]), ("dec_hidden", [True]), ("dec_hidden", ["2"]),
    ("dec_hidden", [[1]]), ("dec_hidden", 4)])
def test_config_rejects_lossy_or_mistyped_values(key, value):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({key: value})
    assert any(key in m and "coerce" in m for m in exc.value.messages)


def test_config_collects_every_type_error_at_once():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"decoupled_wd": "false", "depth": 2.7, "epochs": True,
                             "dec_hidden": [4, True]})
    assert len(exc.value.messages) == 4


def test_config_takes_integral_floats_and_ints_for_floats():
    cfg = RunConfig.from_dict({"depth": 3.0, "epochs": np.int64(5), "tau": 1,
                               "lr": np.float64(0.01), "decoupled_wd": True,
                               "dec_hidden": [2.0, np.int64(3)]})
    assert (cfg.depth, cfg.epochs, cfg.tau, cfg.lr) == (3, 5, 1.0, 0.01)
    assert type(cfg.depth) is int and type(cfg.epochs) is int
    assert cfg.dec_hidden == (2, 3) and {type(h) for h in cfg.dec_hidden} == {int}
    assert type(cfg.tau) is float and cfg.decoupled_wd is True


def test_config_round_trips_through_dict():
    cfg = RunConfig.from_dict({"model": "eegnn", "dec_hidden": [7, 5], "tau": 0.25})
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.dec_hidden == (7, 5)


def test_coerce_keys_list_and_path_defaults():
    defaults = {"sizes": [50, 50], "kinds": ["sas"], "data": None, "rate": 0.5}
    values, errors = coerce_keys(defaults, {"sizes": [4.0, 5], "kinds": ["gcn"],
                                            "data": "g.json", "rate": 1})
    assert errors == []
    assert values == {"sizes": [4, 5], "kinds": ["gcn"], "data": "g.json",
                      "rate": 1.0}
    assert type(values["sizes"][0]) is int and type(values["rate"]) is float
    values, errors = coerce_keys(defaults, {"sizes": [], "kinds": "sas",
                                            "data": 5, "rate": "1", "colour": 1})
    assert values == {}
    assert errors[0] == "unknown config key 'colour'"
    assert [m.split(":")[0] for m in errors[1:]] == [
        f"config key {k!r}" for k in ("sizes", "kinds", "data", "rate")]
    assert "non-empty list of int" in errors[1] and "path string" in errors[3]


@pytest.mark.parametrize("model", ["gcn", "graff", "adgn"])
@pytest.mark.parametrize("edge_mode", ["linear", "neg_relu"])
def test_config_rejects_edge_mode_without_edge_term(model, edge_mode):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"model": model, "edge_mode": edge_mode})
    assert exc.value.messages == [
        f"edge_mode {edge_mode!r} needs a model in ('sas', 'eegnn'); "
        f"{model!r} has no edge term"]


def test_every_accepted_config_allocates_what_param_count_counts():
    accepted = []
    for task in ("node_class", "graph_class"):
        for model in MODEL_KINDS:
            for edge_mode in EDGE_MODES:
                try:
                    cfg = RunConfig.from_dict(
                        {"task": task, "model": model, "edge_mode": edge_mode,
                         "depth": 3, "hidden": 6, "exit_hidden": 5,
                         "exit_depth": 2, "dec_hidden": [4]})
                except ConfigError:
                    continue
                accepted.append((model, edge_mode))
                built = build_model(cfg, 7, 3, np.random.default_rng(0), edge_dim=2)
                allocated = sum(p.value.size for _, p in built.parameters())
                assert allocated == built.param_counts()["total"], (task, model, edge_mode)
    assert sorted(set(accepted)) == sorted(
        [(m, "zero") for m in MODEL_KINDS]
        + [(m, e) for m in ("sas", "eegnn") for e in ("linear", "neg_relu")])


# (model, task, edge_mode, dec_hidden, exit_depth) and the counts of its
# encoder, core, decoder, exit heads and total, at depth 3, feat 7, hidden 6,
# out 3, edge_dim 2 under an edge term, and exit heads 5 wide
PARAM_COUNTS = [
    ("sas", "node_class", "zero", (), 1, 48, 72, 21, 0, 141),
    ("sas", "graph_class", "linear", (4,), 1, 48, 84, 43, 0, 175),
    ("sas", "graph_reg", "neg_relu", (3, 4), 1, 48, 84, 52, 0, 184),
    ("eegnn", "node_class", "zero", (4,), 3, 48, 72, 43, 368, 531),
    ("eegnn", "node_class", "neg_relu", (), 1, 48, 84, 21, 148, 301),
    ("eegnn", "graph_class", "linear", (), 2, 48, 84, 21, 148, 301),
    ("eegnn", "graph_reg", "zero", (3, 4), 3, 48, 72, 52, 208, 380),
    ("gcn", "node_class", "zero", (), 1, 48, 108, 21, 0, 177),
    ("gcn", "graph_class", "zero", (4,), 1, 48, 108, 43, 0, 199),
    ("graff", "node_class", "zero", (3, 4), 1, 48, 72, 52, 0, 172),
    ("graff", "graph_reg", "zero", (), 1, 48, 72, 21, 0, 141),
    ("adgn", "node_class", "zero", (4,), 1, 48, 78, 43, 0, 169),
    ("adgn", "graph_class", "zero", (), 1, 48, 78, 21, 0, 147),
]


def test_param_counts_match_the_pinned_table():
    for model, task, edge_mode, dec_hidden, exit_depth, *want in PARAM_COUNTS:
        cfg = RunConfig.from_dict(
            {"model": model, "task": task, "edge_mode": edge_mode, "depth": 3,
             "hidden": 6, "exit_hidden": 5, "exit_depth": exit_depth,
             "dec_hidden": list(dec_hidden)})
        built = build_model(cfg, 7, 3, np.random.default_rng(0),
                            edge_dim=0 if edge_mode == "zero" else 2)
        counts = built.param_counts()
        got = [counts[k] for k in ("encoder", "core", "decoder", "exit_heads", "total")]
        assert got == want, (model, task, edge_mode, dec_hidden, exit_depth)


def test_graph_set_validates_shapes():
    g = sbm()
    with pytest.raises(ValueError, match="label row"):
        GraphSet(graphs=[g, g], y=np.zeros((3, 1)), masks={
            "train": [1, 0, 0], "val": [0, 1, 0], "test": [0, 0, 1]})
    with pytest.raises(ValueError, match="val"):
        GraphSet(graphs=[g], y=np.zeros((1, 1)),
                 masks={"train": [1], "test": [0]})
    with pytest.raises(ValueError, match="'test' must have one entry per graph"):
        GraphSet(graphs=[g, g], y=np.zeros((2, 1)),
                 masks={"train": [1, 0], "val": [0, 1], "test": [0, 1, 1]})


def with_edge_features(g, width=2):
    """g with edge features equal on both arcs of an edge."""
    g.E_feat = (g.X[arc_rows(g)] + g.X[g.col_indices])[:, :width]
    return g


@pytest.mark.parametrize("edges,change,shown", [
    (0, lambda g: setattr(g, "X", g.X[:, :3]),
     "graph 2 has 3 node features and no edge features, graph 0 has 6 node "
     "features and no edge features"),
    (0, with_edge_features,
     "graph 2 has 6 node features and 2 edge features, graph 0 has 6 node "
     "features and no edge features"),
    (2, lambda g: None,
     "graph 2 has 6 node features and no edge features, graph 0 has 6 node "
     "features and 2 edge features"),
    (2, lambda g: with_edge_features(g, 3),
     "graph 2 has 6 node features and 3 edge features, graph 0 has 6 node "
     "features and 2 edge features"),
])
def test_graph_set_members_must_fit_one_union(edges, change, shown):
    """edges is the edge-feature width of graphs 0 and 1; change alters graph 2."""
    members = [sbm(seed=s) for s in (5, 6, 7)]
    for g in members[:2]:
        if edges:
            with_edge_features(g, edges)
    change(members[2])
    with pytest.raises(ConfigError, match=shown):
        GraphSet(members, y=np.zeros((3, 1)),
                 masks={k: np.ones(3, dtype=bool) for k in ("train", "val", "test")})


# ------------------------------------------------------------------- model

def test_model_for_sizes_a_graph_and_a_graph_set():
    g = with_edge_features(sbm(seed=3))
    rng = np.random.default_rng(0)
    node = model_for(RunConfig.from_dict({"edge_mode": "linear"}), g, rng)
    assert (node.feat_dim, node.out_dim, node.edge_dim) == (6, 2, 2)
    ds = GraphSet([g, with_edge_features(sbm(seed=4))],
                  y=np.array([[0.5, 1.0], [1.5, 2.0]]),
                  masks={k: np.ones(2, dtype=bool) for k in ("train", "val", "test")})
    reg = RunConfig.from_dict({"task": "graph_reg", "loss": "mse", "metric": "mae"})
    graph = model_for(reg, ds, rng)
    assert (graph.feat_dim, graph.out_dim, graph.edge_dim) == (6, 2, 2)


_CELL = ["cell.omega_raw", "cell.w_raw"]
_DEC = ["cell.enc_w", "cell.enc_b", "cell.dec0_w", "cell.dec0_b"]


def _head_names(tag, layers):
    return [f"heads.{tag}{i}_{s}" for i in range(len(layers)) for s in layers[i]] + \
        [f"heads.{tag}_out_w", f"heads.{tag}_out_b"]


@pytest.mark.parametrize("config, edge_dim, names", [
    ({"model": "sas", "edge_mode": "linear", "dec_hidden": [4]}, 2,
     _CELL + ["cell.w_e"] + _DEC + ["cell.dec1_w", "cell.dec1_b"]),
    ({"model": "gcn", "depth": 3}, 0,
     ["cell.gcn_w0", "cell.gcn_w1", "cell.gcn_w2"] + _DEC),
    ({"model": "adgn"}, 0, _CELL + ["cell.adgn_b"] + _DEC),
    ({"model": "eegnn", "exit_depth": 2}, 0,
     _CELL + _DEC + _head_names("fc", [("w_agg", "w_self", "b")] * 2)
     + _head_names("fnu", [("w_agg", "w_self", "b")] * 2)),
    ({"model": "eegnn", "task": "graph_class"}, 0,
     _CELL + _DEC + _head_names("fc", [("w", "b")]) + _head_names("fnu", [("w", "b")]))])
def test_parameter_names_are_the_pinned_checkpoint_keys(config, edge_dim, names):
    """Checkpoint keys and Adam state are keyed by these names, in this order."""
    model = build_model(RunConfig.from_dict({"depth": 2, **config}), 3, 2,
                        np.random.default_rng(0), edge_dim=edge_dim)
    assert [n for n, _ in model.parameters()] == names


# ------------------------------------------------------------------- losses

def test_ce_loss_on_confident_one_hot_is_near_zero():
    pred = ad.constant([[1e6, 0.0], [0.0, 1e6]])
    assert loss_eval(pred, [0, 1], "ce").value[0, 0] <= 1e-12


def test_ce_loss_on_uniform_logits_is_log_k():
    pred = ad.constant(np.zeros((4, 3)))
    assert loss_eval(pred, [0, 1, 2, 0], "ce").value[0, 0] == pytest.approx(math.log(3.0))


def test_ce_loss_rejects_out_of_range_class():
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        loss_eval(ad.constant(np.zeros((2, 2))), [0, 5], "ce")


def test_mse_loss_zero_at_target_and_hand_value():
    t = np.array([[1.0], [-2.0]])
    assert loss_eval(ad.constant(t), t, "mse").value[0, 0] == 0.0
    pred = ad.constant([[1.0], [3.0]])
    assert loss_eval(pred, np.zeros((2, 1)), "mse").value[0, 0] == pytest.approx(5.0)


def test_bce_loss_at_zero_logit_is_log_two():
    pred = ad.constant(np.zeros((3, 1)))
    out = loss_eval(pred, [[0.0], [1.0], [1.0]], "bce_logits")
    assert out.value[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_loss_rejects_soft_targets():
    with pytest.raises(ValueError, match="0 or 1"):
        loss_eval(ad.constant(np.zeros((1, 1))), [[0.3]], "bce_logits")


def test_l1_loss_hand_value():
    pred = ad.constant([[2.0], [-1.0]])
    assert loss_eval(pred, [[0.0], [0.0]], "l1").value[0, 0] == pytest.approx(1.5)


def test_masked_loss_equals_loss_on_subset():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, size=6)
    mask = np.array([1, 0, 1, 1, 0, 0], dtype=bool)
    whole = loss_eval(ad.constant(pred), y, "ce", mask=mask).value[0, 0]
    sub = loss_eval(ad.constant(pred[mask]), y[mask], "ce").value[0, 0]
    assert whole == pytest.approx(sub, abs=1e-14)


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="empty mask"):
        loss_eval(ad.constant(np.zeros((2, 2))), [0, 1], "ce",
                  mask=np.zeros(2, dtype=bool))


# ------------------------------------------------------------------- optimizer

def leafed(rng, shape):
    p = ad.leaf(rng.normal(size=shape))
    return p


def test_adam_zero_gradient_leaves_parameter_alone():
    rng = np.random.default_rng(2)
    p = leafed(rng, (3, 2))
    before = p.value.copy()
    adam_step([("p", p)], OptimState(lr=0.1))
    assert np.array_equal(p.value, before)


def test_adam_first_step_closed_form():
    rng = np.random.default_rng(3)
    p = leafed(rng, (4, 4))
    p.grad[...] = rng.normal(size=(4, 4))
    g = p.grad.copy()
    before = p.value.copy()
    adam_step([("p", p)], OptimState(lr=0.01))
    # bias correction cancels at t=1, leaving lr * g / (|g| + eps)
    assert np.allclose(before - p.value, 0.01 * g / (np.abs(g) + 1e-8), atol=1e-15)


def test_adam_coupled_weight_decay_moves_zero_grad_param():
    p = ad.leaf(np.full((2, 2), 3.0))
    adam_step([("p", p)], OptimState(lr=0.01, weight_decay=0.1))
    # effective gradient 0.1*3 = 0.3 -> first step ~ lr
    assert np.allclose(p.value, 3.0 - 0.01, rtol=1e-6)


def test_adam_decoupled_decay_is_multiplicative():
    p = ad.leaf(np.full((2, 2), 3.0))
    adam_step([("p", p)], OptimState(lr=0.01, weight_decay=0.5, decoupled=True))
    assert np.allclose(p.value, 3.0 * (1.0 - 0.01 * 0.5), atol=1e-15)


def test_adam_repeat_runs_bitwise_identical():
    def run():
        rng = np.random.default_rng(4)
        p = ad.leaf(rng.normal(size=(5, 3)))
        st = OptimState(lr=0.05)
        for _ in range(10):
            p.grad[...] = rng.normal(size=(5, 3))
            adam_step([("p", p)], st)
        return p.value

    assert np.array_equal(run(), run())


# ------------------------------------------------------------------- metrics

def test_auroc_hand_case():
    val = metric_eval(np.array([0.1, 0.4, 0.35, 0.8]), [0, 0, 1, 1], "auroc")
    assert val == pytest.approx(0.75)


def test_auroc_all_tied_scores_is_half():
    assert metric_eval(np.ones(6), [0, 1, 0, 1, 0, 1], "auroc") == pytest.approx(0.5)


def test_auroc_single_class_rejected():
    with pytest.raises(ValueError, match="single-class"):
        metric_eval(np.array([0.2, 0.4]), [1, 1], "auroc")


def test_ap_perfect_ranking_is_one():
    assert metric_eval(np.array([0.9, 0.8, 0.2, 0.1]), [1, 1, 0, 0], "ap") == 1.0


def test_macro_f1_hand_case():
    val = metric_eval(np.array([0, 0, 1, 1]), [0, 1, 1, 1], "macro_f1")
    assert val == pytest.approx((2.0 / 3.0 + 0.8) / 2.0)


def test_accuracy_from_logits_uses_argmax():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 4.0]])
    assert metric_eval(logits, [0, 1, 1], "accuracy") == pytest.approx(2.0 / 3.0)


def test_one_column_outputs_score_against_1d_labels():
    # a lone logit column is binary: class 1 where positive, two classes for f1
    logits = np.array([[3.0], [-2.0], [1.0], [-1.0]])
    assert metric_eval(logits, [1, 0, 1, 0], "accuracy") == 1.0
    assert metric_eval(logits, [1, 0, 1, 0], "macro_f1") == 1.0
    assert metric_eval(logits, [1, 1, 1, 0], "macro_f1") == pytest.approx(
        (0.8 + 2.0 / 3.0) / 2.0)
    assert metric_eval(np.array([[1.0], [2.0]]), [1.5, 2.0], "mae") == 0.25


def test_scores_from_logits_shapes():
    two = np.array([[1.0, 4.0], [3.0, 2.0]])
    assert np.array_equal(scores_from_logits(two), [3.0, -1.0])
    assert np.array_equal(scores_from_logits(np.array([[2.0], [5.0]])), [2.0, 5.0])
    assert np.array_equal(scores_from_logits(np.array([1.0, 2.0])), [1.0, 2.0])
    with pytest.raises(ValueError):
        scores_from_logits(np.zeros((2, 3)))


def test_metrics_agree_with_oracles_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.normal(size=n), 2)     # force ties sometimes
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert metric_eval(scores, labels, "auroc") == pytest.approx(
            oracles.auroc_pair_count(scores, labels), abs=1e-12)
        assert metric_eval(scores, labels, "ap") == pytest.approx(
            oracles.ap_threshold_sweep(scores, labels), abs=1e-12)
        k = int(rng.integers(2, 5))
        pred = rng.integers(0, k, size=n)
        targ = rng.integers(0, k, size=n)
        # discrete inputs make the implementation infer the class count
        k_seen = int(max(pred.max(), targ.max())) + 1
        assert metric_eval(pred, targ, "macro_f1") == pytest.approx(
            oracles.macro_f1_confusion(pred, targ, k_seen), abs=1e-12)


# ------------------------------------------------------------------- training

def test_train_zero_lr_keeps_loss_flat():
    g = sbm(seed=6)
    model, history = train_run(quick_cfg(lr=0.0, epochs=5), g)
    losses = [row[1] for row in history]
    assert len(set(losses)) == 1


def test_train_same_seed_reproduces_history_exactly():
    g = sbm(seed=7)
    _, h1 = train_run(quick_cfg(model="eegnn", epochs=6), g)
    _, h2 = train_run(quick_cfg(model="eegnn", epochs=6), g)
    assert h1 == h2


def test_train_fits_separable_communities():
    g = sbm(seed=8, shift=3.0)
    model, history = train_run(quick_cfg(epochs=60), g)
    assert history[-1][1] <= 1e-3          # train loss driven to zero
    assert evaluate(model, g, split="val")["value"] >= 0.9


def test_train_loss_decreases_on_average():
    g = sbm(seed=9)
    _, history = train_run(quick_cfg(epochs=60), g)
    losses = [row[1] for row in history]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_returns_best_validation_snapshot():
    g = sbm(seed=10)
    model, history = train_run(quick_cfg(epochs=25), g)
    best = max(row[2] for row in history)
    assert evaluate(model, g, split="val")["value"] == best


def test_train_zero_epochs_returns_untouched_init():
    g = sbm(seed=11)
    cfg = quick_cfg(epochs=0)
    model, history = train_run(cfg, g)
    assert history == []
    ref = build_model(cfg, g.X.shape[1], int(g.y.max()) + 1,
                      np.random.Generator(np.random.PCG64(cfg.seed)))
    for (_, a), (_, b) in zip(model.parameters(), ref.parameters()):
        assert np.array_equal(a.value, b.value)


def test_train_divergence_raises_with_epoch():
    g = sbm(seed=12)
    with np.errstate(all="ignore"), pytest.raises(TrainDivergenceError) as exc:
        train_run(quick_cfg(lr=1e200, epochs=5), g)
    assert exc.value.epoch >= 1


def test_train_rejects_wrong_dataset_kind():
    g = sbm(seed=13)
    ds = GraphSet(graphs=[g], y=np.zeros((1, 1)),
                  masks={"train": [1], "val": [1], "test": [1]})
    with pytest.raises(ConfigError):
        train_run(quick_cfg(), ds)
    with pytest.raises(ConfigError):
        train_run(quick_cfg(task="graph_reg", loss="mse", metric="mae"), g)


def test_train_missing_masks_reported():
    g = sbm(seed=14)
    g.masks = {"train": g.masks["train"]}
    with pytest.raises(ConfigError) as exc:
        train_run(quick_cfg(), g)
    assert any("val" in m for m in exc.value.messages)
    assert any("test" in m for m in exc.value.messages)


# ------------------------------------------------------- ablation and gradients

ABLATION_CASES = ("node", "graph_set", "edge_linear", "edge_neg_relu")


def ablation_case(case: str):
    """(eegnn model with zero exit heads, its dataset, the plain sas model
    that shares its cell parameters at tau 0.5) on a node task, a graph set,
    or a node task with an edge term.

    Zero heads give equal exit logits at every layer, so c_soft is exactly
    [0.5, 0.5] and the argmax continues: every agent steps with tau 0.5 for
    the whole depth, as the sas model does without exits.
    """
    if case == "graph_set":
        members = [gen_minesweeper_grid(3, 4, 0.3, seed=s) for s in range(6)]
        for g in members:
            g.y, g.masks = None, None
        idx = np.arange(6)
        data = GraphSet(graphs=members, y=(idx % 2).reshape(-1, 1).astype(float),
                        masks={"train": idx < 2, "val": idx == 2, "test": idx > 2})
        cfg = quick_cfg(model="eegnn", task="graph_class", depth=6)
    else:
        data = sbm(seed=15)
        edge_mode = "zero" if case == "node" else case[len("edge_"):]
        if edge_mode != "zero":
            data.E_feat = (data.X[arc_rows(data)] + data.X[data.col_indices])[:, :2]
        cfg = quick_cfg(model="eegnn", depth=6, edge_mode=edge_mode)
    model = model_for(cfg, data, np.random.Generator(np.random.PCG64(3)))
    for _, p in model.heads.parameters():
        p.value[...] = 0.0
    twin = dataclasses.replace(model, heads=None,
                               cfg=dataclasses.replace(cfg, model="sas", tau=0.5),
                               params=dataclasses.replace(model.params, tau=0.5))
    return model, data, twin


@pytest.mark.parametrize("case", ABLATION_CASES)
def test_eegnn_with_even_exit_logits_matches_plain_sas_bitwise(case):
    model, data, twin = ablation_case(case)
    ops = operators_for(model, data)
    ablated, state = forward_node(model, ops)
    plain, _ = forward_node(twin, operators_for(twin, data))
    assert ablated.value.tobytes() == plain.value.tobytes()
    _, _, recs = eegnn_forward_node(ops, model.params, model.heads, model.cfg.depth,
                                    mode="eval_argmax")
    assert not state.exited.any() and len(recs) == model.cfg.depth
    assert all(r["mean_tau"] == 0.5 and r["new_exits"] == 0 for r in recs)


def test_end_to_end_gradient_matches_fd_with_frozen_noise():
    g = sbm(seed=16, n=10, m=4)
    cfg = quick_cfg(model="eegnn", depth=3, hidden=4, tau=0.9)
    rng = np.random.Generator(np.random.PCG64(4))
    model = build_model(cfg, g.X.shape[1], 2, rng)
    frozen = [rng.gumbel(size=(g.n, 2)) for _ in range(cfg.depth)]
    ops = operators_for(model, g)

    def loss():
        logits, _ = forward_node(model, ops, "train_sample", noise=frozen)
        return loss_eval(logits, g.y, "ce", mask=g.masks["train"])

    named = model.parameters()
    assert ad.fd_check(loss, [p for _, p in named]) <= 1e-4


def test_sampled_forward_without_noise_or_generator_names_it():
    g = sbm(seed=16)
    model = model_for(quick_cfg(model="eegnn"), g, np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs noise or a generator rng"):
        forward_node(model, operators_for(model, g), "train_sample")


def test_only_training_forwards_record_a_tape(monkeypatch, tmp_path):
    from eegnn import cli, training
    seen = []
    original = training.forward_node

    def spy(model, ops, mode="eval_argmax", *args, **kwargs):
        seen.append((mode, ad._taping))
        return original(model, ops, mode, *args, **kwargs)

    monkeypatch.setattr(training, "forward_node", spy)
    monkeypatch.setattr(cli, "forward_node", spy)
    g = sbm(seed=17)
    cfg = quick_cfg(model="eegnn", epochs=2)
    model, _ = train_run(cfg, g)
    evaluate(model, g)
    cli._metric_bundle(model, g)
    assert seen == [("train_sample", True), ("eval_argmax", False)] * 2 \
        + [("eval_argmax", False)] * 2
    assert ad._taping


def test_sampled_forward_tapes_only_what_the_loss_reads(monkeypatch):
    g = gen_minesweeper_grid(5, 5, 0.2, seed=0, unknown_frac=0.5)
    model = model_for(quick_cfg(model="eegnn", depth=4), g, np.random.default_rng(0))
    model.heads.fc_out[1].value[...] = [[50.0, -50.0]]     # never exit
    taped = []
    node = ad._node

    def recorded(*args):
        out = node(*args)
        if out.backward_rule is not None:     # a node on the tape
            taped.append(out)
        return out

    monkeypatch.setattr(ad, "_node", recorded)
    logits, state = forward_node(model, operators_for(model, g), "train_sample",
                                 np.random.default_rng(1))
    assert not state.exited.any()
    loss = loss_eval(logits, g.y, "ce", mask=g.masks["train"])
    reached = {id(n) for n in ad._topo_order(loss)}
    assert [n for n in taped if id(n) not in reached] == []


@pytest.mark.parametrize("exit_depth", [1, 2])
def test_node_exit_training_step_runs_one_transposed_head_product_per_layer(
        monkeypatch, exit_depth):
    from eegnn import exits
    g = sbm(seed=18)
    model = model_for(quick_cfg(model="eegnn", depth=6, exit_depth=exit_depth), g,
                      np.random.default_rng(2))
    # no node exits, so every layer's heads reach the loss through tau
    model.heads.fc_out[1].value[...] = [[50.0, -50.0]]
    ops = operators_for(model, g)
    layers, products = [], []
    spmm, heads = ad._spmm_value, exits.confidence_logits

    def spy_spmm(a, H, transpose=False):
        products.append((a is ops.ma, transpose))
        return spmm(a, H, transpose)

    def spy_heads(*args, **kwargs):
        layers.append(1)
        return heads(*args, **kwargs)

    monkeypatch.setattr(ad, "_spmm_value", spy_spmm)
    monkeypatch.setattr(exits, "confidence_logits", spy_heads)
    logits, _ = forward_node(model, ops, "train_sample", np.random.default_rng(3))
    ad.backward(loss_eval(logits, g.y, "ce", mask=g.masks["train"]), release=True)
    # the first head layer's product is shared by both heads; a deeper head
    # layer of each head makes its own
    assert len(layers) == 6
    assert products.count((True, True)) == 6 * (2 * exit_depth - 1)


@pytest.mark.parametrize("kind,built", [("sas", (1, 1)), ("eegnn", (1, 1)),
                                        ("graff", (0, 2)), ("adgn", (1, 0))])
def test_constrained_weights_are_built_once_per_forward(monkeypatch, kind, built):
    from eegnn import cells
    g = sbm(seed=19)
    model = model_for(quick_cfg(model=kind, depth=5), g, np.random.default_rng(4))
    ops = operators_for(model, g)
    calls = {"antisymmetrize": 0, "symmetrize": 0}
    for name in calls:
        def counted(m, name=name, original=getattr(cells, name)):
            calls[name] += 1
            return original(m)
        monkeypatch.setattr(cells, name, counted)
    for mode in ("train_sample", "eval_argmax"):
        calls.update(antisymmetrize=0, symmetrize=0)
        forward_node(model, ops, mode, np.random.default_rng(5))
        assert (calls["antisymmetrize"], calls["symmetrize"]) == built, mode


@pytest.mark.parametrize("kind", [*MODEL_KINDS, "eegnn_stop"])
def test_every_kind_takes_one_step_call_per_layer_run(monkeypatch, kind):
    """cells.propagate is the one layer loop: counting the step functions
    it calls counts every layer of a forward, eegnn's included; a forward
    whose agents all exit at layer 0 takes none."""
    from eegnn import cells
    g = sbm(seed=20)
    model = model_for(quick_cfg(model=kind.split("_")[0], depth=4), g,
                      np.random.default_rng(6))
    if kind == "eegnn_stop":
        model.heads.fc_out[1].value[...] = [[-50.0, 50.0]]
    calls = []
    for name in ("sas_step", "baseline_step"):
        def counted(*args, original=getattr(cells, name), **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(cells, name, counted)
    for mode in ("train_sample", "eval_argmax"):
        calls.clear()
        _, state = forward_node(model, operators_for(model, g), mode,
                                np.random.default_rng(7))
        # a stop comes at the layer where the last agent exits
        run = 4 if state is None else int(state.exit_layer.max())
        assert len(calls) == run, mode
        assert run == 0 or kind != "eegnn_stop"


@pytest.mark.parametrize("kind", ["sas", "graff", "eegnn"])
def test_a_tape_free_forward_holds_one_state_at_a_time(monkeypatch, kind):
    """Without capture and without a tape, a layer's state is freed once the
    next one is made: when a step runs, every earlier step's output but the
    state it steps from is already dead."""
    import weakref
    from eegnn import cells
    g = sbm(seed=20)
    model = model_for(quick_cfg(model=kind, depth=5), g, np.random.default_rng(6))
    if kind == "eegnn":         # no agent exits, so every layer runs
        model.heads.fc_out[1].value[...] = [[50.0, -50.0]]
    made = []
    for name in ("sas_step", "baseline_step"):
        def watched(H, *args, original=getattr(cells, name), **kwargs):
            assert all(ref() is None for ref in made[:-1])
            assert not made or made[-1]() is H
            out = original(H, *args, **kwargs)
            made.append(weakref.ref(out))
            return out
        monkeypatch.setattr(cells, name, watched)
    with ad.no_grad():
        forward_node(model, operators_for(model, g), "eval_argmax")
    assert len(made) == 5


# ------------------------------------------------------------------- artefacts

def test_history_csv_format():
    rows = [(0, 0.5, 0.25, 0.125, 3.0), (1, 0.375, 0.5, 0.25, 2.5)]
    text = history_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "epoch,train_loss,val_metric,test_metric,mean_exit_layer"
    assert lines[1] == "0,0.5,0.25,0.125,3.0"
    assert text.endswith("\n")


def test_exit_csv_selects_and_labels_by_agent_id():
    st = ExitState(exit_layer=np.array([1, 0, 4]),
                   exit_time=np.array([0.5, 0.0, 2.0]), L=4)
    text = exit_csv(st, agent_ids=[2, 0])
    assert text.splitlines() == ["agent_id,exit_layer,exit_time",
                                 "2,4,2.0", "0,1,0.5"]


def test_checkpoint_round_trip(tmp_path):
    g = sbm(seed=17)
    model, _ = train_run(quick_cfg(model="eegnn", epochs=4), g)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == model.cfg
    for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert np.array_equal(a.value, b.value)
    assert evaluate(loaded, g) == evaluate(model, g)


def test_checkpoint_with_retired_eval_sample_key_loads(tmp_path):
    g = sbm(seed=17)
    model, _ = train_run(quick_cfg(epochs=2), g)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["config"]["eval_sample"] = False
    path.write_text(json.dumps(payload))
    loaded = load_checkpoint(path)
    assert loaded.cfg == model.cfg
    assert evaluate(loaded, g) == evaluate(model, g)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"eval_sample": False})


def test_checkpoint_rejects_tampered_params(tmp_path):
    g = sbm(seed=18)
    model, _ = train_run(quick_cfg(epochs=2), g)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    first = next(iter(payload["params"]))
    payload["params"][first] = [[0.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_load_dataset_single_graph_round_trip(tmp_path):
    g = sbm(seed=19)
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_dataset(path)
    assert np.array_equal(back.col_indices, g.col_indices)
    assert np.array_equal(back.y, g.y)


def test_load_dataset_graph_set(tmp_path):
    g = sbm(seed=20)
    path = tmp_path / "g.json"
    save_graph(g, path)
    entry = json.loads(path.read_text())
    for key in ("y", "masks"):
        entry.pop(key, None)
    ds_payload = {"graphs": [entry, entry], "y": [[0.5], [1.5]],
                  "masks": {"train": [1, 0], "val": [0, 1], "test": [0, 1]}}
    ds_path = tmp_path / "set.json"
    ds_path.write_text(json.dumps(ds_payload))
    ds = load_dataset(ds_path)
    assert isinstance(ds, GraphSet)
    assert len(ds.graphs) == 2
    assert ds.y.shape == (2, 1)
