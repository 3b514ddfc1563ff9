"""End-to-end golden runs: graph-set training, the node-task edge term, and
node-task eegnn training with its exits; and graph sets run as one disjoint
union, checked against a per-graph oracle.

The pinned reprs guard the forward paths against any change of output, down
to the last bit: a refactor of the layer loop, the operator setup, the
sparse product or the eval passes must leave every history row and
evaluation record exactly as it was.
"""

import json

import numpy as np
import pytest

import eegnn
import oracles
from eegnn import autodiff as ad
from eegnn import graphs
from eegnn import cells, cli
from eegnn.config import RunConfig
from eegnn.exits import eegnn_forward_node, sample_gumbel
from eegnn.graphs import degrees, gen_minesweeper_grid, gen_sbm, make_graph
from eegnn.training import GraphSet, build_model, evaluate, forward_node, \
    loss_eval, operators_for, train_run


def _connected(g) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.col_indices[g.row_offsets[v]:g.row_offsets[v + 1]]:
            if int(u) not in seen:
                seen.add(int(u))
                frontier.append(int(u))
    return len(seen) == g.n


def graph_set(task: str, n_graphs: int = 12) -> GraphSet:
    """Connected 10-node SBM graphs; class = assortative vs disassortative."""
    members, labels = [], []
    seed = 0
    while len(members) < n_graphs:
        cls = len(members) % 2
        p_in, p_out = (0.8, 0.2) if cls == 0 else (0.3, 0.7)
        g = gen_sbm((5, 5), p_in, p_out, seed=1000 + seed, feature_dim=4)
        seed += 1
        if not _connected(g):
            continue
        g.y, g.masks = None, None
        members.append(g)
        labels.append(float(cls) if task == "graph_class"
                      else float(degrees(g).mean()))
    idx = np.arange(n_graphs)
    masks = {"train": idx < 6, "val": (idx >= 6) & (idx < 9), "test": idx >= 9}
    return GraphSet(graphs=members, y=np.array(labels).reshape(-1, 1), masks=masks)


def edge_graph():
    """16-node ring with chords, two edge features per edge, two classes."""
    rng = np.random.default_rng(5)
    n = 16
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 5) for i in range(0, 10, 3)]
    y = np.repeat([0, 1], n // 2)
    X = rng.normal(size=(n, 4)) + y[:, None]
    n_edges = len({(min(u, v), max(u, v)) for u, v in edges})
    masks = {"train": np.arange(n) % 2 == 0, "val": np.arange(n) % 4 == 1,
             "test": np.arange(n) % 4 == 3}
    return make_graph(edges, n, X, E_edge=rng.normal(size=(n_edges, 2)),
                      y=y, masks=masks)


def cfg_for(task, model, **kw):
    loss, metric = ("ce", "accuracy") if task != "graph_reg" else ("mse", "mae")
    base = dict(task=task, model=model, depth=3, hidden=6, tau=0.5, epochs=3,
                loss=loss, metric=metric, lr=1e-2, seed=0)
    base.update(kw)
    return RunConfig.from_dict(base)


# repr of every history row, and of evaluate(model, data)["value"], at the
# reference revision; the graph-set rows since graph sets run as one
# disjoint union, which drew eegnn's exit noise in a new order, since
# pooling sums each graph's nodes by the kit's summation rule, and since spmm
# scales rows by the degree factors instead of weighting arcs
GOLDEN = {
    ('graph_class', 'sas'): (
        [
            '(0, 0.9445274638179836, 0.6666666666666666, 0.0, 3.0)',
            '(1, 0.8228545352249614, 0.0, 0.0, 3.0)',
            '(2, 0.7200078048880539, 0.0, 0.0, 3.0)',
        ],
        '0.0'),
    ('graph_class', 'eegnn'): (
        [
            '(0, 0.568644355926256, 0.6666666666666666, 0.0, 2.0)',
            '(1, 0.5317181999547936, 0.0, 0.0, 2.3333333333333335)',
            '(2, 0.7115622682896874, 0.0, 0.0, 2.0)',
        ],
        '0.0'),
    ('graph_class', 'gcn'): (
        [
            '(0, 0.6869234127897882, 0.3333333333333333, 0.6666666666666666, 3.0)',
            '(1, 0.6804980247730512, 0.3333333333333333, 0.6666666666666666, 3.0)',
            '(2, 0.6765962861061364, 0.3333333333333333, 0.6666666666666666, 3.0)',
        ],
        '0.6666666666666666'),
    ('graph_reg', 'sas'): (
        [
            '(0, 16.153457938537716, 3.4793031048139524, 4.07519598089482, 3.0)',
            '(1, 14.374441516059763, 3.2466141190273228, 3.8503094165075797, 3.0)',
            '(2, 12.61748492679201, 3.004111911634093, 3.6147858218903237, 3.0)',
        ],
        '3.6147858218903237'),
    ('graph_reg', 'eegnn'): (
        [
            '(0, 20.851493066666976, 4.135422600372536, 4.6143750804487, 1.3333333333333333)',
            '(1, 20.66434532765775, 3.648565554347485, 4.147497712313752, 2.3333333333333335)',
            '(2, 18.272815709306954, 3.2145269702054815, 3.6237310021359654, 2.6666666666666665)',
        ],
        '3.6237310021359654'),
    ('graph_reg', 'gcn'): (
        [
            '(0, 23.98579906066639, 4.478355649084852, 4.88515319583162, 3.0)',
            '(1, 23.553085568297423, 4.458548532024986, 4.852743359116243, 3.0)',
            '(2, 23.25105948616276, 4.44010856822361, 4.822689325168101, 3.0)',
        ],
        '4.822689325168101'),
    ('node_class', 'sas_neg_relu'): (
        [
            '(0, 0.9900144531019757, 0.5, 0.5, 3.0)',
            '(1, 0.9224390611586164, 0.5, 0.5, 3.0)',
            '(2, 0.8587720150921943, 0.5, 0.5, 3.0)',
        ],
        '0.5'),
}


@pytest.mark.parametrize("task", ["graph_class", "graph_reg"])
@pytest.mark.parametrize("model", ["sas", "eegnn", "gcn"])
def test_graph_set_training_is_pinned(task, model):
    ds = graph_set(task)
    trained, history = train_run(cfg_for(task, model), ds)
    got = ([repr(row) for row in history], repr(evaluate(trained, ds)["value"]))
    assert got == GOLDEN[(task, model)]


def test_node_edge_term_training_is_pinned():
    g = edge_graph()
    trained, history = train_run(cfg_for("node_class", "sas", edge_mode="neg_relu"), g)
    got = ([repr(row) for row in history], repr(evaluate(trained, g)["value"]))
    assert got == GOLDEN[("node_class", "sas_neg_relu")]


# repr of every history row, and of the whole evaluate(model, g) record, at
# the reference revision (the grid's since spmm scales rows by the degree
# factors); the grid has degrees 3, 5 and 8, the block model mixes rows of
# degree up to 8 with rows of higher degree
EEGNN_NODE_GOLDEN = {
    "grid": (
        [
            '(0, 0.5839041636615268, 0.7083333333333334, 0.32142857142857145, 1.1875)',
            '(1, 0.5426220377686738, 0.3645833333333333, 0.35714285714285715, 2.125)',
            '(2, 0.6025201479982406, 0.4479166666666667, 0.35714285714285715, 2.4375)',
            '(3, 0.5800344873743111, 0.34375, 0.35714285714285715, 2.125)',
        ],
        "{'split': 'test', 'mode': 'eval_argmax', 'metric': 'auroc', "
        "'value': 0.32142857142857145, 'loss': 0.5622768289911602, "
        "'mean_exit_layer': 1.1875, 'exit': {'min_layer': 0, 'median_layer': 0.0, "
        "'max_layer': 4, 'mean_time': 0.7183877188931483, "
        "'histogram': [45, 0, 0, 0, 19]}}"),
    "sbm": (
        [
            '(0, 1.2408497283256088, 0.5, 0.5, 0.4583333333333333)',
            '(1, 1.2527687975772324, 0.5, 0.3333333333333333, 0.25)',
            '(2, 1.1763452731111688, 0.5, 0.3333333333333333, 0.3333333333333333)',
            '(3, 1.1012248221805327, 0.5, 0.3333333333333333, 0.125)',
        ],
        "{'split': 'test', 'mode': 'eval_argmax', 'metric': 'accuracy', "
        "'value': 0.5, 'loss': 0.9465597592747974, "
        "'mean_exit_layer': 0.4583333333333333, 'exit': {'min_layer': 0, "
        "'median_layer': 0.0, 'max_layer': 4, 'mean_time': 0.23904098962086592, "
        "'histogram': [19, 1, 3, 0, 1]}}"),
}


def eegnn_node_case(name):
    base = dict(model="eegnn", depth=4, hidden=8, exit_hidden=8, epochs=4,
                lr=1e-2, seed=3)
    if name == "grid":
        return gen_minesweeper_grid(8, 8, 0.2, seed=1), RunConfig.from_dict(base)
    g = gen_sbm((12, 12), 0.5, 0.1, seed=2, feature_dim=4)
    return g, RunConfig.from_dict(dict(base, metric="accuracy", tau=0.5))


@pytest.mark.parametrize("name", ["grid", "sbm"])
def test_node_eegnn_training_is_pinned(name):
    g, cfg = eegnn_node_case(name)
    trained, history = train_run(cfg, g)
    got = ([repr(row) for row in history], repr(evaluate(trained, g)))
    assert got == EEGNN_NODE_GOLDEN[name]


# Captured before node-mode exits stopped at the last exit, and the
# train_sample mean_time since spmm scales rows by the degree factors; in
# every training forward of this run all nodes exit before the last layer.
EARLY_STOP_GOLDEN = (
    [
        '(0, 0.5748682147145374, 1.0, 0.625, 0.0)',
        '(1, 0.5597865338169634, 1.0, 0.625, 0.0)',
        '(2, 0.5413430711730557, 1.0, 0.75, 0.0)',
        '(3, 0.5279667207721, 1.0, 0.75, 0.0)',
    ],
    "{'split': 'test', 'mode': 'eval_argmax', 'metric': 'auroc', 'value': 0.625, "
    "'loss': 0.9905783757625186, 'mean_exit_layer': 0.0, 'exit': {'min_layer': 0, "
    "'median_layer': 0.0, 'max_layer': 0, 'mean_time': 0.0, "
    "'histogram': [24, 0, 0, 0, 0, 0, 0]}}",
    "{'split': 'test', 'mode': 'train_sample', 'metric': 'auroc', 'value': 0.625, "
    "'loss': 0.9862575054118363, 'mean_exit_layer': 0.16666666666666666, "
    "'exit': {'min_layer': 0, 'median_layer': 0.0, 'max_layer': 1, "
    "'mean_time': 0.10270339696253646, 'histogram': [20, 4, 0, 0, 0, 0, 0]}}",
)


def test_node_eegnn_training_stopping_early_is_pinned(monkeypatch):
    g = gen_sbm((12, 12), 0.5, 0.1, seed=2, feature_dim=4)
    cfg = RunConfig.from_dict(dict(model="eegnn", depth=6, hidden=8, exit_hidden=8,
                                   epochs=4, lr=1e-2, seed=1))
    runs = []
    forward = eegnn.exits.eegnn_forward_node

    def recorded(*args, **kwargs):
        out = forward(*args, **kwargs)
        runs.append((args[5], len(out[2])))
        return out

    monkeypatch.setattr(eegnn.training, "eegnn_forward_node", recorded)
    trained, history = train_run(cfg, g)
    train_layers = [n for mode, n in runs if mode == "train_sample"]
    assert len(train_layers) == cfg.epochs
    assert max(train_layers) < cfg.depth          # every training forward stopped
    got = ([repr(row) for row in history], repr(evaluate(trained, g)),
           repr(evaluate(trained, g, mode="train_sample")))
    assert got == EARLY_STOP_GOLDEN


def test_full_depth_eegnn_forward_makes_two_spmm_per_layer(monkeypatch):
    g, cfg = eegnn_node_case("sbm")
    model = build_model(cfg, g.X.shape[1], 2, np.random.default_rng(0))
    ops = operators_for(model, g)
    model.heads.fc_out[1].value[...] = [[50.0, -50.0]]     # never exit
    calls = _count_calls(monkeypatch, graphs.spmm)
    _, state, recs = eegnn_forward_node(ops, model.params, model.heads, cfg.depth,
                                        mode="eval_argmax")
    assert not state.exited.any() and len(recs) == cfg.depth
    # one for the cell step, one mean aggregate shared by both exit heads
    assert len(calls) == 2 * cfg.depth


def _count_calls(monkeypatch, original) -> list:
    """Count calls of a function under every module binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (eegnn.graphs, eegnn.autodiff, eegnn.cells, eegnn.exits,
                eegnn.training, eegnn.diagnostics, eegnn.cli):
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_one_eval_forward_per_epoch_and_after_training(monkeypatch, tmp_path):
    g, cfg = eegnn_node_case("grid")
    data = tmp_path / "graph.json"
    graphs.save_graph(g, data)
    conf = tmp_path / "cfg.json"
    conf.write_text(json.dumps(cfg.read_dict()))
    encodes = _count_calls(monkeypatch, cells.encode)
    assert cli.main(["train", "--config", str(conf), "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 0
    # per epoch one sampled training forward and one eval forward for val and
    # test; then one forward for metrics.json and exits.csv together
    assert len(encodes) == 2 * cfg.epochs + 1


@pytest.mark.parametrize("task", ["graph_class", "graph_reg"])
def test_graph_set_one_eval_forward_per_epoch(monkeypatch, task):
    ds = graph_set(task)
    encodes = _count_calls(monkeypatch, cells.encode)
    train_run(cfg_for(task, "sas"), ds)
    # one sampled training forward and one eval forward per epoch, each
    # encoding the whole set as one union
    assert len(encodes) == 2 * 3
    assert all(args[0].shape[0] == sum(g.n for g in ds.graphs) for args in encodes)


@pytest.mark.parametrize("model", ["sas", "eegnn"])
def test_graph_set_operators_built_once_per_run(monkeypatch, model):
    ds = graph_set("graph_class")
    calls = _count_calls(monkeypatch, graphs.norm_adj)
    trained, _ = train_run(cfg_for("graph_class", model), ds)
    assert len(calls) == 1
    assert calls[0][0].n == sum(g.n for g in ds.graphs)
    calls.clear()
    evaluate(trained, ds)
    assert len(calls) == 1


@pytest.mark.parametrize("model", ["sas", "eegnn"])
def test_graph_set_train_returns_best_validation_snapshot(model):
    ds = graph_set("graph_class")
    trained, history = train_run(cfg_for("graph_class", model, epochs=8), ds)
    best = max(row[2] for row in history)
    assert evaluate(trained, ds, split="val")["value"] == best


def graph_set_file(ds: GraphSet, path) -> str:
    """ds as a graph-set JSON file, each member in save_graph's format."""
    entries = []
    for g in ds.graphs:
        graphs.save_graph(g, path)
        entries.append(json.loads(path.read_text()))
    masks = {k: [bool(b) for b in m] for k, m in ds.masks.items()}
    path.write_text(json.dumps({"graphs": entries, "y": ds.y.tolist(), "masks": masks}))
    return str(path)


@pytest.mark.parametrize("model", ["sas", "eegnn"])
def test_cli_train_then_evaluate_on_a_graph_set(tmp_path, model):
    data = graph_set_file(graph_set("graph_class"), tmp_path / "set.json")
    conf = tmp_path / "cfg.json"
    conf.write_text(json.dumps(cfg_for("graph_class", model, epochs=4).read_dict()))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert cli.main(["train", "--config", str(conf), "--data", data,
                         "--out", str(out)]) == 0
    for name in ("history.csv", "checkpoint.json", "metrics.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    assert cli.main(["evaluate", "--data", data, "--checkpoint",
                     str(runs[0] / "checkpoint.json"), "--out",
                     str(tmp_path / "eval")]) == 0
    trained = json.loads((runs[0] / "metrics.json").read_text())
    evaluated = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert evaluated["value"] == trained["value"]


def edge_graph_set() -> GraphSet:
    """graph_set's members with two edge features per arc, equal on both
    arcs of an edge."""
    ds = graph_set("graph_class")
    for g in ds.graphs:
        g.E_feat = (g.X[graphs.arc_rows(g)] + g.X[g.col_indices])[:, :2]
    return ds


ORACLE_CASES = [(m, "zero") for m in ("sas", "gcn", "graff", "adgn", "eegnn")] \
    + [("sas", "linear"), ("eegnn", "neg_relu")]


def test_union_bundle_pools_members_of_unequal_size():
    members = [gen_minesweeper_grid(r, c, 0.2, seed=r * c)
               for r, c in [(2, 3), (3, 3), (2, 2), (4, 3)]]
    for g in members:
        g.y, g.masks = None, None
    idx = np.arange(len(members))
    ds = GraphSet(graphs=members, y=(idx % 2).reshape(-1, 1).astype(float),
                  masks={"train": idx < 2, "val": idx == 2, "test": idx == 3})
    width = members[0].X.shape[1]
    model = build_model(cfg_for("graph_class", "sas"), width, 2, np.random.default_rng(0))
    ops = operators_for(model, ds)
    H = np.random.default_rng(1).normal(size=(ops.X.shape[0], 3))
    start = np.cumsum([0] + [g.n for g in members])
    want = [oracles.segment_sum_loop(H[lo:hi], [0, hi - lo])[0] / (hi - lo)
            for lo, hi in zip(start, start[1:])]
    assert ad.segment_mean(ad.constant(H), ops.seg).value.tobytes() \
        == np.array(want).tobytes()


@pytest.mark.parametrize("mode", ["eval_argmax", "train_sample"])
@pytest.mark.parametrize("model,edge_mode", ORACLE_CASES)
def test_union_forward_matches_the_per_graph_oracle(model, edge_mode, mode):
    ds = graph_set("graph_class") if edge_mode == "zero" else edge_graph_set()
    cfg = cfg_for("graph_class", model, depth=6, edge_mode=edge_mode)
    # inits whose untrained eegnn heads exit graphs at several layers
    seed, edge_dim = (0, 0) if edge_mode == "zero" else (5, 2)
    trained = build_model(cfg, 4, 2, np.random.default_rng(seed), edge_dim=edge_dim)
    noise = [sample_gumbel((len(ds.graphs), 2), np.random.default_rng(100 + l))
             for l in range(cfg.depth)]
    states, pooled, logits, layers, times = oracles.graph_set_forward_per_graph(
        trained, ds.graphs, mode, noise)
    ops = operators_for(trained, ds)
    captured = []
    with ad.no_grad():
        out, state = forward_node(trained, ops, mode, noise=noise,
                                  capture=captured)
    # the decoder reads one row per graph in the oracle and all rows at once
    # here, and BLAS rounds a one-row product differently
    assert np.abs(out.value - logits).max() <= 1e-13 * np.abs(logits).max()
    if model != "eegnn":
        # the union's rows are its members' rows, bit for bit
        union = np.vstack(states)
        assert captured[-1].value.tobytes() == union.tobytes()
        assert ad.segment_mean(ad.constant(union), ops.seg).value.tobytes() \
            == pooled.tobytes()
        return
    # the heads read one pooled row in the oracle and all rows here, so tau,
    # and with it every later state, agree to rounding; the exits are equal
    assert layers.min() < layers.max()      # frozen and stepping graphs mix
    assert np.array_equal(state.exit_layer, layers)
    with ad.no_grad():
        Z, _, _ = eegnn_forward_node(ops, trained.params, trained.heads, cfg.depth,
                                     mode=mode, noise=noise)
    assert np.abs(Z.value - pooled).max() <= 1e-13 * np.abs(pooled).max()
    assert np.abs(state.exit_time - times).max() <= 1e-13 * cfg.depth


def test_batched_graph_loss_gradients_match_fd():
    ds = graph_set("graph_reg")
    cfg = cfg_for("graph_reg", "eegnn", depth=3, hidden=4, tau=0.9)
    rng = np.random.Generator(np.random.PCG64(4))
    trained = build_model(cfg, 4, 1, rng)
    frozen = [rng.gumbel(size=(len(ds.graphs), 2)) for _ in range(cfg.depth)]
    ops = operators_for(trained, ds)
    out, state = forward_node(trained, ops, "train_sample", noise=frozen)
    assert state.exit_layer.min() < state.exit_layer.max()

    def loss():
        logits, _ = forward_node(trained, ops, "train_sample", noise=frozen)
        return loss_eval(logits, ds.y, "mse", mask=ds.masks["train"])

    assert ad.fd_check(loss, [p for _, p in trained.parameters()]) <= 1e-4


def test_isolated_node_is_named_by_member_and_local_index(tmp_path, capsys):
    ds = graph_set("graph_class")
    lone = make_graph([(0, 1), (1, 2)], 4, np.ones((4, 4)))
    ds.graphs[5] = lone
    with pytest.raises(ValueError, match="graph 5: isolated node 3 "):
        train_run(cfg_for("graph_class", "sas"), ds)
    data = graph_set_file(ds, tmp_path / "set.json")
    conf = tmp_path / "cfg.json"
    conf.write_text(json.dumps(cfg_for("graph_class", "sas").read_dict()))
    assert cli.main(["train", "--config", str(conf), "--data", data,
                     "--out", str(tmp_path / "run")]) == 1
    assert "graph 5: isolated node 3 " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_graph_set_step_sums_each_members_tau_gradient_by_the_rule(monkeypatch):
    # members of 3 to 15 nodes: each member's tau reaches all its nodes, and
    # its gradient sums theirs back by the kit's rule, bit for bit
    members, seed = [], 0
    while len(members) < 24:
        a = 1 + len(members) % 7
        g = gen_sbm((a, a + 1), 0.9, 0.4, seed=300 + seed, feature_dim=4)
        seed += 1
        if degrees(g).min() > 0:
            g.y, g.masks = None, None
            members.append(g)
    idx = np.arange(len(members))
    ds = GraphSet(graphs=members, y=(idx % 2).reshape(-1, 1).astype(float),
                  masks={"train": idx % 3 == 0, "val": idx % 3 == 1, "test": idx % 3 == 2})
    cfg = cfg_for("graph_class", "eegnn", depth=4, hidden=8)
    trained = build_model(cfg, 4, 2, np.random.default_rng(0))
    ops = operators_for(trained, ds)
    sizes = np.diff(ops.seg.offsets)
    assert sizes.min() == 3 and sizes.max() == 15
    spreads = []

    def recorded(A, seg):
        out = spread(A, seg)
        spreads.append((A, out))
        return out

    spread = ad.segment_spread
    monkeypatch.setattr(ad, "segment_spread", recorded)
    logits, _ = forward_node(trained, ops, "train_sample",
                             noise=[np.zeros((len(members), 2))] * cfg.depth)
    ad.backward(loss_eval(logits, ds.y, "ce", mask=ds.masks["train"]))
    assert len(spreads) == cfg.depth
    node_member = np.repeat(idx, sizes)
    moved = 0
    for tau, step in spreads:
        want = oracles.segment_sum_loop(step.grad, ops.seg.offsets)
        assert tau.grad.view(np.int64).tolist() == want.view(np.int64).tolist()
        # node by node into zeros, as a scatter-add sums, rounds differently
        scattered = np.zeros_like(want)
        np.add.at(scattered, node_member, step.grad)
        moved += int((scattered != want).sum())
    assert moved
