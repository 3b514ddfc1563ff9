"""End-to-end golden runs: graph-set training and the node-task edge term.

The pinned reprs guard the forward paths against any change of output, down
to the last bit: a refactor of the layer loop or the operator setup must
leave every history row and evaluation value exactly as it was.
"""

import numpy as np
import pytest

import eegnn
from eegnn import graphs
from eegnn.graphs import degrees, gen_sbm, make_graph
from eegnn.training import GraphSet, RunConfig, evaluate, train_run


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
# reference revision
GOLDEN = {
    ('graph_class', 'sas'): (
        [
            '(0, 0.9445274638179835, 0.6666666666666666, 0.0, 3.0)',
            '(1, 0.8228545352249614, 0.0, 0.0, 3.0)',
            '(2, 0.7200078048880543, 0.0, 0.0, 3.0)',
        ],
        '0.0'),
    ('graph_class', 'eegnn'): (
        [
            '(0, 0.7338514457727726, 0.6666666666666666, 0.0, 2.0)',
            '(1, 0.8876347542227819, 0.0, 0.0, 1.0)',
            '(2, 0.5639670461610979, 0.0, 0.0, 1.0)',
        ],
        '0.0'),
    ('graph_class', 'gcn'): (
        [
            '(0, 0.6869234127897881, 0.3333333333333333, 0.6666666666666666, 3.0)',
            '(1, 0.6804980247730512, 0.3333333333333333, 0.6666666666666666, 3.0)',
            '(2, 0.6765962861061363, 0.3333333333333333, 0.6666666666666666, 3.0)',
        ],
        '0.6666666666666666'),
    ('graph_reg', 'sas'): (
        [
            '(0, 16.15345793853772, 3.479303104813953, 4.07519598089482, 3.0)',
            '(1, 14.374441516059765, 3.2466141190273228, 3.8503094165075797, 3.0)',
            '(2, 12.617484926792011, 3.004111911634093, 3.6147858218903237, 3.0)',
        ],
        '3.6147858218903237'),
    ('graph_reg', 'eegnn'): (
        [
            '(0, 19.916485597501584, 4.1677857596288765, 4.616938462036553, 1.0)',
            '(1, 19.246680869867323, 3.6287943321799982, 4.139677956931025, 2.3333333333333335)',
            '(2, 17.559715454820395, 3.1859728117324884, 3.685693943494448, 2.6666666666666665)',
        ],
        '3.685693943494448'),
    ('graph_reg', 'gcn'): (
        [
            '(0, 23.985799060666395, 4.478355649084852, 4.88515319583162, 3.0)',
            '(1, 23.553085568297423, 4.458548532024986, 4.852743359116243, 3.0)',
            '(2, 23.251059486162763, 4.44010856822361, 4.822689325168101, 3.0)',
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


def _count_norm_adj(monkeypatch) -> list:
    """Count norm_adj calls under every module binding of the function."""
    original = graphs.norm_adj
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    for mod in (eegnn.graphs, eegnn.cells, eegnn.exits, eegnn.training,
                eegnn.diagnostics):
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("model", ["sas", "eegnn"])
def test_graph_set_operators_built_once_per_member(monkeypatch, model):
    ds = graph_set("graph_class")
    calls = _count_norm_adj(monkeypatch)
    trained, _ = train_run(cfg_for("graph_class", model), ds)
    assert len(calls) == len(ds.graphs)
    assert [id(g) for g in calls] == [id(g) for g in ds.graphs]
    calls.clear()
    evaluate(trained, ds)
    assert len(calls) == len(ds.graphs)
