"""The benchmark's view of the package: bench/layers.py traces eegnn names by
module attribute and reads the kept eegnn_forward_node result as
(Z, ExitState, records). A rename here would only surface as a failed
`bench/run.py --trace 1`; these tests run the tracer on a small eegnn run
and on one graph-set eegnn epoch.
"""

from pathlib import Path

import numpy as np

import eegnn
from eegnn import diagnostics, training
from eegnn.graphs import degrees, gen_minesweeper_grid, gen_sbm

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans(tracer, name) -> int:
    return sum(tracer.names[tracer.name_id[i]] == name for i in range(len(tracer)))


def test_benchmark_tracer_wraps_and_reads_an_eegnn_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads
    from spans import Tracer, self_times

    original = training.forward_node
    tracer = Tracer(workloads.PACKAGE_MODULES)
    layers.install_all(tracer, eegnn)
    try:
        g = gen_minesweeper_grid(5, 5, 0.2, seed=0, unknown_frac=0.5)
        cfg = training.RunConfig.from_dict({"model": "eegnn", "depth": 3, "hidden": 4,
                                            "epochs": 3, "metric": "accuracy"})
        model, _ = training.train_run(cfg, g)
        training.evaluate(model, g)
        sampled_before = _spans(tracer, "training.forward_node.train")
        training.evaluate(model, g, mode="train_sample")
        sampled_after = _spans(tracer, "training.forward_node.train")
    finally:
        tracer.restore()
    assert training.forward_node is original
    # the tracer reads forward_node's mode from its third positional argument
    assert sampled_after == sampled_before + 1

    kept = tracer.results["eegnn_forward_node"]
    Z, state, records = kept
    assert Z.shape[0] == g.n and state.exit_layer.shape == (g.n,)
    assert state.L == cfg.depth and 1 <= len(records) <= cfg.depth
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    metrics, fired = layers.round_metrics(tracer, eegnn, 0, len(tracer), selfs,
                                          None, kept)
    assert metrics["exits.layers_run"] == len(records)
    assert 0.0 < metrics["exits.useful_layer_ratio"] <= 1.0
    expected = {"exits.eegnn_forward_node", "exits.sample_gumbel",
                "exits.gumbel_softmax_st", "training.forward_node.train",
                "training.forward_node.eval", "training.evaluate", "cells.sas_step"}
    assert expected <= fired


def test_benchmark_tracer_sees_a_graph_set_eegnn_epoch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads
    from spans import Tracer

    members = [g for g in (gen_sbm((3, 3), 0.9, 0.4, seed=s, feature_dim=4)
                           for s in range(12)) if degrees(g).min() > 0][:6]
    idx = np.arange(len(members))
    ds = training.GraphSet(graphs=members, y=(idx % 2).reshape(-1, 1).astype(float),
                           masks={"train": idx < 2, "val": (idx >= 2) & (idx < 4),
                                  "test": idx >= 4})
    cfg = training.RunConfig.from_dict({"task": "graph_class", "model": "eegnn",
                                        "depth": 3, "hidden": 4, "epochs": 1,
                                        "metric": "accuracy"})
    tracer = Tracer(workloads.PACKAGE_MODULES)
    layers.install_all(tracer, eegnn)
    try:
        training.train_run(cfg, ds)
    finally:
        tracer.restore()
    # each member's tau reaches its nodes through one traced op
    for name in ("autodiff.segment_spread", "autodiff.segment_mean",
                 "exits.eegnn_forward_node", "training.forward_node.train"):
        assert _spans(tracer, name) >= 1, name


def test_benchmark_tracer_sees_every_expected_span_of_sensitivity_and_spectrum(
        monkeypatch):
    # the names bench/layers.py requires of the diag-sens-spec workload,
    # fired by a small sensitivity call and a batched spectrum suite
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads
    from spans import Tracer

    g = gen_sbm((3, 3), 0.9, 0.4, seed=0, feature_dim=4)
    cfg = training.RunConfig.from_dict({"depth": 3, "hidden": 4})
    model = training.build_model(cfg, 4, 2, np.random.default_rng(0))
    tracer = Tracer(workloads.PACKAGE_MODULES)
    layers.install_all(tracer, eegnn)
    try:
        diagnostics.sensitivity(model, g, 1)
        diagnostics.spectrum_suite(20, 2, 4, seed=0)
    finally:
        tracer.restore()
    missing = {name for name in layers.EXPECTED["diag-sens-spec"]
               if _spans(tracer, name) == 0}
    assert not missing
    # one eigensolver call per width drawn
    assert _spans(tracer, "eig.eigvals") == _spans(tracer, "diagnostics.sas_jacobian") == 3


def test_benchmark_tracer_runs_a_gcn_and_an_adgn_epoch(monkeypatch):
    # no benchmark workload runs a baseline kind; every step of one is an
    # act_update node, whose bytes the tracer reads as for any op
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads
    from spans import Tracer, self_times

    g = gen_minesweeper_grid(5, 5, 0.2, seed=0, unknown_frac=0.5)
    for kind in ("gcn", "adgn"):
        cfg = training.RunConfig.from_dict({"model": kind, "depth": 3, "hidden": 4,
                                            "epochs": 1, "metric": "accuracy"})
        tracer = Tracer(workloads.PACKAGE_MODULES)
        layers.install_all(tracer, eegnn)
        try:
            training.train_run(cfg, g)
        finally:
            tracer.restore()
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        _, fired = layers.round_metrics(tracer, eegnn, 0, len(tracer), selfs, None, None)
        assert {"cells.baseline_step", "autodiff.act_update"} <= fired, kind
        assert "cells.sas_step" not in fired, kind
