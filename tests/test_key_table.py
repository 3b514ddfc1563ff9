"""The key table, config.KEYS, against what the code does: a key a kind
reads changes its run, a key it does not read exits 1 from the CLI, and the
builders take their defaults from the table."""

import inspect
import json
from dataclasses import MISSING, asdict, fields
from functools import cache
from pathlib import Path

import pytest

from eegnn.cells import CellParams, make_cell_params
from eegnn.cli import main
from eegnn.config import KEYS, MODEL_KINDS, RunConfig, reads
from eegnn.exits import ExitHeads, make_exit_heads
from eegnn.graphs import gen_sbm, save_graph
from eegnn.training import train_run

BASE = {"depth": 3, "hidden": 4, "epochs": 3, "metric": "accuracy", "lr": 0.01}
# a value other than the default for each key that shapes the model
CHANGED = {"tau": 0.5, "sigma1": "tanh", "sigma2": "tanh", "exit_hidden": 3,
           "exit_depth": 2, "nu0": 0.5, "dec_hidden": [3]}


@cache
def graph():
    return gen_sbm([8, 8], 0.7, 0.2, 0, feature_dim=3)


@cache
def trained(kind: str, key: str | None = None):
    """History and parameter bytes of a 3-epoch run, key set to its CHANGED value."""
    doc = {**BASE, "model": kind, **({key: CHANGED[key]} if key else {})}
    model, history = train_run(RunConfig.from_dict(doc), graph())
    return history, [(n, p.value.tobytes()) for n, p in model.parameters()]


def run_cli(argv, tmp_path, doc, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    return code, capsys.readouterr().err, out.exists()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("key", sorted(CHANGED))
def test_a_key_a_kind_reads_shapes_its_run_and_one_it_does_not_exits_1(
        tmp_path, capsys, key, kind):
    if reads(key, {"model": [kind]}):
        assert trained(kind, key) != trained(kind)
        return
    # RunConfig.from_dict still takes the key, and nothing moves
    assert trained(kind, key) == trained(kind)
    data = tmp_path / "graph.json"
    save_graph(graph(), data)
    code, err, created = run_cli(["train", "--data", str(data)], tmp_path,
                                 {**BASE, "model": kind, key: CHANGED[key]}, capsys)
    assert code == 1 and not created
    assert f"config key {key!r} is not read by model {kind!r}" in err


@pytest.mark.parametrize("argv, doc, shown", [
    (["generate"], {"sizes": [4, 4]},
     "config key 'sizes' is not read by dataset 'minesweeper'"),
    (["diagnose", "spectrum"], {"steps": 5},
     "config key 'steps' is not read by diagnostic 'spectrum'"),
    # spectrum and energy_descent draw their own cells: of the training
    # keys they read seed alone
    (["diagnose", "spectrum"], {"depth": 5},
     "config key 'depth' is not read by diagnostic 'spectrum'"),
    (["diagnose", "spectrum"], {"model": "sas"},
     "config key 'model' is not read by diagnostic 'spectrum'"),
    (["diagnose", "energy_descent"], {"epochs": 3},
     "config key 'epochs' is not read by diagnostic 'energy_descent'"),
    (["diagnose", "energy_descent"], {"lr": 0.1},
     "config key 'lr' is not read by diagnostic 'energy_descent'")],
    ids=["generate-minesweeper-sizes", "diagnose-spectrum-steps",
         "diagnose-spectrum-depth", "diagnose-spectrum-model",
         "diagnose-descent-epochs", "diagnose-descent-lr"])
def test_a_command_key_its_selector_does_not_read_exits_1(tmp_path, capsys, argv,
                                                          doc, shown):
    code, err, created = run_cli(argv, tmp_path, doc, capsys)
    assert code == 1 and not created
    assert shown in err


def test_resolved_config_records_the_keys_the_run_reads(tmp_path, capsys):
    data = tmp_path / "graph.json"
    save_graph(graph(), data)
    code, _, _ = run_cli(["train", "--data", str(data)], tmp_path,
                         {**BASE, "model": "eegnn"}, capsys)
    assert code == 0
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    eegnn_keys = {k for k in asdict(RunConfig()) if reads(k, {"model": ["eegnn"]})}
    assert set(resolved) == eegnn_keys | {"data"}
    assert "tau" not in resolved and "nu0" in resolved
    checkpoint = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    assert set(checkpoint["config"]) == set(asdict(RunConfig()))


@pytest.mark.parametrize("name, own", [("spectrum", {"cases": 2}),
                                       ("energy_descent", {"cases": 2, "steps": 3})])
def test_a_model_free_diagnostic_records_seed_and_its_own_keys(tmp_path, capsys,
                                                               name, own):
    code, _, _ = run_cli(["diagnose", name], tmp_path, {**own, "seed": 4}, capsys)
    assert code == 0
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    want = {**own, "seed": 4, "diagnostic": name}
    if name == "energy_descent":
        want["step_tau"] = KEYS["step_tau"].default
    assert resolved == want


RETENTION = {"depths": [1], "epochs": 1, "hidden": 4, "metric": "accuracy"}


@pytest.mark.parametrize("doc, code, shown", [
    ({"kinds": ["eegnn"], "exit_hidden": 3}, 0, None),
    ({"kinds": ["sas", "eegnn"], "tau": 0.5, "exit_hidden": 3}, 0, None),
    ({"kinds": ["gcn"], "tau": 0.5},
     1, "config key 'tau' is not read by kinds ['gcn']"),
    ({"kinds": ["sas"], "model": "eegnn", "exit_hidden": 3},
     1, "config key 'exit_hidden' is not read by kinds ['sas']")],
    ids=["eegnn-exit-heads", "both-sets", "gcn-tau", "model-not-kinds"])
def test_depth_retention_reads_the_keys_of_its_kinds(tmp_path, capsys, doc, code,
                                                     shown):
    """depth_retention trains each of kinds in place of the config's model,
    so a training key is read when any of kinds reads it."""
    data = tmp_path / "graph.json"
    save_graph(graph(), data)
    got, err, created = run_cli(["diagnose", "depth_retention", "--data", str(data)],
                                tmp_path, {**RETENTION, **doc}, capsys)
    if code == 1:
        assert got == 1 and not created and shown in err
        return
    assert got in (0, 3), err  # 3: the retention verdict, not the config
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert {k: resolved[k] for k in doc} == doc
    assert set(resolved) >= {k for k in asdict(RunConfig())
                             if reads(k, {"model": doc["kinds"]})}


def test_readme_names_every_key_of_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [k for k in KEYS if f"`{k}`" not in readme] == []


def test_builder_defaults_are_the_tables():
    """The cell and exit builders state no default of their own: each
    parameter or field named like a key takes that key's default."""
    defaults = {
        "make_cell_params": {n: p.default for n, p in
                             inspect.signature(make_cell_params).parameters.items()},
        "CellParams": {f.name: f.default for f in fields(CellParams)},
        "make_exit_heads": {n: p.default for n, p in
                            inspect.signature(make_exit_heads).parameters.items()},
        "ExitHeads": {f.name: f.default for f in fields(ExitHeads)},
    }
    unset = (inspect.Parameter.empty, MISSING)
    keyed = {builder: {k: v for k, v in d.items() if k in KEYS and v not in unset}
             for builder, d in defaults.items()}
    assert {b: sorted(d) for b, d in keyed.items()} == {
        "make_cell_params": ["dec_hidden", "depth", "edge_dim", "edge_mode",
                             "sigma1", "sigma2", "tau"],
        "CellParams": ["edge_mode", "sigma1", "sigma2", "tau"],
        "make_exit_heads": ["nu0"],
        "ExitHeads": ["nu0"]}
    for builder, d in keyed.items():
        assert d == {k: KEYS[k].default for k in d}, builder


def test_a_key_inert_at_another_keys_value_is_taken_and_changes_nothing(tmp_path,
                                                                         capsys):
    """decoupled_wd while weight_decay is 0, and param-count's edge_dim under
    edge_mode "zero", are taken and leave the run's bytes as they were."""
    runs = [train_run(RunConfig.from_dict({**BASE, "decoupled_wd": flag}), graph())
            for flag in (False, True)]
    (plain, plain_history), (decoupled, decoupled_history) = runs
    assert decoupled_history == plain_history
    assert ([(n, p.value.tobytes()) for n, p in decoupled.parameters()]
            == [(n, p.value.tobytes()) for n, p in plain.parameters()])
    counts = []
    for edge_dim in (0, 5):
        run_dir = tmp_path / f"edge_dim{edge_dim}"
        run_dir.mkdir()
        code, err, _ = run_cli(["param-count"], run_dir,
                               {"model": "sas", "edge_dim": edge_dim}, capsys)
        assert code == 0, err
        doc = json.loads((run_dir / "out" / "counts.json").read_text())
        # counts.json echoes the dimensions it was given; every count is the same
        assert doc.pop("edge_dim") == edge_dim
        counts.append(doc)
    assert counts[0] == counts[1]
