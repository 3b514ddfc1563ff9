"""Command-line behavior: artifacts, exit codes, precedence, reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegnn
from eegnn.cli import build_parser, main
from eegnn.config import DIAGNOSTICS, RunConfig
from eegnn.diagnostics import sensitivity
from eegnn.graphs import arc_rows, gen_sbm, save_graph
from eegnn.training import model_for


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return main(argv)


def gen_sbm_data(tmp_path, seed=0, sizes=(10, 10), shift=2.0):
    out = tmp_path / f"data{seed}"
    cfg = write_cfg(tmp_path, {
        "dataset": "sbm", "sizes": list(sizes), "p_in": 0.8, "p_out": 0.15,
        "feature_dim": 5, "feature_shift": shift, "seed": seed,
    }, name=f"gen{seed}.json")
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    return out / "graph.json"


def grid900_data(tmp_path):
    """The default 30 x 30 minesweeper grid, written by generate."""
    out = tmp_path / "grid900"
    cfg = write_cfg(tmp_path, {"seed": 0}, name="grid900.json")
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    return out / "graph.json"


TRAIN_CFG = {"model": "sas", "depth": 2, "hidden": 4, "tau": 0.5,
             "epochs": 4, "metric": "accuracy", "lr": 1e-2}
# eegnn's exit heads set its step and gcn takes none, so neither reads tau
UNSTEPPED_CFG = {k: v for k, v in TRAIN_CFG.items() if k != "tau"}


# ------------------------------------------------------------------ generate

def test_generate_minesweeper_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"rows": 6, "cols": 5, "seed": 1})
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n"] == 30
    assert stats["n_arcs"] == 2 * stats["n_edges"]
    assert set(stats["class_balance"]) <= {"0", "1"}
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["rows"] == 6 and resolved["seed"] == 1
    assert (out / "graph.json").exists()


def test_generate_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {"rows": 5, "cols": 5, "seed": 3})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--config", cfg, "--out", str(a)]) == 0
    assert run(["generate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("graph.json", "stats.json", "resolved_config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_pure_communities_have_full_homophily(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"dataset": "sbm", "sizes": [6, 6],
                               "p_in": 1.0, "p_out": 0.0, "seed": 2})
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["edge_homophily"] == 1.0


def test_generate_unknown_keys_rejected_together(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"rows": 5, "colz": 5, "mine_prb": 0.1})
    assert run(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "colz" in err and "mine_prb" in err


def test_generate_bad_parameter_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"mine_prob": 2.0})
    assert run(["generate", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_config_file_overrides_seed_flag(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"rows": 4, "cols": 4, "seed": 7})
    assert run(["generate", "--config", cfg, "--seed", "5",
                "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 7


def test_seed_flag_applies_without_config(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"rows": 4, "cols": 4})
    assert run(["generate", "--config", cfg, "--seed", "5",
                "--out", str(out)]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["seed"] == 5


def test_generate_refuses_isolated_nodes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"dataset": "sbm", "sizes": [4, 4], "p_in": 0.1,
                               "p_out": 0.0, "seed": 1})
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "8 isolated nodes" in err and "node 0" in err
    assert not out.exists()


def test_generate_non_finite_number_is_validation_error(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"dataset": "sbm", "feature_shift": float("inf")})
    assert "Infinity" in Path(cfg).read_text()
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 1
    assert "feature_shift" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ train

def test_train_writes_all_artifacts(tmp_path):
    data = gen_sbm_data(tmp_path)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, TRAIN_CFG, name="train.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(out)]) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,train_loss")
    assert len(history) == TRAIN_CFG["epochs"] + 1
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("value", "accuracy", "macro_f1", "auroc", "ap"):
        assert key in metrics
    assert metrics["split"] == "test"
    assert (out / "checkpoint.json").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["model"] == "sas" and resolved["epochs"] == 4


def test_train_rerun_byte_identical(tmp_path):
    data = gen_sbm_data(tmp_path, seed=4)
    cfg = write_cfg(tmp_path, dict(UNSTEPPED_CFG, model="eegnn"), name="t.json")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["train", "--config", cfg, "--data", str(data),
                    "--out", str(out)]) == 0
    for name in ("resolved_config.json", "history.csv", "checkpoint.json",
                 "metrics.json", "exits.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# run in a child process, so OPENBLAS_NUM_THREADS is read as numpy loads
TRAIN_THEN_EVALUATE = """
import sys
from eegnn.cli import main
data, cfg, out = sys.argv[1:]
rc = main(["train", "--config", cfg, "--data", data, "--out", out + "/run"])
sys.exit(rc or main(["evaluate", "--checkpoint", out + "/run/checkpoint.json",
                     "--data", data, "--out", out + "/eval"]))
"""


def test_train_and_evaluate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS runs small products on one thread whatever the setting, so the
    # run needs the 900-node grid's products to use a second thread at all
    data = grid900_data(tmp_path)
    cfg = write_cfg(tmp_path, {"model": "eegnn", "depth": 4, "hidden": 32,
                               "epochs": 2}, name="t.json")
    path = [str(Path(eegnn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        subprocess.run([sys.executable, "-c", TRAIN_THEN_EVALUATE, str(data), cfg, str(out)],
                       env=env, check=True, timeout=300)
        written[threads] = {name: (out / name).read_bytes() for name in
                            ("run/history.csv", "run/checkpoint.json", "run/metrics.json",
                             "run/exits.csv", "eval/metrics.json")}
    assert written["1"] == written["2"]


def test_a_rerun_into_the_same_out_replaces_every_output_with_its_bytes(tmp_path):
    data = gen_sbm_data(tmp_path, seed=4)
    cfg = write_cfg(tmp_path, dict(UNSTEPPED_CFG, model="eegnn"), name="t.json")
    gen = write_cfg(tmp_path, {"dataset": "sbm", "sizes": [8, 8], "seed": 2},
                    name="g.json")
    commands = {
        "generate": ["generate", "--config", gen],
        "train": ["train", "--config", cfg, "--data", str(data)],
        "evaluate": ["evaluate", "--data", str(data), "--checkpoint",
                     str(tmp_path / "train" / "checkpoint.json")],
        "diagnose": ["diagnose", "dirichlet", "--data", str(data)],
        "param-count": ["param-count"],
    }
    links = tmp_path / "links"
    links.mkdir()
    kept = []
    for rerun in (False, True):
        for name, argv in commands.items():
            assert run(argv + ["--out", str(tmp_path / name)]) == 0
            if not rerun:
                for path in sorted((tmp_path / name).iterdir()):
                    kept.append((path, links / f"{name}-{path.name}"))
                    os.link(*kept[-1])
    assert len(kept) == 15
    for path, link in kept:
        # the link still holds the first run's file; the rerun made a new one
        assert path.read_bytes() == link.read_bytes(), path
        assert not os.path.samefile(link, path), path


def test_train_eegnn_exit_rows_cover_test_split(tmp_path):
    data = gen_sbm_data(tmp_path, seed=5)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, dict(UNSTEPPED_CFG, model="eegnn"), name="t.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(out)]) == 0
    graph = json.loads(data.read_text())
    n_test = int(np.sum(graph["masks"]["test"]))
    rows = (out / "exits.csv").read_text().splitlines()
    assert rows[0] == "agent_id,exit_layer,exit_time"
    assert len(rows) == n_test + 1


def test_train_without_data_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    assert run(["train", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "no dataset" in capsys.readouterr().err


def test_train_missing_data_file_is_runtime_error(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG)
    assert run(["train", "--config", cfg, "--data",
                str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_train_bad_config_value_is_validation_error(tmp_path, capsys):
    data = gen_sbm_data(tmp_path, seed=6)
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, tau=7.0), name="bad.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path)]) == 1
    assert "tau" in capsys.readouterr().err


def test_train_edge_mode_on_baseline_is_validation_error(tmp_path, capsys):
    data = gen_sbm_data(tmp_path, seed=6)
    cfg = write_cfg(tmp_path, dict(UNSTEPPED_CFG, model="gcn", edge_mode="linear"),
                    name="edge.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "run")]) == 1
    assert "has no edge term" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert run(["param-count", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("key, value, shown", [
    ("decoupled_wd", "false", "'decoupled_wd'"), ("depth", 2.7, "'depth'"),
    ("epochs", True, "'epochs'")])
def test_train_mistyped_config_value_is_validation_error(tmp_path, capsys, key,
                                                         value, shown):
    data = gen_sbm_data(tmp_path, seed=6)
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, **{key: value}), name="typed.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "run")]) == 1
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def graph_set_file(tmp_path, drop=None, masks=None):
    """A two-graph graph-set file, optionally without one top-level key or
    with other masks."""
    entry = json.loads(gen_sbm_data(tmp_path, seed=11).read_text())
    for key in ("y", "masks"):
        entry.pop(key)
    doc = {"graphs": [entry, entry], "y": [[0.0], [1.0]],
           "masks": masks or {"train": [1, 0], "val": [0, 1], "test": [0, 1]}}
    doc.pop(drop, None)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_train_graph_set_without_labels_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, task="graph_reg", loss="mse",
                                   metric="mae"), name="gs.json")
    data = graph_set_file(tmp_path, drop="y")
    assert run(["train", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "run")]) == 1
    assert "'y'" in capsys.readouterr().err


def test_train_graph_set_with_scalar_labels_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, task="graph_reg", loss="mse",
                                   metric="mae"), name="gs.json")
    data = graph_set_file(tmp_path)
    doc = json.loads(Path(data).read_text())
    doc["y"] = 3
    Path(data).write_text(json.dumps(doc))
    assert run(["train", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "run")]) == 1
    assert "key 'y' must have one label row per graph (2)" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_graph_set_mask_of_wrong_length_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, task="graph_reg", loss="mse",
                                   metric="mae"), name="gs.json")
    data = graph_set_file(tmp_path, masks={"train": [1, 0, 0], "val": [0, 1],
                                           "test": [0, 1]})
    assert run(["train", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "run")]) == 1
    assert "'train'" in capsys.readouterr().err


def test_train_graph_set_member_of_another_width_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, task="graph_reg", loss="mse",
                                   metric="mae"), name="gs.json")
    data = graph_set_file(tmp_path)
    doc = json.loads(Path(data).read_text())
    doc["graphs"][1]["x"] = [row[:3] for row in doc["graphs"][1]["x"]]
    Path(data).write_text(json.dumps(doc))
    assert run(["train", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "run")]) == 1
    assert ("graph 1 has 3 node features and no edge features, graph 0 has 5 "
            "node features") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def trained_checkpoint(tmp_path):
    data = gen_sbm_data(tmp_path, seed=12)
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, epochs=1), name="t.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "run")]) == 0
    path = tmp_path / "run" / "checkpoint.json"
    return data, path, json.loads(path.read_text())


def test_evaluate_checkpoint_without_a_key_is_validation_error(tmp_path, capsys):
    data, path, payload = trained_checkpoint(tmp_path)
    del payload["feat_dim"]
    path.write_text(json.dumps(payload))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert "'feat_dim'" in capsys.readouterr().err


def test_evaluate_checkpoint_of_unknown_format_is_validation_error(tmp_path, capsys):
    data, path, payload = trained_checkpoint(tmp_path)
    payload["format"] = 99
    path.write_text(json.dumps(payload))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert "format 99" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_evaluate_checkpoint_with_a_non_finite_parameter_is_validation_error(
        tmp_path, capsys):
    data, path, payload = trained_checkpoint(tmp_path)
    payload["params"]["cell.enc_b"][0][1] = float("nan")
    path.write_text(json.dumps(payload))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert "parameter cell.enc_b must be finite" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("key, text", [("feat_dim", "1e400"), ("feat_dim", '"10"'),
                                       ("out_dim", "10.7"), ("edge_dim", "true"),
                                       ("format", "true")],
                         ids=["beyond-float", "string", "fraction", "bool",
                              "format-bool"])
def test_evaluate_checkpoint_with_a_non_integer_dimension_is_validation_error(
        tmp_path, capsys, key, text):
    data, path, payload = trained_checkpoint(tmp_path)
    payload[key] = "DIM"
    path.write_text(json.dumps(payload).replace('"DIM"', text))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert f"key '{key}' must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("key", ["feat_dim", "out_dim", "edge_dim"])
def test_evaluate_checkpoint_with_a_dimension_beyond_the_float_range_is_refused(
        tmp_path, capsys, key):
    data, path, payload = trained_checkpoint(tmp_path)
    payload[key] = 10 ** 400
    path.write_text(json.dumps(payload))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert f"key '{key}' is an integer beyond the float range" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("key, text, shown", [
    ("config", "[]", "key 'config' must be a JSON object, got []"),
    ("config", "null", "key 'config' must be a JSON object, got None"),
    ("config", '"ab"', "key 'config' must be a JSON object, got 'ab'"),
    ("params", "[]", "key 'params' must be a JSON object, got []"),
    ("params", "null", "key 'params' must be a JSON object, got None"),
    ("params", '"ab"', "key 'params' must be a JSON object, got 'ab'")])
def test_evaluate_checkpoint_with_a_config_or_params_not_an_object_is_validation_error(
        tmp_path, capsys, key, text, shown):
    data, path, payload = trained_checkpoint(tmp_path)
    payload[key] = "VALUE"
    path.write_text(json.dumps(payload).replace('"VALUE"', text))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("value", ["1", True, None, [1.0]],
                         ids=["string", "bool", "null", "list"])
def test_evaluate_checkpoint_with_a_parameter_entry_not_a_number_is_validation_error(
        tmp_path, capsys, value):
    data, path, payload = trained_checkpoint(tmp_path)
    payload["params"]["cell.enc_b"][0][1] = value
    path.write_text(json.dumps(payload))
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert "parameter cell.enc_b must hold numbers" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_a_long_rejected_value_is_cut_in_the_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"lr": int("9" * 400)})
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    line = next(x for x in err.splitlines() if "'lr'" in x)
    assert "cannot coerce 99999" in line and "9" * 41 not in line
    assert len(line) < 120


def edited_graph(tmp_path, data, edit):
    """A copy of a graph file with edit applied to its JSON document."""
    doc = json.loads(Path(data).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set_labels(doc, split, value):
    """Give the first row of one split the label value."""
    rows = [i for i, m in enumerate(doc["masks"][split]) if m]
    for i in rows[:1]:
        doc["y"][i] = value


def _label_split(doc, split, value):
    """Give every row of one split the label value."""
    for i, m in enumerate(doc["masks"][split]):
        if m:
            doc["y"][i] = value


def _one_member_set(doc, label, val_mask=(True,)):
    """Turn a graph document into a one-graph set labelled label."""
    member = {k: doc[k] for k in ("n", "edges", "x")}
    doc.clear()
    doc.update(graphs=[member], y=[[label]],
               masks={"train": [True], "val": list(val_mask), "test": [True]})


EDGES_SHOWN = "edges must be a list of [u, v] pairs of 64-bit integers"
MASK_SHOWN = "mask '{}' must hold true/false or 0/1"


@pytest.mark.parametrize("case, shown", [
    ("empty_train", "the 'train' split is empty"),
    ("half_labels", "ce labels must be class indices; the 'train' split has label 0.5"),
    ("negative_label", "ce labels must be class indices; the 'train' split has "
                       "label -1.0"),
    ("all_zero_ce", "ce needs two or more classes, but no label is 1 or more"),
    ("three_class_bce", "bce_logits labels must be 0 or 1; the 'train' split has "
                        "label 2.0"),
    ("edge_term_without_edges", "edge_mode 'linear' needs edge features; the "
                                "dataset has none"),
    ("three_class_auroc", "metric 'auroc' scores two classes, but a label is 2.0"),
    ("one_class_val_auroc", "metric 'auroc' needs both classes in each scored "
                            "split; the 'val' split has no label 1"),
    ("positive_test_auroc", "metric 'auroc' needs both classes in each scored "
                            "split; the 'test' split has only label 1"),
    ("no_positive_test_ap", "metric 'ap' needs a label 1 in each scored split; "
                            "the 'test' split has no label 1"),
    ("ce_mae", "metric 'mae' scores values, but loss 'ce' gives class logits"),
    ("two_column_bce", "bce_logits takes one label column; the dataset has 2"),
    ("y_string", "field 'y' must hold numbers"),
    ("y_scalar", "field 'y' must have one row per node (n=20)"),
    ("y_object", "field 'y' must hold numbers"),
    ("y_one_string", "field 'y' must hold numbers"),
    ("y_too_few_rows", "field 'y' must have one row per node (n=20)"),
    ("y_nan", "field 'y' must be finite"),
    ("x_nan", "field 'x' must be finite"),
    ("edge_attr_inf", "field 'edge_attr' must be finite"),
    ("graph_set_y_nan", "key 'y' must be finite"),
    ("edge_fraction", EDGES_SHOWN),
    ("edge_string", EDGES_SHOWN),
    ("edges_object", EDGES_SHOWN),
    ("edges_scalar", EDGES_SHOWN),
    ("edges_triple", EDGES_SHOWN),
    ("edges_ragged", EDGES_SHOWN),
    ("edge_beyond_int64", EDGES_SHOWN),
    ("n_boolean", "field 'n' must be a non-negative integer"),
    ("mask_string", MASK_SHOWN.format("train")),
    ("mask_two", MASK_SHOWN.format("val")),
    ("mask_null", MASK_SHOWN.format("test")),
    ("mask_fraction", MASK_SHOWN.format("train")),
    ("mask_nested", MASK_SHOWN.format("train")),
    ("graph_set_mask_string", MASK_SHOWN.format("val")),
    ("graph_set_mask_two", MASK_SHOWN.format("val")),
    ("graph_set_mask_null", MASK_SHOWN.format("val"))])
def test_train_rejects_an_empty_split_or_labels_that_are_not_classes(
        tmp_path, capsys, case, shown):
    data = gen_sbm_data(tmp_path, seed=12)
    edit = {"empty_train": lambda d: d["masks"].update(train=[False] * d["n"]),
            "half_labels": lambda d: _label_split(d, "train", 0.5),
            "negative_label": lambda d: _set_labels(d, "train", -1),
            "all_zero_ce": lambda d: d.update(y=[0] * d["n"]),
            "three_class_bce": lambda d: _set_labels(d, "train", 2),
            "edge_term_without_edges": lambda d: None,
            "three_class_auroc": lambda d: _set_labels(d, "train", 2),
            "one_class_val_auroc": lambda d: _label_split(d, "val", 0),
            "positive_test_auroc": lambda d: _label_split(d, "test", 1),
            "no_positive_test_ap": lambda d: _label_split(d, "test", 0),
            "ce_mae": lambda d: None,
            "two_column_bce": lambda d: d.update(y=[[v, v] for v in d["y"]]),
            "y_string": lambda d: d.update(y="abc"),
            "y_scalar": lambda d: d.update(y=-1),
            "y_object": lambda d: d.update(y={}),
            "y_one_string": lambda d: _set_labels(d, "train", "1"),
            "y_too_few_rows": lambda d: d.update(y=[[v] for v in d["y"][1:]]),
            "y_nan": lambda d: _set_labels(d, "train", float("nan")),
            "x_nan": lambda d: d["x"][0].__setitem__(0, float("nan")),
            "edge_attr_inf": lambda d: d.update(
                edge_attr=[[float("inf")]] * (2 * len(d["edges"]))),
            "graph_set_y_nan": lambda d: _one_member_set(d, float("nan")),
            "edge_fraction": lambda d: d["edges"][0].__setitem__(1, 1.5),
            "edge_string": lambda d: d["edges"][0].__setitem__(0, "0"),
            "edges_object": lambda d: d.update(edges={}),
            "edges_scalar": lambda d: d.update(edges=7),
            "edges_triple": lambda d: d.update(edges=[0, 1, 2]),
            "edges_ragged": lambda d: d["edges"].append([1]),
            "edge_beyond_int64": lambda d: d["edges"][0].__setitem__(1, 10**30),
            "n_boolean": lambda d: d.update(n=True),
            "mask_string": lambda d: d["masks"]["train"].__setitem__(0, "no"),
            "mask_two": lambda d: d["masks"]["val"].__setitem__(0, 2),
            "mask_null": lambda d: d["masks"]["test"].__setitem__(0, None),
            "mask_fraction": lambda d: d["masks"]["train"].__setitem__(0, 1.0),
            "mask_nested": lambda d: d["masks"]["train"].__setitem__(0, [True]),
            "graph_set_mask_string": lambda d: _one_member_set(d, 1.0, ["no"]),
            "graph_set_mask_two": lambda d: _one_member_set(d, 1.0, [2]),
            "graph_set_mask_null": lambda d: _one_member_set(d, 1.0, [None])}[case]
    extra = {"three_class_bce": {"loss": "bce_logits"},
             "edge_term_without_edges": {"edge_mode": "linear"},
             "three_class_auroc": {"metric": "auroc"},
             "one_class_val_auroc": {"metric": "auroc"},
             "positive_test_auroc": {"metric": "auroc"},
             "no_positive_test_ap": {"metric": "ap"},
             "ce_mae": {"metric": "mae"},
             "two_column_bce": {"loss": "bce_logits"}}.get(case, {})
    if case.startswith("graph_set"):
        extra = {"task": "graph_reg", "loss": "mse", "metric": "mae"}
    cfg = write_cfg(tmp_path, {**TRAIN_CFG, **extra}, name="t.json")
    assert run(["train", "--config", cfg, "--data", edited_graph(tmp_path, data, edit),
                "--out", str(tmp_path / "run")]) == 1
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case, shown", [
    ("graph_set", "node_class task needs a single Graph dataset"),
    ("narrow", "dataset has 3 node features; the model reads 5"),
    ("empty_test", "the 'test' split is empty"),
    ("label_at_out_dim", "ce labels must be class indices below the model's 2 "
                         "classes; the 'test' split has label 2.0"),
    ("no_edges", "dataset has no edge features; the model's edge term reads 2"),
    ("edge_width", "dataset has 3 edge features; the model's edge term reads 2"),
    ("one_class_test_auroc", "metric 'auroc' needs both classes in each scored "
                             "split; the 'test' split has no label 1")])
def test_evaluate_rejects_data_that_does_not_fit_the_checkpoint(tmp_path, capsys,
                                                                case, shown):
    if case in ("no_edges", "edge_width"):
        data, path = edge_checkpoint(tmp_path)
    else:
        data, path, payload = trained_checkpoint(tmp_path)
        if case == "one_class_test_auroc":
            payload["config"]["metric"] = "auroc"
            path.write_text(json.dumps(payload))
    if case == "graph_set":
        data = graph_set_file(tmp_path)
    else:
        edit = {"narrow": lambda d: d.update(x=[row[:3] for row in d["x"]]),
                "empty_test": lambda d: d["masks"].update(test=[False] * d["n"]),
                "label_at_out_dim": lambda d: _set_labels(d, "test", 2),
                "no_edges": lambda d: d.pop("edge_attr"),
                "edge_width": lambda d: d.update(
                    edge_attr=[row + [0.0] for row in d["edge_attr"]]),
                "one_class_test_auroc": lambda d: _label_split(d, "test", 0)}[case]
        data = edited_graph(tmp_path, data, edit)
    assert run(["evaluate", "--checkpoint", str(path), "--data", str(data),
                "--out", str(tmp_path / "eval")]) == 1
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_a_training_split_of_one_class_is_not_scored(tmp_path):
    # auroc scores val and test; the train split only feeds the loss
    data = edited_graph(tmp_path, gen_sbm_data(tmp_path, seed=12),
                        lambda d: _label_split(d, "train", 0))
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, epochs=1, metric="auroc"), name="t.json")
    assert run(["train", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("graph_set", [False, True])
def test_a_data_file_with_an_isolated_node_exits_1(tmp_path, capsys, graph_set):
    # found on reading, before anything is trained or written, as generate
    # refuses such a graph
    if graph_set:
        cfg = write_cfg(tmp_path, dict(TRAIN_CFG, task="graph_reg", loss="mse",
                                       metric="mae", epochs=1), name="gs.json")
        data = graph_set_file(tmp_path)

        def edit(doc):
            member = doc["graphs"][1]
            member["edges"] = [e for e in member["edges"] if 0 not in e]
        shown = "graph 1: isolated node 0 "
    else:
        cfg = write_cfg(tmp_path, dict(TRAIN_CFG, epochs=1), name="t.json")
        data = str(gen_sbm_data(tmp_path, seed=12))

        def edit(doc):
            doc["edges"] = []
        shown = ": isolated node 0 "
    assert run(["train", "--config", cfg, "--data", data,
                "--out", str(tmp_path / "run")]) == 0
    bad = edited_graph(tmp_path, data, edit)
    for argv in (["train", "--config", cfg],
                 ["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json")]):
        out = tmp_path / f"{argv[0]}-out"
        assert run(argv + ["--data", bad, "--out", str(out)]) == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()


def edge_checkpoint(tmp_path):
    """A graph with two edge features per arc, and the checkpoint of a sas
    model with a linear edge term trained on it."""
    g = gen_sbm([10, 10], 0.8, 0.15, seed=12, feature_dim=5, feature_shift=2.0)
    g.E_feat = (g.X[arc_rows(g)] + g.X[g.col_indices])[:, :2]
    data = tmp_path / "edges.json"
    save_graph(g, data)
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, epochs=1, edge_mode="linear"),
                    name="e.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "run")]) == 0
    return data, tmp_path / "run" / "checkpoint.json"


def test_evaluate_ignores_edge_features_without_an_edge_term(tmp_path):
    data, path, _ = trained_checkpoint(tmp_path)
    widened = edited_graph(tmp_path, data, lambda d: d.update(
        edge_attr=[[1.0, 2.0, 3.0]] * (2 * len(d["edges"]))))
    assert run(["evaluate", "--checkpoint", str(path), "--data", widened,
                "--out", str(tmp_path / "eval")]) == 0


def test_evaluate_graph_checkpoint_on_a_single_graph_is_validation_error(tmp_path,
                                                                          capsys):
    cfg = write_cfg(tmp_path, dict(TRAIN_CFG, task="graph_reg", loss="mse",
                                   metric="mae", epochs=1), name="gs.json")
    assert run(["train", "--config", cfg, "--data", graph_set_file(tmp_path),
                "--out", str(tmp_path / "run")]) == 0
    assert run(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                "--data", str(gen_sbm_data(tmp_path, seed=11)),
                "--out", str(tmp_path / "eval")]) == 1
    assert "graph_reg task needs a GraphSet dataset" in capsys.readouterr().err


# ------------------------------------------------------------------ evaluate

def test_evaluate_roundtrip_from_checkpoint(tmp_path):
    # a sas node task, a graph_reg set with one scalar label per graph, and
    # an eegnn graph set whose record carries exits
    cases = {"node": (str(gen_sbm_data(tmp_path, seed=7)), TRAIN_CFG),
             "graph_reg": (edited_graph(tmp_path, graph_set_file(tmp_path),
                                        lambda d: d.update(y=[0.5, 1.5])),
                           dict(TRAIN_CFG, task="graph_reg", loss="mse", metric="mae")),
             "graph_set": (graph_set_file(tmp_path),
                           dict(UNSTEPPED_CFG, model="eegnn", task="graph_class"))}
    for name, (data, doc) in cases.items():
        train_out, eval_out = tmp_path / f"run_{name}", tmp_path / f"eval_{name}"
        cfg = write_cfg(tmp_path, doc, name=f"{name}.json")
        assert run(["train", "--config", cfg, "--data", data,
                    "--out", str(train_out)]) == 0
        assert run(["evaluate", "--checkpoint", str(train_out / "checkpoint.json"),
                    "--data", data, "--out", str(eval_out)]) == 0
        trained = json.loads((train_out / "metrics.json").read_text())
        scored = json.loads((eval_out / "metrics.json").read_text())
        for key in ("value", "loss", "mean_exit_layer", "exit"):
            assert scored.get(key) == trained.get(key), (name, key)
        assert scored["mode"] == "eval_argmax"
    assert "exit" in scored


def test_evaluate_sampled_mode(tmp_path):
    data = gen_sbm_data(tmp_path, seed=8)
    train_out = tmp_path / "run"
    cfg = write_cfg(tmp_path, dict(UNSTEPPED_CFG, model="eegnn"), name="t.json")
    assert run(["train", "--config", cfg, "--data", str(data),
                "--out", str(train_out)]) == 0
    eval_out = tmp_path / "eval"
    assert run(["evaluate", "--checkpoint", str(train_out / "checkpoint.json"),
                "--data", str(data), "--mode", "train",
                "--out", str(eval_out)]) == 0
    rec = json.loads((eval_out / "metrics.json").read_text())
    assert rec["mode"] == "train_sample"


def test_mode_flag_only_on_evaluate(tmp_path, capsys):
    data = gen_sbm_data(tmp_path, seed=9)
    cfg = write_cfg(tmp_path, TRAIN_CFG, name="t.json")
    assert run(["train", "--config", cfg, "--data", str(data), "--mode", "eval",
                "--out", str(tmp_path / "run")]) == 1
    assert "--mode" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_evaluate_without_checkpoint_is_validation_error(tmp_path, capsys):
    assert run(["evaluate", "--data", "x.json", "--out", str(tmp_path)]) == 1
    assert "checkpoint" in capsys.readouterr().err


# ------------------------------------------------------------------ diagnose

def test_diagnose_spectrum_passes(tmp_path):
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"cases": 8})
    assert run(["diagnose", "spectrum", "--config", cfg,
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["max_re_lambda"] <= 1e-8


def test_diagnose_energy_descent_passes(tmp_path):
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"cases": 4, "steps": 20})
    assert run(["diagnose", "energy_descent", "--config", cfg,
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == 0


def test_diagnose_sensitivity_final_layer_zero(tmp_path):
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"depth": 3, "hidden": 8})
    assert run(["diagnose", "sensitivity", "--config", cfg,
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["sensitivity"][-1] == 0.0
    assert report["log_sensitivity"][-1] is None


@pytest.mark.parametrize("kind", ["sas", "gcn"])
def test_diagnose_sensitivity_equals_per_layer_calls(tmp_path, kind):
    out = tmp_path / "d"
    doc = {"model": kind, "depth": 3, "hidden": 5, "seed": 4}
    assert run(["diagnose", "sensitivity", "--config", write_cfg(tmp_path, doc),
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    g = gen_sbm((20, 20), 0.7, 0.1, 4, feature_dim=8)     # the built-in graph
    model = model_for(RunConfig.from_dict(doc), g,
                      np.random.Generator(np.random.PCG64(4)))
    assert report["sensitivity"] == [sensitivity(model, g, l) for l in range(4)]
    assert report["sensitivity"][0] > 0.0


def test_diagnose_dirichlet_emits_traces(tmp_path):
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"depth": 4})
    assert run(["diagnose", "dirichlet", "--config", cfg,
                "--out", str(out)]) == 0
    assert (out / "dirichlet_sum.csv").exists()
    assert (out / "dirichlet_mean.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert "final_over_initial" in report


def test_diagnose_oracle_exit_dominates(tmp_path):
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"model": "eegnn", "depth": 3, "hidden": 6,
                               "epochs": 5, "metric": "accuracy"})
    assert run(["diagnose", "oracle_exit", "--config", cfg,
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_accuracy"] >= report["final_accuracy"]
    assert report["gain"] >= 0.0


# sha256 of every file but resolved_config.json that these diagnostics write.
# dirichlet and oracle_exit read every layer's state of one forward through
# capture; energy_descent and spectrum pin their random draws, so a change to
# the draws shows up here as a re-pin
DIAG_DIGESTS = {
    "dirichlet-sas": ("dirichlet", {"depth": 4, "hidden": 6}, {
        "dirichlet_mean.csv": "10a0114550f9124f2c0b74b035301b5b4984f4af0aa102183a90bfbba9113765",
        "dirichlet_sum.csv": "9941382ced41686c487f7ddae515bfca4b7cb81f051492a3041d8d9a5950d08b",
        "report.json": "ec79cc9d79d9dfecaf4c60df9154ac6d309e0b88020495f9b094240a8d0b5c8f"}),
    "dirichlet-eegnn": ("dirichlet", {"model": "eegnn", "depth": 3, "hidden": 6}, {
        "dirichlet_mean.csv": "196fa70cdb1afe26b3d383bab127f70babf62960233c4fe82242de0efb6da6a3",
        "dirichlet_sum.csv": "57adfa0e631f2d5bf01327e09d71252dad099d7bd249b21537b349921a1ea8c6",
        "report.json": "e647d661e81f14f210b87e4d4dcd3c994a706888aa21117534943a51e0b4c676"}),
    "oracle_exit-eegnn": ("oracle_exit", {"model": "eegnn", "depth": 3, "hidden": 6,
                                          "epochs": 5, "metric": "accuracy"}, {
        "report.json": "c158dceacd5700ef4b2fdd13de16f5a1efd409f888d3cbf4cd183003b24c0693"}),
    "oracle_exit-sas": ("oracle_exit", {"depth": 3, "hidden": 6, "epochs": 5,
                                        "metric": "accuracy"}, {
        "report.json": "c0dd73cfb38a6c0c586a69c724356eb0ea8fe5bec0bfe93e57237fe747e453bc"}),
    "energy_descent": ("energy_descent", {"cases": 4, "steps": 20}, {
        "report.json": "42996201e950237431e0734cb69326eab4bc6b04e2cd7d11f8df3c7d7bbe1ea8"}),
    "spectrum": ("spectrum", {}, {
        "report.json": "2b35d0488fd193526b1641d71a7a13f60521d891c7d51fd2753ebc82980c5a69"}),
    "spectrum-300": ("spectrum", {"cases": 300}, {
        "report.json": "a874980595bd719bc46a94f09a2d4511be0263c2e459a1f5c2ad50ecc455b828"}),
    # the default config, the benchmark's model, and a gcn stack
    "sensitivity-sas": ("sensitivity", {}, {
        "report.json": "fbcdd3d38f6e2c3cb777cf8f7faeeca5c1e02484c96b72b18436a081a3a29168"}),
    "sensitivity-gcn": ("sensitivity", {"model": "gcn", "depth": 3, "hidden": 6}, {
        "report.json": "ed770b86ab3eea24af66500ae7de43583e81e2226da2536d10733d4cab2370e4"}),
}


@pytest.mark.parametrize("case", sorted(DIAG_DIGESTS))
def test_diagnose_outputs_keep_their_bytes(tmp_path, case):
    name, doc, want = DIAG_DIGESTS[case]
    out = tmp_path / "d"
    assert run(["diagnose", name, "--config", write_cfg(tmp_path, doc),
                "--out", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in out.iterdir() if f.name != "resolved_config.json"}
    assert got == want


def test_diagnose_honest_failure_exits_3_with_report(tmp_path):
    # deliberately undertrained retention run lands outside tolerance
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"epochs": 30, "metric": "accuracy",
                               "hidden": 8})
    rc = run(["diagnose", "depth_retention", "--config", cfg,
              "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert rc == 3
    assert report["pass"] is False
    assert report["verdicts"]["sas"]["pass"] is False
    assert report["verdicts"]["sas"]["gap"] > 0.05


# small configs, one per diagnostic; only three checks can fail
VERDICT_CASES = {
    "dirichlet": ({"depth": 2, "hidden": 4}, False),
    "energy_descent": ({"cases": 2, "steps": 10}, True),
    "spectrum": ({"cases": 8}, True),
    "sensitivity": ({"depth": 2, "hidden": 4}, False),
    "depth_retention": ({"kinds": ["sas"], "depths": [1, 2], "epochs": 2,
                         "hidden": 4}, True),
    "oracle_exit": ({"model": "eegnn", "depth": 2, "hidden": 4, "epochs": 2,
                     "metric": "accuracy"}, False),
}


@pytest.mark.parametrize("name", DIAGNOSTICS)
def test_diagnose_verdict_only_where_the_check_can_fail(tmp_path, capsys, name):
    doc, judged = VERDICT_CASES[name]
    out = tmp_path / "d"
    rc = run(["diagnose", name, "--config", write_cfg(tmp_path, doc),
              "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    printed = capsys.readouterr().out
    if judged:
        assert isinstance(report["pass"], bool)
        assert rc == (0 if report["pass"] else 3)
    else:
        assert "pass" not in report
        assert rc == 0
        assert f"{name}: measured" in printed


@pytest.mark.parametrize("kinds", [["gcn"], ["sas", "gcn"]])
def test_depth_retention_judges_only_sas_and_eegnn(tmp_path, capsys, kinds):
    """Only a sas or eegnn row carries a verdict: kinds naming neither make
    a measurement, with no pass key and exit 0, and with sas among them the
    run is judged on sas alone."""
    doc = {"kinds": kinds, "depths": [1, 2], "epochs": 2, "hidden": 4}
    out = tmp_path / "d"
    rc = run(["diagnose", "depth_retention", "--config", write_cfg(tmp_path, doc),
              "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert "pass" not in report["verdicts"]["gcn"]
    assert report["verdicts"]["gcn"]["gap"] >= 0.0
    if kinds == ["gcn"]:
        assert "pass" not in report and rc == 0
        assert "depth_retention: measured" in capsys.readouterr().out
    else:
        assert report["pass"] is report["verdicts"]["sas"]["pass"]
        assert rc == (0 if report["pass"] else 3)


def test_diagnose_unknown_name_lists_valid_ones(tmp_path, capsys):
    assert run(["diagnose", "entropy", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "spectrum" in err and "energy_descent" in err


def test_diagnose_with_explicit_dataset(tmp_path):
    data = gen_sbm_data(tmp_path, seed=9)
    out = tmp_path / "d"
    cfg = write_cfg(tmp_path, {"depth": 2})
    assert run(["diagnose", "dirichlet", "--config", cfg, "--data", str(data),
                "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["data"] == str(data)


def test_diagnose_sensitivity_on_adaptive_model_is_validation_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": "eegnn", "depth": 2, "hidden": 4})
    assert run(["diagnose", "sensitivity", "--config", cfg,
                "--out", str(tmp_path / "d")]) == 1
    assert "fixed-depth" in capsys.readouterr().err


@pytest.mark.parametrize("doc, grid, product", [({"hidden": 51}, False, 2040),
                                                ({"hidden": 4}, True, 3600)],
                         ids=["builtin-hidden-51", "grid900-hidden-4"])
def test_diagnose_sensitivity_over_the_size_cap_is_validation_error(
        tmp_path, capsys, doc, grid, product):
    argv = ["diagnose", "sensitivity", "--config", write_cfg(tmp_path, doc),
            "--out", str(tmp_path / "d")]
    if grid:
        argv += ["--data", str(grid900_data(tmp_path))]
    assert run(argv) == 1
    assert f"instance too large: n * width = {product} > 2000" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("doc, shown", [
    ({"depths": [0]}, "depth must be >= 1"),
    ({"kinds": ["bogus"]}, "'bogus'"),
    ({"kinds": "sas"}, "'kinds'"),
    ({"depths": [], "kinds": []}, "'depths'")],
    ids=["depth-0", "unknown-kind", "kinds-string", "empty-grid"])
def test_diagnose_depth_retention_rejects_bad_grid(tmp_path, capsys, doc, shown):
    cfg = write_cfg(tmp_path, dict(doc, epochs=1, hidden=4))
    assert run(["diagnose", "depth_retention", "--config", cfg,
                "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert shown in err
    assert not (tmp_path / "d" / "report.json").exists()


@pytest.mark.parametrize("name, doc, shown", [
    ("spectrum", {"cases": 0}, ["cases must be >= 1"]),
    ("energy_descent", {"steps": 0, "cases": -1},
     ["steps must be >= 1", "cases must be >= 1"]),
    ("energy_descent", {"step_tau": 0.0}, ["step_tau must lie in (0, 1]"]),
    ("energy_descent", {"step_tau": 2.0}, ["step_tau must lie in (0, 1]"])],
    ids=["spectrum-cases-0", "descent-counts", "step-tau-0", "step-tau-2"])
def test_diagnose_out_of_range_counts_are_validation_errors(tmp_path, capsys,
                                                            name, doc, shown):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "d"
    assert run(["diagnose", name, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(msg in err for msg in shown)
    assert not out.exists()


@pytest.mark.parametrize("name, doc, graph_set", [
    ("depth_retention", {"depths": [0], "epochs": 1, "hidden": 4}, False),
    ("dirichlet", {"depth": 2}, True),
    ("sensitivity", {"model": "eegnn", "depth": 2, "hidden": 4}, False)],
    ids=["retention-depth-0", "graph-set-data", "sensitivity-adaptive"])
def test_diagnose_rejected_config_writes_nothing(tmp_path, name, doc, graph_set):
    argv = ["diagnose", name, "--config", write_cfg(tmp_path, doc),
            "--out", str(tmp_path / "d")]
    if graph_set:
        argv += ["--data", graph_set_file(tmp_path)]
    assert run(argv) == 1
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("name", ["dirichlet", "sensitivity"])
def test_diagnose_sizes_model_for_edge_features(tmp_path, name):
    g = gen_sbm([6, 6], 0.8, 0.2, seed=3, feature_dim=3)
    g.E_feat = (g.X[arc_rows(g)] + g.X[g.col_indices])[:, :2]
    data = tmp_path / "edges.json"
    save_graph(g, data)
    cfg = write_cfg(tmp_path, {"depth": 2, "hidden": 4, "edge_mode": "linear"})
    assert run(["diagnose", name, "--config", cfg, "--data", str(data),
                "--out", str(tmp_path / "d")]) == 0


@pytest.mark.parametrize("with_data", [False, True], ids=["builtin", "data"])
@pytest.mark.parametrize("mode", ["linear", "neg_relu"])
@pytest.mark.parametrize("name", ["dirichlet", "sensitivity"])
def test_diagnose_edge_mode_without_edge_features_is_validation_error(
        tmp_path, capsys, name, mode, with_data):
    # the built-in graph and gen_sbm_data's have no edge features; the run
    # is refused as train refuses it, before a model is built
    argv = ["diagnose", name, "--config",
            write_cfg(tmp_path, {"depth": 2, "hidden": 4, "edge_mode": mode}),
            "--out", str(tmp_path / "d")]
    if with_data:
        argv += ["--data", str(gen_sbm_data(tmp_path))]
    assert run(argv) == 1
    assert (f"edge_mode {mode!r} needs edge features; the dataset has none"
            in capsys.readouterr().err)
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------- param-count

def test_param_count_depth_invariance_at_cli(tmp_path):
    totals = {}
    for model, depth in [("sas", 5), ("sas", 9), ("gcn", 5), ("gcn", 9)]:
        out = tmp_path / f"{model}{depth}"
        cfg = write_cfg(tmp_path, {"model": model, "depth": depth},
                        name=f"{model}{depth}.json")
        assert run(["param-count", "--config", cfg, "--out", str(out)]) == 0
        totals[(model, depth)] = json.loads(
            (out / "counts.json").read_text())["total"]
    assert totals[("sas", 5)] == totals[("sas", 9)]
    assert totals[("gcn", 5)] < totals[("gcn", 9)]


def test_param_count_dimension_overrides(tmp_path):
    out = tmp_path / "pc"
    cfg = write_cfg(tmp_path, {"feat_dim": 3, "out_dim": 4, "hidden": 6})
    assert run(["param-count", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "counts.json").read_text())
    assert doc["feat_dim"] == 3 and doc["out_dim"] == 4
    assert doc["total"] == sum(doc[k] for k in
                               ("encoder", "core", "decoder", "exit_heads"))


def test_param_count_accepts_a_shared_run_config_seed(tmp_path):
    cfg = write_cfg(tmp_path, {"model": "sas", "seed": 3})
    assert run(["param-count", "--config", cfg, "--out", str(tmp_path / "pc")]) == 0


@pytest.mark.parametrize("doc, shown", [
    ({"feat_dim": 0, "out_dim": -3},
     ["feat_dim must be >= 1", "out_dim must be >= 1"]),
    ({"edge_dim": -1}, ["edge_dim must be >= 0"]),
    ({"edge_mode": "linear", "edge_dim": 0}, ["edge_dim must be >= 1"])],
    ids=["feat-out-dims", "negative-edge-dim", "edge-mode-without-edge-dim"])
def test_param_count_out_of_range_dims_are_validation_errors(tmp_path, capsys,
                                                             doc, shown):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "pc"
    assert run(["param-count", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(msg in err for msg in shown)
    assert not out.exists()


# ------------------------------------------------------------------ plumbing

@pytest.mark.parametrize("argv, doc, shown", [
    (["diagnose", "energy_descent"], {"cases": 2.9, "steps": True},
     ["'cases'", "'steps'"]),
    (["generate"], {"rows": 6.5}, ["'rows'"]),
    (["generate"], {"dataset": "sbm", "sizes": [10.9, "12"]}, ["'sizes'"]),
    (["diagnose", "energy_descent"], {"step_tau": "0.05"}, ["'step_tau'"]),
    (["diagnose", "dirichlet"], {"data": 99999}, ["'data'"]),
    (["param-count"], {"feat_dim": 3.7, "edge_dim": True},
     ["'feat_dim'", "'edge_dim'"]),
    (["evaluate"], {"checkpoint": ["a.json"]}, ["'checkpoint'"]),
    (["train"], {"lr": 10**400}, ["'lr'", "cannot coerce"]),
    (["generate"], {"dataset": "sbm", "feature_shift": 10**400},
     ["'feature_shift'", "cannot coerce"]),
    (["param-count"], {"feat_dim": 10**400}, ["'feat_dim'", "cannot coerce"]),
    # an empty block: no graph at all, or a class without a node
    (["generate"], {"dataset": "sbm", "sizes": [0, 0]},
     ["sizes must be block sizes >= 1, got [0, 0]"]),
    (["generate"], {"dataset": "sbm", "sizes": [3, 0], "p_in": 1.0},
     ["sizes must be block sizes >= 1, got [3, 0]"])],
    ids=["descent-counts", "generate-rows", "generate-sizes", "descent-step-tau",
         "dirichlet-data", "param-count-dims", "evaluate-checkpoint",
         "train-lr-beyond-float", "generate-shift-beyond-float",
         "param-count-dim-beyond-float", "generate-sbm-no-nodes",
         "generate-sbm-empty-block"])
def test_mistyped_command_keys_are_validation_errors(tmp_path, capsys, argv,
                                                     doc, shown):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert run(argv + ["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(key in err for key in shown)
    assert not out.exists()


def test_readme_synopsis_lists_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented = {m.group(1): set(re.findall(r"--[a-z-]+", m.group(2)))
                  for m in re.finditer(r"^eegnn (\S+)(.*)$", block, re.M)}
    sub = next(a for a in build_parser()._actions if a.choices)
    defined = {name: {o for a in p._actions for o in a.option_strings
                      if o.startswith("--") and o != "--help"}
               for name, p in sub.choices.items()}
    assert documented == defined

def test_missing_command_and_bad_flag_are_validation_errors(capsys):
    assert run([]) == 1
    assert run(["train", "--bogus"]) == 1
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["generate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "JSON" in capsys.readouterr().err
