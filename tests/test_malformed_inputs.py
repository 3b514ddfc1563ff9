"""The malformed-input contract, as a mutation suite over every input the
CLI reads.

Each case takes a valid input (a node-graph file with edge features, a
graph-set file, a checkpoint, or one command's --config file), breaks one
key of it, to depth 3, and runs the command in-process through cli.main:
the key dropped; set to null, a string, -1, NaN, [], {}, true or an integer
beyond the float range; and an array also shortened, made ragged, or with
one element poisoned by each of those values. A config file holds only the
keys its run reads (training.KEYS), and one more case adds each key that
its model kind, dataset or diagnostic does not read: that case must exit 1.
Every case must exit 0 or 1;
exit 1 must create no --out directory, must name what it refused (its key,
field or parameter, and the member `graph i` inside a graph set) and must
carry none of Python's or numpy's own conversion texts. A string where a
file path goes names a missing file, the one documented exit 2.

Size keys (depth, epochs, widths, counts, checkpoint dimensions) get the
huge integer too: an integer beyond the float range is refused by name
before any key allocates or loops by its value.

    python tests/test_malformed_inputs.py

prints the table of every case: target, case, exit code and first error
line, for comparing two trees.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from eegnn.cli import main
from eegnn.graphs import make_graph, save_graph
from eegnn.training import KEYS, RunConfig, reads

HUGE = 10 ** 400
VALUES = [("null", None), ("string", "1.5"), ("minus_one", -1),
          ("nan", float("nan")), ("list", []), ("object", {}), ("true", True),
          ("huge", HUGE)]
PATH_KEYS = {"data", "checkpoint"}
# what a message may say for a key, besides the key itself: these rules
# are about what the data means, so they name it in words
ALIASES = {"edges": ("edge",), "edge_attr": ("edge features", "edge-feature"),
           "y": ("label", "labels"), "masks": ("split",), "graphs": ("graph",)}
# the selector values each config target runs under: its model kind, its
# dataset or its diagnostic, which decide the keys it reads
CHOSEN = {"generate_minesweeper": {"dataset": ["minesweeper"]},
          "generate_sbm": {"dataset": ["sbm"]},
          "train": {"model": ["eegnn"]}, "param_count": {"model": ["eegnn"]},
          "evaluate": {}, "diagnose": {"model": ["sas"], "diagnostic": ["dirichlet"]},
          "diagnose_descent": {"model": ["sas"], "diagnostic": ["energy_descent"]},
          # depth_retention trains each of its kinds in place of the model
          "diagnose_retention": {"model": ["gcn"], "diagnostic": ["depth_retention"]}}
FOREIGN = ("setting an array element", "could not convert", "float() argument",
           "int too large", "not iterable", "dictionary update sequence",
           "Traceback", "object has no attribute", "unhashable",
           "index out of range", "negative dimensions")


def ring_graph(n, rng, masks=None, y=None):
    """A ring with chords: no isolated node; three node and two edge
    features of seeded values."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 3) % n)
                                                    for i in range(0, n, 2)]
    g = make_graph(edges, n, np.round(rng.normal(size=(n, 3)), 3))
    return make_graph(edges, n, g.X, E_edge=np.round(rng.normal(size=(g.n_arcs // 2, 2)), 3),
                      y=y, masks=masks)


def base_inputs(root: Path) -> dict:
    """The valid inputs every case mutates, written under root."""
    rng = np.random.Generator(np.random.PCG64(25))
    idx = np.arange(12)
    splits = {"train": idx < 6, "val": (idx >= 6) & (idx < 9), "test": idx >= 9}
    graph = root / "graph.json"
    save_graph(ring_graph(12, rng, splits, idx % 2), graph)
    members = []
    for i in range(3):
        save_graph(ring_graph(5 + i, rng), root / "member.json")
        members.append(json.loads((root / "member.json").read_text()))
    graph_set = {"graphs": members, "y": [[0.5], [1.0], [1.5]],
                 "masks": {"train": [1, 0, 0], "val": [0, 1, 0], "test": [0, 0, 1]}}
    run = read_by("train", {**asdict(RunConfig()), "model": "eegnn", "depth": 2,
                            "hidden": 4, "exit_hidden": 4, "edge_mode": "linear",
                            "dec_hidden": [3], "epochs": 1, "metric": "accuracy",
                            "lr": 0.01})
    ckpt_dir = root / "trained"
    write(root / "run.json", run)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(root / "run.json"), "--data", str(graph),
                     "--out", str(ckpt_dir)]) == 0
    checkpoint = ckpt_dir / "checkpoint.json"
    set_run = {**run, "task": "graph_reg", "loss": "mse", "metric": "mae",
               "edge_mode": "zero"}
    write(root / "set_run.json", set_run)
    gen = {k: row.default for k, row in KEYS.items() if "generate" in row.commands}
    return {
        "graph": json.loads(graph.read_text()),
        "graph_set": graph_set,
        "checkpoint": json.loads(checkpoint.read_text()),
        "run": run, "set_run": set_run,
        "generate_minesweeper": read_by("generate_minesweeper",
                                        {**gen, "rows": 3, "cols": 4}),
        "generate_sbm": read_by("generate_sbm", {
            **gen, "dataset": "sbm", "sizes": [6, 6], "p_in": 0.9, "p_out": 0.3,
            "feature_dim": 3}),
        "train": {**run, "data": str(graph)},
        "evaluate": {"data": str(graph), "checkpoint": str(checkpoint)},
        "diagnose": read_by("diagnose", {**asdict(RunConfig()), **run,
                                         "data": str(graph), "model": "sas",
                                         "edge_mode": "zero"}),
        "diagnose_descent": {"cases": 2, "steps": 2, "step_tau": 0.05},
        "diagnose_retention": {"data": str(graph), "depths": [1, 2],
                               "kinds": ["gcn"], "epochs": 1},
        "param_count": {**run, "feat_dim": 3, "out_dim": 2, "edge_dim": 2},
        "paths": {"graph": graph, "checkpoint": checkpoint, "run": root / "run.json",
                  "set_run": root / "set_run.json"},
    }


def read_by(target: str, doc: dict) -> dict:
    """The keys of doc that target's run reads."""
    return {k: v for k, v in doc.items() if reads(k, CHOSEN[target])}


def write(path: Path, doc) -> str:
    # a new file each time: rewriting one in place waits for a disk flush
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


# ------------------------------------------------------------------ mutations

def _poison_at(value):
    """The index path of the element a poison replaces: row 1 (or 0) of each
    level, down to a number or an object."""
    where = []
    while isinstance(value, list) and value:
        i = 1 if len(value) > 1 else 0
        where.append(i)
        value = value[i]
    return where


def _ragged(value):
    """value with its first row one item short, or its first item wrapped
    in a list when it is flat."""
    first = value[0]
    if isinstance(first, list) and len(first) > 1:
        return [first[:-1]] + value[1:]
    return [[first, first]] + value[1:]


def mutations(doc: dict, depth: int = 3, path: tuple = ()):
    """(path, label, change) for every key of doc to the given depth, where
    change(parent) applies the mutation to the key's parent in place."""
    items = doc.items() if isinstance(doc, dict) else [(1, doc[1])]
    for key, value in items:
        p = path + (key,)
        yield p, "drop", lambda d, k=key: d.pop(k)
        for label, v in VALUES:
            yield p, label, lambda d, k=key, v=v: d.__setitem__(k, v)
        if isinstance(value, list) and value:
            yield p, "shorten", lambda d, k=key: d.__setitem__(k, d[k][:-1])
            yield p, "ragged", lambda d, k=key: d.__setitem__(k, _ragged(d[k]))
            where = _poison_at(value)
            for label, v in VALUES:
                yield p, f"poison_{label}", \
                    lambda d, k=key, v=v, w=where: _set_in(d[k], w, v)
        nested = isinstance(value, dict) or (
            isinstance(value, list) and len(value) > 1 and isinstance(value[1], dict))
        if nested and len(p) < depth:
            yield from mutations(value, depth, p)


def unread(target: str):
    """(path, label, change) adding, at a value of its type, each key of
    KEYS that target's model kind, dataset or diagnostic does not read."""
    chosen = CHOSEN.get(target, {})
    for key, row in KEYS.items():
        if any(sel in chosen for sel, _ in row.readers) and not reads(key, chosen):
            v = "graph.json" if row.default is None else row.default
            yield (key,), "unread", lambda d, k=key, v=v: d.__setitem__(k, v)


def _set_in(value, where, v):
    for i in where[:-1]:
        value = value[i]
    value[where[-1]] = v


def mutated(doc: dict, path: tuple, change) -> dict:
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    change(parent)
    return doc


# ------------------------------------------------------------------ targets

def _argv(target: str, base: dict, file: str) -> list[str]:
    """The command a target runs, reading the mutated document from file."""
    paths = base["paths"]
    graph, ckpt = str(paths["graph"]), str(paths["checkpoint"])
    run_cfg = str(paths["run"])
    return {
        "graph-train": ["train", "--config", run_cfg, "--data", file],
        "graph-evaluate": ["evaluate", "--checkpoint", ckpt, "--data", file],
        "graph_set-train": ["train", "--config", str(paths["set_run"]), "--data", file],
        "checkpoint-evaluate": ["evaluate", "--checkpoint", file, "--data", graph],
        "generate_minesweeper": ["generate", "--config", file],
        "generate_sbm": ["generate", "--config", file],
        "train": ["train", "--config", file],
        "evaluate": ["evaluate", "--config", file],
        "diagnose": ["diagnose", "dirichlet", "--config", file],
        "diagnose_descent": ["diagnose", "energy_descent", "--config", file],
        "diagnose_retention": ["diagnose", "depth_retention", "--config", file],
        "param_count": ["param-count", "--config", file],
    }[target]


TARGETS = ["graph-train", "graph-evaluate", "graph_set-train", "checkpoint-evaluate",
           "generate_minesweeper", "generate_sbm", "train", "evaluate", "diagnose",
           "diagnose_descent", "diagnose_retention", "param_count"]


def _document(target: str, base: dict) -> dict:
    return base[target.split("-")[0]]


def run_target(target: str, base: dict, root: Path):
    """(path, label, exit code, stderr, out created) for every case of target."""
    doc = _document(target, base)
    file = root / f"{target}.json"
    results = []
    cases = chain(mutations(doc), unread(target))
    for i, (path, label, change) in enumerate(cases):
        write(file, mutated(doc, path, change))
        out = root / f"{target}-out{i}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(_argv(target, base, str(file)) + ["--out", str(out)])
        results.append((path, label, code, err.getvalue().replace(str(root), "<tmp>"),
                        out.exists()))
        shutil.rmtree(out, ignore_errors=True)
    return results


def run_edge_cases(base: dict, root: Path):
    """(path, label, exit code, stderr, out created) for each diagnostic that
    builds a fresh model from its graph, under each edge mode that reads
    edge features, on the built-in graph and on a graph file without them."""
    graph = dict(base["graph"])
    graph.pop("edge_attr")
    bare = write(root / "bare_graph.json", graph)
    results = []
    for name in ("dirichlet", "sensitivity"):
        for mode in ("linear", "neg_relu"):
            for data in (None, bare):
                doc = {**base["diagnose"], "edge_mode": mode, "data": data}
                file = write(root / "edges.json", {k: v for k, v in doc.items()
                                                   if v is not None})
                out = root / "edges-out"
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main(["diagnose", name, "--config", file, "--out", str(out)])
                label = f"{name}_{mode}_{'builtin' if data is None else 'data'}"
                results.append((("edge_mode",), label, code,
                                err.getvalue().replace(str(root), "<tmp>"), out.exists()))
                shutil.rmtree(out, ignore_errors=True)
    return results


def _names(path: tuple) -> list[str]:
    keys = [k for k in path if isinstance(k, str)]
    return keys + [a for k in keys for a in ALIASES.get(k, ())]


def problems(path, label, code, err, created) -> list[str]:
    """Every way one case breaks the contract."""
    if label == "string" and path[-1] in PATH_KEYS:
        return [] if code == 2 and "No such file" in err else ["a missing file"]
    if code not in (0, 1) or (label == "unread" and code != 1):
        return [f"exit {code}"]
    if code == 0:
        return []
    found = [] if not created else ["created --out"]
    if not any(re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", err) for n in _names(path)):
        found.append("names no key")
    member = path[0] == "graphs" and len(path) > 1 and (len(path) > 2 or label != "drop")
    if member and not re.search(rf"\bgraph {path[1]}\b", err):
        found.append("names no member")
    found += [f"says {text!r}" for text in FOREIGN if text in err]
    return found


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return base_inputs(tmp_path_factory.mktemp("base"))


@pytest.mark.parametrize("target", TARGETS)
def test_every_mutation_exits_0_or_1_and_names_what_it_refused(base, tmp_path, target):
    results = run_target(target, base, tmp_path)
    assert len(results) > 8
    broken = [f"{'.'.join(map(str, path))} {label}: {', '.join(found)}: "
              f"exit {code}: {err.strip()[:160]}"
              for path, label, code, err, created in results
              if (found := problems(path, label, code, err, created))]
    assert not broken, f"{len(broken)} of {len(results)} cases:\n" + "\n".join(broken)


def test_edge_mode_without_edge_features_exits_1_and_names_it(base, tmp_path):
    results = run_edge_cases(base, tmp_path)
    assert len(results) == 8
    for path, label, code, err, created in results:
        assert code == 1, (label, err)
        assert problems(path, label, code, err, created) == [], (label, err)
        assert "needs edge features; the dataset has none" in err, label


def test_the_mutations_reach_every_field_and_the_unbroken_inputs_run(base, tmp_path):
    """Every field of a graph file and every kind of mutation is reached,
    and each target's unbroken input exits 0."""
    paths = {p[:1] for p, *_ in mutations(base["graph"])}
    assert paths == {(k,) for k in ("n", "edges", "x", "edge_attr", "y", "masks")}
    keys = {p[0] for target in CHOSEN for p, *_ in mutations(base[target])}
    assert keys == set(KEYS)
    kinds = {label for _, label, _ in mutations(base["checkpoint"])}
    assert {"drop", "shorten", "ragged", "poison_huge", "poison_true"} <= kinds
    for target in TARGETS:
        file = write(tmp_path / "valid.json", _document(target, base))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(_argv(target, base, file) + ["--out", str(tmp_path / target)]) == 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = base_inputs(root)
        for target in sys.argv[1:] or TARGETS + ["diagnose_edges"]:
            rows = (run_edge_cases(inputs, root) if target == "diagnose_edges"
                    else run_target(target, inputs, root))
            for path, label, code, err, _ in rows:
                line = (err.strip().splitlines() or [""])[0]
                print(f"{target}\t{'.'.join(map(str, path))}\t{label}\t{code}\t{line}")
