"""Single command over the whole kit: data generation, training, evaluation,
diagnostics, and parameter accounting.

Exit codes: 0 success, 1 invalid configuration or arguments or a malformed
dataset or checkpoint file, 2 runtime failure, 3 a diagnostic ran but landed
outside its tolerance.

Every command resolves its settings in one place, `_config`: defaults, then
command-line flags, then the --config file; the file is the run's
authoritative record, so its values win over flags. Every key has one row
in `config.KEYS`: its default, whose type `config.coerce_keys` reads it
as (the rule `RunConfig` uses), its range, and the model kinds, datasets or
diagnostics that read it; `config.cross_key_errors` holds the rules between
keys. An unknown, mistyped or out-of-range key exits 1
from any command, and so does a key the run's kind does not read; the
run's resolved_config.json records only the keys it reads. Every output is
byte-reproducible for a fixed config and seed: JSON is written with sorted
keys, floats keep their shortest round-trip form, and nothing timestamps
itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad, diagnostics
from .diagnostics import ToleranceError
from .graphs import degrees, edge_homophily, gen_minesweeper_grid, gen_sbm, \
    json_text, read_object, save_graph, write_output
from .config import DATASETS, DIAGNOSTICS, KEYS, MODEL_KINDS, RUN_KEYS, \
    ConfigError, RunConfig, coerce_keys, cross_key_errors, reads, refused_by
from .training import GraphSet, build_model, evaluate, exit_csv, forward_node, \
    history_csv, load_checkpoint, load_dataset, metric_eval, model_for, \
    node_record, operators_for, save_checkpoint, train_run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_TOLERANCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route it through the validation path
    def error(self, message):
        raise ConfigError([message])


def _read_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return read_object("config file", json.load(fh))
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON in config file: {exc}"])
    except ValueError as exc:
        raise ConfigError([str(exc)])


def _out_dir(args, resolved: dict | None) -> Path:
    """Create --out and record the command's resolved settings in it as
    resolved_config.json; param-count passes None, as its counts.json carries
    them."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if resolved is not None:
        write_output(out / "resolved_config.json", json_text(resolved))
    return out


def _config(args, run: bool = False,
            diagnostic: str | None = None) -> tuple[dict, RunConfig | None]:
    """One command's settings: the own keys its run reads, and a RunConfig
    when run is set.

    Defaults, then the flags named like a key, then the --config file. The
    training keys go to RunConfig.from_dict; the command's own keys, its
    rows of KEYS, are coerced to their default's type and checked against
    their range. A key given to a run that does not read it, by its model
    kind, its dataset or the diagnostic, is refused. Every problem is
    raised together in one ConfigError.
    """
    own = [k for k, row in KEYS.items() if args.command in row.commands]
    keys = [*RUN_KEYS, *own] if run else own
    given = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    given.update(_read_config(args.config))
    training = {k: v for k, v in given.items() if run and k in RUN_KEYS}
    values, errors = coerce_keys(own, {k: v for k, v in given.items() if k not in training})
    cfg = None
    if run:
        try:
            cfg = RunConfig.from_dict(training)
        except ConfigError as exc:
            errors += exc.messages
    # the values each selector takes; a refused one, or one the command
    # lacks, takes all; depth_retention trains each of kinds as the model
    model = training.get("model", KEYS["model"].default)
    kinds = values.get("kinds", MODEL_KINDS) if diagnostic == "depth_retention" else None
    chosen = {"model": kinds or ([model] if model in MODEL_KINDS else MODEL_KINDS),
              "dataset": [values["dataset"]] if "dataset" in values else DATASETS,
              "diagnostic": [diagnostic] if diagnostic else DIAGNOSTICS}
    for k in keys:
        by = refused_by(k, chosen) if k in given else None
        if by:
            of = f"kinds {kinds}" if kinds and by == "model" else f"{by} {chosen[by][0]!r}"
            errors.append(f"config key {k!r} is not read by {of}")
    if errors:
        raise ConfigError(errors)
    return {k: values[k] for k in own if reads(k, chosen)}, cfg


# ---------------------------------------------------------------- commands

def cmd_generate(args) -> None:
    cfg, _ = _config(args)
    try:
        if cfg["dataset"] == "minesweeper":
            g = gen_minesweeper_grid(cfg["rows"], cfg["cols"], cfg["mine_prob"],
                                     cfg["seed"], unknown_frac=cfg["unknown_frac"])
        else:
            g = gen_sbm(cfg["sizes"], cfg["p_in"], cfg["p_out"], cfg["seed"],
                        feature_dim=cfg["feature_dim"],
                        feature_shift=cfg["feature_shift"])
    except ValueError as exc:
        raise ConfigError([str(exc)])
    isolated = np.flatnonzero(degrees(g) == 0)
    if isolated.size:
        raise ConfigError([f"the generated graph has {isolated.size} isolated "
                           f"nodes (first: node {isolated[0]}), which training "
                           f"rejects; raise p_in or p_out"])
    out = _out_dir(args, cfg)
    save_graph(g, out / "graph.json")
    labels, counts = np.unique(g.y, return_counts=True)
    stats = {
        "n": g.n,
        "n_edges": g.n_arcs // 2,
        "n_arcs": g.n_arcs,
        "class_balance": {str(int(l)): float(c) / g.n
                          for l, c in zip(labels, counts)},
        "edge_homophily": edge_homophily(g),
    }
    write_output(out / "stats.json", json_text(stats))
    print(f"wrote graph.json ({g.n} nodes, {g.n_arcs // 2} edges) and stats.json to {out}")


def _metric_bundle(model, data, split: str = "test"):
    """Headline metric plus whatever companion metrics the task admits, and
    the exit state of a node task, all from one eval forward."""
    with ad.no_grad():
        logits, state = forward_node(model, operators_for(model, data),
                                     "eval_argmax")
    bundle = node_record(model, data, logits, state, split)
    if model.cfg.task != "node_class":
        return bundle, None
    sel = data.masks[split]
    lv, y = logits.value[sel], np.asarray(data.y)[sel]
    for name in ("accuracy", "macro_f1"):
        bundle[name] = metric_eval(lv, y, name)
    try:
        bundle["auroc"] = metric_eval(lv, y, "auroc")
        bundle["ap"] = metric_eval(lv, y, "ap")
    except ValueError:
        bundle["auroc"] = None
        bundle["ap"] = None
    return bundle, state


def _load_data(path):
    if path is None:
        raise ConfigError(["no dataset given: pass --data or config key 'data'"])
    return load_dataset(path)


def cmd_train(args) -> None:
    opts, cfg = _config(args, run=True)
    data = _load_data(opts["data"])
    model, history = train_run(cfg, data)
    out = _out_dir(args, {**cfg.read_dict(), **opts})
    write_output(out / "history.csv", history_csv(history))
    save_checkpoint(model, out / "checkpoint.json")
    bundle, state = _metric_bundle(model, data)
    write_output(out / "metrics.json", json_text(bundle))
    if state is not None:
        test_ids = np.flatnonzero(data.masks["test"])
        write_output(out / "exits.csv", exit_csv(state, agent_ids=test_ids))
    print(f"trained {cfg.model} for {len(history)} epochs; "
          f"test {bundle['metric']} = {bundle['value']}")


def cmd_evaluate(args) -> None:
    opts, _ = _config(args)
    if opts["checkpoint"] is None:
        raise ConfigError(["no checkpoint given: pass --checkpoint or config key 'checkpoint'"])
    model = load_checkpoint(opts["checkpoint"])
    data = _load_data(opts["data"])
    mode = "train_sample" if args.mode == "train" else "eval_argmax"
    rec = evaluate(model, data, "test", mode=mode)
    out = _out_dir(args, {**model.cfg.read_dict(), **opts, "mode": mode})
    write_output(out / "metrics.json", json_text(rec))
    print(f"test {rec['metric']} = {rec['value']}")


def _diag_graph(diag: dict, cfg: RunConfig):
    if diag["data"] is not None:
        data = load_dataset(diag["data"])
        if isinstance(data, GraphSet):
            raise ConfigError(["diagnostics need a single-graph dataset"])
        return data
    return gen_sbm((20, 20), KEYS["p_in"].default, KEYS["p_out"].default, cfg.seed,
                   feature_dim=KEYS["feature_dim"].default)


def _fresh_model(cfg: RunConfig, g):
    if cfg.edge_mode != "zero" and g.E_feat is None:     # as training refuses it
        raise ConfigError([f"edge_mode {cfg.edge_mode!r} needs edge features; "
                           f"the dataset has none"])
    return model_for(cfg, g, np.random.Generator(np.random.PCG64(cfg.seed)))


def cmd_diagnose(args) -> None:
    if args.name is None or args.name not in DIAGNOSTICS:
        raise ConfigError([f"unknown diagnostic {args.name!r}; valid names: "
                           + ", ".join(DIAGNOSTICS)])
    diag, cfg = _config(args, run=True, diagnostic=args.name)
    # as in train, nothing is written until the run is done
    report = {"diagnostic": args.name, "seed": cfg.seed}
    traces = {}
    if args.name == "dirichlet":
        g = _diag_graph(diag, cfg)
        model = _fresh_model(cfg, g)
        tr_sum, tr_mean = diagnostics.dirichlet_traces(model, g)
        traces = {"dirichlet_sum.csv": tr_sum, "dirichlet_mean.csv": tr_mean}
        initial, final = float(tr_sum.values[0]), float(tr_sum.values[-1])
        report.update({"initial": initial, "final": final,
                       "final_over_initial": final / initial if initial else None})
    elif args.name == "energy_descent":
        report.update(diagnostics.descent_suite(diag["cases"], diag["steps"],
                                                diag["step_tau"], seed=cfg.seed))
    elif args.name == "spectrum":
        report.update(diagnostics.spectrum_suite(diag["cases"], seed=cfg.seed))
    elif args.name == "sensitivity":
        g = _diag_graph(diag, cfg)
        model = _fresh_model(cfg, g)
        values = diagnostics._sensitivities(model, g, range(cfg.depth + 1))
        report.update({
            "layers": list(range(cfg.depth + 1)),
            "sensitivity": values,
            "log_sensitivity": [math.log(v) if v > 0 else None for v in values],
        })
    elif args.name == "depth_retention":
        g = _diag_graph(diag, cfg)
        rows = diagnostics.depth_retention(g, diag["kinds"], diag["depths"], cfg)
        verdicts = {}
        for kind in diag["kinds"]:
            vals = [r["value"] for r in rows if r["kind"] == kind]
            gap = max(vals) - min(vals)
            verdicts[kind] = {"gap": gap}
            if kind in ("sas", "eegnn"):
                verdicts[kind]["pass"] = gap <= 0.05
        report.update({"rows": rows, "verdicts": verdicts})
        judged = [v["pass"] for v in verdicts.values() if "pass" in v]
        if judged:      # with no judged kind in kinds, a measurement
            report["pass"] = all(judged)
    else:  # oracle_exit
        g = _diag_graph(diag, cfg)
        model, _ = train_run(cfg, g)
        oracle, final = diagnostics.oracle_exit_eval(model, g)
        report.update({"oracle_accuracy": oracle, "final_accuracy": final,
                       "gain": oracle - final})

    out = _out_dir(args, {**cfg.read_dict(diag.get("kinds"), args.name), **diag,
                          "diagnostic": args.name})
    for fname, trace in traces.items():
        diagnostics.emit_trace(trace, out / fname)
    write_output(out / "report.json", json_text(report))
    # dirichlet, sensitivity, oracle_exit and a depth_retention that judges
    # no kind report measurements, no verdict
    verdict = report.get("pass")
    status = "measured" if verdict is None else "pass" if verdict else "FAIL"
    print(f"{args.name}: {status} (report.json in {out})")
    if verdict is False:
        raise ToleranceError(f"diagnostic {args.name} outside tolerance")


def cmd_param_count(args) -> None:
    dims, cfg = _config(args, run=True)
    errors = cross_key_errors({**cfg.to_dict(), **dims})
    if errors:
        raise ConfigError(errors)
    model = build_model(cfg, dims["feat_dim"], dims["out_dim"],
                        np.random.Generator(np.random.PCG64(cfg.seed)),
                        edge_dim=dims["edge_dim"])
    doc = {"model": cfg.model, "depth": cfg.depth, "hidden": cfg.hidden,
           **dims, **model.param_counts()}
    out = _out_dir(args, None)
    write_output(out / "counts.json", json_text(doc))
    print(json_text(doc), end="")


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="eegnn", description="graph cell training and diagnostics")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = [
        ("generate", cmd_generate, "write a synthetic benchmark graph"),
        ("train", cmd_train, "train a model and write history/checkpoint/metrics"),
        ("evaluate", cmd_evaluate, "score a saved checkpoint on a dataset"),
        ("diagnose", cmd_diagnose, "run one named diagnostic"),
        ("param-count", cmd_param_count, "parameter accounting for a config"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config; overrides flags")
        if name in ("generate", "train", "diagnose"):
            p.add_argument("--seed", type=int, help="run seed")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory")
        if name in ("train", "evaluate", "diagnose"):
            p.add_argument("--data", metavar="PATH", help="dataset JSON")
        if name == "evaluate":
            p.add_argument("--checkpoint", metavar="PATH", help="checkpoint JSON")
            p.add_argument("--mode", choices=("train", "eval"), default="eval",
                           help="forward mode (sampled vs argmax exits)")
        if name == "diagnose":
            p.add_argument("name", nargs="?",
                           help="one of: " + ", ".join(DIAGNOSTICS))
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceError as exc:
        print(f"tolerance: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
