"""Which eegnn functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Each traced function becomes a span named
`<module>.<function>`; `graphs.spmm` splits into `graphs.spmm` and
`graphs.spmm_t` on its `transpose` flag, `training.forward_node` into
`.train` and `.eval` on its mode, and `cli.main` into one span per
subcommand. Every call of an autodiff op creates exactly one tape node, so
op spans count tape nodes and their amount is the node's value plus grad
bytes. Other computed amounts: spmm bytes moved (arc values, column and row
indices, the gathered rows of H and the output), eigvals flops (~10 m^3),
and file bytes for checkpoint and dataset I/O.
"""

from __future__ import annotations

import os

from spans import Tracer, median, round_table

NON_OPS = {"DiffValue", "backward", "zero_grads", "fd_check"}
OPERATOR_PREP = ("graphs.norm_adj", "graphs.mean_adj", "graphs.incidence_aggregate")
NAMED_OPS = ("matmul_add", "activation_apply", "add_scaled_rows", "dspmm")


def _spmm_name(args, kwargs):
    transpose = kwargs.get("transpose", args[2] if len(args) > 2 else False)
    return "graphs.spmm_t" if transpose else "graphs.spmm"


def _spmm_bytes(args, kwargs, out):
    a, H = args[0], args[1]
    nnz, width = a.col_indices.size, H.shape[1]
    return float(a.values.nbytes + a.col_indices.nbytes + a.row_offsets.nbytes
                 + 8 * nnz * width + out.nbytes)


def _node_bytes(args, kwargs, out):
    return float(out.value.nbytes + out.grad.nbytes)


def _forward_node_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval_argmax")
    return "training.forward_node." + ("train" if mode == "train_sample" else "eval")


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None) or ["?"]
    return "cli.main." + str(argv[0])


def _file_bytes(position):
    def amount(args, kwargs, out):
        return float(os.path.getsize(args[position]))
    return amount


def _eig_flops(args, kwargs, out):
    m = len(args[0])
    return 10.0 * m ** 3


def install_all(tracer: Tracer, ee) -> None:
    """Wrap every traced function of the eegnn package `ee`."""
    g, ad, cells, ex, tr = ee.graphs, ee.autodiff, ee.cells, ee.exits, ee.training
    tracer.install(g, "spmm", _spmm_name, _spmm_bytes)
    for name in ("norm_adj", "mean_adj", "incidence_aggregate", "load_graph_fields"):
        tracer.install(g, name)
    tracer.install(g, "save_graph", amount=_file_bytes(1))
    for name in ad.__all__:
        if name not in NON_OPS:
            tracer.install(ad, name, amount=_node_bytes)
    tracer.install(ad, "backward")
    tracer.install(ad, "zero_grads")
    for name in ("sas_step", "baseline_step", "encode", "decode", "antisymmetrize",
                 "symmetrize"):
        tracer.install(cells, name)
    tracer.install(ex, "eegnn_forward_node", keep_result=True)
    for name in ("confidence_logits", "inv_temperature", "gumbel_softmax_st",
                 "sample_gumbel"):
        tracer.install(ex, name)
    tracer.install(tr, "forward_node", _forward_node_name)
    for name in ("train_run", "loss_eval", "adam_step", "metric_eval", "evaluate"):
        tracer.install(tr, name)
    tracer.install(tr, "save_checkpoint", amount=_file_bytes(1))
    tracer.install(tr, "load_checkpoint", amount=_file_bytes(0))
    tracer.install(tr, "load_dataset", amount=_file_bytes(0))
    tracer.install(ee.eig, "eigvals", amount=_eig_flops)
    for name in ("sensitivity", "sas_jacobian", "spectrum_suite"):
        tracer.install(ee.diagnostics, name)
    tracer.install(ee.cli, "main", _cli_name)


def op_names(ee) -> list[str]:
    return [f"autodiff.{n}" for n in ee.autodiff.__all__ if n not in NON_OPS]


# Spans that must fire on each workload; a miss means a binding escaped
# rebinding (or the code path changed) and must not read as zero.
EXPECTED = {
    "cli-eegnn20": {
        "graphs.spmm", "graphs.spmm_t", "graphs.norm_adj", "graphs.mean_adj",
        "graphs.save_graph", "graphs.load_graph_fields", "autodiff.matmul_add",
        "autodiff.activation_apply", "autodiff.add_scaled_rows", "autodiff.dspmm",
        "autodiff.backward", "autodiff.zero_grads", "cells.sas_step", "cells.encode",
        "cells.decode", "cells.antisymmetrize", "cells.symmetrize",
        "exits.eegnn_forward_node", "exits.confidence_logits",
        "exits.inv_temperature", "exits.gumbel_softmax_st", "exits.sample_gumbel",
        "training.train_run", "training.forward_node.train",
        "training.forward_node.eval", "training.loss_eval", "training.adam_step",
        "training.metric_eval", "training.evaluate", "training.save_checkpoint",
        "training.load_checkpoint", "training.load_dataset", "cli.main.generate",
        "cli.main.train", "cli.main.evaluate"},
    "diag-sens-spec": {"graphs.spmm", "graphs.spmm_t", "graphs.norm_adj",
                       "autodiff.matmul_add", "autodiff.activation_apply",
                       "autodiff.add_scaled_rows", "autodiff.dspmm",
                       "autodiff.backward", "cells.sas_step", "cells.encode",
                       "cells.antisymmetrize", "cells.symmetrize", "eig.eigvals",
                       "diagnostics.sensitivity", "diagnostics.sas_jacobian",
                       "diagnostics.spectrum_suite"},
}


def _train_children(tracer: Tracer, lo: int, hi: int) -> dict[int, list]:
    """Direct children of each train_run span in [lo, hi), in call order."""
    names, nid, par = tracer.names, tracer.name_id, tracer.parent
    runs = {i: [] for i in range(lo, hi) if names[nid[i]] == "training.train_run"}
    for i in range(lo, hi):
        if par[i] in runs:
            runs[par[i]].append(i)
    return runs


def _epoch_windows(tracer: Tracer, runs: dict[int, list]):
    """Children of train_run per epoch sample, with the sample's start time.

    An epoch sample runs from the end of one adam_step to the end of the next
    inside the same train_run, so it holds one eval pass and one training step.
    """
    names, nid = tracer.names, tracer.name_id
    out = []
    for kids in runs.values():
        adams = [j for j, i in enumerate(kids) if names[nid[i]] == "training.adam_step"]
        for a, b in zip(adams, adams[1:]):
            out.append((tracer.end[kids[a]], kids[a + 1:b + 1]))
    return out


def _phase_split(tracer: Tracer, t0: float, kids: list):
    """Split one epoch sample into eval, train forward + loss, backward, optimizer.

    Boundaries, all taken from direct children of train_run: eval runs from the
    sample start to the end of the loss_eval spans that directly follow the
    sample's last metric_eval; train forward + loss runs from there to the
    start of zero_grads; backward from there to the start of adam_step.
    """
    kinds = [tracer.names[tracer.name_id[i]] for i in kids]
    zg = kids[kinds.index("autodiff.zero_grads")]
    j = max(j for j, k in enumerate(kinds) if k == "training.metric_eval")
    while kinds[j + 1] == "training.loss_eval":
        j += 1
    eval_end, adam = tracer.end[kids[j]], kids[-1]
    return {"eval_s": eval_end - t0,
            "train_fwd_loss_s": tracer.start[zg] - eval_end,
            "backward_s": tracer.start[adam] - tracer.start[zg],
            "optimizer_s": tracer.end[adam] - tracer.start[adam]}


def round_metrics(tracer: Tracer, ee, lo: int, hi: int, selfs, setup_table, last_exit):
    """Per-layer metrics of spans [lo, hi); setup-only layers come from setup_table.

    last_exit is the (Z, ExitState, records) of the round's last
    eegnn_forward_node call, or None when no exit heads ran.
    """
    table = dict(setup_table or {})
    table.update(round_table(tracer, lo, hi, selfs))

    def calls(n):
        return table.get(n, (0, 0.0, 0.0))[0]

    def self_s(*ns):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in ns)

    def amount(n):
        return table.get(n, (0, 0.0, 0.0))[2]

    ops = op_names(ee)
    m = {
        "graphs.spmm.calls": calls("graphs.spmm"),
        "graphs.spmm.self_s": self_s("graphs.spmm"),
        "graphs.spmm.bytes": amount("graphs.spmm"),
        "graphs.spmm_t.calls": calls("graphs.spmm_t"),
        "graphs.spmm_t.self_s": self_s("graphs.spmm_t"),
        "graphs.spmm_t.bytes": amount("graphs.spmm_t"),
        "graphs.operator_prep.self_s": self_s(*OPERATOR_PREP),
        "graphs.save_graph.self_s": self_s("graphs.save_graph"),
        "graphs.load_graph_fields.self_s": self_s("graphs.load_graph_fields"),
        "autodiff.op.calls": sum(calls(n) for n in ops),
        "autodiff.op.self_s": self_s(*ops),
        "autodiff.tape_bytes": sum(amount(n) for n in ops),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.self_s": self_s("autodiff.backward"),
        "autodiff.zero_grads.self_s": self_s("autodiff.zero_grads"),
    }
    for op in NAMED_OPS:
        m[f"autodiff.{op}.self_s"] = self_s(f"autodiff.{op}")
    for fn in ("sas_step", "baseline_step", "encode", "decode"):
        m[f"cells.{fn}.calls"] = calls(f"cells.{fn}")
        m[f"cells.{fn}.self_s"] = self_s(f"cells.{fn}")
    for fn in ("antisymmetrize", "symmetrize"):
        m[f"cells.{fn}.calls"] = calls(f"cells.{fn}")
    for fn in ("eegnn_forward_node", "confidence_logits", "inv_temperature",
               "gumbel_softmax_st", "sample_gumbel"):
        m[f"exits.{fn}.self_s"] = self_s(f"exits.{fn}")
    for mode in ("train", "eval"):
        m[f"training.forward_node.{mode}.self_s"] = self_s(f"training.forward_node.{mode}")
    for fn in ("loss_eval", "adam_step", "metric_eval", "evaluate"):
        m[f"training.{fn}.self_s"] = self_s(f"training.{fn}")
    for fn in ("save_checkpoint", "load_checkpoint", "load_dataset"):
        m[f"training.{fn}.self_s"] = self_s(f"training.{fn}")
        m[f"training.{fn}.bytes"] = amount(f"training.{fn}")
    m["eig.eigvals.calls"] = calls("eig.eigvals")
    m["eig.eigvals.self_s"] = self_s("eig.eigvals")
    m["eig.eigvals.flops"] = amount("eig.eigvals")
    for fn in ("sensitivity", "sas_jacobian", "spectrum_suite"):
        m[f"diagnostics.{fn}.self_s"] = self_s(f"diagnostics.{fn}")
    for cmd in ("generate", "train", "evaluate"):
        m[f"cli.main.{cmd}.self_s"] = self_s(f"cli.main.{cmd}")

    windows = _epoch_windows(tracer, _train_children(tracer, lo, hi))
    bounds = [(t0, tracer.end[kids[-1]]) for t0, kids in windows]
    prep = {fn: 0 for fn in OPERATOR_PREP}
    for i in range(lo, hi):
        fn = tracer.names[tracer.name_id[i]]
        if fn in prep and any(t0 < tracer.start[i] < t1 for t0, t1 in bounds):
            prep[fn] += 1
    for fn, hits in prep.items():
        m[f"{fn}.calls_per_epoch"] = hits / len(windows) if windows else 0.0
    phases = [_phase_split(tracer, t0, kids) for t0, kids in windows]
    for key in ("train_fwd_loss_s", "backward_s", "optimizer_s", "eval_s"):
        m[f"training.epoch.{key}"] = median([p[key] for p in phases]) if phases else 0.0

    if last_exit is not None:
        _, state, records = last_exit
        m["exits.layers_run"] = len(records)
        m["exits.useful_layer_ratio"] = min(int(state.exit_layer.max()) + 1, state.L) / state.L
    else:
        m["exits.layers_run"] = 0
        m["exits.useful_layer_ratio"] = 0.0
    return m, {n for n, row in table.items() if row[0] > 0}


def exact_keys(metrics: dict) -> list[str]:
    """Metrics computed from counts and array sizes; these must repeat exactly."""
    return sorted(k for k in metrics if not k.endswith("_s"))


# The per-layer metrics the traced run prints as its result, in BENCHMARK.json
# order. Times listed here fire on every workload; layer times that only some
# workloads reach are in the printed report, not in this list.
PER_LAYER = (
    [(f"graphs.{k}.{f}", u, "lower") for k in ("spmm", "spmm_t")
     for f, u in (("calls", "count"), ("self_s", "s"), ("bytes", "B"))]
    + [("graphs.operator_prep.self_s", "s", "lower")]
    + [(f"{fn}.calls_per_epoch", "count", "lower") for fn in OPERATOR_PREP]
    + [("autodiff.op.calls", "count", "lower"), ("autodiff.op.self_s", "s", "lower"),
       ("autodiff.tape_bytes", "B", "lower")]
    + [(f"autodiff.{op}.self_s", "s", "lower") for op in NAMED_OPS]
    + [("autodiff.backward.calls", "count", "lower"),
       ("autodiff.backward.self_s", "s", "lower")]
    + [("cells.sas_step.calls", "count", "lower"), ("cells.sas_step.self_s", "s", "lower"),
       ("cells.encode.calls", "count", "lower"), ("cells.encode.self_s", "s", "lower"),
       ("cells.baseline_step.calls", "count", "lower"),
       ("cells.decode.calls", "count", "lower"),
       ("cells.antisymmetrize.calls", "count", "lower"),
       ("cells.symmetrize.calls", "count", "lower")]
    + [("exits.layers_run", "count", "lower"),
       ("exits.useful_layer_ratio", "ratio", "higher")]
    + [("eig.eigvals.calls", "count", "lower"), ("eig.eigvals.flops", "flop", "lower")]
    + [(f"training.{fn}.bytes", "B", "lower")
       for fn in ("save_checkpoint", "load_checkpoint", "load_dataset")]
    + [("trace.overhead_ratio", "ratio", "lower")]
)
