"""Training plumbing: config, losses, Adam, metrics, and the fit/eval loops.

Everything is deterministic in the seed: one PCG64 generator drives
initialization and per-epoch exit sampling, evaluation passes are noise-free,
and history/checkpoint serialization has no timestamps or environment
dependence, so identical (config, seed, data) reruns produce byte-identical
outputs.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from contextlib import contextmanager
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import ACTIVATION_KINDS, DiffValue
from .cells import (CellParams, EDGE_KINDS, EDGE_MODES, MODEL_KINDS, TASKS,
                    Operators, build_operators, decode, encode, make_cell_params,
                    propagate)
from .exits import (ExitHeads, ExitState, eegnn_forward_node, exit_distribution,
                    make_exit_heads)
from .graphs import SPLITS, Graph, Segments, _shown, degrees, disjoint_union, \
    json_text, load_graph_fields, read_count, read_masks, read_numbers, \
    read_object, write_output

__all__ = [
    "ConfigError",
    "TrainDivergenceError",
    "RunConfig",
    "coerce_keys",
    "KEYS",
    "DATASETS",
    "RUN_KEYS",
    "reads",
    "GraphSet",
    "Model",
    "OptimState",
    "LOSS_KINDS",
    "METRIC_KINDS",
    "loss_eval",
    "adam_step",
    "metric_eval",
    "scores_from_logits",
    "classes_from_logits",
    "build_model",
    "model_for",
    "operators_for",
    "forward_node",
    "train_run",
    "evaluate",
    "node_record",
    "history_csv",
    "exit_csv",
    "save_checkpoint",
    "load_checkpoint",
    "load_dataset",
]

LOSS_KINDS = ("ce", "bce_logits", "mse", "l1")
DATASETS = ("minesweeper", "sbm")
METRIC_KINDS = ("accuracy", "auroc", "ap", "macro_f1", "mae")


class ConfigError(ValueError):
    """Invalid run configuration or malformed input file; carries every
    problem found, not just the first."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class TrainDivergenceError(RuntimeError):
    """Non-finite loss encountered; carries the epoch index."""

    def __init__(self, epoch, value):
        self.epoch = epoch
        super().__init__(f"non-finite loss {value} at epoch {epoch}")


def _coerce(v, default):
    """v as a value of default's type under coerce_keys' rules, or None."""
    kind = str if default is None else type(default)
    if kind in (list, tuple):
        # a list takes a non-empty list, a tuple (of ints) any list or tuple
        if not isinstance(v, (list, tuple)) or not (v or kind is tuple):
            return None
        items = [_coerce(x, default[0] if default else 0) for x in v]
        return None if None in items else kind(items)
    if kind in (bool, str):
        return v if isinstance(v, kind) else None
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    if kind is int and not (isinstance(v, numbers.Integral)
                            or (math.isfinite(v) and float(v).is_integer())):
        return None
    # false for NaN, an infinity and an integer beyond the float range alike,
    # so an int key refuses such an integer as a float key does
    return kind(v) if abs(v) <= sys.float_info.max else None


def _type_name(default) -> str:
    if isinstance(default, list):
        return f"non-empty list of {type(default[0]).__name__}"
    names = {type(None): "path string", tuple: "list of int"}
    return names.get(type(default), type(default).__name__)


def coerce_keys(defaults: dict, d: dict) -> tuple[dict, list[str]]:
    """d's values, each coerced to the type of its key's default, and one
    message per key that is unknown, cannot be coerced, or breaks its range
    rule in KEYS.

    A bool takes only a bool, a str only a str, an int an int or an integral
    float, a float any number, each within the float range; a bool is never
    taken as a number. A tuple
    default takes a list of ints by that rule, empty included, a list
    default a non-empty list of its first item's type, and a None default a
    path string.
    """
    errors = [f"unknown config key {k!r}" for k in sorted(set(d) - set(defaults))]
    values = {}
    for key, default in defaults.items():
        if key not in d:
            continue
        v = _coerce(d[key], default)
        rule = KEYS[key].rule if key in KEYS else None
        if v is None:
            errors.append(f"config key {key!r}: cannot coerce {_shown(d[key])} "
                          f"to {_type_name(default)}")
        elif rule is not None and not rule[0](v):
            errors.append(f"{key} {rule[1]}, got {_shown(v)}")
        else:
            values[key] = v
    return values, errors


# One config key: its default, whose type is the type coerce_keys reads it
# as; its range rule, a (test, words) pair on the coerced value; the runs
# that read it, (selector, values) pairs that a run must each meet, none
# when every run of a command that takes the key reads it; and the commands
# that take it, besides the training commands for a RunConfig field.
Key = namedtuple("Key", "default rule readers commands", defaults=(None, (), ()))

# the diagnostics that build a model from the training keys; spectrum and
# energy_descent draw their own configs and read only seed of them
MODEL_DIAGS = ("dirichlet", "sensitivity", "depth_retention", "oracle_exit")


def _at_least(lo):
    return (lambda v: v >= lo), f"must be >= {lo}"


def _one_of(choices):
    return (lambda v: v in choices), f"must be one of {choices}"


def _key(default, rule=None, model=None, commands=(), diagnostics=MODEL_DIAGS):
    """A RunConfig field carrying its row of KEYS: read by the kinds of the
    ("model", kinds) pair model, by every kind when None, and of the
    diagnostics by those in diagnostics alone."""
    readers = (model, ("diagnostic", diagnostics) if diagnostics else None)
    return field(default=default, metadata={"key": Key(
        default, rule, tuple(r for r in readers if r), commands)})


def _rows(rule, readers, commands, **defaults):
    """Rows of KEYS that differ only in their keys and defaults."""
    return {k: Key(v, rule, readers, commands) for k, v in defaults.items()}


_STEP = (lambda v: 0.0 < v <= 1.0), "must lie in (0, 1]"
_EXITS = ("model", ("eegnn",))


@dataclass
class RunConfig:
    """One training run's knobs, each with its row of KEYS; validated all at
    once by from_dict, which takes every key whatever the model kind."""

    task: str = _key("node_class", _one_of(TASKS))
    model: str = _key("sas", _one_of(MODEL_KINDS))
    depth: int = _key(10, _at_least(1))
    hidden: int = _key(16, _at_least(1))
    # eegnn's exit heads set its step, and gcn takes none
    tau: float = _key(1.0, _STEP, ("model", ("sas", "graff", "adgn")))
    # adgn's step applies tanh, whatever sigma1 says
    sigma1: str = _key("relu_tanh", _one_of(ACTIVATION_KINDS),
                       ("model", ("sas", "eegnn", "gcn", "graff")))
    sigma2: str = _key("relu", _one_of(ACTIVATION_KINDS), ("model", EDGE_KINDS))
    edge_mode: str = _key("zero", _one_of(EDGE_MODES))
    exit_hidden: int = _key(16, _at_least(1), _EXITS)
    exit_depth: int = _key(1, _one_of((1, 2, 3)), _EXITS)
    nu0: float = _key(0.05, _at_least(0), _EXITS)
    dec_hidden: tuple = _key((), ((lambda v: all(h >= 1 for h in v)),
                                  "must be a tuple of widths >= 1"))
    epochs: int = _key(300, _at_least(0))
    seed: int = _key(0, _at_least(0), None, ("generate",), diagnostics=None)
    metric: str = _key("auroc", _one_of(METRIC_KINDS))
    loss: str = _key("ce", _one_of(LOSS_KINDS))
    lr: float = _key(3e-3, _at_least(0))
    weight_decay: float = _key(0.0, _at_least(0))
    # how a non-zero weight_decay applies; inert while weight_decay is 0
    decoupled_wd: bool = _key(False)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Validated config from a JSON-style dict, each key coerced by
        coerce_keys; every problem lands in one ConfigError."""
        values, errors = coerce_keys(asdict(cls()), d)
        cfg = cls(**values)
        # the rules between keys; each key's own range is in KEYS
        errors += [msg for ok, msg in [
            (cfg.edge_mode == "zero" or cfg.model in EDGE_KINDS,
             f"edge_mode {cfg.edge_mode!r} needs a model in {EDGE_KINDS}; "
             f"{cfg.model!r} has no edge term"),
            (not (cfg.loss == "ce" and cfg.metric == "mae"),
             "metric 'mae' scores values, but loss 'ce' gives class logits"),
        ] if not ok]
        if errors:
            raise ConfigError(errors)
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dec_hidden"] = list(self.dec_hidden)
        return d

    def read_dict(self, kinds=None, diagnostic=None) -> dict:
        """to_dict's keys that the model kind reads, or any of kinds when
        given, and the diagnostic when given: the config a CLI run takes
        and records."""
        chosen = {"model": kinds or [self.model]}
        if diagnostic is not None:
            chosen["diagnostic"] = [diagnostic]
        return {k: v for k, v in self.to_dict().items() if reads(k, chosen)}


RUN_KEYS = tuple(f.name for f in fields(RunConfig))
_GEN = ("generate",)
_DIAG = ("diagnose",)

# Every config key of every command: RunConfig's fields, then the keys of
# single commands. The selector of a training key is the model kind, of a
# generate key the dataset, and of diagnose's own keys the diagnostic; cli
# refuses a key given to a run that does not read it.
KEYS = {
    **{f.name: f.metadata["key"] for f in fields(RunConfig)},
    "dataset": Key("minesweeper", _one_of(DATASETS), (), _GEN),
    **_rows(None, (("dataset", ("minesweeper",)),), _GEN, rows=30, cols=30,
            mine_prob=0.2, unknown_frac=0.5),
    **_rows(None, (("dataset", ("sbm",)),), _GEN, sizes=[50, 50], p_in=0.7,
            p_out=0.1, feature_dim=8, feature_shift=1.0),
    # the dataset path; train and evaluate always read it, and a diagnostic
    # without it runs on a built-in block-model graph
    "data": Key(None, None, (("diagnostic", MODEL_DIAGS),),
                ("train", "evaluate", "diagnose")),
    "steps": Key(50, _at_least(1), (("diagnostic", ("energy_descent",)),), _DIAG),
    "cases": Key(25, _at_least(1), (("diagnostic", ("energy_descent", "spectrum")),),
                 _DIAG),
    "step_tau": Key(0.05, _STEP, (("diagnostic", ("energy_descent",)),), _DIAG),
    "depths": Key([2, 6], None, (("diagnostic", ("depth_retention",)),), _DIAG),
    # depth_retention trains each of these kinds in place of the model
    "kinds": Key(["sas"], ((lambda v: set(v) <= set(MODEL_KINDS)),
                           f"must be model kinds, from {MODEL_KINDS}"),
                 (("diagnostic", ("depth_retention",)),), _DIAG),
    "checkpoint": Key(None, None, (), ("evaluate",)),
    **_rows(_at_least(1), (), ("param-count",), feat_dim=10, out_dim=2),
    # >= 1 under a non-zero edge_mode, a rule cli.cmd_param_count keeps
    "edge_dim": Key(0, _at_least(0), (), ("param-count",)),
}


def refused_by(key: str, chosen: dict) -> str | None:
    """The first selector (model, dataset or diagnostic) whose values listed
    in chosen all fail to read key, or None when the run reads it; a
    selector chosen lacks limits nothing."""
    for selector, values in KEYS[key].readers:
        if selector in chosen and not any(v in values for v in chosen[selector]):
            return selector
    return None


def reads(key: str, chosen: dict) -> bool:
    """Whether a run whose selectors take the values listed in chosen reads key."""
    return refused_by(key, chosen) is None


def _widths(g: Graph) -> str:
    edges = "no" if g.E_feat is None else g.E_feat.shape[1]
    return f"{g.X.shape[1]} node features and {edges} edge features"


@dataclass
class GraphSet:
    """Inductive dataset: one label row and one split per member graph.

    The members run as one disjoint union, so each must have graph 0's node
    and edge feature widths (no edge features if graph 0 has none); a member
    that does not raises ConfigError naming it.
    """

    graphs: list
    y: np.ndarray
    masks: dict

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("a graph set needs at least one graph")
        if self.y.ndim == 0 or len(self.graphs) != self.y.shape[0]:
            raise ValueError("one label row per graph required")
        for name in SPLITS:
            if name not in self.masks:
                raise ValueError(f"missing split mask {name!r}")
            if np.shape(self.masks[name]) != (len(self.graphs),):
                raise ValueError(f"split mask {name!r} must have one entry per "
                                 f"graph ({len(self.graphs)}), got shape "
                                 f"{np.shape(self.masks[name])}")
        self.masks = {k: np.asarray(m, dtype=bool) for k, m in self.masks.items()}
        first = _widths(self.graphs[0])
        problems = [f"graph {i} has {_widths(g)}, graph 0 has {first}"
                    for i, g in enumerate(self.graphs) if _widths(g) != first]
        if problems:
            raise ConfigError(problems)


@dataclass
class Model:
    cfg: RunConfig
    params: CellParams
    heads: ExitHeads | None
    feat_dim: int
    out_dim: int
    edge_dim: int = 0

    def parameters(self) -> list[tuple[str, DiffValue]]:
        out = [(f"cell.{n}", p) for n, p in self.params.parameters()]
        if self.heads is not None:
            out += [(f"heads.{n}", p) for n, p in self.heads.parameters()]
        return out

    def param_counts(self) -> dict[str, int]:
        """Scalar parameters of parameters(), by component: encoder (enc_w,
        enc_b), decoder (the dec pairs), exit_heads (every heads leaf), core
        (every other cell leaf), and their total. The raw storage is what is
        counted, so the shared kinds' core does not grow with depth."""
        counts = dict.fromkeys(("encoder", "core", "decoder", "exit_heads"), 0)
        for name, leaf in self.parameters():
            owner, key = name.split(".", 1)
            part = ("exit_heads" if owner == "heads" else
                    "encoder" if key in ("enc_w", "enc_b") else
                    "decoder" if key.startswith("dec") else "core")
            counts[part] += leaf.value.size
        counts["total"] = sum(counts.values())
        return counts


# ------------------------------------------------------------------- losses

def loss_eval(pred: DiffValue, targets, kind: str, mask=None) -> DiffValue:
    """Mean-reduced scalar loss over the (optionally masked) rows."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    n, k = pred.shape
    sel = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if sel.shape != (n,):
        raise ValueError(f"mask length {sel.shape} does not match rows {n}")
    if not sel.any():
        raise ValueError("empty mask selects no rows")
    cnt = int(sel.sum())
    if kind == "ce":
        t = np.asarray(targets, dtype=np.int64).reshape(-1)
        if t.shape != (n,):
            raise ValueError(f"ce targets must be {n} class indices, got {t.shape}")
        if k < 2:
            raise ValueError("ce needs >= 2 logit columns; use bce_logits for one")
        if ((t[sel] < 0) | (t[sel] >= k)).any():
            raise ValueError(f"class index outside [0, {k})")
        lp = ad.row_log_softmax(pred)
        pick = np.zeros((n, k))
        pick[np.flatnonzero(sel), t[sel]] = 1.0 / cnt
        return ad.neg(ad.sum_all(ad.mul_const(lp, pick)))
    t = np.asarray(targets, dtype=np.float64).reshape(pred.shape[0], -1)
    if t.shape != pred.shape:
        raise ValueError(f"targets shape {t.shape} must match predictions {pred.shape}")
    w = np.zeros_like(pred.value)
    w[sel] = 1.0 / (cnt * k)
    if kind == "bce_logits":
        if not np.isin(t[sel], (0.0, 1.0)).all():
            raise ValueError("bce_logits targets must be 0 or 1")
        # elementwise softplus(x) - x*y is the overflow-safe -log p(y)
        per = ad.sub(ad.activation_apply(pred, "softplus"), ad.mul_const(pred, t))
        return ad.sum_all(ad.mul_const(per, w))
    diff = ad.sub(pred, ad.constant(t))
    if kind == "mse":
        return ad.sum_all(ad.mul_const(ad.mul(diff, diff), w))
    return ad.sum_all(ad.mul_const(ad.abs_val(diff), w))


# ------------------------------------------------------------------- optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam state: first/second moments keyed by parameter name; the decay
    rates and epsilon are the module constants ADAM_BETA1/2 and ADAM_EPS."""

    lr: float = 3e-3
    weight_decay: float = 0.0
    decoupled: bool = False
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: list[tuple[str, DiffValue]], state: OptimState) -> None:
    """One bias-corrected Adam update in place; grads must already be summed."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        g = p.grad
        if state.weight_decay != 0.0 and not state.decoupled:
            g = g + state.weight_decay * p.value
        m = state.m.setdefault(name, np.zeros_like(p.value))
        v = state.v.setdefault(name, np.zeros_like(p.value))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        if state.decoupled and state.weight_decay != 0.0:
            p.value *= 1.0 - state.lr * state.weight_decay
        p.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ------------------------------------------------------------------- metrics

def _tied_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    r = np.arange(1, len(x) + 1, dtype=np.float64)
    bounds = np.flatnonzero(np.diff(sx) != 0.0)
    starts = np.concatenate(([0], bounds + 1))
    ends = np.concatenate((bounds, [len(sx) - 1]))
    for s, e in zip(starts, ends):
        if e > s:
            r[s:e + 1] = 0.5 * (s + e) + 1.0
    out = np.empty_like(r)
    out[order] = r
    return out


def _auroc(scores, labels) -> float:
    pos = labels == 1
    np_, nn = int(pos.sum()), int((~pos).sum())
    if np_ == 0 or nn == 0:
        raise ValueError("auroc undefined for single-class targets")
    ranks = _tied_ranks(scores)
    return float((ranks[pos].sum() - np_ * (np_ + 1) / 2.0) / (np_ * nn))


def _average_precision(scores, labels) -> float:
    pos_total = int((labels == 1).sum())
    if pos_total == 0:
        raise ValueError("average precision undefined without positive targets")
    order = np.argsort(-scores, kind="mergesort")
    y = labels[order]
    s = scores[order]
    tp = np.cumsum(y == 1)
    ranks = np.arange(1, len(y) + 1)
    last = np.concatenate((np.flatnonzero(np.diff(s) != 0.0), [len(s) - 1]))
    prec = tp[last] / ranks[last]
    rec = tp[last] / pos_total
    prev = np.concatenate(([0.0], rec[:-1]))
    return float(((rec - prev) * prec).sum())


def _macro_f1(pred_classes, targets, n_classes) -> float:
    total = 0.0
    for c in range(n_classes):
        tp = int(((pred_classes == c) & (targets == c)).sum())
        fp = int(((pred_classes == c) & (targets != c)).sum())
        fn = int(((pred_classes != c) & (targets == c)).sum())
        denom = 2 * tp + fp + fn
        total += (2.0 * tp / denom) if denom else 0.0
    return total / n_classes


def scores_from_logits(pred: np.ndarray) -> np.ndarray:
    """Monotone binary score from logits: column difference, or the lone column."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim == 2 and pred.shape[1] == 2:
        return pred[:, 1] - pred[:, 0]
    if pred.ndim == 2 and pred.shape[1] == 1:
        return pred[:, 0]
    if pred.ndim == 1:
        return pred
    raise ValueError(f"cannot derive a binary score from shape {pred.shape}")


def classes_from_logits(pred: np.ndarray) -> np.ndarray:
    """Class per row of a logit matrix: a lone column is a binary logit, so
    class 1 where it is positive; wider rows take their argmax column."""
    if pred.shape[1] == 1:
        return (pred[:, 0] > 0).astype(np.int64)
    return pred.argmax(axis=1)


def metric_eval(predictions, targets, kind: str) -> float:
    """Scalar quality measure.

    auroc/ap take a 1-D score vector and binary labels; accuracy/macro_f1
    take logits (classes_from_logits applied; one column means two classes)
    or already-discrete class vectors; mae takes one value row per target
    row, a 1-D vector counting as one column.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets)
    if kind == "mae":
        p = p.reshape(p.shape[0], -1)
        t = t.astype(np.float64).reshape(t.shape[0], -1)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
        return float(np.abs(p - t).mean())
    if kind in ("auroc", "ap"):
        scores = scores_from_logits(p)
        labels = t.reshape(-1).astype(np.int64)
        if scores.shape != labels.shape:
            raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
        return _auroc(scores, labels) if kind == "auroc" else _average_precision(scores, labels)
    labels = t.reshape(-1).astype(np.int64)
    if p.ndim == 2:
        classes = classes_from_logits(p)
        n_classes = max(p.shape[1], 2)
    else:
        classes = p.astype(np.int64)
        n_classes = int(max(classes.max(initial=0), labels.max(initial=0))) + 1
    if classes.shape != labels.shape:
        raise ValueError(f"predictions {classes.shape} vs labels {labels.shape}")
    if kind == "accuracy":
        return float((classes == labels).mean())
    return _macro_f1(classes, labels, n_classes)


# ------------------------------------------------------------------- model

def build_model(cfg: RunConfig, feat_dim: int, out_dim: int,
                rng: np.random.Generator, edge_dim: int = 0) -> Model:
    params = make_cell_params(
        rng, cfg.model, feat_dim, cfg.hidden, out_dim, depth=cfg.depth,
        tau=cfg.tau, sigma1=cfg.sigma1, sigma2=cfg.sigma2,
        edge_mode=cfg.edge_mode, edge_dim=edge_dim, dec_hidden=cfg.dec_hidden)
    heads = None
    if cfg.model == "eegnn":
        head_kind = "mean_gnn" if cfg.task == "node_class" else "mlp"
        heads = make_exit_heads(rng, head_kind, cfg.hidden, cfg.exit_hidden,
                                cfg.exit_depth, cfg.nu0)
    return Model(cfg=cfg, params=params, heads=heads, feat_dim=feat_dim,
                 out_dim=out_dim, edge_dim=edge_dim)


def model_for(cfg: RunConfig, data, rng: np.random.Generator) -> Model:
    """A fresh model sized by a Graph or a GraphSet: feature widths from its
    (first) graph, output width from its labels and the loss."""
    g = data.graphs[0] if isinstance(data, GraphSet) else data
    edge_dim = 0 if g.E_feat is None else g.E_feat.shape[1]
    y = np.asarray(data.y)
    if cfg.loss == "ce":
        out_dim = int(y.max()) + 1
    elif cfg.loss == "bce_logits":
        out_dim = 1
    else:
        out_dim = int(y.reshape(len(y), -1).shape[1])
    return build_model(cfg, g.X.shape[1], out_dim, rng, edge_dim=edge_dim)


def _reject_isolated_nodes(data) -> None:
    """Raise ValueError naming the first node of degree 0, and for a graph
    set its member: the normalized adjacency is undefined there."""
    graphs = data.graphs if isinstance(data, GraphSet) else [data]
    for i, g in enumerate(graphs):
        bad = np.flatnonzero(degrees(g) == 0)
        if bad.size:
            member = f"graph {i}: " if isinstance(data, GraphSet) else ""
            raise ValueError(f"{member}isolated node {int(bad[0])} has degree 0; "
                             f"drop it before norm_adj")


def operators_for(model: Model, data) -> Operators:
    """The operator bundle a forward of model reads, node features included;
    build it once per run.

    A GraphSet is packed as the disjoint union of its members, whose bundle
    carries each node's member index: one forward runs the whole set.
    """
    if not isinstance(data, GraphSet):
        return build_operators(data, model.params, model.heads)
    _reject_isolated_nodes(data)
    seg = Segments.from_offsets(np.cumsum([0] + [g.n for g in data.graphs]))
    return build_operators(disjoint_union(data.graphs), model.params, model.heads, seg)


def forward_node(model: Model, ops: Operators, mode: str = "eval_argmax",
                 rng: np.random.Generator | None = None, *, noise=None,
                 capture: list | None = None):
    """Logits of every task; returns (logits, ExitState | None), the state
    None for the fixed-depth kinds.

    ops is the bundle operators_for built from the data: one row per node
    of a Graph, one per member graph of a GraphSet. Every kind steps through
    cells.propagate, eegnn with the step sizes and stop of its exit model;
    capture, when given, receives every layer's node states, the DiffValues
    propagate steps through.
    """
    cfg = model.cfg
    if cfg.model == "eegnn":
        Z, state, _ = eegnn_forward_node(
            ops, model.params, model.heads, cfg.depth, rng, mode,
            noise=noise, capture=capture)
    else:
        H = propagate(encode(ad.constant(ops.X), model.params), ops, model.params,
                      cfg.model, cfg.depth, capture=capture)
        Z, state = (H if ops.seg is None else ad.segment_mean(H, ops.seg)), None
    return decode(Z, model.params), state


# ------------------------------------------------------------------- loops

_HIGHER_BETTER = {"accuracy": True, "auroc": True, "ap": True,
                  "macro_f1": True, "mae": False}


def _exit_rows(data, split: str):
    """The agents an exit summary reads: all nodes, or a graph set's split graphs."""
    return data.masks[split] if isinstance(data, GraphSet) else slice(None)


def _mean_exit_layer(model: Model, state: ExitState | None, data, split: str):
    """Mean exit layer of the _exit_rows agents; the depth without exits."""
    if state is None:
        return float(model.cfg.depth)
    return float(state.exit_layer[_exit_rows(data, split)].mean())


def _train_step(model: Model, data, ops: Operators, named, opt: OptimState, rng,
                epoch: int) -> float:
    """One sampled forward, backward and Adam update; returns the training loss.

    Returns a plain number, so the training tape is freed before the eval
    forward builds its own.
    """
    logits, _ = forward_node(model, ops, "train_sample", rng)
    loss = loss_eval(logits, data.y, model.cfg.loss, mask=data.masks["train"])
    lv = float(loss.value[0, 0])
    if not np.isfinite(lv):
        raise TrainDivergenceError(epoch, lv)
    ad.zero_grads([p for _, p in named])
    ad.backward(loss, release=True)
    adam_step(named, opt)
    return lv


def _eval_splits(model: Model, data, ops: Operators):
    """Validation metric, test metric and mean exit layer, from one
    deterministic forward.

    The mean exit layer is taken over every node of a node task, and over
    the validation graphs of a graph set. The forward records no tape, and
    only plain numbers leave this function.
    """
    metric = model.cfg.metric
    with ad.no_grad():
        logits, state = forward_node(model, ops, "eval_argmax")
    val, test = (metric_eval(logits.value[data.masks[k]], data.y[data.masks[k]], metric)
                 for k in ("val", "test"))
    return val, test, _mean_exit_layer(model, state, data, "val")


def _check_data(cfg: RunConfig, data, splits, model: Model | None = None):
    """The dataset rules of train_run and evaluate, raised as one ConfigError:
    data of the task's kind, with labels and all three split masks; each given
    split nonempty, with class-index labels under the ce loss and labels 0 or
    1 in one column under bce_logits; edge features under an edge term.
    Without a model, a ce label of at least 1, so the model gets two or more
    classes, and none above 1 under an auroc or ap metric, which score two
    classes; with a trained model, labels below its output width and its
    node and edge feature widths (the edge width only when its cell has an
    edge term). Each scored split (every given split but a training run's
    train split) must hold both classes under auroc and a positive under
    ap, as those metrics are undefined otherwise."""
    node_task = cfg.task == "node_class"
    if node_task and not isinstance(data, Graph):
        raise ConfigError(["node_class task needs a single Graph dataset"])
    if not node_task and not isinstance(data, GraphSet):
        raise ConfigError([f"{cfg.task} task needs a GraphSet dataset"])
    problems = [] if data.y is not None else ["dataset has no labels"]
    problems += [f"dataset is missing the {name!r} split mask"
                 for name in SPLITS
                 if data.masks is None or name not in data.masks]
    if problems:
        raise ConfigError(problems)
    g = data.graphs[0] if isinstance(data, GraphSet) else data
    width = g.X.shape[1]
    edges = 0 if g.E_feat is None else g.E_feat.shape[1]
    if model is not None and width != model.feat_dim:
        problems.append(f"dataset has {width} node features; the model reads "
                        f"{model.feat_dim}")
    if cfg.edge_mode != "zero":
        if model is None and not edges:
            problems.append(f"edge_mode {cfg.edge_mode!r} needs edge features; "
                            f"the dataset has none")
        elif model is not None and edges != model.edge_dim:
            problems.append(f"dataset has {edges or 'no'} edge features; the "
                            f"model's edge term reads {model.edge_dim}")
    labels = np.asarray(data.y)
    if model is None and cfg.loss == "ce":
        if not (labels >= 1).any():
            problems.append("ce needs two or more classes, but no label is 1 or "
                            "more; use bce_logits for one class")
        if cfg.metric in ("auroc", "ap") and (labels >= 2).any():
            problems.append(f"metric {cfg.metric!r} scores two classes, but a "
                            f"label is {float(labels.max())!r}; use accuracy or "
                            f"macro_f1")
    columns = labels.reshape(len(labels), -1).shape[1]
    if cfg.loss == "bce_logits" and columns > 1:
        problems.append(f"bce_logits takes one label column; the dataset has "
                        f"{columns}")
    top, below = (np.inf, "") if model is None else \
        (model.out_dim, f" below the model's {model.out_dim} classes")
    for name in splits:
        mask = np.asarray(data.masks[name], dtype=bool)
        if not mask.any():
            problems.append(f"the {name!r} split is empty")
        elif cfg.loss == "ce":
            y = np.asarray(data.y, dtype=np.float64)[mask]
            bad = y[(y != np.floor(y)) | (y < 0) | (y >= top)]
            if bad.size:
                problems.append(f"ce labels must be class indices{below}; the "
                                f"{name!r} split has label {float(bad[0])!r}")
        elif cfg.loss == "bce_logits":
            y = np.asarray(data.y, dtype=np.float64)[mask]
            bad = y[(y != 0.0) & (y != 1.0)]
            if bad.size:
                problems.append(f"bce_logits labels must be 0 or 1; the {name!r} "
                                f"split has label {float(bad[0])!r}")
        scored = model is not None or name != "train"
        if mask.any() and scored and cfg.metric in ("auroc", "ap"):
            pos = np.asarray(data.y)[mask].reshape(-1).astype(np.int64) == 1
            if not pos.any() or (cfg.metric == "auroc" and pos.all()):
                need = "both classes" if cfg.metric == "auroc" else "a label 1"
                problems.append(f"metric {cfg.metric!r} needs {need} in each scored split; "
                                f"the {name!r} split has {'only' if pos.any() else 'no'} label 1")
    if problems:
        raise ConfigError(problems)


def train_run(cfg: RunConfig, data):
    """Fit a model; returns (model at best validation epoch, history rows).

    History rows are (epoch, train_loss, val_metric, test_metric,
    mean_exit_layer). Aborts with TrainDivergenceError on a non-finite loss.
    """
    _check_data(cfg, data, SPLITS)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    model = model_for(cfg, data, rng)
    named = model.parameters()
    values = [p for _, p in named]
    opt = OptimState(lr=cfg.lr, weight_decay=cfg.weight_decay,
                     decoupled=cfg.decoupled_wd)
    ops = operators_for(model, data)
    higher = _HIGHER_BETTER[cfg.metric]
    best_val = None
    best_snapshot = None
    history = []
    for epoch in range(cfg.epochs):
        lv = _train_step(model, data, ops, named, opt, rng, epoch)
        val, test, mel = _eval_splits(model, data, ops)
        history.append((epoch, lv, val, test, mel))
        if best_val is None or (val > best_val if higher else val < best_val):
            best_val = val
            best_snapshot = [p.value.copy() for p in values]
    if best_snapshot is not None:
        for p, snap in zip(values, best_snapshot):
            p.value[...] = snap
    return model, history


def evaluate(model: Model, data, split: str = "test", mode: str = "eval_argmax",
             rng: np.random.Generator | None = None) -> dict:
    """Metrics record for one split; exit summaries included for eegnn, over
    every node of a node task or over the split's graphs of a graph set.
    Raises ConfigError when data does not fit the model (see _check_data)."""
    _check_data(model.cfg, data, (split,), model)
    if mode == "train_sample" and rng is None:
        rng = np.random.Generator(np.random.PCG64(model.cfg.seed))
    ops = operators_for(model, data)
    with ad.no_grad():
        logits, state = forward_node(model, ops, mode, rng)
        return node_record(model, data, logits, state, split, mode)


def node_record(model: Model, data, logits: DiffValue, state,
                split: str = "test", mode: str = "eval_argmax") -> dict:
    """evaluate's record, from one forward's logits and exit state, so a
    caller that needs those too runs the forward only once."""
    mask = data.masks[split]
    value = metric_eval(logits.value[mask], data.y[mask], model.cfg.metric)
    loss = float(loss_eval(logits, data.y, model.cfg.loss, mask=mask).value[0, 0])
    record = {
        "split": split,
        "mode": mode,
        "metric": model.cfg.metric,
        "value": value,
        "loss": loss,
        "mean_exit_layer": _mean_exit_layer(model, state, data, split),
    }
    if state is not None:
        record["exit"] = exit_distribution(state, _exit_rows(data, split))
    return record


# ------------------------------------------------------------------- io

def history_csv(history) -> str:
    lines = ["epoch,train_loss,val_metric,test_metric,mean_exit_layer"]
    for epoch, tl, vm, tm, mel in history:
        lines.append(f"{epoch},{tl!r},{vm!r},{tm!r},{mel!r}")
    return "\n".join(lines) + "\n"


def exit_csv(state: ExitState, agent_ids=None) -> str:
    """One row per selected node; agent_ids both selects and labels the rows."""
    ids = np.arange(state.exit_layer.shape[0]) if agent_ids is None else np.asarray(agent_ids)
    lines = ["agent_id,exit_layer,exit_time"]
    for i in ids:
        lines.append(f"{int(i)},{int(state.exit_layer[i])},{float(state.exit_time[i])!r}")
    return "\n".join(lines) + "\n"


CHECKPOINT_FORMAT = 1


def save_checkpoint(model: Model, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": model.cfg.to_dict(),
        "feat_dim": model.feat_dim,
        "out_dim": model.out_dim,
        "edge_dim": model.edge_dim,
        "params": {name: p.value.tolist() for name, p in model.parameters()},
    }
    write_output(path, json_text(payload))


@contextmanager
def _reading(what: str, path):
    """Reports anything malformed met while reading a file's content (bad
    JSON, a missing key, a wrong shape, a number too large to build with) as
    a ConfigError naming the file; an unreadable file still raises OSError."""
    try:
        yield
    except ConfigError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{what} {path}: malformed JSON: {exc}"]) from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError([f"{what} {path}: {exc}"]) from exc


def load_checkpoint(path) -> Model:
    """The model a checkpoint file holds; a malformed one (missing key,
    unknown format, a config or params that is not an object, parameters
    that do not fit its config or are not finite numbers) raises
    ConfigError naming the problem."""
    with open(path) as fh, _reading("checkpoint", path):
        payload = read_object("the file", json.load(fh), (
            "format", "config", "feat_dim", "out_dim", "edge_dim", "params"))
        fmt = read_count("key 'format'", payload["format"])
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"format {fmt} is unknown; this version reads "
                             f"format {CHECKPOINT_FORMAT}")
        config = dict(read_object("key 'config'", payload["config"]))
        # eval_sample was a config key that nothing read; older checkpoints carry it
        config.pop("eval_sample", None)
        cfg = RunConfig.from_dict(config)
        dims = {k: read_count(f"key {k!r}", payload[k])
                for k in ("feat_dim", "out_dim", "edge_dim")}
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        model = build_model(cfg, dims["feat_dim"], dims["out_dim"], rng,
                            edge_dim=dims["edge_dim"])
        stored = read_object("key 'params'", payload["params"])
        names = [name for name, _ in model.parameters()]
        if set(names) != set(stored):
            missing = sorted(set(names) ^ set(stored))
            raise ValueError(f"key 'params' does not match the config: {missing}")
        for name, p in model.parameters():
            p.value[...] = read_numbers(f"parameter {name}", stored[name], p.value.shape,
                                        f"have the config's shape {p.value.shape}")
        return model


def load_dataset(path):
    """Graph JSON or graph-set JSON, decided by the top-level keys; a
    malformed file, or one with an isolated node, raises ConfigError naming
    the problem, and the member of a graph set it is in."""
    with open(path) as fh, _reading("dataset", path):
        payload = read_object("the file", json.load(fh))
        if "graphs" not in payload:
            data = load_graph_fields(payload)
        else:
            read_object("the file", payload, ("y", "masks"))
            members = payload["graphs"]
            if not (isinstance(members, list) and members):
                raise ValueError(f"key 'graphs' must be a non-empty list, "
                                 f"got {_shown(members)}")
            graphs = []
            for i, doc in enumerate(members):
                try:
                    graphs.append(load_graph_fields(doc))
                except ValueError as exc:
                    raise ValueError(f"graph {i}: {exc}") from exc
            k = len(graphs)
            y = read_numbers("key 'y'", payload["y"], (k, ...),
                             f"have one label row per graph ({k})")
            data = GraphSet(graphs=graphs, y=y, masks=read_masks(payload["masks"], k))
        _reject_isolated_nodes(data)
        return data
