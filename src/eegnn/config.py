"""The config keys of every command, each stated once, and the rules they obey.

KEYS holds one row per key: its default, whose type is the type coerce_keys
reads it as; its range rule; the runs that read it; and the commands that
take it. RunConfig holds the training keys, as fields that carry their rows.
cross_key_errors states each rule between keys. The builders in cells and
exits take their defaults from KEYS and check an API caller's values with
check_values, in the messages a config file gets.

This module imports nothing above graphs and autodiff, so cells, exits,
training, diagnostics and cli all read the one table.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

from .autodiff import ACTIVATION_KINDS
from .graphs import _shown

__all__ = [
    "ConfigError", "Key", "KEYS", "RunConfig", "RUN_KEYS", "coerce_keys",
    "check_values", "cross_key_errors", "refused_by", "reads",
    "MODEL_KINDS", "TASKS", "EDGE_MODES", "EDGE_KINDS", "DATASETS",
    "LOSS_KINDS", "METRIC_KINDS", "DIAGNOSTICS",
]

MODEL_KINDS = ("sas", "eegnn", "gcn", "graff", "adgn")
TASKS = ("node_class", "graph_class", "graph_reg")
EDGE_MODES = ("zero", "linear", "neg_relu")
EDGE_KINDS = ("sas", "eegnn")   # the kinds of the sas step, which has an edge term
DATASETS = ("minesweeper", "sbm")
LOSS_KINDS = ("ce", "bce_logits", "mse", "l1")
METRIC_KINDS = ("accuracy", "auroc", "ap", "macro_f1", "mae")
DIAGNOSTICS = ("dirichlet", "energy_descent", "spectrum", "sensitivity",
               "depth_retention", "oracle_exit")
# the diagnostics that build a model from the training keys; spectrum and
# energy_descent draw their own configs and read only seed of them
_MODEL_DIAGS = tuple(d for d in DIAGNOSTICS if d not in ("energy_descent", "spectrum"))


class ConfigError(ValueError):
    """Invalid run configuration or malformed input file; carries every
    problem found, not just the first."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


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


def _broken(key: str, v) -> str | None:
    """The message of key's range rule in KEYS when v breaks it, else None."""
    rule = KEYS[key].rule
    return None if rule is None or rule[0](v) else f"{key} {rule[1]}, got {_shown(v)}"


def coerce_keys(keys, d: dict) -> tuple[dict, list[str]]:
    """The value of each of keys: d's, coerced to the type of the key's
    default in KEYS, or that default when d lacks the key; and one message
    per key of d that is not in keys, cannot be coerced, or breaks its range
    rule in KEYS, which leaves the key without a value.

    A bool takes only a bool, a str only a str, an int an int or an integral
    float, a float any number, each within the float range; a bool is never
    taken as a number. A tuple
    default takes a list of ints by that rule, empty included, a list
    default a non-empty list of its first item's type, and a None default a
    path string.
    """
    errors = [f"unknown config key {k!r}" for k in sorted(set(d) - set(keys))]
    values = {}
    for key in keys:
        default = KEYS[key].default
        if key not in d:
            values[key] = default
        elif (v := _coerce(d[key], default)) is None:
            errors.append(f"config key {key!r}: cannot coerce {_shown(d[key])} "
                          f"to {_type_name(default)}")
        elif msg := _broken(key, v):
            errors.append(msg)
        else:
            values[key] = v
    return values, errors


def cross_key_errors(values: dict) -> list[str]:
    """One message per rule between keys that values breaks; a rule applies
    only when values holds every key it reads. Each key's own range is in
    KEYS."""
    mode = values.get("edge_mode", "zero")
    model, edge_dim = values.get("model"), values.get("edge_dim")
    return [msg for broken, msg in [
        (mode != "zero" and model is not None and model not in EDGE_KINDS,
         f"edge_mode {mode!r} needs a model in {EDGE_KINDS}; {model!r} has no "
         f"edge term"),
        (mode != "zero" and edge_dim is not None and edge_dim < 1,
         f"edge_dim must be >= 1 under edge_mode {mode!r}, got {edge_dim}"),
        (values.get("loss") == "ce" and values.get("metric") == "mae",
         "metric 'mae' scores values, but loss 'ce' gives class logits"),
    ] if broken]


def check_values(**values) -> None:
    """Raise ValueError unless each value keeps its key's range rule in KEYS
    and together they keep every rule between keys: the check of a value an
    API caller passes, which no config coerced, in a config's messages."""
    errors = [msg for key, v in values.items() if (msg := _broken(key, v))]
    errors = errors or cross_key_errors(values)
    if errors:
        raise ValueError("; ".join(errors))


# One config key: its default, whose type is the type coerce_keys reads it
# as; its range rule, a (test, words) pair on the coerced value; the runs
# that read it, (selector, values) pairs that a run must each meet, none
# when every run of a command that takes the key reads it; and the commands
# that take it, besides the training commands for a RunConfig field.
Key = namedtuple("Key", "default rule readers commands", defaults=(None, (), ()))


def _at_least(lo):
    return (lambda v: v >= lo), f"must be >= {lo}"


def _one_of(choices):
    return (lambda v: v in choices), f"must be one of {choices}"


def _key(default, rule=None, model=None, commands=(), diagnostics=_MODEL_DIAGS):
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
    # how a non-zero weight_decay applies; taken, and inert, while
    # weight_decay is 0: refusing it there would need a rule on two keys'
    # values, not on which runs read a key
    decoupled_wd: bool = _key(False)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Validated config from a JSON-style dict, each key coerced by
        coerce_keys; every problem lands in one ConfigError."""
        values, errors = coerce_keys(RUN_KEYS, d)
        cfg = cls(**values)
        errors += cross_key_errors(cfg.to_dict())
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
_SBM = (("dataset", ("sbm",)),)

# Every config key of every command: RunConfig's fields, then the keys of
# single commands. The selector of a training key is the model kind, of a
# generate key the dataset, and of diagnose's own keys the diagnostic; cli
# refuses a key given to a run that does not read it.
KEYS = {
    **{f.name: f.metadata["key"] for f in fields(RunConfig)},
    "dataset": Key("minesweeper", _one_of(DATASETS), (), _GEN),
    **_rows(None, (("dataset", ("minesweeper",)),), _GEN, rows=30, cols=30,
            mine_prob=0.2, unknown_frac=0.5),
    # an empty block would be a class without a node
    "sizes": Key([50, 50], ((lambda v: min(v) >= 1), "must be block sizes >= 1"),
                 _SBM, _GEN),
    **_rows(None, _SBM, _GEN, p_in=0.7, p_out=0.1, feature_dim=8, feature_shift=1.0),
    # the dataset path; train and evaluate always read it, and a diagnostic
    # without it runs on a built-in block-model graph
    "data": Key(None, None, (("diagnostic", _MODEL_DIAGS),),
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
    # >= 1 under a non-zero edge_mode (cross_key_errors); taken, and inert,
    # under edge_mode "zero", as decoupled_wd is while weight_decay is 0
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
