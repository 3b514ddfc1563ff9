"""Adaptive-depth early exit: Gumbel sampling, exit heads, and the exit model.

Each layer, shared heads read the current agent states and produce two-way
logits (continue vs exit) plus an inverse temperature. A Gumbel-Softmax
turns them into a soft non-exit probability and a hard exit decision, the
one-hot of its argmax; the soft probability doubles as that agent's Euler
step size tau for the layer, so an agent close to exiting also moves in
smaller steps.

An agent is a node, or for a graph set (a disjoint union of its member graphs)
a whole member graph: its state is the mean of its nodes' states, and its tau
steps all of its nodes. The layers run through cells.propagate, the heads
giving each layer's step size and the stop. An agent's output row freezes at
its first hard exit. States of exited agents keep updating while any agent is
still active (a frozen row only pins what the decoder sees), and the loop
stops at the layer where the last agent exits: the remaining layers could not
change the output. The hard decision is a plain array that only picks the rows
to freeze, through a constant mask, so no gradient passes through it: the
heads train through tau alone. With every head parameter zero both exit logits
are equal, c_soft is exactly [0.5, 0.5] and the argmax continues, so the loop
is plain sas at tau 0.5 bit for bit (the ablation tests check this).

The loop's inputs are ready before its first layer: one cells.Operators
bundle, node features included, and for a sampled forward every layer's
Gumbel noise, drawn in one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .cells import CellParams, Operators, _check_leaf_names, _glorot, encode, propagate

__all__ = [
    "ExitState",
    "ExitHeads",
    "sample_gumbel",
    "make_exit_heads",
    "confidence_logits",
    "inv_temperature",
    "gumbel_softmax_st",
    "eegnn_forward_node",
    "exit_distribution",
    "HEAD_KINDS",
    "EXIT_MODES",
]

HEAD_KINDS = ("mean_gnn", "mlp")
EXIT_MODES = ("train_sample", "eval_argmax")
_CLAMP = 1e-12


@dataclass
class ExitState:
    """Per agent of one forward: its exit layer (L when it never exits) and
    its exit time, the tau it spent before that layer."""

    exit_layer: np.ndarray
    exit_time: np.ndarray
    L: int

    def __post_init__(self):
        if self.exit_layer.ndim != 1 or self.exit_time.shape != self.exit_layer.shape:
            raise ValueError("per-agent arrays must share one length")
        if ((self.exit_layer < 0) | (self.exit_layer > self.L)).any():
            raise ValueError("exit_layer outside [0, L]")
        if ((self.exit_time < 0) | (self.exit_time > self.L)).any():
            raise ValueError("exit_time outside [0, L]")

    @property
    def exited(self) -> np.ndarray:
        return self.exit_layer < self.L


@dataclass
class ExitHeads:
    """Shared confidence and temperature heads.

    Every hidden layer is a tuple (w_agg, w, b): kind mean_gnn adds the
    neighbor mean through w_agg, for per-node logits; kind mlp, for pooled
    features, has w_agg None. Both heads share the family and depth; f_c
    emits two logits, f_nu one raw value that becomes an inverse temperature
    via softplus + nu0.
    """

    kind: str
    fc_layers: list[tuple]
    fc_out: tuple[DiffValue, DiffValue]
    fnu_layers: list[tuple]
    fnu_out: tuple[DiffValue, DiffValue]
    nu0: float = 0.05

    def __post_init__(self):
        if self.kind not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.kind!r}")
        if not 1 <= len(self.fc_layers) <= 3:
            raise ValueError(f"head depth must be 1..3, got {len(self.fc_layers)}")
        if len(self.fnu_layers) != len(self.fc_layers):
            raise ValueError("f_c and f_nu must share depth")
        if self.nu0 < 0:
            raise ValueError(f"nu0 must be >= 0, got {self.nu0}")
        _check_leaf_names(self.parameters())

    def parameters(self) -> list[tuple[str, DiffValue]]:
        """(name, leaf) for every present trainable leaf, f_c's before
        f_nu's, each head's layers in order and then its readout. The name
        make_exit_heads gives each leaf is its checkpoint key."""
        leaves = (*(p for layer in self.fc_layers for p in layer), *self.fc_out,
                  *(p for layer in self.fnu_layers for p in layer), *self.fnu_out)
        return [(p.name, p) for p in leaves if p is not None]


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Gumbel(0,1) draws: -log(-log(u)) with u clamped off {0, 1}."""
    u = np.clip(rng.random(size=shape), _CLAMP, 1.0 - _CLAMP)
    return -np.log(-np.log(u))


def make_exit_heads(rng: np.random.Generator, kind: str, in_dim: int,
                    hidden: int, depth: int, nu0: float = 0.05) -> ExitHeads:
    """Glorot-initialized heads: depth hidden layers, each the tuple
    (w_agg, w, b), and a (w, b) readout. w_agg, drawn before w, is None for
    kind mlp; without it w is named {tag}{i}_w, with it {tag}{i}_w_self."""
    aggregates = kind != "mlp"

    def backbone(tag, out_dim):
        layers = []
        d = in_dim
        for i in range(depth):
            w_agg = None
            if aggregates:
                w_agg = ad.leaf(_glorot(rng, d, hidden), f"{tag}{i}_w_agg")
            w = ad.leaf(_glorot(rng, d, hidden),
                        f"{tag}{i}_w_self" if aggregates else f"{tag}{i}_w")
            layers.append((w_agg, w, ad.leaf(np.zeros((1, hidden)), f"{tag}{i}_b")))
            d = hidden
        rd = (ad.leaf(_glorot(rng, hidden, out_dim), f"{tag}_out_w"),
              ad.leaf(np.zeros((1, out_dim)), f"{tag}_out_b"))
        return layers, rd

    fc_layers, fc_out = backbone("fc", 2)
    fnu_layers, fnu_out = backbone("fnu", 1)
    return ExitHeads(kind=kind, fc_layers=fc_layers, fc_out=fc_out,
                     fnu_layers=fnu_layers, fnu_out=fnu_out, nu0=nu0)


def _backbone_forward(H: DiffValue, layers, out_pair, ma, mh) -> DiffValue:
    """One head on the tape: per hidden layer, one node of its sums (an mlp
    layer's cur w + b, or a mean_gnn layer's (M cur) w_agg + (cur w + b),
    which does not keep the inner sum) and, between layers, one relu node;
    the last relu rides in the readout's node. A mean_gnn layer also has its
    aggregate M cur, the shared mh at layer 0."""
    cur = H
    for i, (w_agg, w, b) in enumerate(layers):
        if i:
            cur = ad.activation_apply(mixed, "relu")
        if w_agg is None:
            mixed = ad.matmul_add(cur, w, b)
            continue
        if ma is None:
            raise ValueError("mean_gnn heads need the mean-adjacency operator")
        agg = mh if i == 0 and mh is not None else ad.dspmm(ma, cur)
        mixed = ad.two_matmul_add(agg, w_agg, cur, w, b)
    return ad.act_matmul_add(mixed, "relu", out_pair[0], out_pair[1])


def confidence_logits(H: DiffValue, heads: ExitHeads, ma=None, mh=None) -> DiffValue:
    """Two-way continue/exit logits per agent row. mh, when given, is the
    node ad.dspmm(ma, H), which both heads' first mean_gnn layer then read:
    one transposed product in backward for the two. Deeper layers make their
    own."""
    return _backbone_forward(H, heads.fc_layers, heads.fc_out, ma, mh)


def inv_temperature(H: DiffValue, heads: ExitHeads, ma=None, mh=None) -> DiffValue:
    """Per-agent inverse temperature softplus(f_nu(H)) + heads.nu0; always
    >= nu0. mh is as in confidence_logits."""
    raw = _backbone_forward(H, heads.fnu_layers, heads.fnu_out, ma, mh)
    return ad.add_scalar(ad.activation_apply(raw, "softplus"), heads.nu0)


def gumbel_softmax_st(logits: DiffValue, inv_nu: DiffValue,
                      g: np.ndarray | None = None,
                      mode: str = "train_sample") -> tuple[DiffValue, np.ndarray]:
    """Sharpened two-way sample: (soft probabilities, hard one-hot array).

    Soft path: row-softmax((log_softmax(logits) + g) * inv_nu), on the tape.
    The hard decision is the exact one-hot of the soft argmax, a plain array
    off the tape: the loop reads it only to pick which rows freeze. g is the
    Gumbel noise, shaped like logits; eval_argmax drops the noise term
    entirely.
    """
    if mode not in EXIT_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if logits.shape[1] != 2:
        raise ValueError(f"exit logits need 2 columns, got {logits.shape[1]}")
    if not np.isfinite(logits.value).all():
        raise ValueError("non-finite exit logits")
    scores = ad.row_log_softmax(logits)
    if mode == "train_sample":
        if g is None:
            raise ValueError("train_sample mode needs Gumbel noise")
        if g.shape != logits.shape:
            raise ValueError(f"noise shape {g.shape} must match logits {logits.shape}")
        scores = ad.add(scores, ad.constant(g))
    c_soft = ad.softmax_rows(ad.scale_rows(scores, inv_nu))
    soft = c_soft.value
    hard = np.empty_like(soft)
    # a tie goes to column 0, as argmax would; the ablation identity needs it
    hard[:, 1] = soft[:, 1] > soft[:, 0]
    hard[:, 0] = 1.0 - hard[:, 1]
    return c_soft, hard


def eegnn_forward_node(ops: Operators, params: CellParams, heads: ExitHeads,
                       L: int, rng: np.random.Generator | None = None,
                       mode: str = "train_sample", *,
                       noise: list[np.ndarray] | None = None,
                       capture: list | None = None):
    """Early-exit forward pass over the nodes of the graph ops was built
    from, or over the member graphs of a graph-set union when ops carries
    their Segments.

    Returns (Z, ExitState, per-layer records), one row per agent. Z row i is
    the agent's state at its exit layer (before that layer's update), or the
    final state if it never exits; gradients flow into each frozen row from
    the layer where it froze. A graph's state is the segment mean of its
    nodes' states, read by mlp heads, and its tau is spread over its nodes
    for the step, so its gradient sums back by the Segments rule.

    An agent exiting at layer l has spent exit_time = sum of its tau over
    layers 0..l-1; the deciding layer's tau is not counted.

    A train_sample run without given noise draws all L layers' noise from rng
    in one (L, agents, 2) block first, the stream of L successive (agents, 2)
    draws. The layers run through cells.propagate, the heads giving each
    layer's step size and, once every agent has exited at layer l, the stop
    before its update: Z and the ExitState are those of a full-depth run, the
    records end at layer l, and rng is where a full-depth run leaves it. With
    capture, all L layers run and capture gets all L + 1 node states, the
    DiffValues on the tape.
    """
    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if heads is None:
        raise ValueError("the early-exit forward needs exit heads")
    seg = ops.seg
    if seg is not None and heads.kind != "mlp":
        raise ValueError("graph-level exits use mlp heads on pooled features")
    pool = lambda H: H if seg is None else ad.segment_mean(H, seg)
    n = len(ops.X) if seg is None else len(seg.offsets) - 1
    H = encode(ad.constant(ops.X), params)
    if mode == "train_sample" and noise is None:
        if rng is None:
            raise ValueError("a train_sample forward needs noise or a generator rng")
        noise = sample_gumbel((L, n, 2), rng)
    exit_layer, exit_time = np.full(n, L, dtype=np.int64), np.zeros(n)
    Z_cur = ad.constant(np.zeros((n, params.hidden)))
    records = []
    agents = seen = None

    def step_size(l, H):
        nonlocal agents, seen, Z_cur
        agents, seen = pool(H), H
        mh = None if ops.ma is None else ad.dspmm(ops.ma, H)
        logits = confidence_logits(agents, heads, ops.ma, mh)
        inv_nu = inv_temperature(agents, heads, ops.ma, mh)
        smp = noise[l] if mode == "train_sample" else None
        c_soft, hard = gumbel_softmax_st(logits, inv_nu, smp, mode)
        tau_col = ad.col_slice(c_soft, 0)
        new_exit = (hard[:, 1] == 1.0) & (exit_layer == L)
        if new_exit.any():
            Z_cur = ad.where_rows(new_exit, agents, Z_cur)
            exit_layer[new_exit] = l
        active = exit_layer == L
        exit_time[active] += tau_col.value[active, 0]
        records.append({"layer": l, "mean_tau": float(tau_col.value.mean()),
                        "new_exits": int(new_exit.sum()),
                        "mean_inv_nu": float(inv_nu.value.mean())})
        if capture is None and not active.any():
            return None
        return tau_col if seg is None else ad.segment_spread(tau_col, seg)

    H = propagate(H, ops, params, "eegnn", L, step_size, capture)
    if H is not seen:       # full depth: step_size has not pooled the last state
        agents = pool(H)
    state = ExitState(exit_layer=exit_layer, exit_time=exit_time, L=L)
    # after a stop every row comes from Z_cur; the row select stays on the
    # tape all the same, so backward visits the layers in the order it visits
    # them after a full-depth run and sums every gradient in the same order
    Z = ad.where_rows(state.exited, Z_cur, agents) if state.exited.any() else agents
    return Z, state, records


def exit_distribution(state: ExitState, rows) -> dict:
    """The exit summary of the agents rows selects (a mask, indices or a
    slice): min, median and max exit layer, mean exit time, and the count of
    agents per exit layer 0..L."""
    layers, times = state.exit_layer[rows], state.exit_time[rows]
    return {
        "min_layer": int(layers.min()),
        "median_layer": float(np.median(layers)),
        "max_layer": int(layers.max()),
        "mean_time": float(times.mean()),
        "histogram": [int(c) for c in np.bincount(layers, minlength=state.L + 1)],
    }
