"""Message-passing cells: the antisymmetric/symmetric update step and baselines.

The main cell is a residual Euler step

    H_next = H + tau * s1(-s2(H @ Oas) + edge_term + Anorm @ H @ Ws)

where Oas = Omega - Omega^T is exactly antisymmetric, Ws = (W + W^T)/2 is
exactly symmetric, and tau is either a scalar step size or a per-node column
of step sizes in [0, 1]. Every layer reads the same raw matrices, so depth
does not add parameters, and one Oas and one Ws per forward (cell_weights).
Baseline cells (gcn, graff, adgn) share the encoder/decoder plumbing but use
their own update rules; gcn keeps one weight matrix per layer and no residual.
Every kind's update is one autodiff.act_update node, the sparse aggregate
included; every kind but gcn adds it to H through one add_scaled_rows node
at an n x 1 step-size column.

Every forward pass reads its graph through one Operators bundle and steps
through propagate, the one layer loop; exits gives eegnn's step sizes and stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue
from .config import EDGE_KINDS, KEYS, check_values
from .graphs import ArcMatrix, Graph, Segments, incidence_aggregate, mean_adj, norm_adj

__all__ = [
    "CellParams",
    "Operators",
    "build_operators",
    "propagate",
    "cell_weights",
    "antisymmetrize",
    "symmetrize",
    "sas_step",
    "baseline_step",
    "edge_term",
    "encode",
    "decode",
    "make_cell_params",
]


@dataclass
class CellParams:
    """Raw trainable matrices for one cell plus its fixed hyperparameters.

    The constrained weights are never stored: the antisymmetric coupling and
    the symmetric diffusion matrix are derived from omega_raw / w_raw on every
    forward pass, so the optimizer works on unconstrained storage while the
    algebraic invariants hold exactly.
    """

    omega_raw: DiffValue | None
    w_raw: DiffValue | None
    enc_w: DiffValue
    enc_b: DiffValue
    dec: list[tuple[DiffValue, DiffValue]]
    tau: float = KEYS["tau"].default
    sigma1: str = KEYS["sigma1"].default
    sigma2: str = KEYS["sigma2"].default
    edge_mode: str = KEYS["edge_mode"].default
    w_e: DiffValue | None = None
    adgn_b: DiffValue | None = None
    gcn_ws: list[DiffValue] = field(default_factory=list)

    def __post_init__(self):
        check_values(tau=self.tau, sigma1=self.sigma1, sigma2=self.sigma2,
                     edge_mode=self.edge_mode)
        if self.edge_mode != "zero" and self.w_e is None:
            raise ValueError(f"edge_mode {self.edge_mode!r} requires w_e")
        for m in (self.omega_raw, self.w_raw):
            if m is not None and m.shape[0] != m.shape[1]:
                raise ValueError(f"cell weight must be square, got {m.shape}")
        _check_leaf_names(self.parameters())

    @property
    def hidden(self) -> int:
        return self.enc_w.shape[1]

    def parameters(self) -> list[tuple[str, DiffValue]]:
        """(name, leaf) for every present trainable leaf, in a fixed,
        checkpoint-stable order. The name make_cell_params gives each leaf
        is its checkpoint key."""
        leaves = (self.omega_raw, self.w_raw, self.w_e, self.adgn_b, *self.gcn_ws,
                  self.enc_w, self.enc_b, *(p for layer in self.dec for p in layer))
        return [(p.name, p) for p in leaves if p is not None]


def _check_leaf_names(named) -> None:
    """Raise ValueError unless every (name, leaf) pair has its own nonempty
    name: each name is a checkpoint key and an Adam moment key."""
    names = [name for name, _ in named]
    if "" in names:
        raise ValueError(f"leaf {names.index('')} of {len(names)} has an empty "
                         f"name; each leaf needs its own")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"leaf names used more than once: {', '.join(repeated)}")


@dataclass(frozen=True)
class Operators:
    """Everything one forward pass reads from its graph: the prepared input.

    X is the node-feature array the encoder reads; a the normalized
    adjacency of every cell step; ma the mean adjacency, present only for
    mean_gnn exit heads; be the incidence aggregate of the edge features,
    present only when the cell has an edge term; seg, for the disjoint union
    of a graph set, the Segments of its member graphs' nodes (None for a
    single graph), by which graph-task states are pooled.
    """

    X: np.ndarray
    a: ArcMatrix
    ma: ArcMatrix | None = None
    be: DiffValue | None = None
    seg: Segments | None = None


def build_operators(g: Graph, params: CellParams, heads=None,
                    seg: Segments | None = None) -> Operators:
    """The operator bundle of graph g for a cell and its optional exit heads;
    seg holds the member graphs' nodes of a graph-set union.

    Build it once per graph and pass it down: nothing here depends on the
    trainable values, only on g and on the cell's edge mode and head kind.
    norm_adj, mean_adj and the incidence aggregate all read g.arc_segments.
    """
    a = norm_adj(g)
    ma = None
    if heads is not None and heads.kind == "mean_gnn":
        ma = mean_adj(g)
    be = None
    if params.edge_mode != "zero":
        if g.E_feat is None:
            raise ValueError(f"edge_mode {params.edge_mode!r} needs edge features")
        be = ad.constant(incidence_aggregate(g, g.E_feat))
    return Operators(X=g.X, a=a, ma=ma, be=be, seg=seg)


def antisymmetrize(omega_raw: DiffValue) -> DiffValue:
    """Omega - Omega^T; exactly antisymmetric by construction."""
    if omega_raw.shape[0] != omega_raw.shape[1]:
        raise ValueError(f"expected a square matrix, got {omega_raw.shape}")
    return ad.sub(omega_raw, ad.transpose(omega_raw))


def symmetrize(w_raw: DiffValue) -> DiffValue:
    """(W + W^T) / 2; exactly symmetric by construction."""
    if w_raw.shape[0] != w_raw.shape[1]:
        raise ValueError(f"expected a square matrix, got {w_raw.shape}")
    return ad.smul(ad.add(w_raw, ad.transpose(w_raw)), 0.5)


def cell_weights(p: CellParams, kind: str) -> tuple[DiffValue, DiffValue] | None:
    """The (coupling, diffusion) pair each step of a kind reads, built once per
    forward: (Omega - Omega^T, (W + W^T)/2) for sas and eegnn, both matrices
    symmetrized for graff, (Omega - Omega^T, W) for adgn; None for gcn."""
    if kind == "gcn":
        return None
    if p.omega_raw is None or p.w_raw is None:
        raise ValueError(f"{kind} step requires omega_raw and w_raw")
    coupling = (symmetrize if kind == "graff" else antisymmetrize)(p.omega_raw)
    return coupling, p.w_raw if kind == "adgn" else symmetrize(p.w_raw)


def edge_term(be: DiffValue | None, p: CellParams) -> DiffValue | None:
    """Per-node edge contribution from the precomputed incidence aggregate BE.

    zero mode has no term; linear is BE @ We; neg_relu is -relu(BE @ We),
    which only ever subtracts and so cannot push the update's energy argument
    upward. Without BE there is no term either, which sas_step rejects for
    every mode but zero.
    """
    if p.edge_mode == "zero" or be is None:
        return None
    lin = ad.matmul_add(be, p.w_e)
    if p.edge_mode == "linear":
        return lin
    return ad.neg(ad.activation_apply(lin, "relu"))


def _tau_column(tau, n: int, default: float) -> DiffValue:
    if tau is None:
        tau = default
    if isinstance(tau, DiffValue):
        if tau.shape != (n, 1):
            raise ValueError(f"per-node tau must be {n} x 1, got {tau.shape}")
        tv = tau.value
        if not ((tv >= 0.0) & (tv <= 1.0)).all():
            raise ValueError("per-node tau outside [0, 1]")
        return tau
    t = float(tau)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"tau outside [0, 1]: {t}")
    return ad.step_column(t, n)


def sas_step(H: DiffValue, a, p: CellParams, weights, tau=None,
             edge_term: DiffValue | None = None) -> DiffValue:
    """One Euler step of the antisymmetric/symmetric cell; weights is
    cell_weights(p, "sas"), built once per forward.

    tau may be a scalar or an n x 1 DiffValue (the adaptive per-node
    step). Rows with tau == 0 come back bit-identical to their input,
    not merely numerically close.

    On the tape the step is two nodes: the update, one act_update node that
    also takes the aggregate A H Ws and keeps only its output (and its
    argument, when sigma1 is softplus), and the row-scaled step, which
    keeps nothing beyond its output. propagate builds a scalar tau's n x 1
    column once for all its layers.
    """
    oas, ws = weights
    if H.shape[1] != oas.shape[0]:
        raise ValueError(f"feature width {H.shape[1]} does not match cell width {oas.shape[0]}")
    if p.edge_mode == "zero":
        if edge_term is not None:
            raise ValueError("edge_term supplied but edge_mode is zero")
    elif edge_term is None:
        raise ValueError(f"edge_mode {p.edge_mode!r} requires an edge_term")
    # sigma1(-sigma2(H Oas) [+ edge term] + A H Ws), one node with the aggregate
    terms = () if edge_term is None else (edge_term,)
    upd = ad.act_update(H, oas, terms, p.sigma2, p.sigma1, agg=(a, ws))
    return ad.add_scaled_rows(H, upd, _tau_column(tau, H.shape[0], p.tau))


def baseline_step(H: DiffValue, a, p: CellParams, kind: str, weights,
                  layer: int = 0, tau=None) -> DiffValue:
    """One layer of a reference cell; weights is cell_weights(p, kind).

    gcn: sigma1(Anorm @ H @ W_layer), independent weights per layer, no
    residual, one act_update node. graff: H + tau * sigma1(H @ Wc +
    Anorm @ H @ Wd), both matrices symmetrized. adgn: H + tau * tanh(H @ Oas
    + b + Anorm @ H @ W), the antisymmetrized coupling, a plain
    (unsymmetrized) diffusion matrix and a bias. A graff or adgn step is two
    nodes, as a sas step is: the update, one act_update node that also takes
    the aggregate, and the row-scaled step at tau, the cell's own when None,
    a scalar or an n x 1 column; propagate builds the cell's column once for
    all its layers.
    """
    if kind == "gcn":
        if not 0 <= layer < len(p.gcn_ws):
            raise ValueError(f"no gcn weight for layer {layer}")
        return ad.act_update(H, None, (), None, p.sigma1, agg=(a, p.gcn_ws[layer]))
    if kind not in ("graff", "adgn"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    if kind == "adgn" and p.adgn_b is None:
        raise ValueError("adgn step requires adgn_b")
    coupling, diffusion = weights
    terms, act = ((), p.sigma1) if kind == "graff" else ((p.adgn_b,), "tanh")
    upd = ad.act_update(H, coupling, terms, None, act, agg=(a, diffusion))
    return ad.add_scaled_rows(H, upd, _tau_column(tau, H.shape[0], p.tau))


def propagate(H: DiffValue, ops: Operators, params: CellParams, kind: str,
              depth: int, tau=None, capture: list | None = None) -> DiffValue:
    """The one layer loop: up to depth steps of a cell kind from state H.

    Returns the state H_l after the l layers run, on the tape. The loop
    holds one state at a time: capture, when given, receives the states
    H_0 = H, ..., H_l themselves, the same DiffValues the tape holds, and is
    the only way to read an earlier one. sas and eegnn take the sas step at
    step size tau: the cell's own when None, a scalar or an n x 1 column, or
    a function of (layer, state) returning one, or None to stop. graff and
    adgn step at the cell's own tau and read tau only to stop, as gcn does.
    Every kind but gcn steps through one n x 1 step-size column built once
    per forward, unless tau is a function for sas or eegnn.
    """
    weights = cell_weights(params, kind)
    et = edge_term(ops.be, params) if kind in EDGE_KINDS else None
    col = None
    if kind != "gcn" and not (kind in EDGE_KINDS and callable(tau)):
        col = _tau_column(tau if kind in EDGE_KINDS else None, H.shape[0], params.tau)
    if capture is not None:
        capture.append(H)
    for l in range(depth):
        step = tau(l, H) if callable(tau) else col
        if callable(tau) and step is None:
            break
        if kind in EDGE_KINDS:
            H = sas_step(H, ops.a, params, weights, tau=step, edge_term=et)
        else:
            H = baseline_step(H, ops.a, params, kind, weights, layer=l, tau=col)
        if capture is not None:
            capture.append(H)
    return H


def encode(X: DiffValue, p: CellParams) -> DiffValue:
    """Input features to cell width: relu(X @ enc_w + enc_b)."""
    if X.shape[1] != p.enc_w.shape[0]:
        raise ValueError(
            f"feature dim {X.shape[1]} does not match encoder {p.enc_w.shape}")
    return ad.activation_apply(ad.matmul_add(X, p.enc_w, p.enc_b), "relu")


def decode(Z: DiffValue, p: CellParams) -> DiffValue:
    """Readout MLP, row by row: a node's state, or a graph's pooled state.

    Hidden decoder layers use relu; the last layer is linear (logits or
    regression values).
    """
    out = Z
    for i, (w, b) in enumerate(p.dec):
        out = ad.matmul_add(out, w, b)
        if i + 1 < len(p.dec):
            out = ad.activation_apply(out, "relu")
    return out


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def make_cell_params(rng: np.random.Generator, kind: str, feat_dim: int,
                     hidden: int, out_dim: int, *, depth: int = KEYS["depth"].default,
                     tau: float = KEYS["tau"].default, sigma1: str = KEYS["sigma1"].default,
                     sigma2: str = KEYS["sigma2"].default,
                     edge_mode: str = KEYS["edge_mode"].default,
                     edge_dim: int = KEYS["edge_dim"].default,
                     dec_hidden: tuple[int, ...] = KEYS["dec_hidden"].default) -> CellParams:
    """Glorot-initialized parameters for one model kind (the model key).

    gcn allocates depth independent layer matrices and no shared cell pair;
    every other kind allocates the shared pair once regardless of depth. A
    value outside its key's range in config.KEYS, or an edge_mode that kind
    or edge_dim cannot take, raises ValueError with the config's message.
    """
    check_values(model=kind, edge_mode=edge_mode, edge_dim=edge_dim)
    shared = kind != "gcn"
    omega = ad.leaf(_glorot(rng, hidden, hidden), "omega_raw") if shared else None
    w = ad.leaf(_glorot(rng, hidden, hidden), "w_raw") if shared else None
    gcn_ws = []
    if kind == "gcn":
        gcn_ws = [ad.leaf(_glorot(rng, hidden, hidden), f"gcn_w{i}")
                  for i in range(depth)]
    w_e = None
    if edge_mode != "zero":
        w_e = ad.leaf(_glorot(rng, edge_dim, hidden), "w_e")
    dec = []
    dims = (hidden, *dec_hidden, out_dim)
    for i in range(len(dims) - 1):
        dec.append((ad.leaf(_glorot(rng, dims[i], dims[i + 1]), f"dec{i}_w"),
                    ad.leaf(np.zeros((1, dims[i + 1])), f"dec{i}_b")))
    return CellParams(
        omega_raw=omega,
        w_raw=w,
        enc_w=ad.leaf(_glorot(rng, feat_dim, hidden), "enc_w"),
        enc_b=ad.leaf(np.zeros((1, hidden)), "enc_b"),
        dec=dec,
        tau=tau,
        sigma1=sigma1,
        sigma2=sigma2,
        edge_mode=edge_mode,
        w_e=w_e,
        adgn_b=ad.leaf(np.zeros((1, hidden)), "adgn_b") if kind == "adgn" else None,
        gcn_ws=gcn_ws,
    )
