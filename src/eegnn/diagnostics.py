"""Executable checks of the cell's claimed dynamics.

Four families: energy accounting (the quadratic edge functional and the
degree-normalized Dirichlet energy), spectral stability of the step's
Jacobian, layer-wise sensitivity of deep stacks, and counterfactual exit
quality. Each check reports numbers. The two suites also judge themselves:
`spectrum_suite` returns its own "pass" from MAX_RE_TOL, and `descent_suite`
from the violations `descent_trace` logs past DESCENT_SLACK;
`energy_functional` refuses a W_s further than SKEW_TOL from symmetric. The
other diagnostics return measurements. Of those, the CLI's `diagnose` judges
depth retention alone (a bound on the metric's spread over depths);
Dirichlet traces, sensitivity and oracle exits carry no verdict, since the
checks they offer hold for any model: the last layer's sensitivity is zero
by construction, and the oracle accuracy never falls below the final
layer's. The CLI maps a failed verdict to ToleranceError and its own exit
code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import _act_derivative, _act_forward
from .cells import CellParams, build_operators, cell_weights, decode, encode, \
    make_cell_params, propagate
from .config import ConfigError, RunConfig, check_values
from .eig import eigvals
from .graphs import Graph, arc_rows, degrees, gen_sbm, norm_arc_weights, \
    pair_index, write_output
from .training import Model, classes_from_logits, evaluate, forward_node, \
    metric_eval, operators_for, train_run

__all__ = [
    "ToleranceError",
    "Trace",
    "SpectrumReport",
    "dirichlet_energy",
    "energy_functional",
    "descent_trace",
    "sas_jacobian",
    "sensitivity",
    "depth_retention",
    "oracle_exit_eval",
    "emit_trace",
    "dirichlet_traces",
    "spectrum_suite",
    "descent_suite",
]

DESCENT_SLACK = 1e-8
SKEW_TOL = 1e-12
MAX_RE_TOL = 1e-8
_SWEEP_COPIES = 16     # seeds per reverse sweep in sensitivity


class ToleranceError(RuntimeError):
    """A diagnostic exceeded its tolerance; the CLI exits 3 on this."""


@dataclass
class Trace:
    """A per-layer series with provenance metadata."""

    name: str
    layers: np.ndarray
    values: np.ndarray
    metadata: dict

    def __post_init__(self):
        self.layers = np.asarray(self.layers, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.layers.shape != self.values.shape:
            raise ValueError("layers and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trace values must be finite")


@dataclass
class SpectrumReport:
    """sas_jacobian's result, arrays over the stack's leading axes."""

    eigenvalues: np.ndarray
    max_re: np.ndarray


def _finite_matrix(H, n: int) -> np.ndarray:
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != n:
        raise ValueError(f"expected an {n}-row matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix contains non-finite entries")
    return H


def dirichlet_energy(H, g: Graph) -> float:
    """Sum over directed arcs of || h_v/sqrt(d_v + 1) - h_u/sqrt(d_u + 1) ||^2.

    The +1 in the normalization is part of this quantity's definition and is
    not the plain degree normalization the adjacency uses.
    """
    H = _finite_matrix(H, g.n)
    if g.n_arcs == 0:
        return 0.0
    d = degrees(g).astype(np.float64)
    scaled = H / np.sqrt(d + 1.0)[:, None]
    diff = scaled[g.col_indices] - scaled[arc_rows(g)]
    return float((diff * diff).sum())


def energy_functional(H, W_s, g: Graph) -> float:
    """Quadratic edge functional: -sum over arcs of (d_u d_v)^-1/2 <h_u, W_s h_v>,
    the arc weights being graphs.norm_arc_weights. An isolated node adds no
    term.

    Rejects an asymmetric W_s outright: symmetry is what makes this a valid
    energy (its value is invariant under swapping the arc direction).
    """
    H = _finite_matrix(H, g.n)
    W_s = np.asarray(W_s, dtype=np.float64)
    if W_s.shape != (H.shape[1], H.shape[1]):
        raise ValueError(f"W_s must be {H.shape[1]} square, got {W_s.shape}")
    residual = float(np.abs(W_s - W_s.T).max()) if W_s.size else 0.0
    if residual > SKEW_TOL:
        raise ValueError(f"W_s symmetry residual {residual:.3e} exceeds {SKEW_TOL}")
    if g.n_arcs == 0:
        return 0.0
    rows = arc_rows(g)
    couple = (H[rows] * (H @ W_s)[g.col_indices]).sum(axis=1)
    return float(-(norm_arc_weights(g) * couple).sum())


def _premises_hold(params: CellParams, tau: float) -> bool:
    return (params.sigma1 == "relu_tanh" and params.sigma2 == "relu"
            and tau <= 0.05 and params.edge_mode != "linear")


def descent_trace(g: Graph, params: CellParams, H0, steps: int, tau: float) -> Trace:
    """Energy series along the step map, with every increase logged.

    metadata["violations"] lists [step, increase] pairs past the 1e-8 slack;
    metadata["premises_hold"] records whether the descent guarantee applies
    to this configuration (saturating sigma1, nonnegative sigma2, tau at most
    0.05, and no linear edge term). Premise-violating configurations still
    run; their violations are data, not errors.
    """
    states: list = []
    propagate(ad.constant(_finite_matrix(H0, g.n)), build_operators(g, params), params,
              "sas", steps, tau, states)
    ws = cell_weights(params, "sas")[1].value
    values = np.array([energy_functional(h.value, ws, g) for h in states])
    violations = [[t + 1, float(rise)] for t, rise in enumerate(np.diff(values))
                  if rise > DESCENT_SLACK]
    return Trace(
        name="energy_functional",
        layers=np.arange(steps + 1),
        values=values,
        metadata={"tau": tau, "edge_mode": params.edge_mode,
                  "sigma1": params.sigma1, "sigma2": params.sigma2,
                  "premises_hold": _premises_hold(params, tau),
                  "violations": violations})


def sas_jacobian(omega_raw, h_point, neighbor_term=None, *, sigma1: str = "relu_tanh",
                 sigma2: str = "relu") -> SpectrumReport:
    """Spectrum of the step map's state Jacobian at one linearization point
    per matrix of a stack.

    omega_raw is a stack of shape (..., m, m); h_point and the optional
    neighbor_term hold m values per matrix (shape (..., m)); sigma1 and
    sigma2 are the cell's activation kinds, as in CellParams. The Jacobian
    is -diag(s1'(u) * s2'(v)) @ (Omega - Omega^T) with v = h @ Oas and
    u = -s2(v) + neighbor_term. Oas = Omega - Omega^T is antisymmetric bit
    for bit, and with D = diag(s1' s2') >= 0 the Jacobian -D Oas has the
    eigenvalues of the skew matrix -sqrt(D) Oas sqrt(D): all imaginary.
    max_re, the largest |Re lambda| per matrix, is what the solver returns
    off that axis. Every Jacobian of the stack goes to one eigensolver
    call; each matrix's results equal those of a stack of one bit for bit.
    """
    ov = np.asarray(omega_raw, dtype=np.float64)
    if ov.ndim < 3 or ov.shape[-1] != ov.shape[-2]:
        raise ValueError(f"omega_raw must be a stack of square matrices, "
                         f"got shape {ov.shape}")
    batch, m = ov.shape[:-2], ov.shape[-1]
    if m > 32:
        raise ValueError(f"dense eigensolver budget is width <= 32, got {m}")
    n_values = m * int(np.prod(batch))
    h = np.asarray(h_point, dtype=np.float64)
    if h.size != n_values:
        raise ValueError(f"h_point must have length {m}, got {h.shape}")
    phi = np.zeros(n_values) if neighbor_term is None else \
        np.asarray(neighbor_term, dtype=np.float64)
    if phi.size != n_values:
        raise ValueError(f"neighbor_term must have length {m}")
    oas = ov - np.swapaxes(ov, -1, -2)
    # one (1, m) @ (m, m) matmul per matrix equals the vector product h @ oas
    # bit for bit; an einsum does not
    v = (h.reshape(*batch, 1, m) @ oas).reshape(*batch, m)
    u = -_act_forward(v, sigma2) + phi.reshape(v.shape)
    dfac = _act_derivative(u, sigma1) * _act_derivative(v, sigma2)
    lam = eigvals(-dfac[..., :, None] * oas)
    return SpectrumReport(lam, np.abs(lam.real).max(axis=-1, initial=0.0))


def sensitivity(model: Model, g: Graph, layer: int) -> float:
    """Exact L1 influence of layer-l states on final states over adjacent pairs.

    S_l = sum over directed arcs (v,u) of ||d h_v^L / d h_u^l||_1, computed by
    seeding final-state coordinates in reverse sweeps. The forward is taped
    once on _SWEEP_COPIES = 16 interleaved copies of g (copy k of node v is
    row v * 16 + k), whose every sparse product runs on g's own operator
    with rows 16 times wider (ArcMatrix.copies), and each sweep seeds one
    coordinate per copy. The copies share no arc, so each copy's gradient is
    exactly that of a single-seed sweep on g, and the result does not depend
    on the copy count. Cost is ceil(n * width / 16) sweeps, whatever the
    layer; instances are capped at n * width <= 2000. The tape holds the
    cell's arrays as constants and the encoder's output as its only leaf,
    so each sweep runs only the state path from the last layer down to
    layer 0, the sas step keeps its activation derivatives from the second
    sweep on, and the model's gradient buffers are left as they were. The
    diagnose command reads every layer from one set of sweeps through
    _sensitivities. Only fixed-depth model kinds are supported;
    adaptive-exit stacks have no single layer-l state to differentiate
    against.
    """
    return _sensitivities(model, g, [layer])[0]


def _constant_view(p: CellParams) -> CellParams:
    """p with every leaf replaced by a constant over the same array."""
    def const(x):
        return None if x is None else ad.constant(x.value, x.name)

    return replace(p, omega_raw=const(p.omega_raw), w_raw=const(p.w_raw),
                   enc_w=const(p.enc_w), enc_b=const(p.enc_b),
                   dec=[(const(w), const(b)) for w, b in p.dec],
                   w_e=const(p.w_e), adgn_b=const(p.adgn_b),
                   gcn_ws=[const(w) for w in p.gcn_ws])


def _sensitivities(model: Model, g: Graph, layers) -> list[float]:
    """sensitivity at each of layers, all read from one set of sweeps: after
    every sweep each layer's probe adds its terms one seed at a time, as a
    call for that layer alone would, so each value equals that call's."""
    cfg = model.cfg
    if cfg.model == "eegnn":
        raise ConfigError(["sensitivity needs a fixed-depth model kind"])
    for layer in layers:
        if not 0 <= layer <= cfg.depth:
            raise ValueError(f"layer must lie in 0..{cfg.depth}, got {layer}")
    n, width = g.n, cfg.hidden
    if n * width > 2000:
        raise ConfigError([f"instance too large: n * width = {n * width} > 2000"])
    copies = _SWEEP_COPIES
    params = _constant_view(model.params)
    ops = build_operators(g, params)
    ops.a.copies = copies       # copy k of node v is row v * copies + k
    be = None if ops.be is None else ad.constant(np.repeat(ops.be.value, copies, axis=0))
    ops = replace(ops, X=np.repeat(ops.X, copies, axis=0), be=be)
    h0 = ad.leaf(encode(ad.constant(ops.X), params).value)
    states: list = []
    root = propagate(h0, ops, params, cfg.model, cfg.depth, capture=states)
    probes = [states[layer] for layer in layers]
    # the rows of copy 0 of each node's neighbours; copy k's are k rows on
    nbrs = [g.col_indices[g.row_offsets[v]:g.row_offsets[v + 1]] * copies
            for v in range(n)]
    seeds = [(v, c) for v in range(n) for c in range(width)]
    totals = [0.0] * len(probes)
    for start in range(0, len(seeds), copies):
        chunk = seeds[start:start + copies]
        seed = np.zeros(root.shape)
        for k, (v, c) in enumerate(chunk):
            seed[v * copies + k, c] = 1.0
        # each seed's neighbour rows in its own copy, one seed after another
        rows = np.concatenate([nbrs[v] + k for k, (v, _) in enumerate(chunk)])
        bounds = np.cumsum([0] + [nbrs[v].size for v, _ in chunk]).tolist()
        ad.zero_grads([h0])      # a leaf's gradient adds up over sweeps
        ad.backward(root, seed=seed)
        for i, probe in enumerate(probes):
            terms = np.abs(probe.grad.take(rows, axis=0))
            for lo, hi in zip(bounds, bounds[1:]):
                totals[i] += float(terms[lo:hi].sum())
    return totals


def depth_retention(data, kinds, depths, base_cfg) -> list[dict]:
    """Test metric for every (kind, depth) pair, each trained from scratch;
    every pair's config is validated before the first one trains."""
    base = base_cfg.to_dict()
    try:
        cfgs = [RunConfig.from_dict({**base, "model": kind, "depth": L})
                for kind in kinds for L in depths]
    except ConfigError as exc:
        raise ConfigError([f"kinds and depths: {m}" for m in exc.messages]) from None
    rows = []
    for cfg in cfgs:
        model, _ = train_run(cfg, data)
        rec = evaluate(model, data, "test")
        rows.append({"kind": cfg.model, "depth": cfg.depth, "metric": cfg.metric,
                     "value": rec["value"]})
    return rows


def _layer_states(model: Model, g: Graph) -> list:
    """Every layer's node states of one tape-free eval forward of model on g."""
    hs: list = []
    with ad.no_grad():
        forward_node(model, operators_for(model, g), "eval_argmax", capture=hs)
    return hs


def oracle_exit_eval(model: Model, g: Graph) -> tuple[float, float]:
    """Counterfactual best-exit accuracy vs plain final-layer accuracy.

    Decodes the state at every layer; a node is credited as correct if any
    layer's decoded class matches its label (taking the earliest such layer),
    falling back to the final layer's class otherwise. The first return value
    therefore never falls below the second. Computed on the test split when
    masks are present.
    """
    if model.cfg.task != "node_class":
        raise ConfigError(["oracle exit analysis is defined for node tasks"])
    if g.y is None:
        raise ValueError("dataset has no labels")
    hs = _layer_states(model, g)
    y = np.asarray(g.y, dtype=np.int64).reshape(-1)
    sel = np.ones(g.n, dtype=bool)
    if g.masks is not None and "test" in g.masks:
        sel = g.masks["test"]
    per_layer = [classes_from_logits(decode(h, model.params).value) for h in hs]
    final_classes = per_layer[-1]
    correct_any = np.zeros(g.n, dtype=bool)
    for classes in per_layer:
        correct_any |= classes == y
    oracle_classes = np.where(correct_any, y, final_classes)
    oracle = metric_eval(oracle_classes[sel], y[sel], "accuracy")
    final = metric_eval(final_classes[sel], y[sel], "accuracy")
    return oracle, final


def dirichlet_traces(model: Model, g: Graph) -> tuple[Trace, Trace]:
    """Per-layer Dirichlet energy of a forward pass, as sum and per-arc mean."""
    hs = _layer_states(model, g)
    sums = np.array([dirichlet_energy(h.value, g) for h in hs])
    arcs = max(g.n_arcs, 1)
    layers = np.arange(len(hs))
    meta = {"model": model.cfg.model, "depth": model.cfg.depth}
    return (Trace("dirichlet_sum", layers, sums, dict(meta)),
            Trace("dirichlet_mean", layers, sums / arcs, dict(meta)))


# ------------------------------------------------------------------- suites

def spectrum_suite(n_configs: int = 100, width_lo: int = 2, width_hi: int = 16,
                   seed: int = 0) -> dict:
    """Jacobian spectra at random params/points; returns the largest |Re lambda|.
    All n_configs widths are drawn in one call. Then, for each width present
    in ascending order, its k configs are drawn as three blocks (omega_raw
    (k, m, m), the points h (k, m), the neighbor terms phi (k, m)) and
    checked by one sas_jacobian call. Fewer than one config would check
    nothing and raises ValueError, in the key table's words for cases."""
    check_values(cases=n_configs)
    rng = np.random.default_rng(seed)
    widths, counts = np.unique(rng.integers(width_lo, width_hi + 1, size=n_configs),
                               return_counts=True)
    worst_re = 0.0
    for m, k in zip(widths.tolist(), counts.tolist()):
        # omega_raw at make_cell_params' Glorot scale, 2 / (m + m) = 1 / m
        omega = rng.normal(0.0, np.sqrt(1.0 / m), size=(k, m, m))
        h = rng.normal(size=(k, m))
        phi = rng.normal(size=(k, m))
        rep = sas_jacobian(omega, h, phi)
        worst_re = max(worst_re, float(rep.max_re.max()))
    return {"configs": n_configs, "max_re_lambda": worst_re,
            "pass": worst_re <= MAX_RE_TOL}


def descent_suite(n_cases: int = 100, steps: int = 50, tau: float = 0.05,
                  edge_modes=("zero", "neg_relu"), seed: int = 0) -> dict:
    """Random-instance energy descent; returns the total violation count.
    Fewer than one case, step or edge mode would check nothing and raises
    ValueError, in the key table's words for cases and steps."""
    check_values(cases=n_cases, steps=steps)
    if not edge_modes:
        raise ValueError("edge_modes must be non-empty")
    rng = np.random.default_rng(seed)
    total = 0
    for mode in edge_modes:
        done = 0
        while done < n_cases:
            n = int(rng.integers(6, 16))
            m = int(rng.integers(2, 9))
            g = gen_sbm((n // 2, n - n // 2), 0.6, 0.3,
                        int(rng.integers(1 << 31)), feature_dim=m)
            if g.n_arcs == 0 or np.any(degrees(g) == 0):
                continue
            done += 1
            edge_dim = 3
            if mode != "zero":
                raw = rng.normal(size=(g.n_arcs, edge_dim))
                idx = pair_index(g)
                keep = np.arange(g.n_arcs) <= idx
                g.E_feat = np.where(keep[:, None], raw, raw[idx])
            params = make_cell_params(rng, "sas", m, m, m, tau=tau,
                                      edge_mode=mode, edge_dim=edge_dim)
            H0 = rng.normal(size=(g.n, m))
            tr = descent_trace(g, params, H0, steps, tau)
            total += len(tr.metadata["violations"])
    return {"cases": n_cases * len(edge_modes), "violations": total, "steps": steps,
            "tau": tau, "pass": total == 0}


# ------------------------------------------------------------------- trace io

def emit_trace(trace: Trace, path) -> None:
    """Two-column CSV with '#'-prefixed metadata header lines."""
    lines = [f"# name: {trace.name}"]
    for key in sorted(trace.metadata):
        lines.append(f"# {key}: {json.dumps(trace.metadata[key], sort_keys=True)}")
    lines.append("layer,value")
    for l, v in zip(trace.layers, trace.values):
        lines.append(f"{int(l)},{float(v)!r}")
    write_output(path, "\n".join(lines) + "\n")
