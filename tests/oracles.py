"""Independent brute-force oracles used by the test suite.

Everything in here is deliberately naive: dense matrices, O(n^2) pair loops,
explicit threshold sweeps. These functions were written before the package
implementations they check and are not edited to match them; when an oracle
and an implementation disagree, the implementation is wrong until proven
otherwise.
"""

import numpy as np


# ---------------------------------------------------------------- graph oracles

def dense_adjacency(n, arcs):
    """Dense 0/1 adjacency from a directed arc list."""
    A = np.zeros((n, n))
    for u, v in arcs:
        A[u, v] = 1.0
    return A


def dense_norm_adj(n, arcs):
    """Dense D^-1/2 A D^-1/2 with degrees taken from the arc list."""
    A = dense_adjacency(n, arcs)
    d = A.sum(axis=1)
    dinv = 1.0 / np.sqrt(d)
    return dinv[:, None] * A * dinv[None, :]


def dense_incidence_product(n, arcs, e_feat):
    """B @ E collapsed per undirected edge.

    B is the n x |edges| node-edge incidence matrix (1 at both endpoints).
    e_feat carries one row per directed arc with paired arcs holding identical
    rows, so each undirected edge contributes its row once per endpoint.
    """
    seen = {}
    for k, (u, v) in enumerate(arcs):
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen[key] = k
    out = np.zeros((n, e_feat.shape[1]))
    for (u, v), k in seen.items():
        out[u] += e_feat[k]
        out[v] += e_feat[k]
    return out


def segment_sum_loop(terms, offsets):
    """Each segment offsets[i]:offsets[i + 1] of terms' rows summed one
    segment at a time by the kit's summation rule: the first term plus the
    rest, added left to right, a_0 + (((a_1 + a_2) + a_3) + ...); an empty
    segment sums to zero."""
    terms = np.asarray(terms, dtype=float)
    out = np.zeros((len(offsets) - 1, terms.shape[1]))
    for i in range(len(offsets) - 1):
        seg = terms[offsets[i]:offsets[i + 1]]
        if len(seg) == 0:
            continue
        rest = None
        for t in seg[1:]:
            rest = t.copy() if rest is None else rest + t
        out[i] = seg[0] if rest is None else seg[0] + rest
    return out


# ----------------------------------------------------------- metric oracles

def auroc_pair_count(scores, labels):
    """AUROC by exhaustive positive/negative pair comparison, ties worth 0.5."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("pair-count oracle needs both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ap_threshold_sweep(scores, labels):
    """Average precision by sweeping every distinct score as a threshold.

    AP = sum over distinct thresholds t (descending) of
    (recall(t) - recall(prev)) * precision(t), with predictions >= t positive.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("sweep oracle needs at least one positive")
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int(((labels == 1) & pred).sum())
        fp = int(((labels == 0) & pred).sum())
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def macro_f1_confusion(pred, target, n_classes):
    """Macro F1 assembled from an explicit confusion matrix; empty classes score 0."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    conf = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(pred, target):
        conf[int(t), int(p)] += 1
    f1s = []
    for c in range(n_classes):
        tp = conf[c, c]
        fp = conf[:, c].sum() - tp
        fn = conf[c, :].sum() - tp
        if tp == 0:
            f1s.append(0.0)
        else:
            prec = tp / (tp + fp)
            rec = tp / (tp + fn)
            f1s.append(2 * prec * rec / (prec + rec))
    return float(np.mean(f1s))


def sorted_quantiles(values):
    """(min, median, max) via direct sorting; median averages the two middles."""
    s = sorted(float(v) for v in values)
    k = len(s)
    med = (s[(k - 1) // 2] + s[k // 2]) / 2.0
    return s[0], med, s[-1]


# ---------------------------------------------------------- energy oracles

def dirichlet_loop(H, arcs, deg):
    """Arc-by-arc sum of ||h_v/sqrt(d_v+1) - h_u/sqrt(d_u+1)||^2."""
    H = np.asarray(H, dtype=float)
    deg = np.asarray(deg, dtype=float)
    total = 0.0
    for u, v in arcs:
        diff = H[v] / np.sqrt(deg[v] + 1.0) - H[u] / np.sqrt(deg[u] + 1.0)
        total += float(diff @ diff)
    return total


def energy_loop(H, W_s, arcs, deg):
    """Arc-by-arc -(d_u d_v)^-1/2 <h_u, W_s h_v> sum."""
    H = np.asarray(H, dtype=float)
    W_s = np.asarray(W_s, dtype=float)
    deg = np.asarray(deg, dtype=float)
    total = 0.0
    for u, v in arcs:
        total -= float(H[u] @ (W_s @ H[v])) / np.sqrt(deg[u] * deg[v])
    return total


# -------------------------------------------------------- numerical oracles

def fd_gradient(f, x, h=1e-5):
    """Dense central-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def fd_jacobian(f, x, h=1e-5):
    """Central-difference Jacobian of vector f at flat array x, shape (len(f), len(x))."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float).ravel()
    J = np.zeros((f0.size, x.size))
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = np.asarray(f(x), dtype=float).ravel()
        flat[i] = orig - h
        fm = np.asarray(f(x), dtype=float).ravel()
        flat[i] = orig
        J[:, i] = (fp - fm) / (2 * h)
    return J


def eigvals_oracle(A):
    """Reference eigenvalues from numpy's LAPACK binding."""
    return np.linalg.eigvals(np.asarray(A, dtype=float))


def match_complex_sets(a, b, tol):
    """Greedy minimal-distance matching between two complex multisets."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        return False
    b_left = b[:]
    for z in a:
        dists = [abs(z - w) for w in b_left]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        b_left.pop(j)
    return True



# ------------------------------------------------------ spectrum oracles

def sas_jacobian_single(omega_raw, h_point, neighbor_term=None, sigma1="relu_tanh",
                        sigma2="relu"):
    """diagnostics.sas_jacobian as it ran before it took stacks: one m x m
    omega_raw, one linearization point, one eigensolver call. Returns
    (eigenvalues, max_re, skew_residual)."""
    from eegnn.autodiff import _act_derivative, _act_forward

    ov = np.asarray(omega_raw, dtype=np.float64)
    m = ov.shape[0]
    h = np.asarray(h_point, dtype=np.float64).reshape(-1)
    phi = np.zeros(m) if neighbor_term is None else \
        np.asarray(neighbor_term, dtype=np.float64).reshape(-1)
    oas = ov - ov.T
    v = h @ oas
    u = -_act_forward(v, sigma2) + phi
    dfac = _act_derivative(u, sigma1) * _act_derivative(v, sigma2)
    J = -(dfac[:, None] * oas)
    dtil = np.sqrt(np.abs(dfac))
    M = np.outer(dtil, dtil) * oas
    residual = float(np.abs(M + M.T).max()) if m else 0.0
    lam = np.linalg.eigvals(J).astype(np.complex128)
    return lam, float(np.abs(lam.real).max()) if m else 0.0, residual


def _spectrum_draws(n_configs, width_lo, width_hi, seed):
    """Each config spectrum_suite checks, in draw order, one value at a time:
    every config's width first; then, for each width m present in ascending
    order, each of its configs' omega_raw as one m x m block at
    make_cell_params' Glorot scale (variance 2 / (m + m)), then each of their
    points h, then each of their neighbor terms phi. Yields (omega, h, phi)."""
    rng = np.random.default_rng(seed)
    widths = [int(rng.integers(width_lo, width_hi + 1)) for _ in range(n_configs)]
    for m in sorted(set(widths)):
        k = widths.count(m)
        omegas = [rng.normal(0.0, np.sqrt(2.0 / (m + m)), size=(m, m)) for _ in range(k)]
        hs = [rng.normal(size=m) for _ in range(k)]
        phis = [rng.normal(size=m) for _ in range(k)]
        yield from zip(omegas, hs, phis)


def spectrum_suite_loop(n_configs, width_lo, width_hi, seed):
    """diagnostics.spectrum_suite with one sas_jacobian_single call per
    config, in draw order."""
    worst_re = 0.0
    worst_skew = 0.0
    for omega, h, phi in _spectrum_draws(n_configs, width_lo, width_hi, seed):
        _, max_re, skew = sas_jacobian_single(omega, h, neighbor_term=phi)
        worst_re = max(worst_re, max_re)
        worst_skew = max(worst_skew, skew)
    return {"configs": n_configs, "max_re_lambda": worst_re,
            "max_skew_residual": worst_skew,
            "pass": worst_re <= 1e-8 and worst_skew <= 1e-12}


def spectrum_draws_loop(n_configs, width_lo, width_hi, seed):
    """The configs spectrum_suite draws: a list of (omega, h, phi) stacks,
    one per width in ascending order."""
    by_width = {}
    for drawn in _spectrum_draws(n_configs, width_lo, width_hi, seed):
        by_width.setdefault(drawn[0].shape[0], []).append(drawn)
    return [tuple(np.stack(x) for x in zip(*drawn)) for drawn in by_width.values()]


# ---------------------------------------------------- sensitivity oracle

def sensitivity_single_seed(model, g, layer):
    """Layer sensitivity with one reverse sweep per final-state coordinate,
    on a tape of g alone: the loop diagnostics.sensitivity ran before it
    batched its seeds over copies of the graph.
    """
    from eegnn import autodiff as ad
    from eegnn.cells import build_operators, encode, propagate

    cfg = model.cfg
    n, width = g.n, cfg.hidden
    taped = []
    root = propagate(encode(ad.constant(g.X), model.params),
                     build_operators(g, model.params), model.params, cfg.model,
                     cfg.depth, capture=taped)
    probe = taped[layer]
    total = 0.0
    seed = np.zeros((n, width))
    for v in range(n):
        nbrs = g.col_indices[g.row_offsets[v]:g.row_offsets[v + 1]]
        if nbrs.size == 0:
            continue
        for c in range(width):
            seed[v, c] = 1.0
            ad.backward(root, seed=seed)
            total += float(np.abs(probe.grad[nbrs]).sum())
            seed[v, c] = 0.0
    return total


# ------------------------------------------------------ graph-set oracle

def graph_set_forward_per_graph(model, graphs, mode="eval_argmax", noise=None):
    """A graph-set forward run one member graph at a time, as the package ran
    it before graph sets were batched.

    Each graph is encoded, propagated and mean-pooled on its own (its sum by
    segment_sum_loop over its node rows, divided by its node count), and
    decoded as a single row. An eegnn model reads one continue/exit decision
    per layer from its heads on the graph's pooled state, steps the whole
    graph with that decision's tau, and stops at its first exit; its pooled
    state is the one of its exit layer. With mode train_sample, noise holds one (G, 2)
    block per layer and graph i reads row i of each.

    Returns per-graph node states of the last layer run, pooled states
    (G x hidden), logits, exit layers and exit times; the last two are
    None for fixed-depth kinds. Forward only: nothing is taped.
    """
    from eegnn import autodiff as ad
    from eegnn.cells import build_operators, cell_weights, edge_term, encode, \
        propagate, sas_step
    from eegnn.exits import confidence_logits, \
        gumbel_softmax_st, inv_temperature

    def mean(H):
        return segment_sum_loop(H, [0, len(H)]) / len(H)

    cfg, p = model.cfg, model.params
    states, pooled, logits, layers, times = [], [], [], [], []
    with ad.no_grad():
        for i, g in enumerate(graphs):
            ops = build_operators(g, p, model.heads)
            H = encode(ad.constant(g.X), p)
            if cfg.model != "eegnn":
                H = propagate(H, ops, p, cfg.model, cfg.depth)
                pool = mean(H.value)
            else:
                et, w = edge_term(ops.be, p), cell_weights(p, "eegnn")
                layer, t = cfg.depth, 0.0
                for l in range(cfg.depth):
                    pool = mean(H.value)
                    row = ad.constant(pool)
                    smp = None
                    if mode == "train_sample":
                        smp = noise[l][i:i + 1]
                    c_soft, hard = gumbel_softmax_st(
                        confidence_logits(row, model.heads),
                        inv_temperature(row, model.heads), smp, mode)
                    tau = c_soft.value[0, 0]
                    if hard[0, 1] == 1.0:
                        layer = l
                        break
                    t += float(tau)
                    H = sas_step(H, ops.a, p, w, tau=ad.constant(np.full((g.n, 1), tau)),
                                 edge_term=et)
                else:
                    pool = mean(H.value)
                layers.append(layer)
                times.append(t)
            states.append(H.value)
            pooled.append(pool)
            out = ad.constant(pool)
            for k, (w, b) in enumerate(p.dec):
                out = ad.matmul_add(out, w, b)
                if k + 1 < len(p.dec):
                    out = ad.activation_apply(out, "relu")
            logits.append(out.value)
    eegnn = cfg.model == "eegnn"
    return (states, np.vstack(pooled), np.vstack(logits),
            np.array(layers) if eegnn else None, np.array(times) if eegnn else None)


# ------------------------------------------------------- graph-loop oracles
#
# The per-edge Python loops graphs.py ran before it built arcs with array
# operations over the key u * n + v, kept verbatim: canonicalize, make_graph's
# E_edge mapping, save_graph and the two generators.

def canonicalize_loop(edges, n):
    """Canonical CSR skeleton from a set of arc tuples, then sorted."""
    from eegnn.graphs import Graph

    pairs = set()
    for u, v in edges:
        u = int(u)
        v = int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            continue
        pairs.add((u, v))
        pairs.add((v, u))
    if pairs:
        arr = np.array(sorted(pairs), dtype=np.int64)
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_offsets, src + 1, 1)
    row_offsets = np.cumsum(row_offsets)
    return Graph(n=n, row_offsets=row_offsets, col_indices=dst,
                 X=np.zeros((n, 0)))


def e_feat_loop(g, E_edge):
    """Per-arc edge features from one row per canonical edge (u < v),
    numbered in first-seen CSR order through a dict."""
    from eegnn.graphs import arc_rows

    E_edge = np.asarray(E_edge, dtype=np.float64)
    rows = arc_rows(g)
    und = {}
    pos = 0
    for u, v in zip(rows, g.col_indices):
        key = (min(u, v), max(u, v))
        if key not in und:
            und[key] = pos
            pos += 1
    if E_edge.shape[0] != pos:
        raise ValueError(
            f"E_edge has {E_edge.shape[0]} rows, expected one per edge ({pos})")
    E = np.zeros((g.n_arcs, E_edge.shape[1]))
    for k, (u, v) in enumerate(zip(rows, g.col_indices)):
        E[k] = E_edge[und[(min(u, v), max(u, v))]]
    return E


def gen_minesweeper_grid_loop(rows, cols, mine_prob, seed, unknown_frac=0.5):
    """The minesweeper generator with its edges from four nested loops."""
    from eegnn.graphs import _random_split, arc_rows

    rng = np.random.Generator(np.random.PCG64(seed))
    n = rows * cols
    mines = rng.random(n) < mine_prob
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        edges.append((u, rr * cols + cc))
    g = canonicalize_loop(edges, n)
    counts = np.zeros(n, dtype=np.int64)
    rws = arc_rows(g)
    np.add.at(counts, rws, mines[g.col_indices].astype(np.int64))
    unknown = rng.random(n) < unknown_frac
    X = np.zeros((n, 10))
    known = ~unknown
    X[known, counts[known]] = 1.0
    X[unknown, 9] = 1.0
    masks = _random_split(n, rng)
    g.X = X
    g.y = mines.astype(np.int64)
    g.masks = masks
    return g


def gen_sbm_loop(sizes, p_in, p_out, seed, feature_dim=8, feature_shift=1.0):
    """The block-model generator with one draw per node pair, in a loop."""
    from eegnn.graphs import _random_split

    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = [int(s) for s in sizes]
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if labels[u] == labels[v] else p_out
            if rng.random() < p:
                edges.append((u, v))
    g = canonicalize_loop(edges, n)
    X = rng.normal(size=(n, feature_dim))
    shift_dirs = rng.normal(size=(len(sizes), feature_dim))
    norms = np.linalg.norm(shift_dirs, axis=1, keepdims=True)
    shift_dirs = shift_dirs / np.where(norms == 0, 1.0, norms)
    X = X + feature_shift * shift_dirs[labels]
    g.X = X
    g.y = labels.astype(np.int64)
    g.masks = _random_split(n, rng)
    return g


def save_graph_loop(g, path):
    """save_graph with its edge list built arc by arc."""
    import json

    from eegnn.graphs import arc_rows, validate_graph

    validate_graph(g)
    rows = arc_rows(g)
    und_edges = []
    und_rows = []
    for k, (u, v) in enumerate(zip(rows.tolist(), g.col_indices.tolist())):
        if u < v:
            und_edges.append([u, v])
            und_rows.append(k)
    doc = {"n": g.n, "edges": und_edges, "x": g.X.tolist()}
    if g.E_feat is not None:
        doc["edge_attr"] = g.E_feat.tolist()
    if g.y is not None:
        doc["y"] = g.y.tolist()
    if g.masks is not None:
        doc["masks"] = {k: [bool(b) for b in g.masks[k]] for k in ("train", "val", "test")}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


# ------------------------------------------------------- layer-loop oracles
#
# The two layer loops the package ran before the exit forward stepped
# through cells.propagate, kept verbatim: the fixed-depth propagate and the
# exit loop of exits.eegnn_forward_node.

def baseline_step_chain(H, a, params, kind, weights, layer=0):
    """One gcn, graff or adgn layer as the chain of small nodes it was
    before it became one act_update node (plus one add_scaled_rows for
    graff and adgn): gcn's aggregate and activation, and graff's and adgn's
    self product, aggregate, sum, activation, scaling and residual sum,
    each its own node. weights is cells.cell_weights(params, kind)."""
    from eegnn import autodiff as ad

    if kind == "gcn":
        agg = ad.dspmm(a, ad.matmul_add(H, params.gcn_ws[layer]))
        return ad.activation_apply(agg, params.sigma1)
    coupling, diffusion = weights
    bias, act = (None, params.sigma1) if kind == "graff" else (params.adgn_b, "tanh")
    inner = ad.add(ad.matmul_add(H, coupling, bias),
                   ad.dspmm(a, ad.matmul_add(H, diffusion)))
    return ad.add(H, ad.smul(ad.activation_apply(inner, act), params.tau))


def propagate_two_loops(H, ops, params, kind, depth, tau=None):
    """The fixed-depth stack: depth steps of one cell kind from state H.

    Returns the depth + 1 states H_0 = H, ..., H_depth, all on the tape.
    Kind sas takes the sas step with step size tau (the cell's own when
    None); the baseline kinds take their step as baseline_step_chain builds
    it and ignore tau. The eegnn kind runs its own loop,
    exits.eegnn_forward_node.
    """
    from eegnn.cells import cell_weights, edge_term, sas_step

    states = [H]
    weights = cell_weights(params, kind)
    if kind == "sas":
        et = edge_term(ops.be, params)
        for _ in range(depth):
            states.append(sas_step(states[-1], ops.a, params, weights, tau=tau, edge_term=et))
    else:
        for l in range(depth):
            states.append(baseline_step_chain(states[-1], ops.a, params, kind, weights, l))
    return states


def eegnn_forward_two_loops(ops, params, heads, L, rng=None, mode="train_sample", *,
                            noise=None, capture=None):
    """exits.eegnn_forward_node with its own layer loop; returns
    (Z, ExitState, per-layer records)."""
    from eegnn import autodiff as ad
    from eegnn.cells import cell_weights, edge_term, encode, sas_step
    from eegnn.exits import (ExitState, confidence_logits, gumbel_softmax_st,
                             inv_temperature, sample_gumbel)

    if L < 1:
        raise ValueError(f"depth must be >= 1, got {L}")
    if heads is None:
        raise ValueError("the early-exit forward needs exit heads")
    seg = ops.seg
    if seg is not None:
        if heads.kind != "mlp":
            raise ValueError("graph-level exits use mlp heads on pooled features")
    et, weights = edge_term(ops.be, params), cell_weights(params, "eegnn")
    H = encode(ad.constant(ops.X), params)
    if capture is not None:
        capture.append(H.value.copy())
    agents = H if seg is None else ad.segment_mean(H, seg)
    n = agents.shape[0]
    if mode == "train_sample" and noise is None:
        if rng is None:
            raise ValueError("a train_sample forward needs noise or a generator rng")
        noise = sample_gumbel((L, n, 2), rng)
    Z_cur = ad.constant(np.zeros_like(agents.value))
    exited = np.zeros(n, dtype=bool)
    exit_layer = np.full(n, L, dtype=np.int64)
    exit_time = np.zeros(n)
    records = []
    for l in range(L):
        mh = None if ops.ma is None else ad.dspmm(ops.ma, H)
        logits = confidence_logits(agents, heads, ops.ma, mh)
        inv_nu = inv_temperature(agents, heads, ops.ma, mh)
        smp = noise[l] if mode == "train_sample" else None
        c_soft, hard = gumbel_softmax_st(logits, inv_nu, smp, mode)
        tau_col = ad.col_slice(c_soft, 0)
        new_exit = (hard[:, 1] == 1.0) & ~exited
        if new_exit.any():
            Z_cur = ad.where_rows(new_exit, agents, Z_cur)
            exit_layer[new_exit] = l
            exited |= new_exit
        active = ~exited
        exit_time[active] += tau_col.value[active, 0]
        records.append({"layer": l, "mean_tau": float(tau_col.value.mean()),
                        "new_exits": int(new_exit.sum()),
                        "mean_inv_nu": float(inv_nu.value.mean())})
        if capture is None and exited.all():
            break
        step = tau_col if seg is None else ad.segment_spread(tau_col, seg)
        H = sas_step(H, ops.a, params, weights, tau=step, edge_term=et)
        agents = H if seg is None else ad.segment_mean(H, seg)
        if capture is not None:
            capture.append(H.value.copy())
    # after a stop every row comes from Z_cur; the row select stays on the
    # tape all the same, so backward visits the layers in the order it visits
    # them after a full-depth run and sums every gradient in the same order
    Z = ad.where_rows(exited, Z_cur, agents) if exited.any() else agents
    return Z, ExitState(exit_layer=exit_layer, exit_time=exit_time, L=L), records
