"""Cell update step, baselines, heads, and parameter accounting."""

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad
from eegnn.cells import (CellParams, antisymmetrize, baseline_step, build_operators,
                         cell_weights, decode, encode, make_cell_params, propagate,
                         sas_step, symmetrize)
from eegnn.exits import make_exit_heads
from eegnn.graphs import Segments, arc_rows, canonicalize, gen_sbm, mean_adj, norm_adj, spmm
from eegnn.training import RunConfig, build_model


def small_graph(n=10, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        edges = [(int(rng.integers(n)), int(rng.integers(n)))
                 for _ in range(3 * n)]
        g = canonicalize(edges, n)
        if np.all(np.diff(g.row_offsets) > 0):
            return g


def basic_params(rng, m, tau=1.0, **kw):
    return make_cell_params(rng, "sas", m, m, 2, tau=tau, **kw)


def test_cell_params_rejects_bad_tau():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        basic_params(rng, 3, tau=0.0)
    with pytest.raises(ValueError):
        basic_params(rng, 3, tau=1.2)


def test_cell_params_rejects_bad_activation_and_edge_mode():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_cell_params(rng, "sas", 3, 3, 2, sigma1="swish")
    with pytest.raises(ValueError):
        make_cell_params(rng, "sas", 3, 3, 2, edge_mode="bilinear")


def hand_built_leaves(names=("omega_raw", "w_raw", "enc_w", "enc_b", "dec0_w",
                              "dec0_b")) -> dict:
    """CellParams keyword leaves for hidden width 2, named by names."""
    shapes = ((2, 2), (2, 2), (2, 2), (1, 2), (2, 2), (1, 2))
    o, w, ew, eb, dw, db = (ad.leaf(np.zeros(s), n) for s, n in zip(shapes, names))
    return dict(omega_raw=o, w_raw=w, enc_w=ew, enc_b=eb, dec=[(dw, db)])


def test_edge_mode_requires_edge_weights():
    CellParams(**hand_built_leaves())
    with pytest.raises(ValueError, match="requires w_e"):
        CellParams(**hand_built_leaves(), edge_mode="neg_relu")


def test_cell_params_reject_empty_and_repeated_leaf_names():
    with pytest.raises(ValueError, match="leaf 0 of 6 has an empty name"):
        CellParams(**hand_built_leaves(("",) * 6))
    names = ("omega_raw", "w_raw", "enc_w", "enc_b", "w_raw", "enc_b")
    with pytest.raises(ValueError, match="used more than once: enc_b, w_raw"):
        CellParams(**hand_built_leaves(names))


def test_antisymmetrize_kernel_is_symmetric_matrices():
    S = ad.leaf([[1.0, 2.0], [2.0, 5.0]])
    assert not antisymmetrize(S).value.any()


def test_antisymmetrize_direct_value():
    out = antisymmetrize(ad.leaf([[0.0, 1.0], [0.0, 0.0]]))
    assert out.value.tolist() == [[0.0, 1.0], [-1.0, 0.0]]


def test_antisymmetrize_exact_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(20):
        O = antisymmetrize(ad.leaf(rng.normal(size=(5, 5)))).value
        assert np.array_equal(O.T, -O)


def test_symmetrize_kernel_is_antisymmetric_matrices():
    A = ad.leaf([[0.0, 3.0], [-3.0, 0.0]])
    assert not symmetrize(A).value.any()


def test_symmetrize_direct_value():
    out = symmetrize(ad.leaf([[1.0, 2.0], [0.0, 1.0]]))
    assert out.value.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_symmetrize_exact_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        W = symmetrize(ad.leaf(rng.normal(size=(5, 5)))).value
        assert np.array_equal(W.T, W)


def test_sas_step_zero_tau_is_identity():
    rng = np.random.default_rng(3)
    g = small_graph()
    p = basic_params(rng, 4)
    H = ad.constant(rng.normal(size=(10, 4)))
    out = sas_step(H, norm_adj(g), p, cell_weights(p, "sas"),
                   tau=ad.constant(np.zeros((10, 1))))
    assert np.array_equal(out.value, H.value)


def test_sas_step_zero_tau_rows_bit_exact():
    # mixed column: gated rows unchanged at the bit level, others move
    rng = np.random.default_rng(4)
    g = small_graph()
    p = basic_params(rng, 4)
    H = ad.constant(rng.normal(size=(10, 4)))
    tau = rng.uniform(0.2, 1.0, size=(10, 1))
    tau[[1, 5, 7], 0] = 0.0
    out = sas_step(H, norm_adj(g), p, cell_weights(p, "sas"), tau=ad.constant(tau)).value
    for i in (1, 5, 7):
        assert np.array_equal(out[i], H.value[i])
    assert not np.array_equal(out, H.value)   # the step as a whole moved


def test_sas_step_origin_fixed_point():
    rng = np.random.default_rng(5)
    g = small_graph()
    p = basic_params(rng, 4)
    out = sas_step(ad.constant(np.zeros((10, 4))), norm_adj(g), p, cell_weights(p, "sas"),
                   tau=0.5)
    assert not out.value.any()


def test_sas_step_rejects_bad_per_node_tau():
    rng = np.random.default_rng(6)
    g = small_graph()
    p = basic_params(rng, 4)
    H = ad.constant(np.zeros((10, 4)))
    w = cell_weights(p, "sas")
    with pytest.raises(ValueError):
        sas_step(H, norm_adj(g), p, w, tau=ad.constant(np.full((10, 1), 1.5)))
    with pytest.raises(ValueError):
        sas_step(H, norm_adj(g), p, w, tau=ad.constant(np.full((10, 1), -0.1)))
    nan_col = np.full((10, 1), 0.5)
    nan_col[3] = np.nan
    with pytest.raises(ValueError, match="outside"):
        sas_step(H, norm_adj(g), p, w, tau=ad.constant(nan_col))


def test_sas_step_rejects_shape_mismatch():
    rng = np.random.default_rng(7)
    g = small_graph()
    p = basic_params(rng, 4)
    with pytest.raises(ValueError):
        sas_step(ad.constant(np.zeros((9, 4))), norm_adj(g), p, cell_weights(p, "sas"))


def test_sas_step_per_node_tau_matches_scalar_rowwise():
    rng = np.random.default_rng(8)
    g = small_graph()
    p = basic_params(rng, 4)
    H = ad.constant(rng.normal(size=(10, 4)))
    a = norm_adj(g)
    w = cell_weights(p, "sas")
    full = sas_step(H, a, p, w, tau=0.3).value
    tau = np.full((10, 1), 0.7)
    tau[2, 0] = 0.3
    mixed = sas_step(H, a, p, w, tau=ad.constant(tau)).value
    assert np.array_equal(mixed[2], full[2])


def test_sas_step_three_layer_gradients_match_fd():
    rng = np.random.default_rng(9)
    g = small_graph(10, seed=9)
    p = basic_params(rng, 4, tau=0.1)
    a = norm_adj(g)
    X = ad.constant(rng.normal(size=(10, 4)))

    def loss():
        H, w = X, cell_weights(p, "sas")
        for _ in range(3):
            H = sas_step(H, a, p, w, tau=0.1)
        return ad.sum_all(ad.mul(H, ad.mul(H, H)))

    assert ad.fd_check(loss, [p.omega_raw, p.w_raw]) <= 1e-4


# (kind, step size, edge mode): sas at the cell's own tau, at a scalar tau as
# diagnostics.descent_trace passes, and with an edge term; each baseline kind
PROPAGATE_CASES = [("sas", None, "zero"), ("sas", 0.05, "zero"), ("sas", None, "neg_relu"),
                   ("gcn", None, "zero"), ("graff", None, "zero"), ("adgn", None, "zero")]


@pytest.mark.parametrize("kind, tau, edge_mode", PROPAGATE_CASES)
def test_propagate_matches_its_fixed_depth_oracle(kind, tau, edge_mode):
    """Each fixed kind through the one layer loop against the fixed-depth
    loop it ran before, frozen in oracles: states, captured values and every
    leaf gradient, byte for byte."""
    g = gen_sbm([5, 5], 0.8, 0.3, seed=3, feature_dim=3)
    edge_dim = 0 if edge_mode == "zero" else 2
    if edge_dim:
        g.E_feat = np.random.default_rng(3).normal(size=(g.n_arcs, edge_dim))
    runs = []
    for loop in (propagate, oracles.propagate_two_loops):
        p = make_cell_params(np.random.default_rng(4), kind, 3, 4, 2, depth=4, tau=0.6,
                             edge_mode=edge_mode, edge_dim=edge_dim)
        captured = []
        args = (encode(ad.constant(g.X), p), build_operators(g, p), p, kind, 4, tau)
        if loop is propagate:
            last = propagate(*args, captured)
            assert last is captured[-1]
            states = captured
        else:
            states = loop(*args)
        w = np.random.default_rng(5).normal(size=states[-1].shape)
        ad.backward(ad.sum_all(ad.mul_const(states[-1], w)))
        runs.append(([h.value.tobytes() for h in states], captured,
                     [leaf.grad.tobytes() for _, leaf in p.parameters()]))
    (states, captured, grads), (want_states, _, want_grads) = runs
    assert len(states) == 5 and states == want_states
    assert [h.value.tobytes() for h in captured] == want_states
    assert grads == want_grads


# gcn and graff with each sigma1 the ledger's kinds of derivative cover;
# adgn's step applies a fixed tanh
BASELINE_CASES = ([(kind, sigma1) for kind in ("gcn", "graff")
                   for sigma1 in ("relu_tanh", "tanh", "softplus", "identity")]
                  + [("adgn", "tanh")])


@pytest.mark.parametrize("kind, sigma1", BASELINE_CASES)
def test_baseline_steps_match_their_frozen_chains_bit_for_bit(kind, sigma1):
    """gcn, graff and adgn through propagate against the chains of small
    nodes they stepped through before, frozen in oracles: the states, one
    backward's leaf gradients, then three seeded sweeps of the same tape,
    whose update nodes keep their derivatives from the second run on."""
    g = gen_sbm([5, 5], 0.8, 0.3, seed=3, feature_dim=3)
    seeds = np.random.default_rng(5).normal(size=(3, g.n, 4))
    runs = []
    for loop in (propagate, oracles.propagate_two_loops):
        p = make_cell_params(np.random.default_rng(4), kind, 3, 4, 2, depth=4, tau=0.6,
                             sigma1=sigma1)
        leaves = [leaf for _, leaf in p.parameters()]
        states = []
        args = (encode(ad.constant(g.X), p), build_operators(g, p), p, kind, 4)
        if loop is propagate:
            propagate(*args, capture=states)
        else:
            states = loop(*args)
        ad.backward(ad.sum_all(ad.mul_const(states[-1], seeds[0])))
        sweeps = [[leaf.grad.tobytes() for leaf in leaves]]
        for seed in seeds:
            ad.zero_grads(leaves)
            ad.backward(states[-1], seed=seed)
            sweeps.append([leaf.grad.tobytes() for leaf in leaves])
        runs.append(([h.value.tobytes() for h in states], sweeps))
    assert runs[0] == runs[1]


def test_propagate_stops_where_its_step_size_says():
    """A step-size function sees each state and stops the loop with None;
    propagate returns the last state, and capture holds every state it saw."""
    g = gen_sbm([5, 5], 0.8, 0.3, seed=3, feature_dim=3)
    p = make_cell_params(np.random.default_rng(4), "sas", 3, 4, 2)
    H, ops = encode(ad.constant(g.X), p), build_operators(g, p)
    seen = []

    def step_size(layer, state):
        seen.append((layer, state))
        return None if layer == 2 else 0.5

    captured = []
    last = propagate(H, ops, p, "sas", 6, step_size, captured)
    assert [l for l, _ in seen] == [0, 1, 2]
    assert all(state is h for (_, state), h in zip(seen, captured))
    assert last is captured[-1]
    fixed_states = []
    propagate(H, ops, p, "sas", 2, 0.5, fixed_states)
    fixed = [h.value.tobytes() for h in fixed_states]
    assert [h.value.tobytes() for h in captured] == fixed
    seen.clear()
    last = propagate(H, ops, p, "sas", 6, step_size)
    assert last is seen[-1][1] and last.value.tobytes() == fixed[-1]


def test_graff_closed_form():
    # omega zero, w = I (already symmetric), identity activation, tau = 1
    rng = np.random.default_rng(10)
    g = small_graph()
    m = 3
    p = make_cell_params(rng, "graff", m, m, 2, sigma1="identity", tau=1.0)
    p.omega_raw.value[...] = 0.0
    p.w_raw.value[...] = np.eye(m)
    H = rng.normal(size=(10, m))
    out = baseline_step(ad.constant(H), norm_adj(g), p, "graff", cell_weights(p, "graff"))
    want = H + spmm(norm_adj(g), H)
    assert np.abs(out.value - want).max() <= 1e-14


def test_gcn_closed_form():
    rng = np.random.default_rng(11)
    g = small_graph()
    m = 3
    p = make_cell_params(rng, "gcn", m, m, 2, depth=2, sigma1="identity")
    p.gcn_ws[0].value[...] = np.eye(m)
    H = rng.normal(size=(10, m))
    out = baseline_step(ad.constant(H), norm_adj(g), p, "gcn", None, layer=0)
    assert np.abs(out.value - spmm(norm_adj(g), H)).max() <= 1e-14


def test_adgn_step_gradients_match_fd():
    rng = np.random.default_rng(12)
    g = small_graph(8, seed=12)
    p = make_cell_params(rng, "adgn", 3, 3, 2, tau=0.2)
    a = norm_adj(g)
    X = ad.constant(rng.normal(size=(8, 3)))

    def loss():
        H, w = X, cell_weights(p, "adgn")
        for _ in range(2):
            H = baseline_step(H, a, p, "adgn", w)
        return ad.sum_all(ad.mul(H, H))

    params = [p.omega_raw, p.w_raw, p.adgn_b]
    assert ad.fd_check(loss, params) <= 1e-4


def test_encode_zero_input_gives_relu_bias():
    rng = np.random.default_rng(13)
    p = basic_params(rng, 4)
    p.enc_b.value[...] = np.array([[1.0, -1.0, 0.5, -0.5]])
    out = encode(ad.constant(np.zeros((3, 4))), p)
    assert np.array_equal(out.value, np.tile([[1.0, 0.0, 0.5, 0.0]], (3, 1)))


def test_encode_identity_weights_is_relu():
    rng = np.random.default_rng(14)
    p = basic_params(rng, 3)
    p.enc_w.value[...] = np.eye(3)
    p.enc_b.value[...] = 0.0
    X = rng.normal(size=(5, 3))
    out = encode(ad.constant(X), p)
    assert np.array_equal(out.value, np.maximum(X, 0.0))


def test_encode_gradients_match_fd():
    rng = np.random.default_rng(15)
    p = basic_params(rng, 4)
    X = ad.constant(rng.normal(size=(6, 4)) + 0.2)
    w = ad.constant(rng.normal(size=(6, 4)))

    def loss():
        return ad.sum_all(ad.mul(encode(X, p), w))

    assert ad.fd_check(loss, [p.enc_w, p.enc_b]) <= 1e-6


def test_decode_identity_returns_input():
    rng = np.random.default_rng(16)
    m = 3
    p = make_cell_params(rng, "sas", m, m, m)
    p.dec[0][0].value[...] = np.eye(m)
    p.dec[0][1].value[...] = 0.0
    Z = rng.normal(size=(4, m))
    out = decode(ad.constant(Z), p)
    assert np.array_equal(out.value, Z)


def test_decode_reads_each_row_alone():
    rng = np.random.default_rng(17)
    p = make_cell_params(rng, "sas", 3, 3, 2, dec_hidden=(4,))
    Z = rng.normal(size=(5, 3))
    out = decode(ad.constant(Z), p)
    assert out.shape == (5, 2)
    for i in range(5):
        single = decode(ad.constant(Z[i:i + 1]), p)
        assert np.allclose(out.value[i:i + 1], single.value, rtol=0, atol=1e-15)


def test_decode_gradients_match_fd():
    rng = np.random.default_rng(18)
    p = make_cell_params(rng, "sas", 3, 3, 2, dec_hidden=(5,))
    Z = ad.constant(rng.normal(size=(6, 3)))
    w = ad.constant(rng.normal(size=(6, 2)))

    def loss():
        return ad.sum_all(ad.mul(decode(Z, p), w))

    params = [v for pair in p.dec for v in pair]
    assert ad.fd_check(loss, params) <= 1e-6


def built_counts(kind, depth):
    """param_counts of the model train builds: feat 10, hidden 32, out 2."""
    cfg = RunConfig.from_dict({"model": kind, "depth": depth, "hidden": 32})
    return build_model(cfg, 10, 2, np.random.default_rng(0)).param_counts()


def test_param_count_depth_invariance_sas_and_eegnn():
    for kind in ("sas", "eegnn"):
        ten = built_counts(kind, 10)
        assert ten == built_counts(kind, 20)
        assert ten["total"] == sum(
            ten[k] for k in ("encoder", "core", "decoder", "exit_heads"))


def test_param_count_eegnn_adds_heads():
    sas = built_counts("sas", 10)
    ee = built_counts("eegnn", 10)
    assert sas["exit_heads"] == 0
    assert ee["exit_heads"] > 0
    assert ee["total"] > sas["total"]


def test_param_count_gcn_strictly_increasing_in_depth():
    counts = [built_counts("gcn", L)["total"] for L in (1, 5, 10, 20)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_weight_sharing_equals_sum_of_unshared_copies():
    # gradient with one shared (omega, w) over 3 layers == sum of grads of 3
    # untied copies holding identical values
    rng = np.random.default_rng(20)
    g = small_graph(8, seed=20)
    a = norm_adj(g)
    X = rng.normal(size=(8, 4))
    p = basic_params(rng, 4, tau=0.2)

    H, w = ad.constant(X), cell_weights(p, "sas")
    for _ in range(3):
        H = sas_step(H, a, p, w, tau=0.2)
    ad.backward(ad.sum_all(H))
    shared_go = p.omega_raw.grad.copy()
    shared_gw = p.w_raw.grad.copy()

    copies = []
    H = ad.constant(X)
    for _ in range(3):
        q = basic_params(np.random.default_rng(99), 4, tau=0.2)
        q.omega_raw.value[...] = p.omega_raw.value
        q.w_raw.value[...] = p.w_raw.value
        copies.append(q)
        H = sas_step(H, a, q, cell_weights(q, "sas"), tau=0.2)
    ad.backward(ad.sum_all(H))
    sum_go = sum(q.omega_raw.grad for q in copies)
    sum_gw = sum(q.w_raw.grad for q in copies)
    assert np.allclose(shared_go, sum_go, atol=1e-12)
    assert np.allclose(shared_gw, sum_gw, atol=1e-12)


def test_map_norm_bounded_over_fifty_steps():
    # L1 norm of d h_i^T / d h_i^0 after T=50 steps stays in [1e-3, 1e3]:
    # the dynamics neither dissipate to zero nor blow up
    rng = np.random.default_rng(21)
    g = gen_sbm([10, 10], 0.5, 0.2, seed=21, feature_dim=4)
    a = norm_adj(g)
    p = basic_params(rng, 4, tau=0.1)
    H0 = rng.normal(size=(20, 4))
    node = 3

    def forward(h_row):
        H = H0.copy()
        H[node] = h_row
        Hd, w = ad.constant(H), cell_weights(p, "sas")
        for _ in range(50):
            Hd = sas_step(Hd, a, p, w, tau=0.1)
        return Hd.value[node]

    J = oracles.fd_jacobian(forward, H0[node].copy())
    norm = float(np.abs(J).sum(axis=0).max())   # induced L1 norm
    assert 1e-3 <= norm <= 1e3


def test_a_graphs_operators_share_one_arc_layout_built_once(monkeypatch):
    g = small_graph(seed=4)
    assert norm_adj(g).segments is mean_adj(g).segments is g.arc_segments
    g = small_graph(seed=5)
    g.E_feat = np.ones((g.n_arcs, 2)) * (arc_rows(g) + g.col_indices)[:, None]
    built = []
    from_offsets = Segments.from_offsets.__func__

    def counted(cls, offsets):
        built.append(np.array_equal(offsets, g.row_offsets))
        return from_offsets(cls, offsets)

    monkeypatch.setattr(Segments, "from_offsets", classmethod(counted))
    rng = np.random.default_rng(0)
    params = make_cell_params(rng, "sas", 3, 4, 2, edge_mode="linear", edge_dim=2)
    g.X = rng.normal(size=(g.n, 3))
    ops = build_operators(g, params, make_exit_heads(rng, "mean_gnn", 4, 4, 1))
    assert ops.ma is not None and ops.be is not None
    assert built == [True]
    assert ops.a.segments is ops.ma.segments is g.arc_segments
