"""Gumbel sampling, hard exit decisions, and adaptive-depth forwards."""

import math

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad
from eegnn.cells import build_operators, cell_weights, make_cell_params, sas_step, encode
from eegnn.exits import (ExitHeads, ExitState, eegnn_forward_node,
                         exit_distribution, gumbel_softmax_st, inv_temperature,
                         confidence_logits, make_exit_heads, sample_gumbel)
from eegnn.graphs import Segments, disjoint_union, gen_sbm, mean_adj, norm_adj

EULER_MASCHERONI = 0.5772156649015329


def graph_and_params(seed=0, n=16, m=5, tau=1.0):
    rng = np.random.default_rng(seed)
    g = gen_sbm([n // 2, n - n // 2], 0.7, 0.2, seed=seed, feature_dim=m)
    params = make_cell_params(rng, "eegnn", m, m, 2, tau=tau)
    heads = make_exit_heads(rng, "mean_gnn", m, 8, 1)
    return g, params, heads, rng


def force_heads(heads, exit_bias):
    """Zero all head weights; fc readout bias decides exit vs continue."""
    for name, p in heads.parameters():
        p.value[...] = 0.0
    heads.fc_out[1].value[...] = np.array([[-exit_bias, exit_bias]])


def test_sample_gumbel_closed_form_point():
    class FixedU:
        def __init__(self, u):
            self.u = u

        def random(self, size=None):
            return np.full(size, self.u)

    g = sample_gumbel((1, 2), FixedU(1.0 / math.e))
    assert np.abs(g).max() <= 1e-15     # -log(-log(1/e)) = 0


def test_sample_gumbel_deterministic_in_seed():
    a = sample_gumbel((4, 2), np.random.default_rng(5))
    b = sample_gumbel((4, 2), np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sample_gumbel_mean_is_euler_mascheroni():
    g = sample_gumbel((1000000, 1), np.random.default_rng(6))
    assert abs(float(g.mean()) - EULER_MASCHERONI) <= 0.01


def test_sample_gumbel_clamps_extreme_uniforms():
    class EdgeU:
        def __init__(self):
            self.vals = iter([0.0, 1.0])

        def random(self, size=None):
            return np.full(size, next(self.vals))

    src = EdgeU()
    assert np.isfinite(sample_gumbel((1, 1), src)).all()
    assert np.isfinite(sample_gumbel((1, 1), src)).all()


def test_exit_heads_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        make_exit_heads(rng, "mean_gnn", 4, 8, 4)     # depth > 3
    with pytest.raises(ValueError):
        make_exit_heads(rng, "transformer", 4, 8, 1)
    with pytest.raises(ValueError):
        make_exit_heads(rng, "mlp", 4, 8, 1, nu0=-0.1)


def test_exit_heads_reject_empty_and_repeated_leaf_names():
    heads = make_exit_heads(np.random.default_rng(7), "mlp", 4, 8, 1)
    w, b = heads.fnu_out
    fields = dict(kind=heads.kind, fc_layers=heads.fc_layers, fc_out=heads.fc_out,
                  fnu_layers=heads.fnu_layers)
    with pytest.raises(ValueError, match="leaf 6 of 8 has an empty name"):
        ExitHeads(**fields, fnu_out=(ad.leaf(w.value), b))
    with pytest.raises(ValueError, match="used more than once: fc_out_b"):
        ExitHeads(**fields, fnu_out=(w, ad.leaf(b.value, "fc_out_b")))


def test_inv_temperature_zero_backbone_is_log_two():
    rng = np.random.default_rng(8)
    heads = make_exit_heads(rng, "mlp", 3, 4, 1, nu0=0.0)
    for _, p in heads.parameters():
        p.value[...] = 0.0
    out = inv_temperature(ad.constant(np.zeros((2, 3))), heads)
    assert np.allclose(out.value, math.log(2.0), atol=1e-12)


def test_inv_temperature_respects_floor():
    rng = np.random.default_rng(9)
    heads = make_exit_heads(rng, "mlp", 3, 4, 2, nu0=10.0)
    H = ad.constant(rng.normal(size=(5, 3)))
    assert np.all(inv_temperature(H, heads).value >= 10.0)


def test_inv_temperature_gradients_match_fd():
    rng = np.random.default_rng(10)
    heads = make_exit_heads(rng, "mlp", 3, 4, 1)
    H = ad.constant(rng.normal(size=(4, 3)))
    w = ad.constant(rng.normal(size=(4, 1)))

    def loss():
        return ad.sum_all(ad.mul(inv_temperature(H, heads), w))

    params = [p for _, p in heads.parameters() if p.name.startswith("fnu")]
    assert ad.fd_check(loss, params) <= 1e-5


def test_gumbel_softmax_equal_logits_no_noise():
    logits = ad.constant([[0.3, 0.3]])
    inv_nu = ad.constant([[1.0]])
    smp = np.zeros((1, 2))
    c_soft, hard = gumbel_softmax_st(logits, inv_nu, g=smp)
    assert np.allclose(c_soft.value, [[0.5, 0.5]], atol=1e-12)
    assert hard.tolist() in ([[1.0, 0.0]], [[0.0, 1.0]])


def test_gumbel_softmax_sharp_temperature_one_hot():
    logits = ad.constant([[0.0, 20.0]])
    inv_nu = ad.constant([[1e4]])
    c_soft, hard = gumbel_softmax_st(logits, inv_nu, mode="eval_argmax")
    assert hard.tolist() == [[0.0, 1.0]]
    assert c_soft.value[0, 0] <= 1e-6


def test_gumbel_softmax_hard_is_exactly_one_hot():
    rng = np.random.default_rng(11)
    logits = ad.constant(rng.normal(size=(6, 2)))
    inv_nu = ad.constant(np.full((6, 1), 0.7))
    smp = rng.gumbel(size=(6, 2))
    c_soft, hard = gumbel_softmax_st(logits, inv_nu, g=smp)
    assert set(np.unique(hard)) <= {0.0, 1.0}
    assert np.array_equal(hard.sum(axis=1), np.ones(6))
    # conservation on the soft path
    assert np.abs(c_soft.value.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("mode", ["train_sample", "eval_argmax"])
def test_gumbel_softmax_hard_is_the_argmax_one_hot_ties_to_column_0(mode):
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(40, 2))
    raw[:10, 1] = raw[:10, 0]            # ties: zero heads give these
    smp = rng.gumbel(size=(40, 2))
    smp[:10] = 0.0
    inv_nu = ad.constant(rng.uniform(0.1, 5.0, size=(40, 1)))
    c_soft, hard = gumbel_softmax_st(ad.constant(raw), inv_nu, g=smp, mode=mode)
    assert np.array_equal(hard, np.eye(2)[np.argmax(c_soft.value, axis=1)])
    assert np.array_equal(hard[:10], np.tile([1.0, 0.0], (10, 1)))


def test_gumbel_softmax_rejects_logits_that_are_not_two_way():
    with pytest.raises(ValueError, match="2 columns"):
        gumbel_softmax_st(ad.constant(np.zeros((2, 3))), ad.constant(np.ones((2, 1))),
                          mode="eval_argmax")


def test_gumbel_softmax_rejects_non_finite_logits():
    inv_nu = ad.constant([[1.0]])
    with pytest.raises(ValueError):
        gumbel_softmax_st(ad.constant([[np.nan, 0.0]]), inv_nu,
                          g=np.zeros((1, 2)))


def test_forced_exit_all_nodes_stop_at_layer_zero():
    g, params, heads, rng = graph_and_params(seed=1)
    force_heads(heads, exit_bias=50.0)
    ops = build_operators(g, params, heads)
    Z, state, recs = eegnn_forward_node(ops, params, heads, L=6, rng=rng)
    assert np.all(state.exited)
    assert not state.exit_layer.any()
    assert not state.exit_time.any()
    H0 = encode(ad.constant(g.X), params).value
    assert np.array_equal(Z.value, H0)       # pre-update states
    assert len(recs) == 1                    # no layer runs after the last exit


def test_never_exit_returns_final_layer_states():
    g, params, heads, rng = graph_and_params(seed=2, tau=0.3)
    force_heads(heads, exit_bias=-50.0)
    L = 5
    ops = build_operators(g, params, heads)
    Z, state, recs = eegnn_forward_node(ops, params, heads, L=L, rng=rng)
    assert not state.exited.any()
    assert np.all(state.exit_layer == L)
    # exit_time accumulates every layer's tau for non-exited nodes
    taus = np.stack([r["mean_tau"] for r in recs])
    assert state.exit_time == pytest.approx(np.full(g.n, taus.sum()), abs=1e-9)

    a, ma = norm_adj(g), mean_adj(g)
    H, w = encode(ad.constant(g.X), params), cell_weights(params, "eegnn")
    for r in recs:
        logits = confidence_logits(H, heads, ma=ma)
        inv_nu = inv_temperature(H, heads, ma=ma)
        smp = np.zeros((g.n, 2))
        c_soft, _ = gumbel_softmax_st(logits, inv_nu, g=smp)
        H = sas_step(H, a, params, w, tau=ad.col_slice(c_soft, 0))
    assert np.abs(Z.value - H.value).max() <= 1e-12


# (graph seed, forced exit bias or None, shift of the random heads' exit
# logit, edge mode): every node exits at layer 0; none ever exits; nodes exit
# at layers 0..5 (both modes stop mid-depth), also with an edge term, which
# all layers share; some nodes never exit; a sampled forward stops at layer 2.
STOP_CASES = {"all_at_0": (4, 50.0, 0.0, "zero"), "never": (4, -50.0, 0.0, "zero"),
              "staggered": (0, None, -0.2, "zero"),
              "staggered_edge": (0, None, -0.2, "linear"),
              "partial": (4, None, 0.0, "zero"), "coin": (4, 0.5, 0.0, "zero")}
# The same for a set of six two-block graphs as agents, with mlp heads: all
# exit at layer 0; none exits; graphs exit at staggered layers and both modes
# stop mid-depth, without and with an edge term.
SET_CASES = {"set_all_at_0": (4, 50.0, 0.0, "zero"), "set_never": (4, -50.0, 0.0, "zero"),
             "set_staggered": (6, None, -0.2, "zero"),
             "set_staggered_edge": (6, None, -0.2, "linear")}


def _exit_case(case):
    """Fresh (ops, params, heads, seed) of a STOP_CASES or SET_CASES case."""
    if case in STOP_CASES:
        seed, exit_bias, shift, edge_mode = STOP_CASES[case]
        g, params, heads, _ = graph_and_params(seed=seed)
        members = [g]
    else:
        seed, exit_bias, shift, edge_mode = SET_CASES[case]
        rng = np.random.default_rng(seed)
        members = [gen_sbm([4, 4], 1.0, 0.1 * i, seed=seed + i, feature_dim=5)
                   for i in range(6)]
        params = make_cell_params(rng, "eegnn", 5, 5, 2)
        heads = make_exit_heads(rng, "mlp", 5, 8, 1)
    if edge_mode != "zero":
        for i, g in enumerate(members):
            g.E_feat = np.random.default_rng(seed + i).normal(size=(g.n_arcs, 2))
        params = make_cell_params(np.random.default_rng(seed), "eegnn", 5, 5, 2,
                                  edge_mode=edge_mode, edge_dim=2)
    if exit_bias is not None:
        force_heads(heads, exit_bias)
    heads.fc_out[1].value[...] += [[-shift, shift]]
    ops = (build_operators(members[0], params, heads) if case in STOP_CASES
           else graph_agents(members, params, heads))
    return ops, params, heads, seed


def _run_exit_case(forward, case, mode, capture, L=8):
    """One forward of a case, on fresh parameters and its own generator,
    then one backward of a weighted sum of Z; returns (Z, state, records,
    rng, every leaf gradient)."""
    ops, params, heads, seed = _exit_case(case)
    rng = np.random.default_rng(40 + seed) if mode == "train_sample" else None
    Z, state, recs = forward(ops, params, heads, L=L, rng=rng, mode=mode,
                             capture=capture)
    w = np.random.default_rng(41).normal(size=Z.shape)
    ad.backward(ad.sum_all(ad.mul_const(Z, w)))
    grads = [p.grad.copy() for _, p in params.parameters() + heads.parameters()]
    return Z.value, state, recs, rng, grads


def _assert_same_run(a, b):
    (Z, st, recs, rng, grads), (Zb, stb, recsb, rngb, gradsb) = a, b
    assert Z.tobytes() == Zb.tobytes()
    for field in ("exit_layer", "exit_time"):
        assert getattr(st, field).tobytes() == getattr(stb, field).tobytes()
    assert st.L == stb.L
    if rng is not None:                      # every layer's noise is drawn up front
        assert rng.bit_generator.state == rngb.bit_generator.state
    assert len(grads) == len(gradsb)
    assert all(g.tobytes() == gb.tobytes() for g, gb in zip(grads, gradsb))


def _forward_pair(case, mode, L=8):
    """The same forward without and with capture (capture runs all L layers),
    each on fresh parameters and its own copy of one generator, then one
    backward of a weighted sum of Z through each; returns (Z, state,
    records, rng, every leaf gradient) per run."""
    return [_run_exit_case(eegnn_forward_node, case, mode, capture, L)
            for capture in (None, [])]


@pytest.mark.parametrize("mode", ["eval_argmax", "train_sample"])
@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stopping_at_last_exit_is_bit_identical_to_full_depth(mode, case):
    (Z, st, recs, rng, grads), (Zc, stc, recsc, rngc, gradsc) = _forward_pair(
        case, mode)
    assert Z.tobytes() == Zc.tobytes()
    for field in ("exit_layer", "exit_time"):
        assert getattr(st, field).tobytes() == getattr(stc, field).tobytes()
    assert st.L == stc.L
    if rng is not None:                      # every layer's noise is drawn up front
        assert rng.bit_generator.state == rngc.bit_generator.state
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, gradsc))
    assert len(recsc) == 8
    if st.exited.all():
        assert len(recs) == int(st.exit_layer.max()) + 1
        assert recs == recsc[:len(recs)]
    else:
        assert recs == recsc


@pytest.mark.parametrize("case, mode, layers", [
    ("all_at_0", "eval_argmax", 1), ("staggered", "eval_argmax", 6),
    ("staggered", "train_sample", 7), ("staggered_edge", "eval_argmax", 7),
    ("coin", "train_sample", 3),
    ("partial", "eval_argmax", 8), ("never", "train_sample", 8)])
def test_forward_stops_after_the_last_exit(case, mode, layers):
    (_, st, recs, _, _), _ = _forward_pair(case, mode)
    assert len(recs) == layers
    assert st.exited.all() == (layers < 8)


@pytest.mark.parametrize("mode", ["eval_argmax", "train_sample"])
@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_forward_without_a_tape_is_bit_identical(mode, case):
    seed, exit_bias, shift, _ = STOP_CASES[case]
    runs = []
    for taping in (True, False):
        g, params, heads, _ = graph_and_params(seed=seed)
        if exit_bias is not None:
            force_heads(heads, exit_bias)
        heads.fc_out[1].value[...] += [[-shift, shift]]
        rng = np.random.default_rng(40 + seed) if mode == "train_sample" else None
        ops = build_operators(g, params, heads)
        if taping:
            runs.append(eegnn_forward_node(ops, params, heads, L=8, rng=rng, mode=mode))
        else:
            with ad.no_grad():
                runs.append(eegnn_forward_node(ops, params, heads, L=8, rng=rng,
                                               mode=mode))
    (Z, st, recs), (Zf, stf, recsf) = runs
    assert Zf.parents == () and Z.value.tobytes() == Zf.value.tobytes()
    for field in ("exit_layer", "exit_time"):
        assert getattr(st, field).tobytes() == getattr(stf, field).tobytes()
    assert recs == recsf


def test_eval_mode_needs_no_rng_and_is_deterministic():
    g, params, heads, _ = graph_and_params(seed=3)
    ops = build_operators(g, params, heads)
    out1 = eegnn_forward_node(ops, params, heads, L=4, mode="eval_argmax")
    out2 = eegnn_forward_node(ops, params, heads, L=4, mode="eval_argmax")
    assert np.array_equal(out1[0].value, out2[0].value)
    assert np.array_equal(out1[1].exit_layer, out2[1].exit_layer)
    assert np.array_equal(out1[1].exit_time, out2[1].exit_time)


def test_frozen_rows_never_change_after_exit():
    g, params, heads, rng = graph_and_params(seed=4)
    captured = []
    ops = build_operators(g, params, heads)
    Z, state, _ = eegnn_forward_node(ops, params, heads, L=8, rng=rng,
                                     capture=captured)
    for i in range(g.n):
        if state.exited[i]:
            li = int(state.exit_layer[i])
            assert np.array_equal(Z.value[i], captured[li].value[i])


def test_exit_state_validates_consistency():
    st = ExitState(exit_layer=np.array([0, 2, 3]), exit_time=np.zeros(3), L=3)
    assert st.exited.tolist() == [True, True, False]     # exit_layer == L: never
    with pytest.raises(ValueError, match="exit_layer"):
        ExitState(exit_layer=np.array([4]), exit_time=np.array([1.0]), L=3)
    with pytest.raises(ValueError, match="exit_time"):
        ExitState(exit_layer=np.array([3]), exit_time=np.array([4.5]), L=3)
    with pytest.raises(ValueError, match="one length"):
        ExitState(exit_layer=np.array([3, 3]), exit_time=np.array([1.0]), L=3)


@pytest.mark.parametrize("capture", [False, True])
@pytest.mark.parametrize("mode", ["eval_argmax", "train_sample"])
@pytest.mark.parametrize("case", sorted(STOP_CASES) + sorted(SET_CASES))
def test_exit_forward_matches_its_own_loop_oracle(case, mode, capture):
    """The exit forward stepping through cells.propagate against the loop it
    ran before, frozen in oracles: Z, exit state, records, generator state,
    captured states and every leaf gradient, byte for byte."""
    caps = ([], []) if capture else (None, None)
    new = _run_exit_case(eegnn_forward_node, case, mode, caps[0])
    old = _run_exit_case(oracles.eegnn_forward_two_loops, case, mode, caps[1])
    _assert_same_run(new, old)
    assert new[2] == old[2]
    if capture:
        assert len(caps[0]) == 9
        assert [h.value.tobytes() for h in caps[0]] == [h.tobytes() for h in caps[1]]
    layers, recs = new[1].exit_layer, new[2]
    if "all_at_0" in case:
        assert len(recs) == 1 or capture
    elif "staggered" in case:                # a stop short of full depth
        assert layers.max() < 8 and len(layers) > 1 and layers.min() < layers.max()
        assert len(recs) == (8 if capture else layers.max() + 1)
    elif "never" in case:
        assert len(recs) == 8 and not new[1].exited.any()


def graph_agents(members, params, heads):
    """The operator bundle of the union of member graphs, whose agents are
    the members."""
    seg = Segments.from_offsets(np.cumsum([0] + [g.n for g in members]))
    return build_operators(disjoint_union(members), params, heads, seg=seg)


def test_graph_forward_immediate_exit_pools_initial_state():
    g, params, _, rng = graph_and_params(seed=5)
    heads = make_exit_heads(np.random.default_rng(5), "mlp", 5, 8, 1)
    force_heads(heads, exit_bias=50.0)
    ops = graph_agents([g], params, heads)
    pooled, state, recs = eegnn_forward_node(ops, params, heads, L=6, rng=rng)
    H0 = encode(ad.constant(ops.X), params).value
    assert np.allclose(pooled.value, H0.mean(axis=0, keepdims=True), atol=1e-12)
    assert state.exit_layer.tolist() == [0]
    assert len(recs) == 1                    # integration stopped


def test_graph_forward_never_exit_pools_final_state():
    g, params, _, rng = graph_and_params(seed=6, tau=0.4)
    heads = make_exit_heads(np.random.default_rng(6), "mlp", 5, 8, 1)
    force_heads(heads, exit_bias=-50.0)
    L = 4
    ops = graph_agents([g], params, heads)
    captured = []
    pooled, state, recs = eegnn_forward_node(ops, params, heads, L=L, rng=rng,
                                             capture=captured)
    assert state.exit_layer.tolist() == [L]
    assert not state.exited[0]
    assert len(recs) == L
    final = captured[-1].value
    assert np.array_equal(pooled.value,
                          oracles.segment_sum_loop(final, [0, len(final)]) / len(final))


def test_graph_forward_tau_depends_on_graph():
    _, params, _, _ = graph_and_params(seed=7)
    heads = make_exit_heads(np.random.default_rng(7), "mlp", 5, 8, 1)
    force_heads(heads, exit_bias=-2.0)       # continue, with tau short of 1
    heads.fc_layers[0][1].value[...] = np.random.default_rng(8).normal(size=(5, 8))
    heads.fc_out[0].value[...] = 0.1 * np.random.default_rng(9).normal(size=(8, 2))
    g1 = gen_sbm([8, 8], 0.7, 0.2, seed=70, feature_dim=5)
    g2 = gen_sbm([8, 8], 0.2, 0.7, seed=71, feature_dim=5)
    ops = graph_agents([g1, g2], params, heads)
    _, state, _ = eegnn_forward_node(ops, params, heads, L=3, mode="eval_argmax")
    assert not state.exited.any()
    assert state.exit_time[0] != state.exit_time[1]


def test_graph_agents_need_mlp_heads():
    g, params, heads, _ = graph_and_params(seed=8)
    ops = graph_agents([g], params, heads)
    with pytest.raises(ValueError, match="mlp heads"):
        eegnn_forward_node(ops, params, heads, L=2, mode="eval_argmax")


def test_exit_distribution_all_at_zero():
    st = ExitState(exit_layer=np.zeros(5, dtype=int), exit_time=np.zeros(5), L=4)
    d = exit_distribution(st, slice(None))
    assert d["min_layer"] == d["median_layer"] == d["max_layer"] == 0
    assert d["histogram"][0] == 5


def test_exit_distribution_none_exit():
    L = 20
    st = ExitState(exit_layer=np.full(6, L, dtype=int), exit_time=np.full(6, 13.0),
                   L=L)
    d = exit_distribution(st, slice(None))
    assert d["histogram"][L] == 6
    assert sum(d["histogram"]) == 6
    assert d["min_layer"] == d["max_layer"] == L


def test_exit_distribution_quantiles_match_sort_oracle():
    rng = np.random.default_rng(13)
    layers = rng.integers(0, 9, size=17)
    st = ExitState(exit_layer=layers, exit_time=rng.uniform(0, 8, size=17), L=8)
    rows = rng.uniform(size=17) < 0.6
    d = exit_distribution(st, rows)
    lo, med, hi = oracles.sorted_quantiles(layers[rows])
    assert (d["min_layer"], d["median_layer"], d["max_layer"]) == (lo, med, hi)
    assert d["min_layer"] <= d["median_layer"] <= d["max_layer"]
    assert d["histogram"] == np.bincount(layers[rows], minlength=9).tolist()
    assert d["mean_time"] == float(st.exit_time[rows].mean())


def test_exit_distribution_rejects_empty():
    st = ExitState(exit_layer=np.array([1, 2]), exit_time=np.ones(2), L=3)
    with pytest.raises(ValueError):
        exit_distribution(st, np.zeros(2, dtype=bool))
