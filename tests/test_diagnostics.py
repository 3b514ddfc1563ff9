"""Energy functionals, spectra, sensitivity, and the diagnostic suites."""

import gc
import weakref

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad, cells, diagnostics, graphs, training
from eegnn.cells import cell_weights, make_cell_params, sas_step, encode
from eegnn.config import ConfigError, RunConfig
from eegnn.diagnostics import (SpectrumReport, Trace, depth_retention,
                               descent_suite, descent_trace, dirichlet_energy,
                               dirichlet_traces, emit_trace, energy_functional,
                               oracle_exit_eval, sas_jacobian,
                               sensitivity, spectrum_suite)
from eegnn.graphs import arc_list, degrees, gen_minesweeper_grid, gen_sbm, make_graph, \
    norm_adj
from eegnn.training import build_model, train_run


def path2(h):
    return make_graph([(0, 1)], 2, X=np.asarray(h, dtype=np.float64))


def connected_sbm(seed, sizes=(4, 4), p_in=0.7, p_out=0.2, m=3, shift=1.0):
    for s in range(seed, seed + 50):
        g = gen_sbm(list(sizes), p_in, p_out, seed=s, feature_dim=m,
                    feature_shift=shift)
        if degrees(g).min() > 0:
            return g
    raise AssertionError("no isolated-free draw found")


def small_cfg(**kw):
    base = dict(model="sas", depth=3, hidden=5, tau=0.5, epochs=8,
                metric="accuracy", lr=1e-2, seed=0)
    base.update(kw)
    return RunConfig.from_dict(base)


def fitted(g, **kw):
    cfg = small_cfg(**kw)
    model, _ = train_run(cfg, g)
    return model


# ------------------------------------------------------------------- energies

def test_dirichlet_path_hand_value():
    g = path2([[2.0], [0.0]])
    # degrees are 1, scaling 1/sqrt(2); two directed arcs each contribute 2
    assert dirichlet_energy(g.X, g) == pytest.approx(4.0)


def test_dirichlet_zero_for_constant_rows_on_regular_graph():
    g = make_graph([(0, 1), (1, 2), (2, 0)], 3, X=np.ones((3, 2)))
    assert dirichlet_energy(np.ones((3, 2)), g) == 0.0
    assert dirichlet_energy(np.zeros((3, 2)), g) == 0.0


def test_dirichlet_scaling_breaks_on_irregular_degrees():
    # star center deg 3, leaves deg 1: constant rows no longer cancel
    g = make_graph([(0, 1), (0, 2), (0, 3)], 4, X=np.ones((4, 1)))
    assert dirichlet_energy(np.ones((4, 1)), g) > 0.0


def test_dirichlet_matches_arc_loop_oracle():
    rng = np.random.default_rng(0)
    for seed in range(5):
        g = gen_sbm([6, 6], 0.6, 0.3, seed=seed, feature_dim=3)
        H = rng.normal(size=(g.n, 4))
        want = oracles.dirichlet_loop(H, arc_list(g), degrees(g))
        assert dirichlet_energy(H, g) == pytest.approx(want, rel=1e-12)


def test_energy_functional_path_hand_value():
    g = path2([[1.0], [1.0]])
    assert energy_functional(g.X, np.eye(1), g) == pytest.approx(-2.0)


def test_energy_functional_rejects_asymmetric_weight():
    g = path2([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetry residual"):
        energy_functional(g.X, np.array([[0.0, 1.0], [0.0, 0.0]]), g)


def test_energy_functional_even_in_state():
    rng = np.random.default_rng(1)
    g = gen_sbm([5, 5], 0.7, 0.2, seed=2, feature_dim=3)
    H = rng.normal(size=(g.n, 3))
    w = rng.normal(size=(3, 3))
    ws = 0.5 * (w + w.T)
    assert energy_functional(H, ws, g) == pytest.approx(
        energy_functional(-H, ws, g), rel=1e-12)


def test_energy_functional_matches_arc_loop_oracle():
    rng = np.random.default_rng(2)
    for seed in range(5):
        g = gen_sbm([6, 6], 0.6, 0.3, seed=10 + seed, feature_dim=3)
        H = rng.normal(size=(g.n, 4))
        w = rng.normal(size=(4, 4))
        ws = 0.5 * (w + w.T)
        want = oracles.energy_loop(H, ws, arc_list(g), degrees(g))
        assert energy_functional(H, ws, g) == pytest.approx(want, rel=1e-12)



def test_energy_functional_accepts_an_isolated_node():
    # norm_adj refuses this graph; the functional reads the same arc weights,
    # and node 4 has no arc to weigh
    rng = np.random.default_rng(4)
    g = make_graph([(0, 1), (1, 2), (0, 2), (2, 3)], 5, X=rng.normal(size=(5, 3)))
    with pytest.raises(ValueError, match="isolated node 4"):
        norm_adj(g)
    w = rng.normal(size=(3, 3))
    ws = 0.5 * (w + w.T)
    want = oracles.energy_loop(g.X, ws, arc_list(g), degrees(g))
    assert energy_functional(g.X, ws, g) == pytest.approx(want, rel=1e-12)

# ------------------------------------------------------------------- descent

def test_descent_trace_zero_state_is_flat():
    rng = np.random.default_rng(3)
    g = gen_sbm([5, 5], 0.6, 0.3, seed=4, feature_dim=4)
    params = make_cell_params(rng, "sas", 4, 4, 2)
    tr = descent_trace(g, params, np.zeros((g.n, 4)), steps=10, tau=0.05)
    assert np.array_equal(tr.values, np.zeros(11))
    assert tr.metadata["violations"] == []


def test_descent_holds_when_premises_hold():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = gen_sbm([5, 5], 0.6, 0.3, seed=seed, feature_dim=4)
        params = make_cell_params(rng, "sas", 4, 4, 2)
        H0 = rng.normal(size=(g.n, 4))
        tr = descent_trace(g, params, H0, steps=50, tau=0.05)
        assert tr.metadata["premises_hold"]
        assert tr.metadata["violations"] == []
        assert np.all(np.diff(tr.values) <= 1e-8)


def test_descent_premise_breaking_gate_logs_rises():
    # identity sigma2 admits negative gate outputs; descent no longer holds
    rng = np.random.default_rng(3)
    g = gen_sbm([5, 5], 0.6, 0.3, seed=3, feature_dim=4)
    params = make_cell_params(rng, "sas", 4, 4, 2, sigma2="identity")
    H0 = 2.0 * rng.normal(size=(g.n, 4))
    tr = descent_trace(g, params, H0, steps=30, tau=0.05)
    assert not tr.metadata["premises_hold"]
    assert len(tr.metadata["violations"]) > 0
    for step, rise in tr.metadata["violations"]:
        assert tr.values[step] - tr.values[step - 1] == pytest.approx(rise)
        assert rise > 1e-8


def test_descent_trace_layer_count():
    rng = np.random.default_rng(4)
    g = gen_sbm([4, 4], 0.7, 0.2, seed=5, feature_dim=3)
    params = make_cell_params(rng, "sas", 3, 3, 2)
    tr = descent_trace(g, params, rng.normal(size=(g.n, 3)), steps=7, tau=0.04)
    assert tr.layers.tolist() == list(range(8))


@pytest.mark.parametrize("kw, match", [
    (dict(n_cases=-1, steps=0), "cases must be >= 1, got -1; steps must be >= 1, got 0"),
    (dict(n_cases=0), "cases must be >= 1, got 0"),
    (dict(steps=0), "steps must be >= 1, got 0"),
    (dict(edge_modes=()), "edge_modes must be non-empty")],
    ids=["cases-and-steps", "cases", "steps", "edge_modes"])
def test_descent_suite_rejects_counts_that_check_nothing(kw, match):
    with pytest.raises(ValueError, match=match):
        descent_suite(**kw)


def test_descent_suite_small_run_passes():
    out = descent_suite(n_cases=6, steps=20, tau=0.05, seed=1)
    assert out["pass"]
    assert out["violations"] == 0
    assert out["cases"] == 6 * 2            # both edge modes


# ------------------------------------------------------------------- spectrum

def test_jacobian_all_dead_gate_is_zero_matrix():
    rng = np.random.default_rng(5)
    params = make_cell_params(rng, "sas", 4, 4, 2)
    h = rng.normal(size=4)
    rep = sas_jacobian(params.omega_raw.value[None], h[None],
                       neighbor_term=np.full((1, 4), -100.0))
    assert np.abs(rep.eigenvalues).max() == 0.0


def test_jacobian_identity_activations_give_pure_rotation():
    rng = np.random.default_rng(6)
    params = make_cell_params(rng, "sas", 4, 4, 2,
                              sigma1="identity", sigma2="identity")
    ov = params.omega_raw.value
    rep = sas_jacobian(ov[None], rng.normal(size=(1, 4)), sigma1="identity",
                       sigma2="identity")
    want = oracles.eigvals_oracle(-(ov - ov.T))
    assert oracles.match_complex_sets(rep.eigenvalues[0], want, tol=1e-10)
    assert rep.max_re[0] <= 1e-12


def test_jacobian_random_widths_stay_on_imaginary_axis():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(2, 17))
        params = make_cell_params(rng, "sas", m, m, m)
        rep = sas_jacobian(params.omega_raw.value[None], rng.normal(size=(1, m)),
                           neighbor_term=rng.normal(size=(1, m)))
        assert rep.max_re[0] <= 1e-8


def test_jacobian_width_budget_enforced():
    rng = np.random.default_rng(8)
    params = make_cell_params(rng, "sas", 33, 33, 2)
    with pytest.raises(ValueError, match="32"):
        sas_jacobian(params.omega_raw.value[None], np.zeros((1, 33)))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("sigma1, sigma2", [("relu_tanh", "relu"),
                                            ("identity", "identity"),
                                            ("tanh", "softplus")])
def test_jacobian_stack_equals_one_call_per_matrix_bit_for_bit(sigma1, sigma2):
    # the stack's first matrix has an all-dead gate (u far below zero)
    rng = np.random.default_rng(9)
    for m in range(1, 33):
        params = [make_cell_params(rng, "sas", m, m, m, sigma1=sigma1, sigma2=sigma2)
                  for _ in range(4)]
        hs = rng.normal(size=(4, m))
        phis = rng.normal(size=(4, m))
        phis[0] = -100.0
        rep = sas_jacobian(np.stack([p.omega_raw.value for p in params]), hs, phis,
                           sigma1=sigma1, sigma2=sigma2)
        assert rep.eigenvalues.shape == (4, m)
        for k, p in enumerate(params):
            lam, max_re = oracles.sas_jacobian_single(
                p.omega_raw.value, hs[k], phis[k], sigma1, sigma2)
            one = sas_jacobian(p.omega_raw.value[None], hs[k:k + 1], phis[k:k + 1],
                               sigma1=sigma1, sigma2=sigma2)
            assert one.max_re.shape == (1,)
            for got in (rep.eigenvalues[k], one.eigenvalues[0]):
                assert _bits(got) == _bits(lam), (m, k)
            for got in (rep.max_re[k], one.max_re[0]):
                assert _bits(got) == _bits(max_re), (m, k)


def test_jacobian_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="square"):
        sas_jacobian(np.zeros((1, 3, 4)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="stack"):
        sas_jacobian(np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="h_point must have length 3"):
        sas_jacobian(np.zeros((2, 3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="neighbor_term must have length 3"):
        sas_jacobian(np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros(4))


@pytest.mark.parametrize("n_configs, lo, hi, seed", [(300, 16, 32, 0), (100, 2, 16, 0),
                                                     (10, 2, 16, 2), (200, 2, 32, 7),
                                                     (50, 1, 32, 3), (300, 2, 32, 5)])
def test_spectrum_suite_equals_the_per_config_loop(n_configs, lo, hi, seed):
    got = spectrum_suite(n_configs, lo, hi, seed=seed)
    want = oracles.spectrum_suite_loop(n_configs, lo, hi, seed)
    assert got == want
    assert {k: _bits(v) for k, v in got.items()} == \
        {k: _bits(v) for k, v in want.items()}


@pytest.mark.parametrize("seed", [0, 5])
def test_spectrum_suite_draws_one_block_per_width(monkeypatch, seed):
    # every width first; then per width, ascending, its k configs as a
    # (k, m, m) omega_raw block, a (k, m) h block and a (k, m) phi block
    stacks = []
    check = diagnostics.sas_jacobian

    def recorded(*args):
        stacks.append(args)
        return check(*args)

    monkeypatch.setattr(diagnostics, "sas_jacobian", recorded)
    spectrum_suite(300, 2, 32, seed=seed)
    want = oracles.spectrum_draws_loop(300, 2, 32, seed)
    assert len(stacks) == len(want)
    for drawn, expected in zip(stacks, want):
        assert [(x.shape, x.tobytes()) for x in drawn] == \
            [(x.shape, x.tobytes()) for x in expected]


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_spectrum_verdict_reads_every_config_of_every_width(monkeypatch, position):
    # a real part of 1e-6 on one matrix of one width's stack fails the suite
    assert spectrum_suite(300, 2, 32, seed=5)["pass"]
    solve = diagnostics.eigvals
    for omegas, _, _ in oracles.spectrum_draws_loop(300, 2, 32, 5):
        k, m = omegas.shape[:2]
        target = {"first": 0, "middle": k // 2, "last": k - 1}[position]

        def shifted(J):
            lam = solve(J)
            if J.shape[-1] == m:        # one eigensolver call per width
                lam[target] += 1e-6
            return lam

        monkeypatch.setattr(diagnostics, "eigvals", shifted)
        rep = spectrum_suite(300, 2, 32, seed=5)
        assert rep["pass"] is False, (m, target)
        assert rep["max_re_lambda"] >= 1e-6, (m, target)


@pytest.mark.parametrize("n_configs", [0, -1])
def test_spectrum_suite_rejects_a_count_that_checks_nothing(n_configs):
    with pytest.raises(ValueError, match=f"cases must be >= 1, got {n_configs}"):
        spectrum_suite(n_configs=n_configs)


def test_spectrum_suite_small_run_passes():
    out = spectrum_suite(n_configs=10, seed=2)
    assert out["pass"]
    assert out["max_re_lambda"] <= 1e-8


# ---------------------------------------------------------------- sensitivity

def test_sensitivity_of_final_layer_is_zero():
    g = gen_sbm([4, 4], 0.7, 0.2, seed=6, feature_dim=3)
    model = fitted(g, epochs=0, hidden=4, depth=2)
    assert sensitivity(model, g, layer=model.cfg.depth) == 0.0


def test_sensitivity_rejects_adaptive_model_and_big_instances():
    g = gen_sbm([4, 4], 0.7, 0.2, seed=7, feature_dim=3)
    with pytest.raises(ValueError, match="fixed-depth"):
        sensitivity(fitted(g, model="eegnn", epochs=0, hidden=4), g, 0)
    big = gen_sbm([30, 30], 0.3, 0.1, seed=8, feature_dim=3)
    with pytest.raises(ValueError, match="2000"):
        sensitivity(fitted(g, epochs=0, hidden=40), big, 0)
    with pytest.raises(ValueError, match="layer"):
        sensitivity(fitted(g, epochs=0, hidden=4, depth=2), g, 5)


def test_sensitivity_matches_fd_jacobian():
    g = connected_sbm(9)
    cfg = small_cfg(hidden=3, depth=2, tau=0.3, epochs=0)
    model, _ = train_run(cfg, g)
    layer = 1

    hs: list = []
    from eegnn.training import forward_node, operators_for
    forward_node(model, operators_for(model, g), capture=hs)
    hl = hs[layer].value
    a = norm_adj(g)

    def from_layer(x):
        H, w = ad.constant(x.reshape(hl.shape)), cell_weights(model.params, "sas")
        for _ in range(cfg.depth - layer):
            H = sas_step(H, a, model.params, w, tau=model.params.tau)
        return H.value.ravel()

    J = oracles.fd_jacobian(from_layer, hl.ravel().copy())
    w = cfg.hidden
    total = 0.0
    for v in range(g.n):
        nbrs = g.col_indices[g.row_offsets[v]:g.row_offsets[v + 1]]
        for u in nbrs:
            block = J[v * w:(v + 1) * w, u * w:(u + 1) * w]
            total += np.abs(block).sum()
    assert sensitivity(model, g, layer) == pytest.approx(total, abs=1e-4)


def _sens_graph(name):
    if name == "grid":      # degrees 3 to 8
        g = gen_minesweeper_grid(3, 4, 0.3, seed=1)
        # its one-hot counts leave a fresh sas cell with no influence at all
        g.X = np.random.default_rng(1).normal(size=g.X.shape)
        return g
    hub = connected_sbm(20, sizes=(8, 8), p_in=0.9, p_out=0.3)
    assert degrees(hub).max() >= 9 and degrees(hub).min() <= 8
    if name == "hub":
        return hub
    rng = np.random.default_rng(21)
    edges = [(u, v) for u, v in arc_list(hub) if u < v]
    return make_graph(edges, hub.n, hub.X, E_edge=rng.normal(size=(len(edges), 2)))


def _sens_model(g, kind, hidden, depth=3, **kw):
    cfg = small_cfg(model=kind, hidden=hidden, depth=depth, **kw)
    edge_dim = 0 if g.E_feat is None else g.E_feat.shape[1]
    return build_model(cfg, g.X.shape[1], 2, np.random.default_rng(3),
                       edge_dim=edge_dim)


@pytest.mark.parametrize("kind,graph,hidden,kw", [
    ("sas", "grid", 3, {}),          # 36 seeds: the last chunk holds 4
    ("gcn", "hub", 4, {}),
    ("graff", "grid", 5, {}),        # 60 seeds: the last chunk holds 4
    ("adgn", "hub", 3, {}),
    ("sas", "edges", 3, {"edge_mode": "linear"}),
    ("sas", "hub", 16, {}),          # 320 seeds: 20 full chunks
    ("sas", "hub", 24, {})],         # 480 seeds, 16 * 24 columns a product
    ids=["sas-grid", "gcn-hub", "graff-grid", "adgn-hub", "sas-edges", "sas-hub-16",
         "sas-hub-24"])
def test_sensitivity_equals_single_seed_oracle_at_every_layer(kind, graph, hidden, kw):
    g = _sens_graph(graph)
    model = _sens_model(g, kind, hidden, **kw)
    assert sensitivity(model, g, 0) > 0.0
    for layer in range(model.cfg.depth + 1):
        assert sensitivity(model, g, layer) == \
            oracles.sensitivity_single_seed(model, g, layer)


def test_sensitivity_work_does_not_depend_on_layer(monkeypatch):
    g = _sens_graph("grid")
    model = _sens_model(g, "sas", 3)
    copies = diagnostics._SWEEP_COPIES
    counts = {}
    products = []

    def spy(name):
        inner = getattr(ad, name)

        def counted(*a, **kw):
            counts[name] = counts.get(name, 0) + 1
            if name == "_spmm_value":
                products.append((a[0], a[1].shape))
            return inner(*a, **kw)
        monkeypatch.setattr(ad, name, counted)

    def no_union(graphs_):
        raise AssertionError("sensitivity built a disjoint union")

    for mod in (graphs, cells, diagnostics, training):
        if hasattr(mod, "disjoint_union"):
            monkeypatch.setattr(mod, "disjoint_union", no_union)
    for name in ("backward", "_spmm_value", "_node"):
        spy(name)
    per_layer = []
    for layer in (0, model.cfg.depth):
        counts.clear()
        sensitivity(model, g, layer)
        per_layer.append(dict(counts))
    assert per_layer[0] == per_layer[1]
    assert per_layer[0]["backward"] == -(-g.n * model.cfg.hidden // copies)
    # every product runs on g's own arcs, over all copies of its nodes at once
    assert len(products) == 2 * per_layer[0]["_spmm_value"]
    for a, shape in products:
        assert a.col_indices is g.col_indices and a.row_offsets is g.row_offsets
        assert (a.n, a.copies, shape) == (g.n, copies, (copies * g.n, model.cfg.hidden))


def test_sensitivity_update_derivatives_do_not_grow_with_the_sweeps(monkeypatch):
    g = _sens_graph("edges")
    model = _sens_model(g, "sas", 3, edge_mode="linear")
    in_sweep = [False]
    calls = {False: 0, True: 0}
    backward = ad.backward

    def counting(original):
        def counted(*a):
            calls[in_sweep[0]] += 1
            return original(*a)
        return counted

    def sweeping(*a, **kw):
        in_sweep[0] = True
        return backward(*a, **kw)

    for name in ("_act_derivative", "_output_derivative"):
        monkeypatch.setattr(ad, name, counting(getattr(ad, name)))
    monkeypatch.setattr(ad, "backward", sweeping)
    sensitivity(model, g, 0)
    depth = model.cfg.depth
    # several sweeps
    assert -(-g.n * model.cfg.hidden // diagnostics._SWEEP_COPIES) > 2
    # none in the forward; in the sweeps, each step's two derivatives in the
    # first run, which keeps nothing, and again in the second, which keeps
    # them (the edge term is built on constants and is not swept)
    assert calls == {False: 0, True: 2 * 2 * depth}


@pytest.mark.parametrize("kw", [{}, {"edge_mode": "linear"}], ids=["sas", "sas-edges"])
def test_sensitivity_tape_is_freed_by_reference_counts_alone(monkeypatch, kw):
    # the sweeps keep the tape, so a backward rule that held its own node
    # would make the tape a reference cycle, left for the cycle collector
    g = _sens_graph("edges" if kw else "grid")
    model = _sens_model(g, "sas", 3, **kw)
    made = []
    node = ad._node

    def recorded(*args):
        out = node(*args)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ad, "_node", recorded)
    gc.collect()
    gc.disable()
    try:
        sensitivity(model, g, 1)
        assert made and [r for r in made if r() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("kind,kw", [("sas", {}), ("gcn", {}), ("graff", {}),
                                     ("adgn", {}), ("sas", {"edge_mode": "linear"})],
                         ids=["sas", "gcn", "graff", "adgn", "sas-edges"])
def test_sensitivity_leaves_the_model_gradients_untouched(kind, kw):
    g = _sens_graph("edges" if kw else "hub")
    model = _sens_model(g, kind, 3, **kw)
    leaves = model.params.parameters()
    assert all(p._grad is None for _, p in leaves)
    sensitivity(model, g, 0)
    assert [name for name, p in leaves if p._grad is not None] == []


def test_sensitivity_rejects_an_isolated_node():
    g = make_graph([(0, 1), (1, 2), (2, 0)], 4, X=np.ones((4, 2)))
    model = _sens_model(g, "sas", 2)
    with pytest.raises(ValueError, match="isolated node 3"):
        sensitivity(model, g, 0)


# ------------------------------------------------------------------ retention

def test_depth_retention_rows_and_determinism():
    g = gen_sbm([6, 6], 0.8, 0.1, seed=10, feature_dim=4, feature_shift=2.0)
    base = small_cfg(epochs=5, hidden=4)
    rows1 = depth_retention(g, ["sas", "gcn"], [1, 2], base)
    rows2 = depth_retention(g, ["sas", "gcn"], [1, 2], base)
    assert rows1 == rows2
    assert [(r["kind"], r["depth"]) for r in rows1] == [
        ("sas", 1), ("sas", 2), ("gcn", 1), ("gcn", 2)]
    assert all(r["metric"] == "accuracy" for r in rows1)


def test_depth_retention_validates_every_config_before_training(monkeypatch):
    import eegnn.diagnostics as diag
    monkeypatch.setattr(diag, "train_run", lambda *a: pytest.fail("trained"))
    g = connected_sbm(13)
    with pytest.raises(ConfigError, match="depth must be >= 1"):
        depth_retention(g, ["sas"], [2, 0], small_cfg())
    with pytest.raises(ConfigError, match="'bogus'"):
        depth_retention(g, ["sas", "bogus"], [2], small_cfg())


def test_config_caused_diagnostic_rejections_are_config_errors():
    g = connected_sbm(14)
    with pytest.raises(ConfigError, match="fixed-depth"):
        sensitivity(fitted(g, model="eegnn", epochs=0, hidden=4), g, 0)
    graph_cfg = small_cfg(task="graph_class", loss="bce_logits")
    model = build_model(graph_cfg, 3, 1, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="node tasks"):
        oracle_exit_eval(model, g)


# ---------------------------------------------------------------- oracle exit

def test_oracle_exit_never_below_final():
    g = gen_sbm([8, 8], 0.8, 0.15, seed=11, feature_dim=4, feature_shift=1.5)
    for seed in range(3):
        model = fitted(g, model="eegnn", epochs=10, seed=seed)
        oracle, final = oracle_exit_eval(model, g)
        assert oracle >= final
        assert 0.0 <= final <= 1.0 and oracle <= 1.0


def test_oracle_exit_rejects_unlabeled_and_graph_tasks():
    g = connected_sbm(12)
    model = fitted(g, epochs=0, hidden=4)
    bare = make_graph([(0, 1)], 2, X=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="labels"):
        oracle_exit_eval(model, bare)


# ------------------------------------------------------------------- traces

def test_trace_validation():
    with pytest.raises(ValueError):
        Trace("t", np.arange(3), np.zeros(2), {})
    with pytest.raises(ValueError):
        Trace("t", np.arange(2), np.array([0.0, np.inf]), {})


def test_dirichlet_traces_shapes_and_mean_relation():
    g = gen_sbm([5, 5], 0.7, 0.2, seed=13, feature_dim=3)
    model = fitted(g, epochs=0, depth=4, hidden=4)
    total, mean = dirichlet_traces(model, g)
    assert total.layers.tolist() == list(range(5))
    assert np.allclose(mean.values, total.values / g.n_arcs)
    assert total.metadata["depth"] == 4


def test_trace_file_layout(tmp_path):
    tr = Trace("flat", np.arange(2), np.array([0.5, 0.25]), {"k": 1})
    path = tmp_path / "trace.csv"
    emit_trace(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# name: flat"
    assert lines[1] == "# k: 1"
    assert lines[2] == "layer,value"
    assert lines[3] == "0,0.5"
    assert lines[4] == "1,0.25"
    # every value in its shortest exact form, metadata as sorted JSON
    tr = Trace("demo", np.arange(3), np.array([1.0, 1.0 / 3.0, 2e-17]),
               {"tau": 0.05, "violations": [[2, 3.5e-9]], "mode": "zero"})
    emit_trace(tr, path)
    assert path.read_text().splitlines() == [
        "# name: demo", '# mode: "zero"', "# tau: 0.05", "# violations: [[2, 3.5e-09]]",
        "layer,value", "0,1.0", "1,0.3333333333333333", "2,2e-17"]
