"""Tape engine: forward values, backward rules, and the FD oracle itself."""

import gc
import math
import weakref

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad
from eegnn.cells import Operators, make_cell_params, propagate
from eegnn.graphs import Segments, arc_list, canonicalize, degrees, norm_adj


def rand_leaf(rng, shape):
    return ad.leaf(rng.normal(size=shape))


def test_matmul_identity():
    B = ad.leaf([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul_add(ad.constant(np.eye(2)), B)
    assert np.array_equal(out.value, B.value)


def test_matmul_backward_is_transposed_product():
    rng = np.random.default_rng(0)
    A, B = rand_leaf(rng, (2, 2)), rand_leaf(rng, (2, 2))
    out = ad.matmul_add(A, B)
    ad.backward(ad.sum_all(out))
    # d sum(AB) / dB = A^T @ ones
    assert np.allclose(B.grad, A.value.T @ np.ones((2, 2)))


def test_matmul_bias_broadcasts_rows():
    A = ad.constant(np.zeros((3, 2)))
    B = ad.constant(np.eye(2))
    C = ad.leaf([[1.0, -2.0]])
    out = ad.matmul_add(A, B, C)
    assert np.array_equal(out.value, np.tile([[1.0, -2.0]], (3, 1)))


@pytest.mark.parametrize("rows", [1, 7])
def test_matmul_add_is_product_plus_addend_bit_for_bit(rows):
    rng = np.random.default_rng(4)
    A, B = rand_leaf(rng, (7, 5)), rand_leaf(rng, (5, 3))
    C = rand_leaf(rng, (rows, 3))
    kept = C.value.copy()
    assert np.array_equal(ad.matmul_add(A, B, C).value, A.value @ B.value + C.value)
    if rows == 1:
        out = ad.act_matmul_add(A, "tanh", B, C)
        assert np.array_equal(out.value, np.tanh(A.value) @ B.value + C.value)
    assert np.array_equal(C.value, kept)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        ad.matmul_add(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 3))))


def test_relu_tanh_values():
    out = ad.activation_apply(ad.leaf([[-1.0, 1.0]]), "relu_tanh")
    assert out.value[0, 0] == 0.0
    assert out.value[0, 1] == pytest.approx(math.tanh(1.0), abs=1e-12)


def test_relu_tanh_equals_the_select_bit_for_bit():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 7)) * rng.choice([1e-310, 1e-3, 1.0, 30.0], size=(40, 1))
    x.ravel()[:7] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    for v in (x, x.T):                       # contiguous and strided input
        t = np.tanh(v)
        want = np.where(v > 0, t, 0.0)
        want_d = np.where(v > 0, 1.0 - t * t, 0.0)
        assert ad._act_forward(v, "relu_tanh").tobytes() == want.tobytes()
        assert ad._act_derivative(v, "relu_tanh").tobytes() == want_d.tobytes()


def test_relu_tanh_subgradient_zero_at_zero():
    x = ad.leaf([[0.0]])
    ad.backward(ad.sum_all(ad.activation_apply(x, "relu_tanh")))
    assert x.grad[0, 0] == 0.0


def test_softplus_at_zero():
    out = ad.activation_apply(ad.leaf([[0.0]]), "softplus")
    assert out.value[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_softplus_overflow_safe():
    out = ad.activation_apply(ad.leaf([[800.0, -800.0]]), "softplus")
    assert np.all(np.isfinite(out.value))
    assert out.value[0, 0] == pytest.approx(800.0)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        ad.activation_apply(ad.leaf([[0.0]]), "gelu")


def test_log_softmax_symmetric_row():
    out = ad.row_log_softmax(ad.leaf([[0.0, 0.0]]))
    assert np.allclose(out.value, [[-math.log(2), -math.log(2)]], atol=1e-15)


def test_log_softmax_extreme_row_stable():
    out = ad.row_log_softmax(ad.leaf([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.value))
    assert out.value[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert out.value[0, 1] == pytest.approx(-1000.0)


def test_log_softmax_rows_exponentiate_to_one():
    rng = np.random.default_rng(3)
    out = ad.row_log_softmax(ad.leaf(rng.normal(size=(6, 5)) * 10))
    sums = np.exp(out.value).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_row_softmaxes_equal_numpy_reductions_bit_for_bit():
    rng = np.random.default_rng(21)
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf]
    for _ in range(400):
        n, k = int(rng.integers(1, 30)), int(rng.integers(1, 11))
        x = rng.normal(size=(n, k)) * rng.choice([1e-320, 1e-3, 1.0, 1e300])
        hit = rng.random((n, k)) < 0.3
        x[hit] = rng.choice(specials, size=hit.sum())
        with np.errstate(all="ignore"):
            assert ad._row_sum(x).tobytes() == x.sum(axis=1, keepdims=True).tobytes()
            shifted = x - x.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            lsm = shifted - np.log(e.sum(axis=1, keepdims=True))
            sm = e / e.sum(axis=1, keepdims=True)
            X = ad.leaf(x)
            for got, want in ((ad.row_log_softmax(X).value, lsm),
                              (ad.softmax_rows(X).value, sm)):
                nan = np.isnan(want)             # NaN payloads may differ
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()


def test_log_softmax_gradient():
    rng = np.random.default_rng(4)
    X = rand_leaf(rng, (3, 4))
    w = ad.constant(rng.normal(size=(3, 4)))

    def loss():
        return ad.sum_all(ad.mul(ad.row_log_softmax(X), w))

    assert ad.fd_check(loss, [X]) <= 1e-6


def test_mean_pool_identical_rows():
    out = ad.segment_mean(ad.leaf([[2.0, 3.0], [2.0, 3.0]]), Segments.from_offsets([0, 2]))
    assert np.array_equal(out.value, [[2.0, 3.0]])


def test_mean_pool_arithmetic_mean():
    out = ad.segment_mean(ad.leaf([[0.0], [2.0], [5.0]]), Segments.from_offsets([0, 2, 3]))
    assert out.value.tolist() == [[1.0], [5.0]]


def test_mean_pool_permutation_invariant():
    rng = np.random.default_rng(5)
    H = rng.normal(size=(7, 3))
    seg = Segments.from_offsets([0, 3, 7])
    perm = np.concatenate([rng.permutation(3), 3 + rng.permutation(4)])
    a = ad.segment_mean(ad.leaf(H), seg).value
    b = ad.segment_mean(ad.leaf(H[perm]), seg).value
    assert np.allclose(a, b, atol=1e-15)
    # each segment's mean is its sum by the kit's rule over its count
    assert a[1].tobytes() == (oracles.segment_sum_loop(H[3:], [0, 4])[0] / 4).tobytes()


def test_mean_pool_empty_selection_rejected():
    H = ad.leaf(np.ones((3, 2)))
    # an empty segment inside or first, and segments that miss a row
    for offsets in ([0, 1, 1, 3], [0, 0, 3], [0, 2]):
        with pytest.raises(ValueError):
            ad.segment_mean(H, Segments.from_offsets(offsets))


def test_segment_spread_copies_rows_and_sums_gradients_back():
    A = ad.leaf([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    seg = Segments.from_offsets([0, 1, 1, 4])       # segment 1 is empty
    out = ad.segment_spread(A, seg)
    assert out.value.tolist() == [[1.0, 2.0], [5.0, 6.0], [5.0, 6.0], [5.0, 6.0]]
    ad.backward(ad.sum_all(out))
    assert A.grad.tolist() == [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]]
    with pytest.raises(ValueError):
        ad.segment_spread(A, Segments.from_offsets([0, 1, 4]))


def test_segment_spread_gradient_sums_by_the_segments_rule():
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3, 9, 70, 5]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    A = ad.leaf(rng.normal(size=(len(sizes), 3)))
    probe = rng.normal(size=(offsets[-1], 3)) * 10.0 ** rng.integers(-8, 8, size=(offsets[-1], 3))
    ad.backward(ad.sum_all(ad.mul_const(ad.segment_spread(A, Segments.from_offsets(offsets)),
                                        probe)))
    want = oracles.segment_sum_loop(probe, offsets)
    assert np.array_equal(A.grad.view(np.int64), want.view(np.int64))


# bench/layers.py wraps every other public name of autodiff as a tape op and
# reads the .value and .grad of its result
NON_OPS = {"DiffValue", "backward", "zero_grads", "fd_check"}


def test_every_public_op_returns_a_diff_value():
    A, B = ad.leaf(np.ones((3, 2))), ad.leaf(np.full((3, 2), 2.0))
    W, b = ad.leaf(np.eye(2)), ad.leaf(np.zeros((1, 2)))
    t = ad.constant(np.full((3, 1), 0.5))
    a = norm_adj(canonicalize([(0, 1), (1, 2)], 3))
    calls = {
        "leaf": lambda: ad.leaf(np.ones((2, 2))),
        "constant": lambda: ad.constant(np.ones((2, 2))),
        "step_column": lambda: ad.step_column(0.5, 3),
        "matmul_add": lambda: ad.matmul_add(A, W, b),
        "two_matmul_add": lambda: ad.two_matmul_add(B, W, A, W, b),
        "activation_apply": lambda: ad.activation_apply(A, "tanh"),
        "row_log_softmax": lambda: ad.row_log_softmax(A),
        "softmax_rows": lambda: ad.softmax_rows(A),
        "segment_mean": lambda: ad.segment_mean(A, Segments.from_offsets([0, 2, 3])),
        "segment_spread": lambda: ad.segment_spread(A, Segments.from_offsets([0, 2, 2, 5])),
        "add": lambda: ad.add(A, B),
        "sub": lambda: ad.sub(A, B),
        "neg": lambda: ad.neg(A),
        "smul": lambda: ad.smul(A, 2.0),
        "add_scalar": lambda: ad.add_scalar(A, 1.0),
        "mul": lambda: ad.mul(A, B),
        "mul_const": lambda: ad.mul_const(A, np.ones((3, 2))),
        "abs_val": lambda: ad.abs_val(A),
        "scale_rows": lambda: ad.scale_rows(A, t),
        "add_scaled_rows": lambda: ad.add_scaled_rows(A, B, t),
        "transpose": lambda: ad.transpose(A),
        "col_slice": lambda: ad.col_slice(A, 1),
        "where_rows": lambda: ad.where_rows([True, False, True], A, B),
        "sum_all": lambda: ad.sum_all(A),
        "dspmm": lambda: ad.dspmm(a, A),
        "act_update": lambda: ad.act_update(A, W, [B], "relu", "tanh", agg=(a, W)),
        "act_matmul_add": lambda: ad.act_matmul_add(A, "relu", W, b),
    }
    assert set(calls) == set(ad.__all__) - NON_OPS
    for name, call in calls.items():
        out = call()
        assert isinstance(out, ad.DiffValue), name
        assert out.grad.shape == out.value.shape, name


def test_backward_sum_gives_ones():
    W = ad.leaf(np.zeros((2, 2)))
    ad.backward(ad.sum_all(W))
    assert np.array_equal(W.grad, np.ones((2, 2)))


def test_backward_dead_relu_region():
    W = ad.leaf(-np.ones((2, 2)))
    ad.backward(ad.sum_all(ad.activation_apply(W, "relu")))
    assert not W.grad.any()


def test_backward_requires_scalar_root_without_seed():
    W = ad.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(W)


def test_leaf_grads_accumulate_and_reset():
    W = ad.leaf(np.ones((2, 2)))
    ad.backward(ad.sum_all(W))
    ad.backward(ad.sum_all(W))
    assert np.array_equal(W.grad, 2 * np.ones((2, 2)))
    ad.zero_grads([W])
    assert not W.grad.any()


def test_shared_leaf_gets_one_contribution_per_use():
    W = ad.leaf(np.full((2, 2), 0.5))
    out = ad.add(ad.matmul_add(W, W), W)     # quadratic + linear use
    ad.backward(ad.sum_all(out))
    # d/dW sum(W@W + W) = W^T @ 1 + 1 @ W^T + 1
    ones = np.ones((2, 2))
    assert np.allclose(W.grad, W.value.T @ ones + ones @ W.value.T + ones)


def test_fd_check_quadratic_is_tight():
    rng = np.random.default_rng(6)
    W = rand_leaf(rng, (3, 3))

    def loss():
        return ad.sum_all(ad.mul(W, W))

    assert ad.fd_check(loss, [W]) <= 1e-9


def test_fd_check_constant_function():
    W = ad.leaf(np.ones((2, 2)))

    def loss():
        return ad.constant([[4.0]])

    assert ad.fd_check(loss, [W]) == 0.0


def test_dspmm_matches_dense_and_differentiates():
    rng = np.random.default_rng(7)
    g = canonicalize([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
    a = norm_adj(g)
    H = rand_leaf(rng, (4, 3))
    out = ad.dspmm(a, H)
    dense = oracles.dense_norm_adj(4, arc_list(g))
    assert np.abs(out.value - dense @ H.value).max() <= 1e-12
    w = ad.constant(rng.normal(size=(4, 3)))

    def loss():
        return ad.sum_all(ad.mul(ad.dspmm(a, H), w))

    assert ad.fd_check(loss, [H]) <= 1e-6


def _one_op_cases(rng):
    """(name, params, loss builder) for every differentiable op."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))

    def draw(*shape):
        # magnitudes kept in [0.5, 1.5] with random signs: entries land away
        # from the relu/abs kinks and away from 0, so no coordinate has a
        # near-zero true gradient whose relative FD error would be pure
        # roundoff noise
        return (rng.choice([-1.0, 1.0], size=shape)
                * rng.uniform(0.5, 1.5, size=shape))

    A = ad.leaf(draw(n, m))
    B = ad.leaf(draw(n, m))
    Wk = ad.leaf(draw(m, k))
    Wm = ad.leaf(draw(m, m) / m)
    bias = ad.leaf(draw(1, k))
    t = ad.leaf(rng.uniform(0.1, 0.9, size=(n, 1)))
    mask = rng.random(n) < 0.5
    if not mask.any():
        mask[0] = True
    probe = ad.constant(draw(n, m))
    probek = ad.constant(draw(n, k))
    probe_col = ad.constant(draw(n, 1))
    # the segment of each of n rows, with repeats, so sums back, and gaps,
    # so some segments are empty
    rows = rng.integers(0, n, size=n)
    spread = Segments.from_offsets(np.concatenate([[0], np.cumsum(np.bincount(rows))]))
    ids = np.unique(np.sort(rng.integers(0, n, size=n)), return_inverse=True)[1]
    seg = Segments.from_offsets(np.concatenate([[0], np.cumsum(np.bincount(ids))]))
    probe_seg = ad.constant(probe.value[:ids.max() + 1])
    S = ad.leaf(draw(spread.offsets.size - 1, m))
    Wk2 = ad.leaf(draw(m, k))

    def score(x, w=probe):
        return ad.sum_all(ad.mul(x, w))

    # every entry positive, so no gradient of two products is a sum that
    # cancels to near 0
    pos = [ad.leaf(np.abs(x.value)) for x in (B, Wk2, A, Wk, bias)]
    probe_pos = ad.constant(np.abs(probek.value))

    cases = [
        ("matmul_add", [A, Wk], lambda: score(ad.matmul_add(A, Wk), probek)),
        ("matmul_add_bias", [A, Wk, bias],
         lambda: score(ad.matmul_add(A, Wk, bias), probek)),
        ("two_matmul_add", pos, lambda: score(ad.two_matmul_add(*pos), probe_pos)),
        ("add", [A, B], lambda: score(ad.add(A, B))),
        ("sub", [A, B], lambda: score(ad.sub(A, B))),
        ("neg", [A], lambda: score(ad.neg(A))),
        ("smul", [A], lambda: score(ad.smul(A, -1.7))),
        ("add_scalar", [A], lambda: score(ad.add_scalar(A, 0.3))),
        ("mul", [A, B], lambda: score(ad.mul(A, B))),
        ("mul_const", [A], lambda: score(ad.mul_const(A, probe.value))),
        ("abs_val", [A], lambda: score(ad.abs_val(A))),
        ("scale_rows", [A, t], lambda: score(ad.scale_rows(A, t))),
        ("add_scaled_rows", [A, B, t],
         lambda: score(ad.add_scaled_rows(A, B, t))),
        ("transpose", [A],
         lambda: ad.sum_all(ad.mul(ad.transpose(A),
                                   ad.constant(probe.value.T)))),
        ("segment_spread", [S], lambda: score(ad.segment_spread(S, spread))),
        ("col_slice", [A],
         lambda: ad.sum_all(ad.mul(ad.col_slice(A, m - 1), probe_col))),
        ("where_rows", [A, B], lambda: score(ad.where_rows(mask, A, B))),
        ("row_log_softmax", [A], lambda: score(ad.row_log_softmax(A))),
        ("softmax_rows", [A], lambda: score(ad.softmax_rows(A))),
        ("segment_mean", [A],
         lambda: score(ad.segment_mean(A, seg), probe_seg)),
        ("sum_all", [A], lambda: ad.sum_all(A)),
        ("act_update", [A, Wm, B],
         lambda: score(ad.act_update(A, Wm, [B], "tanh", "softplus"))),
        ("act_update_linear_row", [A, Wk, bias],
         lambda: score(ad.act_update(A, Wk, [bias], None, "softplus"), probek)),
        ("act_matmul_add", [A, Wk, bias],
         lambda: score(ad.act_matmul_add(A, "tanh", Wk, bias), probek)),
    ]
    if n >= 3:          # a ring of n nodes for the sparse aggregate
        a = norm_adj(canonicalize([(i, (i + 1) % n) for i in range(n)], n))
        Wm2 = ad.leaf(draw(m, m) / m)
        cases.append(("act_update_agg", [A, Wm, B, Wm2],
                      lambda: score(ad.act_update(A, Wm, [B], "tanh", "tanh",
                                                  agg=(a, Wm2)))))
        brow = ad.leaf(draw(1, m))
        cases.append(("act_update_linear_row_agg", [A, Wm, brow, Wm2],
                      lambda: score(ad.act_update(A, Wm, [brow], None, "tanh",
                                                  agg=(a, Wm2)))))
        cases.append(("act_update_agg_alone", [A, Wm2],
                      lambda: score(ad.act_update(A, None, (), None, "tanh",
                                                  agg=(a, Wm2)))))
    for kind in ("relu", "tanh", "relu_tanh", "softplus", "sigmoid", "identity"):
        cases.append((f"act_{kind}", [A],
                      lambda kind=kind: score(ad.activation_apply(A, kind))))
    return cases


def test_every_op_passes_fd_in_isolation():
    # the per-op certification: random shapes up to 8x8, many seeds
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        for name, params, loss in _one_op_cases(rng):
            err = ad.fd_check(loss, params)
            assert err <= 1e-6, f"{name} seed {seed}: fd error {err}"


def test_deep_chain_fd():
    # 60 repeated applications of a nonlinear map, one shared weight
    rng = np.random.default_rng(8)
    W = rand_leaf(rng, (4, 4))
    X = ad.constant(rng.normal(size=(5, 4)) * 0.3)

    def loss():
        H = X
        for _ in range(60):
            H = ad.activation_apply(ad.matmul_add(H, W), "tanh")
        return ad.sum_all(H)

    assert ad.fd_check(loss, [W]) <= 1e-4


def test_no_non_finite_for_bounded_inputs():
    rng = np.random.default_rng(9)
    X = ad.leaf(rng.uniform(-50, 50, size=(6, 6)))
    for kind in ("relu", "tanh", "relu_tanh", "softplus", "sigmoid", "identity"):
        assert np.all(np.isfinite(ad.activation_apply(X, kind).value))
    assert np.all(np.isfinite(ad.row_log_softmax(X).value))
    assert np.all(np.isfinite(ad.softmax_rows(X).value))


def test_backward_with_seed_reads_single_coordinate():
    rng = np.random.default_rng(10)
    W = rand_leaf(rng, (3, 3))
    X = ad.constant(rng.normal(size=(2, 3)))
    out = ad.matmul_add(X, W)
    seed = np.zeros((2, 3))
    seed[1, 2] = 1.0
    ad.backward(out, seed=seed)
    # d out[1,2] / dW[i,j] = X[1,i] * [j == 2]
    want = np.zeros((3, 3))
    want[:, 2] = X.value[1]
    assert np.allclose(W.grad, want, atol=1e-15)


def test_interior_grads_valid_after_each_sweep():
    W = ad.leaf(np.array([[2.0]]))
    mid = ad.smul(W, 3.0)
    root = ad.smul(mid, 5.0)
    ad.backward(root)
    assert mid.grad[0, 0] == 5.0
    ad.backward(root)
    # interior resets per sweep, leaf accumulates
    assert mid.grad[0, 0] == 5.0
    assert W.grad[0, 0] == 30.0


def test_fresh_op_output_grad_reads_as_zeros_of_its_shape():
    out = ad.matmul_add(ad.constant(np.ones((3, 2))), ad.leaf(np.ones((2, 4))))
    g = out.grad
    assert isinstance(g, np.ndarray) and g.dtype == np.float64
    assert g.shape == (3, 4) and not g.any()
    assert out.grad is g                     # allocated once, then kept


def test_backward_orders_the_tape_once_per_root(monkeypatch):
    calls = []
    original = ad._topo_order

    def counted(root):
        calls.append(root)
        return original(root)

    monkeypatch.setattr(ad, "_topo_order", counted)
    W = ad.leaf(np.array([[2.0, -1.0]]))
    mid = ad.activation_apply(ad.smul(W, 3.0), "tanh")
    root = ad.sum_all(mid)
    for _ in range(3):
        ad.backward(root)
    assert len(calls) == 1
    expected = 3 * 3.0 * (1.0 - np.tanh(3.0 * W.value) ** 2)
    assert np.allclose(W.grad, expected, rtol=1e-14, atol=0.0)


def test_swept_tape_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        W = ad.leaf(np.array([[1.5]]))
        mid = ad.smul(W, 2.0)
        root = ad.sum_all(ad.mul(mid, mid))
        ad.backward(root)
        ad.backward(root)
        ref = weakref.ref(mid)
        del mid
        assert ref() is not None             # the root still holds its tape
        del root
        assert ref() is None                 # no reference cycle kept it
    finally:
        gc.enable()


# ------------------------------------------------ eval without a tape, release

def test_no_grad_records_no_tape_and_computes_the_same_values():
    rng = np.random.default_rng(3)
    W = rand_leaf(rng, (3, 4))
    X = ad.constant(rng.normal(size=(5, 3)))
    taped = ad.activation_apply(ad.matmul_add(X, W), "tanh")
    with ad.no_grad():
        free = ad.activation_apply(ad.matmul_add(X, W), "tanh")
        with ad.no_grad():
            pass
        inner = ad.smul(free, 2.0)           # still off after a nested block
    assert np.array_equal(free.value, taped.value)
    for node in (free, inner):
        assert node.parents == () and node.backward_rule is None
        assert not node.requires_grad
    assert ad.smul(free, 2.0).backward_rule is not None     # back on after


def test_no_grad_restores_taping_after_an_error():
    with pytest.raises(ValueError):
        with ad.no_grad():
            ad.add(ad.constant(np.ones((1, 2))), ad.constant(np.ones((2, 1))))
    assert ad.neg(ad.leaf(np.ones((1, 1)))).backward_rule is not None


def _two_layer_loss(rng_seed):
    rng = np.random.default_rng(rng_seed)
    W = ad.leaf(rng.normal(size=(4, 4)))
    b = ad.leaf(rng.normal(size=(1, 4)))
    H = ad.constant(rng.normal(size=(6, 4)))
    for _ in range(3):
        H = ad.add(H, ad.activation_apply(ad.matmul_add(H, W, b), "tanh"))
    return W, b, H, ad.sum_all(ad.mul(H, H))


def test_release_sweep_gives_the_retained_sweeps_gradients_and_frees_the_tape():
    W1, b1, _, root1 = _two_layer_loss(5)
    ad.backward(root1)
    gc.disable()
    try:
        W2, b2, H, root2 = _two_layer_loss(5)
        value = root2.value.copy()
        ref = weakref.ref(H)
        ad.backward(root2, release=True)
        assert np.array_equal(W2.grad.view(np.int64), W1.grad.view(np.int64))
        assert np.array_equal(b2.grad.view(np.int64), b1.grad.view(np.int64))
        assert np.array_equal(root2.value, value)        # values stay readable
        assert root2.parents == () and root2.backward_rule is None
        assert H.parents == () and H.backward_rule is None
        del H
        assert ref() is None                 # nothing holds the swept tape
    finally:
        gc.enable()


# ------------------------------------------------------------ fused ops

def _fused_inputs(seed, n, m):
    rng = np.random.default_rng(seed)
    g = canonicalize([(i, (i + 1) % n) for i in range(n)]
                     + [(i, (i * 5 + 2) % n) for i in range(n)], n)
    H = ad.leaf(rng.normal(size=(n, m)))
    H.value[rng.random((n, m)) < 0.2] = 0.0          # exact zeros and ties
    H.value[0, 0] = -0.0
    W = ad.leaf(rng.normal(size=(m, m)) / np.sqrt(m))
    E = ad.leaf(rng.normal(size=(n, m)))
    probe = rng.normal(size=(n, m))
    return norm_adj(g), H, W, E, probe


def _sweep(out, H, probe, leaves):
    # H also feeds the root directly, so its accumulator sums contributions
    # from inside and outside the fused node
    root = ad.add(ad.sum_all(ad.mul_const(out, probe)), ad.sum_all(ad.mul(H, H)))
    ad.zero_grads(leaves)
    ad.backward(root)
    return [out.value.copy()] + [p.grad.copy() for p in leaves]


def _bits_equal(xs, ys):
    return all(np.array_equal(x.view(np.int64), y.view(np.int64))
               for x, y in zip(xs, ys))


@pytest.mark.parametrize("inner,outer", [("relu", "relu_tanh"), ("tanh", "softplus"),
                                         ("identity", "sigmoid"), ("relu", "relu"),
                                         ("sigmoid", "tanh"), ("tanh", "identity")])
@pytest.mark.parametrize("with_e", [False, True])
def test_act_update_equals_its_chain_bit_for_bit(inner, outer, with_e):
    # the aggregate's weight is its own leaf, as the cell's Ws is
    for seed in range(5):
        a, H, W, E, probe = _fused_inputs(seed, 13, 6)
        Ws = ad.leaf(np.random.default_rng(seed + 50).normal(size=(6, 6)))
        leaves = [H, W, E, Ws]
        terms = (E,) if with_e else ()
        fused = _sweep(ad.act_update(H, W, terms, inner, outer, agg=(a, Ws)), H,
                       probe, leaves)
        x = ad.neg(ad.activation_apply(ad.matmul_add(H, W), inner))
        for t in (*terms, ad.dspmm(a, ad.matmul_add(H, Ws))):
            x = ad.add(x, t)
        chain = _sweep(ad.activation_apply(x, outer), H, probe, leaves)
        assert _bits_equal(fused, chain)


@pytest.mark.parametrize("form", ["gcn", "graff", "adgn"])
@pytest.mark.parametrize("outer", ["relu_tanh", "tanh", "softplus", "identity"])
def test_act_update_baseline_forms_equal_their_chains_bit_for_bit(form, outer):
    # gcn's form has no self term (W None); graff's adds H @ W (inner None),
    # and adgn's a bias row to it
    for seed in range(5):
        a, H, W, _, probe = _fused_inputs(seed, 13, 6)
        rng = np.random.default_rng(seed + 50)
        Ws, b = ad.leaf(rng.normal(size=(6, 6))), ad.leaf(rng.normal(size=(1, 6)))
        leaves = [H, W, Ws, b]
        agg = ad.dspmm(a, ad.matmul_add(H, Ws))
        if form == "gcn":
            fused, x = ad.act_update(H, None, (), None, outer, agg=(a, Ws)), agg
        else:
            bias = b if form == "adgn" else None
            terms = () if bias is None else (bias,)
            fused = ad.act_update(H, W, terms, None, outer, agg=(a, Ws))
            x = ad.add(ad.matmul_add(H, W, bias), agg)
        chain = _sweep(ad.activation_apply(x, outer), H, probe, leaves)
        assert _bits_equal(_sweep(fused, H, probe, leaves), chain)


def test_output_derivative_equals_the_input_derivative_bit_for_bit():
    x = np.array([[5e-324, -5e-324, 1e-310, 0.0, -0.0, np.nan, np.inf, -np.inf,
                   1e-20, -1e-20, 0.3, -0.3, 19.0, -19.0, 800.0, -800.0]])
    x = np.vstack([x, np.random.default_rng(0).normal(scale=3.0, size=(5, 16))])
    for kind in ad.ACTIVATION_KINDS:
        if kind == "softplus":
            with pytest.raises(ValueError):
                ad._output_derivative(ad._act_forward(x, kind), kind)
            continue
        got = ad._output_derivative(ad._act_forward(x, kind), kind)
        want = ad._act_derivative(x, kind)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), kind


@pytest.mark.parametrize("shared", [False, True])
def test_two_matmul_add_equals_its_pair_bit_for_bit(shared):
    # shared: X also feeds the root directly, as a head layer's input does
    for seed in range(5):
        _, H, W, E, _ = _fused_inputs(seed, 11, 5)
        rng = np.random.default_rng(seed)
        B, Wx = (ad.leaf(rng.normal(size=(5, 3))) for _ in range(2))
        b = ad.leaf(rng.normal(size=(1, 3)))
        probe = rng.normal(size=(11, 3))
        X = H if shared else E
        leaves = [H, E, B, Wx, b]
        fused = _sweep(ad.two_matmul_add(E, B, X, Wx, b), H, probe, leaves)
        chain = _sweep(ad.matmul_add(E, B, ad.matmul_add(X, Wx, b)), H, probe, leaves)
        assert _bits_equal(fused, chain)


@pytest.mark.parametrize("kind", ["relu", "tanh", "softplus"])
@pytest.mark.parametrize("with_bias", [False, True])
def test_act_matmul_add_equals_its_pair_bit_for_bit(kind, with_bias):
    for seed in range(5):
        _, H, W, _, _ = _fused_inputs(seed, 11, 5)
        rng = np.random.default_rng(seed)
        Wo = ad.leaf(rng.normal(size=(5, 3)))
        b = ad.leaf(rng.normal(size=(1, 3))) if with_bias else None
        probe = rng.normal(size=(11, 3))
        leaves = [H, Wo] + ([b] if with_bias else [])
        fused = _sweep(ad.act_matmul_add(H, kind, Wo, b), H, probe, leaves)
        chain = _sweep(ad.matmul_add(ad.activation_apply(H, kind), Wo, b), H,
                       probe, leaves)
        assert _bits_equal(fused, chain)


def test_fused_ops_reject_bad_shapes_and_kinds():
    a, H, W, E, _ = _fused_inputs(0, 7, 4)
    with pytest.raises(ValueError):
        ad.act_update(H, W, [ad.leaf(np.ones((7, 3)))], "relu", "tanh")
    with pytest.raises(ValueError):         # a row term of the wrong width
        ad.act_update(H, W, [ad.leaf(np.ones((1, 3)))], None, "tanh")
    with pytest.raises(ValueError):         # no self term, then only the aggregate
        ad.act_update(H, None, [E], None, "tanh", agg=(a, W))
    with pytest.raises(ValueError):
        ad.act_update(H, None, (), "relu", "tanh", agg=(a, W))
    with pytest.raises(ValueError):
        ad.act_update(H, None, (), None, "tanh")
    with pytest.raises(ValueError):
        ad.act_update(H, None, (), None, "tanh", agg=(a, ad.leaf(np.ones((3, 4)))))
    with pytest.raises(ValueError):
        ad.act_update(H, W, [E], "relu", "gelu")
    with pytest.raises(ValueError):
        ad.act_update(H, W, [E], "relu", "tanh", agg=(a, ad.leaf(np.ones((4, 3)))))
    with pytest.raises(ValueError):
        ad.act_matmul_add(H, "relu", W, ad.leaf(np.ones((2, 4))))
    with pytest.raises(ValueError):
        ad.two_matmul_add(H, W, E, ad.leaf(np.ones((3, 4))), ad.leaf(np.ones((1, 4))))
    with pytest.raises(ValueError):
        ad.two_matmul_add(H, W, E, W, ad.leaf(np.ones((7, 4))))


# ------------------------------------------- repeated sweeps, skipped parents

def _update_tape(seed, inner, outer, with_e):
    a, H, W, E, _ = _fused_inputs(seed, 13, 6)
    terms = (E,) if with_e else ()
    return ad.act_update(H, W, terms, inner, outer, agg=(a, W)), [H, W, E]


def _seeded_sweep(out, leaves, seed):
    ad.zero_grads(leaves)
    ad.backward(out, seed=seed)
    return [p.grad.copy() for p in leaves]


@pytest.mark.parametrize("with_e", [False, True])
def test_act_update_resweeps_equal_fresh_tapes_bit_for_bit(with_e):
    seeds = np.random.default_rng(11).normal(size=(3, 13, 6))
    for outer in ad.ACTIVATION_KINDS:            # sigma1
        for inner in ad.ACTIVATION_KINDS:        # sigma2
            out, leaves = _update_tape(4, inner, outer, with_e)
            again = [_seeded_sweep(out, leaves, s) for s in seeds]
            fresh = [_seeded_sweep(*_update_tape(4, inner, outer, with_e), s)
                     for s in seeds]
            for got, want in zip(again, fresh):
                assert _bits_equal(got, want), (outer, inner)


def test_release_sweep_keeps_no_cached_factor(monkeypatch):
    made = []

    def tracking(original):
        def tracked(x, kind):
            d = original(x, kind)
            made.append(weakref.ref(d))
            return d
        return tracked

    for name in ("_act_derivative", "_output_derivative"):
        monkeypatch.setattr(ad, name, tracking(getattr(ad, name)))
    seed = np.ones((13, 6))
    gc.disable()
    try:
        out, _ = _update_tape(0, "relu", "relu_tanh", True)
        ad.backward(out, seed=seed)
        assert made and all(r() is None for r in made)    # first run keeps none
        ad.backward(out, seed=seed)
        assert sum(r() is not None for r in made) == 2    # the second keeps two
        ad.backward(out, seed=seed, release=True)
        assert all(r() is None for r in made)
        made.clear()
        out, _ = _update_tape(1, "tanh", "softplus", False)
        ad.backward(out, seed=seed, release=True)           # one-shot sweep
        assert made and all(r() is None for r in made)
    finally:
        gc.enable()


def _baseline_tape(kind, act):
    a, H, _, _, _ = _fused_inputs(7, 13, 6)
    p = make_cell_params(np.random.default_rng(7), kind, 6, 6, 2, depth=2, sigma1=act,
                         tau=0.5)
    out = propagate(H, Operators(X=H.value, a=a), p, kind, 2)
    return out, [H] + [leaf for _, leaf in p.parameters()]


@pytest.mark.parametrize("kind", ["gcn", "graff", "adgn"])
def test_baseline_resweeps_equal_fresh_tapes_bit_for_bit(kind):
    seeds = np.random.default_rng(12).normal(size=(3, 13, 6))
    for act in ad.ACTIVATION_KINDS:
        out, leaves = _baseline_tape(kind, act)
        again = [_seeded_sweep(out, leaves, s) for s in seeds]
        fresh = [_seeded_sweep(*_baseline_tape(kind, act), s) for s in seeds]
        for got, want in zip(again, fresh):
            assert _bits_equal(got, want), (kind, act)


def test_product_rules_write_no_gradient_into_a_constant_parent():
    a, H, W, _, _ = _fused_inputs(12, 7, 3)
    rng = np.random.default_rng(12)
    consts = [ad.constant(rng.normal(size=shape)) for shape in
              [(7, 3), (3, 3), (1, 3), (7, 3), (7, 1), (3, 3), (7, 3)]]
    X, B, b, S, t, Wc, E = consts
    outs = [ad.matmul_add(X, W, b), ad.matmul_add(H, B),
            ad.add_scaled_rows(H, S, t),
            ad.act_update(H, Wc, (E,), "relu", "relu_tanh", agg=(a, Wc)),
            ad.act_update(H, Wc, (b,), None, "tanh", agg=(a, Wc)),
            ad.act_update(H, None, (), None, "softplus", agg=(a, Wc)),
            ad.two_matmul_add(X, B, H, B, b)]
    root = outs[0]
    for out in outs[1:]:
        root = ad.add(root, out)
    ad.backward(ad.sum_all(root))
    assert H._grad.any() and W._grad.any()
    assert [i for i, c in enumerate(consts) if c._grad is not None] == []


@pytest.mark.parametrize("leaf_first", [True, False])
def test_where_rows_writes_no_gradient_into_a_constant_parent(leaf_first):
    rng = np.random.default_rng(13)
    x = ad.leaf(rng.normal(size=(5, 3)))
    c = ad.constant(np.zeros((5, 3)))
    mask = [True, False, True, True, False]
    out = ad.where_rows(mask, x, c) if leaf_first else ad.where_rows(mask, c, x)
    ad.backward(ad.sum_all(out))
    assert c._grad is None
    picked = np.array(mask) if leaf_first else ~np.array(mask)
    assert np.array_equal(x.grad, np.repeat(picked[:, None], 3, axis=1).astype(float))


@pytest.mark.parametrize("step", [0.0, 0.3, 1.0])
def test_add_scaled_rows_at_a_step_column_equals_the_constant_column(step):
    # the step column multiplies as a float, the constant column as an n x 1
    # operand: values and gradients agree bit for bit, and a zero step
    # copies every row, signed zeros included
    rng = np.random.default_rng(14)
    h, s, seed = (rng.normal(size=(9, 4)) for _ in range(3))
    h[0, 0], s[1, 1], seed[2, 2] = -0.0, -0.0, -0.0
    col = ad.step_column(step, 9)
    assert col.shape == (9, 1) and not col.requires_grad
    assert np.array_equal(col.value, np.full((9, 1), step))
    got = []
    for t in (col, ad.constant(np.full((9, 1), step))):
        H, S = ad.leaf(h), ad.leaf(s)
        out = ad.add_scaled_rows(H, S, t)
        ad.backward(out, seed=seed)
        got.append([out.value, H.grad, S.grad])
    assert _bits_equal(got[0], got[1])
    if step == 0.0:
        assert _bits_equal([got[0][0]], [h])
