"""Reverse-mode differentiation over dense float64 matrices.

Every value in a computation is a DiffValue: a 2-D float64 array plus a
gradient accumulator and a backward rule. Ops build an acyclic tape; backward
runs one reverse topological sweep and adds each node's contribution into its
parents' accumulators. Accumulation is the correctness mechanism here, not an
option: cell weights are shared across layers, so one parameter legitimately
receives one contribution per layer of the forward pass. Callers zero leaf
gradients explicitly between optimizer steps.

Gradient buffers cost nothing until backward needs them: a node's .grad is
allocated as zeros of its shape on first read, so a forward that never runs
backward (every eval pass) allocates none. backward marks the interior
accumulators of the swept tape unallocated rather than zeroing them, and it
keeps the root's reverse topological order after the first sweep (parents are
fixed at construction, so the order cannot go stale); repeated seeded sweeps
over one tape, as in diagnostics.sensitivity, traverse it once.

What a rule skips and what it keeps. The product rules (matmul_add,
two_matmul_add, act_update, add_scaled_rows) and where_rows write nothing
into a parent that does not require a gradient, so a constant's .grad
stays unallocated and a tape built on constant weights sweeps only its
state path.
A node keeps its value and what its rule reads; the fused nodes
(two_matmul_add, act_update, act_matmul_add) keep none of their inner sums,
and act_update reads its outer activation's derivative from its own value.
No rule holds its own node, so a tape kept for repeated sweeps is freed by
reference counts alone. act_update alone keeps its activation derivatives,
from its second run on, as every later sweep of the same tape would
recompute them from the forward alone; the first run keeps nothing, so a
one-shot training sweep holds no more memory than a rule that never keeps.
Every cell step's update is one act_update node, so the repeated sweeps of
a sensitivity probe recompute no other derivative of a layer; other rules,
activation_apply's included, keep nothing.

Two ways to hold less of a tape. Inside `with no_grad():` ops build nodes
with no parents and no backward rule, so every intermediate of an eval
forward is freed as soon as the caller drops it. backward(root,
release=True) frees each node's gradient, rule and parent links once its
rule has run, so a one-shot training sweep gives the tape back as it goes.

segment_mean and segment_spread's gradient sum a graph's rows by the one
graphs.Segments rule. No broadcasting beyond matmul_add's row-vector bias and
segment_spread's copies, no higher-order derivatives, and float64 only; those
limits are deliberate.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .graphs import Segments, spmm as _spmm_value

__all__ = [
    "DiffValue",
    "leaf",
    "constant",
    "step_column",
    "matmul_add",
    "two_matmul_add",
    "activation_apply",
    "row_log_softmax",
    "softmax_rows",
    "segment_mean",
    "segment_spread",
    "add",
    "sub",
    "neg",
    "smul",
    "add_scalar",
    "mul",
    "mul_const",
    "abs_val",
    "scale_rows",
    "add_scaled_rows",
    "transpose",
    "col_slice",
    "where_rows",
    "sum_all",
    "dspmm",
    "act_update",
    "act_matmul_add",
    "backward",
    "zero_grads",
    "fd_check",
]


def _as_matrix(x) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


class DiffValue:
    """One node of the computation tape."""

    __slots__ = ("value", "_grad", "parents", "backward_rule", "requires_grad", "name",
                 "_sweep", "__weakref__")

    def __init__(self, value, parents=(), backward_rule=None,
                 requires_grad=False, name=""):
        self.value = _as_matrix(value)
        self._grad = None
        self.parents = tuple(parents)
        self.backward_rule = backward_rule
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.name = name
        # the nodes below this one in reverse topological order, set by the
        # first backward from it; the node itself is left out, so no cycle
        self._sweep = None

    @property
    def grad(self) -> np.ndarray:
        """Gradient accumulator; zeros of the value's shape until written."""
        if self._grad is None:
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, g) -> None:
        self._grad = g

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"DiffValue{tag}(shape={self.value.shape}, requires_grad={self.requires_grad})"


def leaf(value, name="") -> DiffValue:
    """Trainable leaf; backward deposits d(root)/d(leaf) into .grad."""
    return DiffValue(value, requires_grad=True, name=name)


def constant(value, name="") -> DiffValue:
    return DiffValue(value, requires_grad=False, name=name)


class _StepColumn(DiffValue):
    """A constant n x 1 column with one value, step, in every row."""

    __slots__ = ("step",)

    def __init__(self, step: float, n: int):
        super().__init__(np.full((n, 1), step))
        self.step = step


def step_column(t: float, n: int) -> DiffValue:
    """The constant n x 1 column of step size t. add_scaled_rows multiplies
    by it as the Python float t: the column's products bit for bit, without
    the broadcast of an n x 1 operand."""
    return _StepColumn(float(t), n)


_taping = True


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record no tape: their nodes have no parents and
    no backward rule, so backward cannot reach past them. Values are the
    same as with taping on."""
    global _taping
    outer, _taping = _taping, False
    try:
        yield
    finally:
        _taping = outer


def _node(value, parents, rule) -> DiffValue:
    if not _taping:
        return DiffValue(value)
    return DiffValue(value, parents=parents, backward_rule=rule)


# ------------------------------------------------------------------- core ops

def matmul_add(A: DiffValue, B: DiffValue, C: DiffValue | None = None) -> DiffValue:
    """A @ B (+ C). C may be same-shape or a broadcast 1 x m row vector (bias)."""
    n, k = A.shape
    k2, m = B.shape
    if k != k2:
        raise ValueError(f"inner dims disagree: {A.shape} @ {B.shape}")
    val = A.value @ B.value
    if C is not None:
        if C.shape != (n, m) and C.shape != (1, m):
            raise ValueError(f"bias shape {C.shape} not broadcastable to {(n, m)}")
        val += C.value

    def rule(G):
        if A.requires_grad:
            A.grad += G @ B.value.T
        if B.requires_grad:
            B.grad += A.value.T @ G
        if C is not None and C.requires_grad:
            if C.shape[0] == n:
                C.grad += G
            else:
                C.grad += G.sum(axis=0, keepdims=True)

    parents = (A, B) if C is None else (A, B, C)
    return _node(val, parents, rule)


def two_matmul_add(A: DiffValue, B: DiffValue, X: DiffValue, W: DiffValue,
                   b: DiffValue) -> DiffValue:
    """A @ B + (X @ W + b), b a 1 x m bias, as one node that does not keep
    the inner sum X @ W + b.

    Values are bit for bit those of matmul_add(A, B, matmul_add(X, W, b)).
    The rule adds A's and B's gradients, then X's, W's and b's: the pair's
    order, but at one place in the sweep, so a node that the pair's sweep
    visits between its two nodes and that writes into X's accumulator now
    adds after X's term.
    """
    n, m = A.shape[0], B.shape[1]
    if A.shape[1] != B.shape[0] or X.shape[1] != W.shape[0]:
        raise ValueError(f"inner dims disagree: {A.shape} @ {B.shape}, {X.shape} @ {W.shape}")
    if X.shape[0] != n or W.shape[1] != m or b.shape != (1, m):
        raise ValueError(f"{X.shape} @ {W.shape} + {b.shape} does not match "
                         f"{A.shape} @ {B.shape}")
    inner = X.value @ W.value
    inner += b.value
    val = A.value @ B.value
    val += inner
    del inner

    def rule(G):
        if A.requires_grad:
            A.grad += G @ B.value.T
        if B.requires_grad:
            B.grad += A.value.T @ G
        if X.requires_grad:
            X.grad += G @ W.value.T
        if W.requires_grad:
            W.grad += X.value.T @ G
        if b.requires_grad:
            b.grad += G.sum(axis=0, keepdims=True)

    return _node(val, (A, B, X, W, b), rule)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _act_forward(x, kind):
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "relu_tanh":
        # tanh(x) where x > 0, else +0.0 (NaN included): fmax sends NaN and
        # -0.0 to a zero and + 0.0 turns tanh(-0.0) into +0.0, so this is bit
        # for bit np.where(x > 0, np.tanh(x), 0.0) without its slow select
        return np.tanh(np.fmax(x, 0.0)) + 0.0
    if kind == "softplus":
        # overflow-safe log(1 + exp(x))
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "identity":
        return x.copy()
    raise ValueError(f"unknown activation '{kind}'")


def _act_derivative(x, kind):
    if kind == "relu":
        return (x > 0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if kind == "relu_tanh":
        # subgradient 0 at x = 0; a product with the mask, not a select, as
        # in _act_forward
        t = np.tanh(np.fmax(x, 0.0))
        return (1.0 - t * t) * (x > 0)
    if kind == "softplus":
        return _sigmoid(x)
    if kind == "sigmoid":
        s = _sigmoid(x)
        return s * (1.0 - s)
    if kind == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown activation '{kind}'")


def _output_derivative(y, kind):
    """_act_derivative(x, kind) read from y = _act_forward(x, kind), bit for
    bit, for every kind but softplus: tanh is its own output, relu and
    relu_tanh are positive exactly where x is, and sigmoid is s itself."""
    if kind == "relu":
        return (y > 0).astype(np.float64)
    if kind == "tanh":
        return 1.0 - y * y
    if kind == "relu_tanh":
        return (1.0 - y * y) * (y > 0)
    if kind == "sigmoid":
        return y * (1.0 - y)
    if kind == "identity":
        return np.ones_like(y)
    raise ValueError(f"no derivative of '{kind}' from its output")


ACTIVATION_KINDS = ("relu", "tanh", "relu_tanh", "softplus", "sigmoid", "identity")


def activation_apply(X: DiffValue, kind: str) -> DiffValue:
    """Elementwise activation; relu_tanh is ReLU composed with tanh."""
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation '{kind}', expected one of {ACTIVATION_KINDS}")
    x = X.value

    def rule(G):
        X.grad += G * _act_derivative(x, kind)

    return _node(_act_forward(x, kind), (X,), rule)


def _row_max(x) -> np.ndarray:
    """Row maxima as an n x 1 column, folded over the columns with
    np.maximum: numpy's reduction along a short row axis costs some thirty
    elementwise maxima of the whole column. It equals x.max(axis=1,
    keepdims=True) except that a tie of -0.0 and +0.0 may give the other
    zero, which neither softmax below can show: they subtract the maximum
    and exponentiate, and exp(-0.0) == exp(+0.0)."""
    m = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j:j + 1], out=m)
    return m


def _row_sum(x) -> np.ndarray:
    """x.sum(axis=1, keepdims=True), bit for bit. For two columns, as in
    every exit decision, one column add is far faster than numpy's reduction
    along so short an axis; numpy's sum starts from +0.0, so two -0.0 sum to
    +0.0, hence the + 0.0."""
    if x.shape[1] != 2:
        return x.sum(axis=1, keepdims=True)
    return x[:, :1] + x[:, 1:] + 0.0


def row_log_softmax(X: DiffValue) -> DiffValue:
    """Per-row x - max(x) - log sum exp(x - max); exp of a row sums to 1."""
    x = X.value
    if x.shape[1] < 1:
        raise ValueError("row_log_softmax needs at least one column")
    shifted = x - _row_max(x)
    lse = np.log(_row_sum(np.exp(shifted)))
    out = shifted - lse

    def rule(G):
        X.grad += G - np.exp(out) * _row_sum(G)

    return _node(out, (X,), rule)


def softmax_rows(X: DiffValue) -> DiffValue:
    """Per-row softmax, computed through the shifted exponential."""
    x = X.value
    shifted = x - _row_max(x)
    e = np.exp(shifted)
    s = e / _row_sum(e)

    def rule(G):
        X.grad += s * (G - _row_sum(G * s))

    return _node(s, (X,), rule)


def segment_mean(H: DiffValue, seg: Segments) -> DiffValue:
    """Mean of each segment's rows, one output row per segment.

    seg is a graphs.Segments over H's rows, as a graph-set bundle carries;
    no segment may be empty. Each mean is the segment's sum under the
    Segments rule divided by its row count.
    """
    if seg.offsets[-1] != H.shape[0] or seg.empty.size:
        raise ValueError(f"segments must cover the {H.shape[0]} rows and none "
                         f"may be empty")
    counts = np.diff(seg.offsets)[:, None]
    val = seg.sum_rows(H.value) / counts

    def rule(G):
        H.grad += seg.spread(G / counts)

    return _node(val, (H,), rule)


def segment_spread(A: DiffValue, seg: Segments) -> DiffValue:
    """Row i of A copied over the rows of segment i, as a member graph's tau
    over its nodes; the gradient sums them back by the Segments rule."""
    if A.shape[0] != seg.offsets.size - 1:
        raise ValueError(f"{A.shape[0]} rows for {seg.offsets.size - 1} segments")

    def rule(G):
        A.grad += seg.sum_rows(G)

    return _node(seg.spread(A.value), (A,), rule)


# ------------------------------------------------------------- elementwise ops

def add(A: DiffValue, B: DiffValue) -> DiffValue:
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")

    def rule(G):
        A.grad += G
        B.grad += G

    return _node(A.value + B.value, (A, B), rule)


def sub(A: DiffValue, B: DiffValue) -> DiffValue:
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")

    def rule(G):
        A.grad += G
        B.grad -= G

    return _node(A.value - B.value, (A, B), rule)


def neg(A: DiffValue) -> DiffValue:
    def rule(G):
        A.grad -= G

    return _node(-A.value, (A,), rule)


def smul(A: DiffValue, c: float) -> DiffValue:
    c = float(c)

    def rule(G):
        A.grad += c * G

    return _node(c * A.value, (A,), rule)


def add_scalar(A: DiffValue, c: float) -> DiffValue:
    c = float(c)

    def rule(G):
        A.grad += G

    return _node(A.value + c, (A,), rule)


def mul(A: DiffValue, B: DiffValue) -> DiffValue:
    """Elementwise product of same-shape matrices."""
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")

    def rule(G):
        A.grad += G * B.value
        B.grad += G * A.value

    return _node(A.value * B.value, (A, B), rule)


def mul_const(A: DiffValue, M) -> DiffValue:
    """Elementwise product with a constant matrix of the same shape."""
    M = _as_matrix(M)
    if M.shape != A.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {M.shape}")

    def rule(G):
        A.grad += G * M

    return _node(A.value * M, (A,), rule)


def abs_val(A: DiffValue) -> DiffValue:
    """|x| with subgradient 0 at 0."""
    sign = np.sign(A.value)

    def rule(G):
        A.grad += G * sign

    return _node(np.abs(A.value), (A,), rule)


def scale_rows(A: DiffValue, t: DiffValue) -> DiffValue:
    """Row-wise scaling: out[i] = t[i,0] * A[i]; t is an n x 1 column."""
    if t.shape != (A.shape[0], 1):
        raise ValueError(f"t must be {A.shape[0]} x 1, got {t.shape}")

    def rule(G):
        A.grad += G * t.value
        t.grad += _row_sum(G * A.value)

    return _node(A.value * t.value, (A, t), rule)


def add_scaled_rows(H: DiffValue, S: DiffValue, t: DiffValue) -> DiffValue:
    """out[i] = H[i] + t[i,0] * S[i], with t[i,0] == 0 copying row i verbatim.

    The zero-step row is copied, not recomputed as H + 0*S, so gating a row off
    preserves it bit for bit (including signed zeros). A step_column
    multiplies as its one float.
    """
    if H.shape != S.shape:
        raise ValueError(f"shape mismatch {H.shape} vs {S.shape}")
    if t.shape != (H.shape[0], 1):
        raise ValueError(f"t must be {H.shape[0]} x 1, got {t.shape}")
    tv = t.step if isinstance(t, _StepColumn) else t.value
    val = H.value + tv * S.value
    frozen = (t.value[:, 0] == 0.0)
    if frozen.any():
        val[frozen] = H.value[frozen]

    def rule(G):
        if H.requires_grad:
            H.grad += G
        if S.requires_grad:
            S.grad += G * tv
        if t.requires_grad:
            t.grad += (G * S.value).sum(axis=1, keepdims=True)

    return _node(val, (H, S, t), rule)


def transpose(A: DiffValue) -> DiffValue:
    def rule(G):
        A.grad += G.T

    return _node(A.value.T.copy(), (A,), rule)


def col_slice(A: DiffValue, j: int) -> DiffValue:
    """Column j of A as an n x 1 matrix."""
    if not (0 <= j < A.shape[1]):
        raise ValueError(f"column {j} out of range for shape {A.shape}")

    def rule(G):
        A.grad[:, j:j + 1] += G

    return _node(A.value[:, j:j + 1].copy(), (A,), rule)


def where_rows(mask, A: DiffValue, B: DiffValue) -> DiffValue:
    """Row select: out[i] = A[i] where mask[i] else B[i]; mask is constant."""
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    sel = np.asarray(mask, dtype=bool)
    if sel.shape != (A.shape[0],):
        raise ValueError("mask length must equal the row count")
    val = np.where(sel[:, None], A.value, B.value)

    def rule(G):
        if A.requires_grad:
            np.add(A.grad, G, out=A.grad, where=sel[:, None])
        if B.requires_grad:
            np.add(B.grad, G, out=B.grad, where=~sel[:, None])

    return _node(val, (A, B), rule)


def sum_all(A: DiffValue) -> DiffValue:
    def rule(G):
        A.grad += G[0, 0]

    return _node(np.array([[A.value.sum()]]), (A,), rule)


def dspmm(a, H: DiffValue) -> DiffValue:
    """Sparse arc-matrix times DiffValue, a @ H; the arc values are constants.

    Backward runs one transposed product per node on its readers' summed
    gradient, so readers of one a @ H (both exit heads) share one node.
    """
    def rule(G):
        H.grad += _spmm_value(a, G, transpose=True)

    return _node(_spmm_value(a, H.value), (H,), rule)


def act_update(H: DiffValue, W: DiffValue | None, terms, inner: str | None, outer: str,
               agg=None) -> DiffValue:
    """outer(S + terms[0] + terms[1] + ... [+ a @ (H @ Ws)]), summed left to
    right, as one node that keeps only its output.

    The self term S is -inner(H @ W), or H @ W when inner is None; W=None
    leaves it out, and the node is then outer(a @ (H @ Ws)), which takes no
    terms and no inner. A term is n x m, or a 1 x m row, a bias whose
    gradient sums the rows. agg, when given, is the pair (a, Ws): the
    sparse aggregate a @ (H @ Ws) joins as the last term. Its value is
    dspmm's, taken without a node, and this node differentiates it itself.

    Values and gradients are bit for bit those of the chain it replaces,
    with P the aggregate dspmm(a, matmul_add(H, Ws)):

    - sas: activation_apply(add(... add(neg(activation_apply(
      matmul_add(H, W), inner)), terms[0]) ..., P), outer);
    - graff and adgn (inner None): activation_apply(add(matmul_add(H, W, b),
      P), outer), b the one row term of adgn's bias;
    - gcn (W None): activation_apply(P, outer).

    The tape is that chain's with the interior nodes left out, so backward
    visits every other node in the same order and every accumulator
    receives the same contributions in the same order. The node keeps
    neither H @ W, nor the aggregate, nor the argument of outer, except that
    softplus, whose derivative cannot be read from its output, keeps its
    argument. The rule reads outer's derivative from the output and
    recomputes H @ W for inner's. Its first run keeps nothing, so a one-shot
    sweep holds nothing extra; the second run, on a tape swept again, keeps
    outer's derivative and inner's negated, when there is an inner, which
    depend only on the forward, and later runs reuse them.
    """
    terms = tuple(terms)
    if W is None and (terms or inner is not None or agg is None):
        raise ValueError("without W, act_update takes the aggregate alone")
    if W is not None and H.shape[1] != W.shape[0]:
        raise ValueError(f"inner dims disagree: {H.shape} @ {W.shape}")
    m = (agg[1] if W is None else W).shape[1]
    if agg is not None and agg[1].shape != (H.shape[1], m):
        raise ValueError(f"aggregate weight {agg[1].shape} does not match H @ W")
    for t in terms:
        if t.shape not in ((H.shape[0], m), (1, m)):
            raise ValueError(f"term shape {t.shape} does not match H @ W")
    if inner not in (None, *ACTIVATION_KINDS) or outer not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation in {(inner, outer)}")
    parents = (H,) if W is None else (H, W, *terms)
    x = None if W is None else H.value @ W.value
    if inner is not None:
        x = -_act_forward(x, inner)
    for t in terms:
        x = x + t.value
    if agg is not None:
        a, Ws = agg
        with no_grad():
            s = dspmm(a, DiffValue(H.value @ Ws.value)).value
        x = s if x is None else np.add(x, s, out=x)
        parents += (Ws,)
    y = _act_forward(x, outer)
    arg = x if outer == "softplus" else None
    del x
    kept = []       # outer' and -inner', from the second run on
    ran = False

    def d_outer():
        return _act_derivative(arg, outer) if arg is not None else _output_derivative(y, outer)

    def d_inner():
        # negated, as the self term is -inner(H @ W): g * -d is -(g * d)
        # bit for bit, since rounding is symmetric in sign
        if inner is None:
            return None
        d = _act_derivative(H.value @ W.value, inner)
        return np.negative(d, out=d)

    def rule(G):
        nonlocal ran
        if ran and not kept:
            kept.extend((d_outer(), d_inner()))
        ran = True
        # the first run drops each derivative as soon as it is used
        g = G * (kept[0] if kept else d_outer())
        for t in reversed(terms):
            if t.requires_grad:
                t.grad += g if t.shape == g.shape else g.sum(axis=0, keepdims=True)
        if W is not None:
            gv = g if inner is None else g * (kept[1] if kept else d_inner())
            if H.requires_grad:
                H.grad += gv @ W.value.T
            if W.requires_grad:
                W.grad += H.value.T @ gv
        if agg is not None and (H.requires_grad or Ws.requires_grad):
            # g + 0.0 sends -0.0 to +0.0, as the accumulator of a separate
            # aggregate node would, so the transposed sums keep their zeros
            GM = _spmm_value(a, g + 0.0, transpose=True)
            if H.requires_grad:
                H.grad += GM @ Ws.value.T
            if Ws.requires_grad:
                Ws.grad += H.value.T @ GM

    return _node(y, parents, rule)


def act_matmul_add(X: DiffValue, kind: str, W: DiffValue,
                   b: DiffValue | None = None) -> DiffValue:
    """matmul_add(activation_apply(X, kind), W, b) as one node; backward
    recomputes the activation instead of keeping it.

    Values, gradients and the order of backward are those of the pair it
    replaces, as for act_update.
    """
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation '{kind}', expected one of {ACTIVATION_KINDS}")
    if X.shape[1] != W.shape[0]:
        raise ValueError(f"inner dims disagree: {X.shape} @ {W.shape}")
    if b is not None and b.shape != (1, W.shape[1]):
        raise ValueError(f"bias shape {b.shape} must be {(1, W.shape[1])}")
    val = _act_forward(X.value, kind) @ W.value
    if b is not None:
        val += b.value

    def rule(G):
        W.grad += _act_forward(X.value, kind).T @ G
        if b is not None:
            b.grad += G.sum(axis=0, keepdims=True)
        X.grad += (G @ W.value.T) * _act_derivative(X.value, kind)

    return _node(val, (X, W) if b is None else (X, W, b), rule)


# ------------------------------------------------------------------- traversal

def _topo_order(root: DiffValue):
    """Iterative post-order over the tape (deep graphs exceed recursion limits)."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: DiffValue, seed=None, release: bool = False) -> None:
    """Reverse sweep from a scalar root (or from an explicit seed matrix).

    After the sweep, every reachable leaf with requires_grad holds the sum of
    all path contributions in .grad, added on top of whatever was there.
    release=True frees each interior node's gradient, backward rule and
    parent links as soon as its rule has run; the sums are the same, values
    stay readable, but the tape cannot be swept again.
    """
    if seed is None:
        if root.shape != (1, 1):
            raise ValueError(f"backward needs a 1 x 1 root, got {root.shape}")
        seed = np.ones((1, 1))
    else:
        seed = _as_matrix(seed)
        if seed.shape != root.shape:
            raise ValueError("seed shape must match the root")
    below = root._sweep
    if below is None:
        below = _topo_order(root)[-2::-1]     # the root is last in post-order
    root._sweep = None if release else below
    order = [root, *below]
    del below
    # interior accumulators start fresh each sweep; leaves keep accumulating
    for node in order:
        if node.backward_rule is not None:
            node._grad = None
    root.grad = root.grad + seed
    for i, node in enumerate(order):
        if node.backward_rule is not None and node.requires_grad:
            node.backward_rule(node.grad)
        if release:
            order[i] = None
            if node.backward_rule is not None:
                node._grad = node.backward_rule = None
                node.parents = ()


def zero_grads(params) -> None:
    """Explicitly reset leaf accumulators (call between optimizer steps)."""
    for p in params:
        p.grad[...] = 0.0


def fd_check(f, params, h: float = 1e-5) -> float:
    """Max relative disagreement between backward and central differences.

    f() must rebuild the computation from the current parameter values and
    return the scalar root DiffValue. Returns
    max_i |fd_i - grad_i| / max(1e-8, |fd_i| + |grad_i|) over every coordinate
    of every parameter.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = list(params)
    zero_grads(params)
    root = f()
    backward(root)
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.value.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().value[0, 0])
            flat[i] = orig - h
            fm = float(f().value[0, 0])
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            rel = abs(fd - gflat[i]) / max(1e-8, abs(fd) + abs(gflat[i]))
            worst = max(worst, rel)
    return worst
