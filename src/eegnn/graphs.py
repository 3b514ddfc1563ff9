"""Graph storage, normalization, synthetic generators, and file I/O: the
graph reader and write_output, the one writer every output file goes through.

Undirected graphs are stored as CSR over directed arcs: every undirected edge
{u,v} appears as the two arcs (u,v) and (v,u). Per-arc edge features duplicate
the same row onto both arcs of a pair, which keeps one storage layout for both
the normalized adjacency product and the incidence aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
import json
from pathlib import Path
import sys

import numpy as np

__all__ = [
    "Graph",
    "Segments",
    "ArcMatrix",
    "canonicalize",
    "make_graph",
    "validate_graph",
    "degrees",
    "arc_list",
    "arc_rows",
    "pair_index",
    "disjoint_union",
    "norm_arc_weights",
    "norm_adj",
    "mean_adj",
    "spmm",
    "incidence_aggregate",
    "edge_homophily",
    "gen_minesweeper_grid",
    "gen_sbm",
    "write_output",
    "json_text",
    "save_graph",
    "read_object",
    "read_count",
    "read_numbers",
    "read_masks",
    "load_graph_fields",
]

SPLITS = ("train", "val", "test")


@dataclass
class Graph:
    """CSR-stored undirected graph with features, labels, and split masks.

    Invariants (enforced by canonicalize + validate_graph):
    no self-loops; arc (u,v) present iff (v,u) present; col_indices sorted
    ascending within each row; paired arcs carry identical edge-feature rows.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    X: np.ndarray
    E_feat: np.ndarray | None = None
    y: np.ndarray | None = None
    masks: dict[str, np.ndarray] | None = None

    @property
    def n_arcs(self) -> int:
        return int(self.col_indices.shape[0])

    @cached_property
    def arc_segments(self) -> "Segments":
        """Each row's arcs as Segments, built once: every arc operator's layout."""
        return Segments.from_offsets(self.row_offsets)


@dataclass(frozen=True)
class Segments:
    """Runs of consecutive terms, and the one rule by which each run is summed.

    Segment i holds terms offsets[i]:offsets[i + 1]. It sums them as
    a_0 + (((a_1 + a_2) + a_3) + ...): its first term plus the rest, added
    left to right; an empty segment sums to 0. Every graph reduction of the
    kit follows it: spmm and incidence_aggregate over Graph.arc_segments,
    segment_mean and segment_spread's gradient over a graph set's members.

    sum runs it over jagged diagonals: rows holds the non-empty segments by
    falling length, and diagonal k, positions bounds[k]:bounds[k + 1] of
    order, holds the k-th term of the first bounds[k + 1] - bounds[k] of
    them, the ones longer than k. It costs one vectorised add per diagonal,
    so its Python-level cost grows with the longest segment, not with the
    number of segments; empty holds the empty segments.
    """

    offsets: np.ndarray
    rows: np.ndarray
    order: np.ndarray
    bounds: tuple
    empty: np.ndarray

    @classmethod
    def from_offsets(cls, offsets) -> "Segments":
        offsets = np.asarray(offsets, dtype=np.int64)
        length = np.diff(offsets)
        rows = np.flatnonzero(length)
        rows = rows[np.argsort(-length[rows], kind="stable")]
        size = length[rows]
        # each term's place k in its segment, the segments taken in rows
        # order; the term of the r-th of rows goes to position bounds[k] + r
        place = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        bounds = np.concatenate([[0], np.cumsum(np.bincount(place))])
        order = np.empty(place.size, dtype=np.int64)
        order[bounds[place] + np.repeat(np.arange(rows.size), size)] = \
            np.repeat(offsets[rows], size) + place
        return cls(offsets=offsets, rows=rows, order=order,
                   bounds=tuple(bounds.tolist()), empty=np.flatnonzero(length == 0))

    def sum(self, term, width: int) -> np.ndarray:
        """One row per segment: the sum of its terms by the rule above.

        term(lo, hi) returns the terms at positions lo:hi of order, one row
        of the given width each, as a new array that sum may overwrite; it
        is called once per diagonal, so no temporary outgrows one term per
        position of the longest diagonal.
        """
        out = np.empty((self.offsets.size - 1, width))
        out[self.empty] = 0.0               # every other row is written below
        b = self.bounds
        if len(b) > 1:
            first = term(b[0], b[1])
            if len(b) > 2:
                rest = term(b[1], b[2])
                for k in range(2, len(b) - 1):
                    rest[:b[k + 1] - b[k]] += term(b[k], b[k + 1])
                first[:b[2] - b[1]] += rest
            out[self.rows] = first
        return out

    def sum_rows(self, X: np.ndarray) -> np.ndarray:
        """The sum of each segment of X's rows."""
        return self.sum(lambda lo, hi: X.take(self.order[lo:hi], axis=0), X.shape[1])

    def spread(self, X: np.ndarray) -> np.ndarray:
        """Row i of X copied over each term of segment i; sum_rows is its gradient."""
        return np.repeat(X, np.diff(self.offsets), axis=0)


@dataclass
class ArcMatrix:
    """diag(row_scale) . A . diag(col_scale) on a symmetric CSR arc pattern A
    of 0/1 entries; a scale of None is the identity. Its transpose is
    diag(col_scale) . A . diag(row_scale), on the same pattern.

    values[k] is the entry on arc k = (u, v), row_scale[u] * col_scale[v],
    computed once for readers; spmm never reads it. segments is the graph's
    arc_segments and sweep_cols its col_indices in their diagonal order,
    which both directions of spmm sweep.

    copies > 1 makes it the operator of that many copies of the graph, side
    by side with no arc between them and interleaved: copy k of node v is
    row v * copies + k. spmm then takes n * copies rows and runs once on
    the graph's own arcs, each of its rows holding every copy of one node.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    row_scale: np.ndarray | None
    col_scale: np.ndarray | None
    segments: Segments = field(repr=False, compare=False)
    copies: int = 1
    values: np.ndarray = field(init=False)
    sweep_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ones = np.ones(self.n)
        r, c = (ones if s is None else s for s in (self.row_scale, self.col_scale))
        self.values = np.repeat(r, np.diff(self.row_offsets)) * c[self.col_indices]
        self.sweep_cols = self.col_indices[self.segments.order]


def canonicalize(edges, n: int) -> Graph:
    """Build a canonical CSR skeleton from an edge list of integer [u, v] pairs.

    Self-loops are dropped, duplicates merged, and the reverse of every arc is
    added, so the result satisfies all Graph invariants: arcs ascend by the key
    u * n + v. Node features default to an empty n x 0 matrix.
    """
    shape_error = "edges must be a list of [u, v] pairs of 64-bit integers"
    try:
        e = np.asarray(edges)
    except (ValueError, OverflowError) as exc:     # ragged rows
        raise ValueError(shape_error) from exc
    if e.shape == (0,):
        e = e.reshape(0, 2).astype(np.int64)
    # numpy reads true as 1 beside integers; refused, as read_numbers does
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu" or (
            not isinstance(edges, np.ndarray)
            and bool in set(map(type, chain.from_iterable(edges)))):
        raise ValueError(shape_error)
    bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    if bad.size:
        u, v = e[bad[0]].tolist()
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    u, v = e[e[:, 0] != e[:, 1]].astype(np.int64).T
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    # sort and drop repeats rather than np.unique, which imports numpy.ma
    src, dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    row_offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return Graph(n=n, row_offsets=row_offsets, col_indices=dst,
                 X=np.zeros((n, 0)))


def make_graph(edges, n, X, E_edge=None, y=None, masks=None) -> Graph:
    """Canonicalize an edge list and attach features, labels, and masks.

    E_edge, when given, holds one feature row per canonical undirected edge,
    in the CSR order of its u < v arc; the row is duplicated onto both arcs
    of the pair.
    """
    g = canonicalize(edges, n)
    g.X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if g.X.shape[0] != n:
        raise ValueError(f"X has {g.X.shape[0]} rows, expected n={n}")
    if E_edge is not None:
        E_edge = np.asarray(E_edge, dtype=np.float64)
        first = arc_rows(g) < g.col_indices
        edge = np.cumsum(first) - 1          # the edge number of each u < v arc
        if E_edge.ndim != 2 or E_edge.shape[0] != edge.size // 2:
            raise ValueError(f"E_edge has shape {E_edge.shape}, expected one row per "
                             f"edge ({edge.size // 2})")
        g.E_feat = E_edge[np.where(first, edge, edge[pair_index(g)])]
    if y is not None:
        y = np.asarray(y)
        g.y = y
    if masks is not None:
        g.masks = {k: np.asarray(m, dtype=bool) for k, m in masks.items()}
    return g


def degrees(g: Graph) -> np.ndarray:
    return np.diff(g.row_offsets)


def arc_rows(g) -> np.ndarray:
    """Source node of each arc, in CSR order."""
    return np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_offsets))


def arc_list(g: Graph):
    """Directed arcs as (u, v) pairs in CSR order."""
    return list(zip(arc_rows(g).tolist(), g.col_indices.tolist()))


def pair_index(g) -> np.ndarray:
    """For each arc k = (u,v), the CSR index of the reverse arc (v,u)."""
    rows = arc_rows(g)
    keys = rows * g.n + g.col_indices          # ascending in CSR order
    rev = g.col_indices * g.n + rows
    idx = np.searchsorted(keys, rev)
    if not np.array_equal(keys[idx], rev):
        raise ValueError("arc set is not symmetric")
    return idx


def disjoint_union(graphs) -> Graph:
    """One graph holding the given graphs side by side, with no arc between
    them: graph i's nodes follow graph i - 1's, each keeping its arcs in CSR
    order, so every row of the union's operators is its member's row, bit
    for bit. Node and edge features stack; the members must share their
    widths. Labels and masks are not carried over.
    """
    offsets = np.cumsum([0] + [g.n for g in graphs])
    arcs = np.cumsum([0] + [g.n_arcs for g in graphs])
    row_offsets = np.concatenate([[0]] + [g.row_offsets[1:] + a for g, a in zip(graphs, arcs)])
    cols = np.concatenate([g.col_indices + o for g, o in zip(graphs, offsets)])
    E = None if graphs[0].E_feat is None else np.vstack([g.E_feat for g in graphs])
    return Graph(n=int(offsets[-1]), row_offsets=row_offsets, col_indices=cols,
                 X=np.vstack([g.X for g in graphs]), E_feat=E)


def validate_graph(g: Graph) -> None:
    """Check every structural invariant; raises ValueError on the first breach."""
    if g.row_offsets.shape != (g.n + 1,):
        raise ValueError("row_offsets length must be n+1")
    if g.row_offsets[0] != 0 or np.any(np.diff(g.row_offsets) < 0):
        raise ValueError("row_offsets must start at 0 and be non-decreasing")
    if g.row_offsets[-1] != g.col_indices.shape[0]:
        raise ValueError("row_offsets[-1] must equal the arc count")
    rows = arc_rows(g)
    if np.any(rows == g.col_indices):
        raise ValueError("self-loop found")
    # arcs k and k+1 out of order inside one row; rows ascend, so the first
    # such pair names the first bad row
    unsorted = np.flatnonzero((np.diff(g.col_indices) <= 0) & (rows[1:] == rows[:-1]))
    if unsorted.size:
        raise ValueError(f"col_indices not strictly sorted in row {rows[unsorted[0]]}")
    pi = pair_index(g)   # raises if any reverse arc is missing
    if g.X.shape[0] != g.n:
        raise ValueError("X row count must equal n")
    if g.E_feat is not None:
        if g.E_feat.shape[0] != g.n_arcs:
            raise ValueError("E_feat must carry one row per arc")
        if not np.array_equal(g.E_feat, g.E_feat[pi]):
            raise ValueError("paired arcs must carry identical edge-feature rows")
    if g.y is not None and g.y.ndim == 1 and g.y.shape[0] != g.n:
        raise ValueError("node-level y must have length n")
    if g.masks is not None:
        for name in SPLITS:
            if name not in g.masks:
                raise ValueError(f"masks missing split '{name}'")
            if g.masks[name].shape != (g.n,):
                raise ValueError(f"mask '{name}' must have length n")


def norm_arc_weights(g: Graph) -> np.ndarray:
    """(d_u * d_v)^-0.5 for each arc (u,v), in CSR order, all in (0, 1]. No
    arc touches an isolated node, so a graph with one still has finite
    weights on every arc."""
    d = degrees(g)
    return 1.0 / np.sqrt(d[arc_rows(g)] * d[g.col_indices])


def norm_adj(g: Graph) -> ArcMatrix:
    """Symmetric degree-normalized adjacency of a canonical graph,
    D^-1/2 A D^-1/2: both scales are d^-1/2, zero diagonal.

    Isolated nodes are a hard error: the normalization is undefined at degree
    zero and silently adding self-loops would break the no-self-loop premise
    the stability diagnostics rely on. Drop such nodes before calling.
    """
    d = degrees(g)
    if np.any(d == 0):
        bad = int(np.flatnonzero(d == 0)[0])
        raise ValueError(f"isolated node {bad} has degree 0; drop it before norm_adj")
    s = 1.0 / np.sqrt(d)
    return ArcMatrix(n=g.n, row_offsets=g.row_offsets, col_indices=g.col_indices,
                     row_scale=s, col_scale=s, segments=g.arc_segments)


def mean_adj(g: Graph) -> ArcMatrix:
    """Row-stochastic neighbor-mean operator D^-1 A: entry 1/d_u on arc (u,v)."""
    d = degrees(g)
    if np.any(d == 0):
        bad = int(np.flatnonzero(d == 0)[0])
        raise ValueError(f"isolated node {bad} has degree 0; drop it before mean_adj")
    return ArcMatrix(n=g.n, row_offsets=g.row_offsets, col_indices=g.col_indices,
                     row_scale=1.0 / d, col_scale=None, segments=g.arc_segments)


def spmm(a, H: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Sparse arc-matrix times dense matrix, diag(r) . A . diag(c) . H, with
    r, c = a.row_scale, a.col_scale (swapped when transpose).

    H's rows are scaled by c once; out[u] = the sum over arcs (u,v) of those
    rows v, by the Segments rule over the row's arcs in CSR order (the first
    term plus the rest, left to right); then out's rows are scaled by r.
    Each diagonal of a.segments gathers its rows in one new array and adds
    it, with no multiply, so no temporary outgrows n x width; a row of
    degree d, such as a hub of a heterophilic graph, costs d such
    vectorised adds.

    With a.copies = k, H has n * k rows, copy j of node v at row v * k + j,
    and the product runs once on its (n, k * width) view: each output row
    sums the same terms in the same order as on the disjoint union of k
    copies, so it is that union's product bit for bit, with k times fewer,
    k times wider gathers.
    """
    H = np.asarray(H, dtype=np.float64)
    rows = a.n * a.copies
    if H.shape[0] != rows:
        raise ValueError(f"H has {H.shape[0]} rows, expected n * copies = "
                         f"{a.n} * {a.copies} = {rows}")
    width = H.shape[1]
    H = H.reshape(a.n, a.copies * width)
    r, c = (a.col_scale, a.row_scale) if transpose else (a.row_scale, a.col_scale)
    if c is not None:
        H = H * c[:, None]
    out = a.segments.sum(lambda lo, hi: H.take(a.sweep_cols[lo:hi], axis=0), H.shape[1])
    if r is not None:
        out *= r[:, None]
    return out.reshape(rows, width)


def incidence_aggregate(g: Graph, E_feat: np.ndarray) -> np.ndarray:
    """Per-node sum of incident edge features (each edge counted once per endpoint).

    Implemented as a sum over each node's stored arcs, by the Segments rule
    on g.arc_segments, which equals the dense incidence product because
    paired arcs carry identical rows.
    """
    E_feat = np.asarray(E_feat, dtype=np.float64)
    if E_feat.shape[0] != g.n_arcs:
        raise ValueError(f"E_feat has {E_feat.shape[0]} rows, expected {g.n_arcs}")
    return g.arc_segments.sum_rows(E_feat)


def edge_homophily(g: Graph) -> float:
    """Fraction of arcs whose endpoints share a label."""
    if g.y is None:
        raise ValueError("edge_homophily needs node labels")
    rows = arc_rows(g)
    if g.n_arcs == 0:
        return 0.0
    return float(np.mean(g.y[rows] == g.y[g.col_indices]))


# ------------------------------------------------------------------ generators

def gen_minesweeper_grid(rows: int, cols: int, mine_prob: float, seed: int,
                         unknown_frac: float = 0.5) -> Graph:
    """Minesweeper-style grid: 8-neighbor lattice, mine labels, count features.

    Node feature = one-hot count of mined neighbors (9 bins) plus an "unknown"
    indicator; a random unknown_frac of nodes get only the indicator with the
    count bins zeroed. Label = node is a mine. Deterministic in seed.
    """
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must both be >= 2")
    if not (0 < mine_prob < 1):
        raise ValueError("mine_prob must lie strictly between 0 and 1")
    if not (0 <= unknown_frac <= 1):
        raise ValueError("unknown_frac must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = rows * cols
    mines = rng.random(n) < mine_prob
    r, c = np.divmod(np.arange(n), cols)
    edges = []
    for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):   # right and the three below
        u = np.flatnonzero((r + dr < rows) & (0 <= c + dc) & (c + dc < cols))
        edges.append(np.stack([u, u + dr * cols + dc], axis=1))
    g = canonicalize(np.concatenate(edges), n)      # adds the reverse arcs, sorts
    counts = g.arc_segments.sum_rows(mines[g.col_indices, None] * 1.0)[:, 0].astype(np.int64)
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


def gen_sbm(sizes, p_in: float, p_out: float, seed: int,
            feature_dim: int = 8, feature_shift: float = 1.0) -> Graph:
    """Stochastic block model with block labels and mean-shifted Gaussian features."""
    sizes = [int(s) for s in sizes]
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError("p_in and p_out must lie in [0, 1]")
    if min(sizes, default=0) < 0 or feature_dim < 0:
        raise ValueError("sizes and feature_dim must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for u in range(n):
        # one double per pair u < v, row by row, reads the stream as one draw
        # per pair in row-major order would
        v = np.arange(u + 1, n)
        keep = rng.random(v.size) < np.where(labels[v] == labels[u], p_in, p_out)
        edges.append(np.stack([np.full(keep.sum(), u), v[keep]], axis=1))
    g = canonicalize(np.concatenate(edges), n)
    X = rng.normal(size=(n, feature_dim))
    shift_dirs = rng.normal(size=(len(sizes), feature_dim))
    norms = np.linalg.norm(shift_dirs, axis=1, keepdims=True)
    shift_dirs = shift_dirs / np.where(norms == 0, 1.0, norms)
    X = X + feature_shift * shift_dirs[labels]
    g.X = X
    g.y = labels.astype(np.int64)
    g.masks = _random_split(n, rng)
    return g


def _random_split(n, rng, frac_train=0.5, frac_val=0.25):
    perm = rng.permutation(n)
    n_train = int(round(frac_train * n))
    n_val = int(round(frac_val * n))
    masks = {k: np.zeros(n, dtype=bool) for k in SPLITS}
    masks["train"][perm[:n_train]] = True
    masks["val"][perm[n_train:n_train + n_val]] = True
    masks["test"][perm[n_train + n_val:]] = True
    return masks


# ------------------------------------------------------------------------- I/O

def write_output(path, text: str) -> None:
    """Write text to a new file at path, replacing whatever file was there.

    The kit's one writer. The old file is unlinked, not truncated and
    rewritten: ext4 flushes a file that is truncated and rewritten, or
    renamed over, when it is closed (its auto_da_alloc rule), which costs
    ~60 ms a file, against ~0.1 ms for a new one. So a link at path is
    replaced, not written through. Nothing is fsynced: every output can be
    rebuilt from its config and seed.
    """
    Path(path).unlink(missing_ok=True)
    Path(path).write_text(text)


def json_text(doc) -> str:
    """The kit's JSON output form: sorted keys, indent 2, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_graph(g: Graph, path) -> None:
    """Write a graph as a JSON document; round trips bit-exactly on all arrays."""
    validate_graph(g)
    rows = arc_rows(g)
    first = rows < g.col_indices
    doc = {"n": g.n, "edges": np.stack([rows[first], g.col_indices[first]], axis=1).tolist(),
           "x": g.X.tolist()}
    if g.E_feat is not None:
        doc["edge_attr"] = g.E_feat.tolist()
    if g.y is not None:
        doc["y"] = g.y.tolist()
    if g.masks is not None:
        doc["masks"] = {k: [bool(b) for b in g.masks[k]] for k in SPLITS}
    # compact, unlike json_text: json.dumps without indent runs the C encoder
    write_output(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _shown(v) -> str:
    """repr(v), cut to its first 40 characters."""
    text = repr(v)
    return text if len(text) <= 40 else text[:37] + "..."


# One reader per kind of value an input file holds; each raises a ValueError
# naming the value by name, as "field 'x'", "key 'feat_dim'" or "parameter
# cell.enc_b".

def read_object(name: str, value, keys=()) -> dict:
    """value, a JSON object holding every key of keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {_shown(value)}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValueError(f"{name} is missing key " + ", ".join(map(repr, missing)))
    return value


def read_count(name: str, value) -> int:
    """value, a non-negative integer under the config keys' integer rule: a
    JSON integer or an integral float such as 3.0, never true or false, and
    none beyond the float range."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {_shown(value)}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} is an integer beyond the float range")
    return value


def read_numbers(name: str, values, shape: tuple, want: str) -> np.ndarray:
    """values, a JSON array of finite numbers, as a float64 array of the
    given shape: None there takes any length, and a last ... any further
    axes; want says that shape in words. Only JSON integers and floats count
    as numbers, so a string such as "1.5" and true or false are refused.

    Each element's type is read in one pass over the array, after numpy has
    converted it and checked that its rows are of equal length.
    """
    not_numbers = f"{name} must hold numbers, in rows of equal length"
    try:
        a = np.array(values, dtype=np.float64)
    except OverflowError:                      # an integer beyond the float range
        raise ValueError(f"{name} must be finite") from None
    except (TypeError, ValueError):            # ragged rows, or not numbers
        raise ValueError(not_numbers) from None
    more = shape[-1] is ...
    dims = shape[:-1] if more else shape
    if a.ndim < len(dims) or (a.ndim > len(dims) and not more) or \
            any(d not in (None, size) for d, size in zip(dims, a.shape)):
        raise ValueError(f"{name} must {want}")
    flat = values
    for _ in range(a.ndim - 1):
        flat = chain.from_iterable(flat)
    if not set(map(type, flat)) <= {int, float}:
        raise ValueError(not_numbers)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def read_masks(value, n: int) -> dict:
    """The train, val and test masks of a JSON object, n elements each (one
    per node or per graph), read as bool arrays: each element true, false, 0
    or 1, checked by type, so 1.0, "no" and null are refused."""
    value = read_object("field 'masks'", value, SPLITS)
    masks = {}
    for name in SPLITS:
        items = value[name] if isinstance(value[name], list) else [value[name]]
        if not ({type(v) for v in items} <= {bool, int} and set(items) <= {0, 1}):
            raise ValueError(f"mask '{name}' must hold true/false or 0/1")
        masks[name] = np.asarray(value[name], dtype=bool)
        if masks[name].shape != (n,):
            raise ValueError(f"mask '{name}' must have length {n}")
    return masks


def load_graph_fields(doc) -> Graph:
    """Build a Graph from an already-parsed JSON object, through the readers
    above: x, edge_attr and y finite numbers, x and y one row per node, and
    edge_attr one row per arc, in the canonical CSR arc order, equal on the
    two arcs of an edge. A null edge_attr, y or masks counts as absent."""
    doc = read_object("graph document", doc, ("n", "edges", "x"))
    n = read_count("field 'n'", doc["n"])
    # x first: its rows bound n, so canonicalize never sizes arrays by an n
    # that no data backs
    X = read_numbers("field 'x'", doc["x"], (n, None), f"be an {n}-row matrix")
    g = canonicalize(doc["edges"], n)
    g.X = X
    if doc.get("edge_attr") is not None:
        g.E_feat = read_numbers("field 'edge_attr'", doc["edge_attr"], (g.n_arcs, None),
                                f"carry one row per arc of 'edges' ({g.n_arcs})")
        if not np.array_equal(g.E_feat, g.E_feat[pair_index(g)]):
            raise ValueError("field 'edge_attr' must carry equal rows on the two "
                             "arcs of an edge")
    if doc.get("y") is not None:
        g.y = read_numbers("field 'y'", doc["y"], (n, ...), f"have one row per node (n={n})")
    if doc.get("masks") is not None:
        g.masks = read_masks(doc["masks"], n)
    return g
