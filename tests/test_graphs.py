"""Graph container, normalization, generators, and file round trips."""

import os

import numpy as np
import pytest

import oracles
from eegnn import autodiff as ad
from eegnn.graphs import (ArcMatrix, Graph, Segments, arc_list, arc_rows,
                          canonicalize, degrees, disjoint_union, edge_homophily,
                          gen_minesweeper_grid, gen_sbm, incidence_aggregate,
                          make_graph, mean_adj, norm_adj, pair_index,
                          save_graph, spmm, validate_graph, write_output)
from eegnn.training import ConfigError, load_dataset


def path_graph(n):
    return canonicalize([(i, i + 1) for i in range(n - 1)], n)


def test_canonicalize_drops_self_loops_and_symmetrizes():
    g = canonicalize([(0, 0), (0, 1)], 2)
    assert arc_list(g) == [(0, 1), (1, 0)]


def test_canonicalize_merges_duplicates():
    g = canonicalize([(0, 1), (1, 0)], 2)
    assert arc_list(g) == [(0, 1), (1, 0)]


def test_canonicalize_csr_offsets():
    # edges {1,2} and {0,2}: arcs (0,2),(1,2),(2,0),(2,1), one per row for
    # nodes 0 and 1, two for node 2
    g = canonicalize([(2, 1), (0, 2)], 3)
    assert g.row_offsets.tolist() == [0, 1, 2, 4]
    assert g.col_indices.tolist() == [2, 2, 0, 1]


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonicalize([(0, 3)], 3)
    with pytest.raises(ValueError, match=r"edge \(-1,0\) out of range for n=3"):
        canonicalize([(-1, 0)], 3)
    with pytest.raises(ValueError, match=r"edge \(5,0\) out of range for n=3"):
        canonicalize([(0, 1), (5, 0), (-1, 0)], 3)


@pytest.mark.parametrize("edges", [[[0, True], [1, 2]], [[False, 1], [1, 2]],
                                   [[True, False]]])
def test_canonicalize_refuses_a_boolean_endpoint(edges):
    # numpy alone would read [0, true] as the edge (0, 1)
    with pytest.raises(ValueError, match=r"edges must be a list of \[u, v\] pairs"):
        canonicalize(edges, 3)


# the CLI's malformed-dataset test covers fractions, strings, objects,
# scalars, ragged lists and endpoints beyond int64
@pytest.mark.parametrize("edges", [[(True, False)], [(0, 1, 2)], [[]]])
def test_canonicalize_rejects_anything_but_integer_pairs(edges):
    with pytest.raises(ValueError, match="edges must be a list of \\[u, v\\] pairs"):
        canonicalize(edges, 3)


def test_canonicalize_idempotent():
    g = canonicalize([(4, 1), (1, 2), (2, 4), (0, 1)], 5)
    again = canonicalize(arc_list(g), 5)
    assert np.array_equal(g.row_offsets, again.row_offsets)
    assert np.array_equal(g.col_indices, again.col_indices)


def test_norm_adj_p2_unit_values():
    a = norm_adj(path_graph(2))
    assert a.values.tolist() == [1.0, 1.0]


def test_norm_adj_triangle_half():
    g = canonicalize([(0, 1), (1, 2), (0, 2)], 3)
    a = norm_adj(g)
    assert np.allclose(a.values, 0.5)
    assert len(a.values) == 6


def test_norm_adj_star_leaf_value():
    g = canonicalize([(0, 1), (0, 2), (0, 3)], 4)
    a = norm_adj(g)
    assert np.allclose(a.values, 1.0 / np.sqrt(3.0))


def test_norm_adj_isolated_node_is_named_error():
    g = canonicalize([(0, 1)], 3)
    with pytest.raises(ValueError, match="2"):
        norm_adj(g)


def test_spmm_p2_permutes():
    a = norm_adj(path_graph(2))
    out = spmm(a, np.array([[1.0], [0.0]]))
    assert out.tolist() == [[0.0], [1.0]]


def test_spmm_zero():
    g = canonicalize([(0, 1), (1, 2)], 3)
    out = spmm(norm_adj(g), np.zeros((3, 4)))
    assert not out.any()


def test_spmm_triangle_identity_columns():
    g = canonicalize([(0, 1), (1, 2), (0, 2)], 3)
    H = np.eye(3)
    out = spmm(norm_adj(g), H)
    for u in range(3):
        others = [v for v in range(3) if v != u]
        assert np.allclose(out[u], 0.5 * (H[others[0]] + H[others[1]]))


def test_spmm_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for seed in range(20):
        n = int(rng.integers(3, 50))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3 * n)]
        g = canonicalize(edges, n)
        if np.any(degrees(g) == 0):
            continue
        H = rng.normal(size=(n, 5))
        dense = oracles.dense_norm_adj(n, arc_list(g))
        assert np.abs(spmm(norm_adj(g), H) - dense @ H).max() <= 1e-12


def rule_spmm(a, H, transpose=False):
    """spmm's bit-level reference: the rows H[v] * c[v] gathered per arc,
    summed by oracles.segment_sum_loop one row at a time, each sum then
    times r[u]; r and c are the row and column scales, swapped transposed."""
    r, c = (a.col_scale, a.row_scale) if transpose else (a.row_scale, a.col_scale)
    H = np.asarray(H)
    if c is not None:
        H = H * c[:, None]
    out = oracles.segment_sum_loop(H[a.col_indices], a.row_offsets)
    return out if r is None else out * r[:, None]


def hard_input(rng, n, width):
    """Magnitudes from 1e-300 to 1e300, with +0.0 and -0.0 sprinkled in."""
    H = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-300, 300, size=(n, width))
    H[rng.random((n, width)) < 0.15] = -0.0
    H[rng.random((n, width)) < 0.15] = 0.0
    return H


def assert_bits_equal(got, want, *context):
    # int64 views compare bits, so -0.0 and +0.0 differ
    assert got.shape == want.shape, context
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), context


def assert_spmm_bits_match(a, seed=0):
    rng = np.random.default_rng(seed)
    for width in (1, 2, 16, 32):
        for H in (hard_input(rng, a.n, width), rng.normal(size=(a.n, width))):
            for transpose in (False, True):
                assert_bits_equal(spmm(a, H, transpose=transpose),
                                  rule_spmm(a, H, transpose=transpose),
                                  width, transpose)


def test_spmm_bits_match_reduceat_on_grid():
    assert_spmm_bits_match(norm_adj(gen_minesweeper_grid(30, 30, 0.2, seed=0)))


def test_spmm_bits_match_reduceat_on_dense_sbm():
    g = gen_sbm((15, 15), 0.75, 0.25, seed=12)
    d = degrees(g)
    assert d.min() >= 10 and d.max() <= 19
    assert_spmm_bits_match(norm_adj(g), seed=1)
    assert_spmm_bits_match(mean_adj(g), seed=2)


def hub_edges():
    """Hub 0 of degree 8, hub 9 of degree 9 and hub 19 of degree 64 over
    nodes 0..83; each hub's leaves form a path."""
    edges = [(0, v) for v in range(1, 9)] + [(9, v) for v in range(10, 19)]
    edges += [(19, v) for v in range(20, 84)]
    return edges + [(v, v + 1) for v in (*range(1, 8), *range(10, 18), *range(20, 83))]


def test_spmm_bits_match_reduceat_at_degrees_8_and_9():
    g = canonicalize(hub_edges(), 84)
    d = degrees(g)
    assert d[0] == 8 and d[9] == 9 and d[19] == 64
    assert_spmm_bits_match(norm_adj(g), seed=3)
    assert_spmm_bits_match(mean_adj(g), seed=4)


def test_spmm_bits_match_reduceat_with_empty_rows():
    rng = np.random.default_rng(5)
    # rows 1, 3 and 6 have no arcs; row 5 has ten and row 8 seventy
    row_offsets = np.array([0, 2, 2, 5, 5, 6, 16, 16, 19, 89])
    cols = np.concatenate([[1, 4], [0, 2, 7], [3], np.arange(10) % 9, [0, 4, 5],
                           rng.integers(0, 9, size=70)])
    a = ArcMatrix(n=9, row_offsets=row_offsets, col_indices=cols,
                  row_scale=rng.normal(size=9), col_scale=rng.normal(size=9),
                  segments=Segments.from_offsets(row_offsets))
    assert_spmm_bits_match(a, seed=6)
    assert not spmm(a, np.ones((9, 3)))[[1, 3, 6]].any()


def test_segment_mean_and_incidence_bits_match_the_rule():
    rng = np.random.default_rng(7)
    sizes = [1, 2, 3, 9, 70, 5]             # one segment per length class, and a hub
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    seg = Segments.from_offsets(offsets)
    for width in (1, 2, 16):
        for H in (hard_input(rng, offsets[-1], width),
                  rng.normal(size=(offsets[-1], width))):
            got = ad.segment_mean(ad.constant(H), seg).value
            want = oracles.segment_sum_loop(H, offsets) / np.array(sizes)[:, None]
            assert_bits_equal(got, want, width)
    g = canonicalize(hub_edges(), 90)       # nodes 84..89 have no arc
    for width in (1, 2, 16):
        E = hard_input(rng, g.n_arcs, width)
        assert_bits_equal(incidence_aggregate(g, E),
                          oracles.segment_sum_loop(E, g.row_offsets), width)


def interleaved(blocks):
    """k copies' rows, a (k, n, w) stack, laid out as ArcMatrix.copies reads
    them: copy j of node v at row v * k + j."""
    return blocks.transpose(1, 0, 2).reshape(-1, blocks.shape[2])


@pytest.mark.parametrize("graph", ["grid", "dense_sbm", "hubs"])
def test_spmm_on_copies_equals_the_disjoint_union_bit_for_bit(graph):
    g = {"grid": lambda: gen_minesweeper_grid(6, 6, 0.2, seed=0),   # degrees 3 to 8
         "dense_sbm": lambda: gen_sbm((15, 15), 0.75, 0.25, seed=12),
         "hubs": lambda: canonicalize(hub_edges(), 84)}[graph]()
    rng = np.random.default_rng(10)
    for build in (norm_adj, mean_adj):
        for k in (1, 2, 16):
            a, union = build(g), build(disjoint_union([g] * k))
            a.copies = k
            before = [id(x) for x in arrays_held(a)]
            for width in (1, 5, 32):
                # every other column of a wider array: not contiguous
                for step in (1, 2):
                    wide = hard_input(rng, k * g.n, step * width)
                    blocks = wide[:, ::step].reshape(k, g.n, width)
                    H = interleaved(wide.reshape(k, g.n, -1))[:, ::step]
                    assert step == 1 or not H.flags.c_contiguous
                    for transpose in (False, True):
                        want = spmm(union, blocks.reshape(-1, width), transpose=transpose)
                        assert_bits_equal(spmm(a, H, transpose=transpose),
                                          interleaved(want.reshape(k, g.n, width)),
                                          build.__name__, k, width, step, transpose)
            assert [id(x) for x in arrays_held(a)] == before


def test_spmm_on_copies_refuses_a_wrong_row_count():
    a = norm_adj(path_graph(5))
    a.copies = 3
    for rows in (5, 14, 16):
        with pytest.raises(ValueError, match=r"expected n \* copies = 5 \* 3 = 15"):
            spmm(a, np.ones((rows, 2)))
    assert spmm(a, np.ones((15, 2))).shape == (15, 2)


def test_mean_adj_transpose_uses_transposed_values():
    g = canonicalize([(0, 1), (0, 2), (1, 2), (0, 3)], 4)
    a = mean_adj(g)
    H = np.arange(8.0).reshape(4, 2)
    dense = np.zeros((4, 4))
    dense[arc_rows(g), g.col_indices] = a.values
    assert not np.array_equal(dense, dense.T)
    assert np.allclose(spmm(a, H, transpose=True), dense.T @ H)


def test_mean_adj_transpose_bits_match_the_weighted_arcs():
    """Transposed, mean_adj forms the products H[v] * (1/d_v) that weighting
    arc (u,v) by the reverse arc's entry did, summed in the same order."""
    rng = np.random.default_rng(9)
    for seed, g in enumerate((gen_minesweeper_grid(30, 30, 0.2, seed=0),
                              gen_sbm((15, 15), 0.75, 0.25, seed=12),
                              canonicalize(hub_edges(), 84))):
        a = mean_adj(g)
        weights = (1.0 / degrees(g)[arc_rows(g)].astype(np.float64))[pair_index(g)]
        for width in (1, 2, 16, 32):
            for H in (hard_input(rng, g.n, width), rng.normal(size=(g.n, width))):
                want = oracles.segment_sum_loop(weights[:, None] * H[g.col_indices],
                                                g.row_offsets)
                assert_bits_equal(spmm(a, H, transpose=True), want, seed, width)


def arrays_held(a):
    """Every array an ArcMatrix holds, directly or in a dict."""
    held = []
    for v in vars(a).values():
        held += [x for x in (v.values() if isinstance(v, dict) else [v])
                 if isinstance(x, np.ndarray)]
    return held


def test_spmm_leaves_no_per_width_array_on_the_matrix():
    g = gen_minesweeper_grid(4, 4, 0.2, seed=0)
    for a in (norm_adj(g), mean_adj(g)):
        before = [id(x) for x in arrays_held(a)]
        for width in (1, 3, 32):
            spmm(a, np.ones((g.n, width)))
            spmm(a, np.ones((g.n, width)), transpose=True)
        assert [id(x) for x in arrays_held(a)] == before
        assert all(x.ndim == 1 for x in arrays_held(a))


def test_mean_adj_rows_average_neighbors():
    g = canonicalize([(0, 1), (0, 2), (1, 2), (0, 3)], 4)
    H = np.arange(8.0).reshape(4, 2)
    out = spmm(mean_adj(g), H)
    for u in range(4):
        nbrs = g.col_indices[g.row_offsets[u]:g.row_offsets[u + 1]]
        assert np.allclose(out[u], H[nbrs].mean(axis=0))


def test_validate_graph_names_first_unsorted_row():
    g = canonicalize([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)], 5)
    g.X = np.zeros((5, 1))
    validate_graph(g)
    # row 2 holds arcs to 0, 1, 3, 4 and row 4 to 2, 3: swap within both
    ro = g.row_offsets
    g.col_indices[ro[2] + 1], g.col_indices[ro[2] + 2] = 3, 1
    g.col_indices[ro[4]], g.col_indices[ro[4] + 1] = 3, 2
    with pytest.raises(ValueError, match=r"^col_indices not strictly sorted in row 2$"):
        validate_graph(g)


def first_unsorted_row(g):
    """The per-row loop validate_graph used to run, as the reference."""
    for u in range(g.n):
        if np.any(np.diff(g.col_indices[g.row_offsets[u]:g.row_offsets[u + 1]]) <= 0):
            return u
    return None


def test_validate_graph_sortedness_matches_row_loop():
    rng = np.random.default_rng(8)
    for _ in range(40):
        g = gen_sbm([6, 6], 0.5, 0.3, seed=int(rng.integers(1000)))
        for _ in range(int(rng.integers(1, 4))):
            u = int(rng.integers(g.n))
            lo, hi = g.row_offsets[u], g.row_offsets[u + 1]
            if hi - lo >= 2:
                i, j = lo + rng.choice(hi - lo, 2, replace=False)
                g.col_indices[[i, j]] = g.col_indices[[j, i]]
        bad = first_unsorted_row(g)
        if bad is None:
            validate_graph(g)
        else:
            with pytest.raises(ValueError, match=rf"sorted in row {bad}$"):
                validate_graph(g)


def test_validate_graph_rejects_duplicate_arc():
    g = canonicalize([(0, 1), (1, 2)], 3)
    g.X = np.zeros((3, 1))
    g.col_indices[g.row_offsets[1] + 1] = 0     # row 1: arcs to 0, 0
    with pytest.raises(ValueError, match=r"sorted in row 1$"):
        validate_graph(g)


def test_incidence_single_edge():
    g = make_graph([(0, 1)], 2, np.zeros((2, 1)), E_edge=[[1.0]])
    assert incidence_aggregate(g, g.E_feat).tolist() == [[1.0], [1.0]]


def test_incidence_zero():
    g = path_graph(4)
    out = incidence_aggregate(g, np.zeros((g.n_arcs, 3)))
    assert not out.any()


def test_incidence_p3_counts_incident_edges():
    g = path_graph(3)
    out = incidence_aggregate(g, np.ones((g.n_arcs, 1)))
    assert out.tolist() == [[1.0], [2.0], [1.0]]


def test_incidence_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for seed in range(10):
        n = int(rng.integers(3, 20))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2 * n)]
        g = canonicalize(edges, n)
        if g.n_arcs == 0:
            continue
        und = sorted({(min(u, v), max(u, v)) for u, v in arc_list(g)})
        E_edge = rng.normal(size=(len(und), 3))
        g = make_graph(und, n, np.zeros((n, 1)), E_edge=E_edge)
        got = incidence_aggregate(g, g.E_feat)
        want = oracles.dense_incidence_product(n, arc_list(g), g.E_feat)
        assert np.abs(got - want).max() <= 1e-12


def test_incidence_rejects_bad_row_count():
    g = path_graph(3)
    with pytest.raises(ValueError):
        incidence_aggregate(g, np.ones((g.n_arcs + 1, 2)))


def test_minesweeper_limit_no_mines():
    g = gen_minesweeper_grid(2, 2, 1e-12, seed=0)
    assert g.n == 4
    assert g.n_arcs == 12
    assert not g.y.any()


def test_minesweeper_grid_degrees():
    g = gen_minesweeper_grid(3, 3, 0.3, seed=5)
    d = degrees(g)
    assert d[0] == 3          # corner
    assert d[4] == 8          # center
    validate_graph(g)


def test_minesweeper_deterministic():
    a = gen_minesweeper_grid(4, 5, 0.25, seed=9)
    b = gen_minesweeper_grid(4, 5, 0.25, seed=9)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    for k in a.masks:
        assert np.array_equal(a.masks[k], b.masks[k])


def test_sbm_disjoint_complete_blocks():
    g = gen_sbm([3, 3], 1.0, 0.0, seed=2)
    # two complete blocks of 3: each contributes 3 edges = 6 arcs
    assert g.n_arcs == 12
    for u, v in arc_list(g):
        assert g.y[u] == g.y[v]
    assert edge_homophily(g) == 1.0


def test_sbm_equal_probabilities_ignore_labels():
    a = gen_sbm([4, 2], 0.5, 0.5, seed=7)
    b = gen_sbm([2, 4], 0.5, 0.5, seed=7)
    assert np.array_equal(a.col_indices, b.col_indices)


def test_sbm_arc_count_pinned():
    g = gen_sbm([10, 10], 0.7, 0.1, seed=11)
    validate_graph(g)
    assert g.n_arcs == 162  # golden value, fixed generator stream


def test_generated_graphs_validate():
    validate_graph(gen_sbm([6, 7], 0.6, 0.2, seed=3))
    validate_graph(gen_minesweeper_grid(5, 4, 0.2, seed=3))


def test_save_load_round_trip(tmp_path):
    g = make_graph([(0, 1)], 2, np.array([[0.5, -1.0], [2.25, 0.0]]),
                   E_edge=[[3.5]], y=[1, 0],
                   masks={"train": [True, False], "val": [False, True],
                          "test": [False, True]})
    p = tmp_path / "g.json"
    save_graph(g, p)
    back = load_dataset(p)
    assert back.n == g.n
    assert np.array_equal(back.row_offsets, g.row_offsets)
    assert np.array_equal(back.col_indices, g.col_indices)
    assert np.array_equal(back.X, g.X)
    assert np.array_equal(back.E_feat, g.E_feat)
    assert np.array_equal(back.y, g.y)
    for k in g.masks:
        assert np.array_equal(back.masks[k], g.masks[k])


def test_write_output_creates_and_replaces_but_not_a_directory(tmp_path):
    p = tmp_path / "out.txt"
    write_output(p, "first\n")
    assert p.read_text() == "first\n"
    link = tmp_path / "link.txt"
    os.link(p, link)
    write_output(p, "second\n")
    # a new file takes the name; the old one lives on under its other link
    assert p.read_text() == "second\n" and link.read_text() == "first\n"
    assert not os.path.samefile(p, link)
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        write_output(tmp_path / "dir", "text")
    assert (tmp_path / "dir").is_dir()


def test_load_missing_edges_field_named(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "x": [[0.0], [0.0]]}')
    with pytest.raises(ConfigError, match="edges"):
        load_dataset(p)


def test_load_bad_edge_attr_rows_named(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 2, "edges": [[0, 1]], "x": [[0.0], [0.0]],'
                 ' "edge_attr": [[1.0]]}')
    with pytest.raises(ConfigError, match="edge_attr"):
        load_dataset(p)


def test_load_checks_x_rows_before_sizing_arrays_by_n(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n": 1000000000000, "edges": [], "x": [[0.0]]}')
    with pytest.raises(ConfigError, match="field 'x' must be an 1000000000000-row"):
        load_dataset(p)


def test_load_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_dataset(p)


def _same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_graph(got, want):
    assert got.n == want.n
    for name in ("row_offsets", "col_indices", "X", "y"):
        _same_bits(getattr(got, name), getattr(want, name))
    assert (got.masks is None) == (want.masks is None)
    for k in got.masks or {}:
        _same_bits(got.masks[k], want.masks[k])


def test_graph_building_matches_the_frozen_edge_loops(tmp_path):
    rng = np.random.default_rng(14)
    # random lists with duplicates, both directions of an edge, self-loops
    # and isolated nodes; plus the empty list and one node
    cases = [([], 4), ([], 1), ([(0, 0)], 1), (np.array([(3, 1), (1, 3), (2, 2)]), 5)]
    for _ in range(60):
        n = int(rng.integers(1, 25))
        cases.append((rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist(), n))
    for edges, n in cases:
        want = oracles.canonicalize_loop(edges, n)
        _same_graph(canonicalize(edges, n), want)
        E_edge = rng.normal(size=(want.n_arcs // 2, 3))
        _same_bits(make_graph(edges, n, np.zeros((n, 1)), E_edge=E_edge).E_feat,
                   oracles.e_feat_loop(want, E_edge))
    for (rows, cols), seeds in (((2, 2), range(3)), ((3, 5), range(3)), ((30, 30), range(2))):
        for seed in seeds:
            for unknown in (0.0, 0.5, 1.0):
                _same_graph(gen_minesweeper_grid(rows, cols, 0.3, seed, unknown),
                            oracles.gen_minesweeper_grid_loop(rows, cols, 0.3, seed, unknown))
    for sizes, p_in, p_out in (([12], 0.4, 0.9), ([5, 7, 4], 0.6, 0.2),
                               ([4, 4, 4], 1.0, 0.0), ([6, 3, 5], 0.0, 1.0)):
        for seed in range(3):
            want = oracles.gen_sbm_loop(sizes, p_in, p_out, seed)
            _same_graph(gen_sbm(sizes, p_in, p_out, seed), want)
    g = gen_minesweeper_grid(5, 4, 0.3, seed=1)
    E = rng.normal(size=(g.n_arcs, 2))
    g.E_feat = E + E[pair_index(g)]       # paired arcs carry the same row
    save_graph(g, tmp_path / "new.json")
    oracles.save_graph_loop(g, tmp_path / "loop.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "loop.json").read_bytes()
