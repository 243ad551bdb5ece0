import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from signedgl import SignedGraph, largest_connected_component, split_signs

from conftest import random_signed_graph


def test_split_signs_entrywise():
    W = np.array([[0, 2, -1], [2, 0, 0], [-1, 0, 0]], dtype=float)
    g = split_signs(W)
    assert np.array_equal(g.Wp.toarray(), [[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    assert np.array_equal(g.Wn.toarray(), [[0, 0, 1], [0, 0, 0], [1, 0, 0]])


def test_split_signs_nonnegative_input():
    W = np.array([[0, 1.5], [1.5, 0]])
    g = split_signs(W)
    assert g.Wn.nnz == 0
    assert np.array_equal(g.Wp.toarray(), W)


def test_split_signs_zero_matrix():
    g = split_signs(np.zeros((4, 4)))
    assert g.Wp.nnz == 0 and g.Wn.nnz == 0
    assert g.n == 4


def test_split_signs_rejects_asymmetric():
    W = np.array([[0, 1.0, 0], [2.0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        split_signs(W)


def test_split_signs_drops_self_loops_with_count():
    W = np.array([[3.0, 1.0], [1.0, -2.0]])
    with pytest.warns(UserWarning, match="2 self-loop") as record:
        g = split_signs(W)
    assert record[0].filename == __file__  # the warning points at the caller
    assert np.count_nonzero(g.Wp.diagonal()) == 0
    assert g.Wp[0, 1] == 1.0


def test_split_then_merge_round_trips(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        A = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3), 1)
        W = A + A.T
        g = split_signs(W)
        assert np.array_equal(g.signed_adjacency().toarray(), W)


def test_degrees_single_edge():
    g = split_signs(np.array([[0, 3.0], [3.0, 0]]))
    assert np.array_equal(g.dp, [3, 3])
    assert np.array_equal(g.dn, [0, 0])
    assert np.array_equal(g.dbar, [3, 3])


def test_degrees_empty_graph():
    g = SignedGraph(sp.csr_array((5, 5)), sp.csr_array((5, 5)))
    assert not g.dp.any() and not g.dn.any() and not g.dbar.any()


def test_degrees_triangle_one_negative():
    W = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=float)
    assert np.array_equal(split_signs(W).dbar, [2, 2, 2])


def _two_triangles_plus_isolated():
    W = np.zeros((7, 7))
    for tri in ((0, 1, 2), (3, 4, 5)):
        for i in tri:
            for j in tri:
                if i != j:
                    W[i, j] = 1.0
    return split_signs(W)


def test_lcc_positive_tie_break():
    g = _two_triangles_plus_isolated()
    sub, old_to_new = largest_connected_component(g, mode="positive")
    assert sub.n == 3
    # tie between the two triangles goes to the one holding node 0
    assert sub.node_ids == ("0", "1", "2")
    kept = old_to_new[old_to_new >= 0]
    assert len(set(kept)) == len(kept)  # injective


def test_lcc_signed_spans_negative_edges():
    W = np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]], dtype=float)
    g = split_signs(W)
    sub, _ = largest_connected_component(g, mode="signed")
    assert sub.n == 3
    sub_pos, _ = largest_connected_component(g, mode="positive")
    assert sub_pos.n == 2


def test_lcc_idempotent(rng):
    g = random_signed_graph(rng, 60, density=0.05)
    once, _ = largest_connected_component(g, mode="signed")
    twice, mapping = largest_connected_component(once, mode="signed")
    assert twice.n == once.n
    assert np.array_equal(mapping, np.arange(once.n))
    assert (once.Wp != twice.Wp).nnz == 0
    assert (once.Wn != twice.Wn).nnz == 0


def test_lcc_preserves_weights_and_signs(rng):
    g = random_signed_graph(rng, 50, density=0.04, weighted=True)
    sub, old_to_new = largest_connected_component(g, mode="signed")
    kept = np.flatnonzero(old_to_new >= 0)
    assert np.allclose(sub.Wp.toarray(), g.Wp.toarray()[np.ix_(kept, kept)])
    assert np.allclose(sub.Wn.toarray(), g.Wn.toarray()[np.ix_(kept, kept)])


def test_lcc_empty_graph_errors():
    g = SignedGraph(sp.csr_array((0, 0)), sp.csr_array((0, 0)))
    with pytest.raises(ValueError, match="empty"):
        largest_connected_component(g)


def test_lcc_unknown_mode():
    g = _two_triangles_plus_isolated()
    with pytest.raises(ValueError, match="mode"):
        largest_connected_component(g, mode="both")


def test_signed_graph_validation():
    ok = np.array([[0, 1.0], [1.0, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        SignedGraph(np.array([[0, 1.0], [0, 0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        SignedGraph(-ok, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="diagonal"):
        SignedGraph(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        SignedGraph(ok, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="must be square"):
        SignedGraph(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="node ids"):
        SignedGraph(ok, np.zeros((2, 2)), node_ids=["a"])


def test_signed_graph_refuses_repeated_node_ids():
    path = np.array([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]])
    with pytest.raises(ValueError, match="node id 'a' is repeated"):
        SignedGraph(path, np.zeros((3, 3)), node_ids=["a", "a", "b"])
    # ids are compared after str(), as they are stored and written
    with pytest.raises(ValueError, match="node id '1' is repeated"):
        SignedGraph(path, np.zeros((3, 3)), node_ids=[1, "1", 2])


def test_parallel_opposite_edges_allowed():
    Wp = np.array([[0, 1.0], [1.0, 0]])
    Wn = np.array([[0, 2.0], [2.0, 0]])
    g = SignedGraph(Wp, Wn)
    assert g.Wp[0, 1] == 1.0 and g.Wn[0, 1] == 2.0
    assert repr(g) == "SignedGraph(n=2, positive_edges=1, negative_edges=1)"


def test_signed_graph_refuses_a_non_finite_weight_before_its_symmetry():
    # two summed records of 1.5e308 once read "Wp is not symmetric at pair (0, 1)"
    for bad in (np.inf, np.nan):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        W[1, 2], W[2, 1] = bad, 1.0
        pair = r"has a non-finite weight at pair \(1, 2\)$"
        with pytest.raises(ValueError, match=f"^Wp {pair}"):
            SignedGraph(W, np.zeros((3, 3)))
        with pytest.raises(ValueError, match=f"^Wn {pair}"):
            SignedGraph(np.zeros((3, 3)), W)
        with pytest.raises(ValueError, match=f"^input matrix {pair}"):
            split_signs(-W)


def test_signed_graph_refuses_a_degree_that_overflows():
    # node 'b' has finite weights but a degree of 3e308: its SN row was an identity row
    big = np.array([[0, 1.5e308, 0], [1.5e308, 0, 1.5e308], [0, 1.5e308, 0]])
    one_each = np.array([[0, 1e308], [1e308, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes the refusal
        with pytest.raises(ValueError, match=r"^the degree of node 'b' is not finite$"):
            SignedGraph(big, np.zeros((3, 3)), node_ids="abc")
        with pytest.raises(ValueError, match=r"^the degree of node 'b' is not finite$"):
            SignedGraph(np.zeros((3, 3)), big, node_ids="abc")
        # dp and dn are finite, dbar = dp + dn is not
        with pytest.raises(ValueError, match=r"^the degree of node '0' is not finite$"):
            SignedGraph(one_each, one_each)
        assert SignedGraph(one_each, np.zeros((2, 2))).dbar.tolist() == [1e308, 1e308]


def test_graph_holds_its_degrees_read_only(rng):
    g = random_signed_graph(rng, 30, weighted=True)
    d = (g.dp, g.dn, g.dbar)
    assert all(a is b for a, b in zip((g.dp, g.dn, g.dbar), d))  # summed once, not per read
    for v, W in ((g.dp, g.Wp), (g.dn, g.Wn)):
        assert np.allclose(v, W.toarray().sum(axis=1), rtol=1e-14, atol=0.0)
    assert np.array_equal(g.dbar, g.dp + g.dn)
    for v in d:
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


def _bits(v):
    return v.view(np.int64)


def test_a_component_sums_its_own_degrees(rng):
    # a component's degrees are the row sums of its own matrices, not the parent's
    # entries: a positive component drops the negative edges that leave it, and a
    # negative one the positive edges
    g = random_signed_graph(rng, 300, density=0.012, neg_share=0.4, weighted=True)
    for mode, other in (("positive", "dn"), ("negative", "dp"), ("signed", None)):
        sub, old_to_new = largest_connected_component(g, mode=mode)
        keep = np.flatnonzero(old_to_new >= 0)
        assert 0 < sub.n < g.n, mode
        dp, dn = (np.asarray(W.sum(axis=1)).ravel() for W in (sub.Wp, sub.Wn))
        assert np.array_equal(_bits(sub.dp), _bits(dp)), mode
        assert np.array_equal(_bits(sub.dn), _bits(dn)), mode
        assert np.array_equal(_bits(sub.dbar), _bits(dp + dn)), mode
        if other is None:  # the signed component keeps every edge of its nodes
            for name in ("dp", "dn", "dbar"):
                assert np.array_equal(_bits(getattr(sub, name)),
                                      _bits(getattr(g, name)[keep])), name
            continue
        W = g.Wn if other == "dn" else g.Wp
        dropped = np.flatnonzero(old_to_new < 0)
        leaves = np.asarray(W[keep, :][:, dropped].sum(axis=1)).ravel() > 0
        assert leaves.sum() >= 10, mode
        assert np.array_equal(getattr(sub, other) < getattr(g, other)[keep], leaves), mode
