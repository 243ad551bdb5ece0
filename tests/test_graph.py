import numpy as np
import pytest
import scipy.sparse as sp

from signedgl import SignedGraph, degrees, largest_connected_component, split_signs

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
    d = degrees(g)
    assert np.array_equal(d.dp, [3, 3])
    assert np.array_equal(d.dn, [0, 0])
    assert np.array_equal(d.dbar, [3, 3])


def test_degrees_empty_graph():
    g = SignedGraph(sp.csr_array((5, 5)), sp.csr_array((5, 5)))
    d = degrees(g)
    assert not d.dp.any() and not d.dn.any() and not d.dbar.any()


def test_degrees_triangle_one_negative():
    W = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], dtype=float)
    d = degrees(split_signs(W))
    assert np.array_equal(d.dbar, [2, 2, 2])


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
