import numpy as np
import pytest
import scipy.linalg as sla

from signedgl import (
    BinaryLabelData,
    GLConfig,
    OperatorKind,
    SignedGraph,
    build_operator,
    gl_binary,
    smallest_eigs,
    split_signs,
)
from signedgl.laplacians import operator_component

from conftest import balanced_four_cycle, negative_only, positive_only, random_signed_graph

PSD_KINDS = ["L_plus_sym", "Q_minus_sym", "SR", "SN", "AM"]


def eigs_of(handle):
    # dense eigendecomposition oracle
    return np.linalg.eigvalsh(handle.A.toarray())


def dense_laplacian(W):
    # dense oracle: D - W for a plain adjacency W
    W = W.toarray()
    return np.diag(W.sum(axis=1)) - W


def gl_binary_on_full_basis(handle):
    """One binary GL step on the operator's full eigenbasis, node 0 labeled."""
    labels = BinaryLabelData.from_signs(np.ones(handle.n), np.arange(handle.n) == 0)
    return gl_binary(smallest_eigs(handle, handle.n), labels, GLConfig(max_iter=1))


def test_path_laplacian():
    W = np.array([[0, 1.0], [1.0, 0]])
    L = build_operator(positive_only(W), "SR")
    assert np.array_equal(L.A.toarray(), [[1, -1], [-1, 1]])
    assert np.allclose(eigs_of(L), [0, 2])
    Ls = build_operator(positive_only(W), "L_plus_sym")
    assert np.allclose(Ls.A.toarray(), [[1, -1], [-1, 1]])  # degree-1 regular


def test_laplacian_zero_multiplicity_counts_components():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    lam = eigs_of(build_operator(positive_only(W), "SR"))
    assert np.sum(lam < 1e-10) == 2


def test_signless_single_edge_bipartite():
    Q = build_operator(negative_only(np.array([[0, 1.0], [1.0, 0]])), "SR")
    assert np.array_equal(Q.A.toarray(), [[1, 1], [1, 1]])
    assert eigs_of(Q)[0] < 1e-12


def test_signless_triangle_not_bipartite():
    W = np.ones((3, 3)) - np.eye(3)
    lam = eigs_of(build_operator(negative_only(W), "SR"))
    assert np.isclose(lam[0], 1.0)  # dense oracle: spectrum {1, 1, 4}
    assert lam[0] > 0


def test_signless_empty_graph():
    Q = build_operator(negative_only(np.zeros((3, 3))), "SR")
    assert Q.A.nnz == 0


def test_signed_ratio_two_balanced_has_zero_eigenvalue():
    g = balanced_four_cycle()
    assert eigs_of(build_operator(g, "SR"))[0] <= 1e-10
    assert eigs_of(build_operator(g, "SN"))[0] <= 1e-10


def test_signed_ratio_negative_triangle_positive():
    W = -(np.ones((3, 3)) - np.eye(3))
    g = split_signs(W)
    lam = eigs_of(build_operator(g, "SR"))
    assert np.isclose(lam[0], 1.0)  # dense oracle: spectrum {1, 1, 4}
    assert lam[0] > 1e-6


def test_signed_ratio_collapses_without_negative_edges(rng):
    g = random_signed_graph(rng, 20, neg_share=0.0)
    Lsr = build_operator(g, "SR").A.toarray()
    L = dense_laplacian(g.Wp)
    assert np.array_equal(Lsr, L)


def test_balance_ratio_collapses_without_negative_edges(rng):
    g = random_signed_graph(rng, 15, neg_share=0.0)
    assert np.array_equal(
        build_operator(g, "BR").A.toarray(), dense_laplacian(g.Wp)
    )


def test_balance_ratio_single_negative_edge_indefinite():
    g = split_signs(np.array([[0, -1.0], [-1.0, 0]]))
    h = build_operator(g, "BR")
    assert np.array_equal(h.A.toarray(), [[0, 1], [1, 0]])
    assert np.allclose(eigs_of(h), [-1, 1])
    with pytest.raises(ValueError, match="not positive semi-definite"):
        gl_binary_on_full_basis(h)


def test_balance_ratio_four_cycle_spectrum():
    # frozen from the dense oracle on the canonical 2-balanced example
    lam = eigs_of(build_operator(balanced_four_cycle(), "BR"))
    assert np.allclose(lam, [-2.0, 2.0, 2.0, 2.0])
    h = build_operator(balanced_four_cycle(), "BN")
    with pytest.raises(ValueError, match="not positive semi-definite"):
        gl_binary_on_full_basis(h)


def test_sponge_reduces_when_one_sign_absent(rng):
    g = random_signed_graph(rng, 12, neg_share=0.0)
    op = build_operator(g, "SPONGE")
    A, B = op.A.toarray(), op.B.toarray()
    assert np.array_equal(B, np.eye(12))
    gen = sla.eigh(A, B, eigvals_only=True)
    std = np.linalg.eigvalsh(A)
    assert np.allclose(gen, std, atol=1e-10)

    g2 = random_signed_graph(rng, 12, neg_share=1.0)
    op2 = build_operator(g2, "SPONGE")
    A2, B2 = op2.A.toarray(), op2.B.toarray()
    assert np.array_equal(A2, np.eye(12))
    gen2 = np.sort(sla.eigh(A2, B2, eigvals_only=True))
    assert np.allclose(gen2, np.sort(1.0 / np.linalg.eigvalsh(B2)), atol=1e-10)


def test_sponge_recovers_balanced_partition():
    op = build_operator(balanced_four_cycle(), "SPONGE")
    lam, V = sla.eigh(op.A.toarray(), op.B.toarray())
    v = V[:, 0]
    assert np.isclose(lam[0], 1.0 / 3.0)
    assert len(set(np.sign(v[:2]))) == 1
    assert np.sign(v[0]) == -np.sign(v[2]) == -np.sign(v[3])


def test_arithmetic_mean_conventions(rng):
    g = random_signed_graph(rng, 10, neg_share=0.0)
    am = build_operator(g, "AM").A.toarray()
    assert np.array_equal(am, build_operator(g, "L_plus_sym").A.toarray())
    g2 = random_signed_graph(rng, 10, neg_share=1.0)
    am2 = build_operator(g2, "AM").A.toarray()
    assert np.array_equal(am2, build_operator(g2, "Q_minus_sym").A.toarray())
    # with both signs absent, both parts are the zero operator
    empty = build_operator(SignedGraph(np.zeros((3, 3)), np.zeros((3, 3))), "AM")
    assert empty.A.shape == (3, 3) and empty.A.nnz == 0


def test_arithmetic_mean_spectrum_range(rng):
    for _ in range(10):
        g = random_signed_graph(rng, int(rng.integers(5, 40)), weighted=True)
        lam = eigs_of(build_operator(g, "AM"))
        assert lam[0] >= -1e-10
        assert lam[-1] <= 4 + 1e-10


def test_arithmetic_mean_separates_balanced_groups():
    lam, V = np.linalg.eigh(build_operator(balanced_four_cycle(), "AM").A.toarray())
    v = V[:, 0]
    assert np.sign(v[0]) == np.sign(v[1]) == -np.sign(v[2]) == -np.sign(v[3])


def test_explicit_matrices_are_symmetric(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 30, weighted=True)
        for kind in PSD_KINDS + ["BR", "BN"]:
            S = build_operator(g, kind).A.toarray()
            assert np.array_equal(S, S.T)


def test_psd_kinds_are_psd(rng):
    for _ in range(10):
        g = random_signed_graph(rng, int(rng.integers(5, 60)), weighted=True)
        for kind in PSD_KINDS:
            h = build_operator(g, kind)
            gl_binary_on_full_basis(h)  # accepted
            assert eigs_of(h)[0] >= -1e-10
        op = build_operator(g, "SPONGE")
        assert sla.eigh(op.A.toarray(), op.B.toarray(), eigvals_only=True)[0] >= -1e-10


def test_normalized_spectra_bounded(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 40, weighted=True)
        for handle in (
            build_operator(g, "L_plus_sym"),
            build_operator(g, "Q_minus_sym"),
            build_operator(g, "SN"),
        ):
            lam = eigs_of(handle)
            assert lam[0] >= -1e-10 and lam[-1] <= 2 + 1e-10


def test_signed_ratio_identity(rng):
    for _ in range(10):
        g = random_signed_graph(rng, int(rng.integers(3, 50)), weighted=True)
        lhs = build_operator(g, "SR").A.toarray()
        Wp, Wn = g.Wp.toarray(), g.Wn.toarray()
        # (D+ - W+) + (D- + W-), from the dense adjacencies
        rhs = (np.diag(Wp.sum(axis=1)) - Wp) + (np.diag(Wn.sum(axis=1)) + Wn)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_build_operator_dispatch():
    g = balanced_four_cycle()
    for kind in OperatorKind:
        assert build_operator(g, kind).kind == kind
        assert operator_component(kind) in ("positive", "negative", "signed")
    assert build_operator(g, "L_plus_sym").kind == OperatorKind.LSYM_POS
    assert build_operator(g, "Q_minus_sym").kind == OperatorKind.QSYM_NEG
    assert build_operator(g, OperatorKind.SPONGE).B is not None
    # a value that names no kind, such as the old plain-adjacency Lsym
    for value in ("Lsym", "GM"):
        with pytest.raises(ValueError, match=value):
            build_operator(g, value)


def test_zero_degree_rows_become_identity_rows():
    # node 2 is isolated in the positive graph
    Wp = np.zeros((3, 3))
    Wp[0, 1] = Wp[1, 0] = 1.0
    S = build_operator(positive_only(Wp), "L_plus_sym").A.toarray()
    assert np.array_equal(S[2], [0, 0, 1])
    Q = build_operator(negative_only(np.zeros((3, 3))), "Q_minus_sym").A.toarray()
    assert np.array_equal(Q, np.eye(3))
