import numpy as np
import pytest
import scipy.linalg as sla

from signedgl import (
    BinaryLabelData,
    GLConfig,
    OperatorKind,
    SignedGraph,
    arithmetic_mean_laplacian,
    balance_ratio_laplacian,
    build_operator,
    full_dense_eigs,
    gl_binary,
    signed_ratio_laplacian,
    signless_laplacian,
    split_signs,
    sponge_operator,
    unsigned_laplacian,
)

from conftest import balanced_four_cycle, random_signed_graph

PSD_KINDS = ["L_plus_sym", "Q_minus_sym", "SR", "SN", "AM"]


def eigs_of(handle):
    # dense eigendecomposition oracle
    return np.linalg.eigvalsh(handle.dense())


def gl_binary_on_full_basis(handle):
    """One binary GL step on the operator's full eigenbasis, node 0 labeled."""
    labels = BinaryLabelData.from_signs(np.ones(handle.n), np.arange(handle.n) == 0)
    return gl_binary(full_dense_eigs(handle), labels, GLConfig(max_iter=1))


def test_path_laplacian():
    W = np.array([[0, 1.0], [1.0, 0]])
    L = unsigned_laplacian(W)
    assert np.array_equal(L.dense(), [[1, -1], [-1, 1]])
    assert np.allclose(eigs_of(L), [0, 2])
    Ls = unsigned_laplacian(W, normalized=True)
    assert np.allclose(Ls.dense(), [[1, -1], [-1, 1]])  # degree-1 regular


def test_laplacian_zero_multiplicity_counts_components():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    lam = eigs_of(unsigned_laplacian(W))
    assert np.sum(lam < 1e-10) == 2


def test_signless_single_edge_bipartite():
    Q = signless_laplacian(np.array([[0, 1.0], [1.0, 0]]))
    assert np.array_equal(Q.dense(), [[1, 1], [1, 1]])
    assert eigs_of(Q)[0] < 1e-12


def test_signless_triangle_not_bipartite():
    W = np.ones((3, 3)) - np.eye(3)
    lam = eigs_of(signless_laplacian(W))
    assert np.isclose(lam[0], 1.0)  # dense oracle: spectrum {1, 1, 4}
    assert lam[0] > 0


def test_signless_empty_graph():
    Q = signless_laplacian(np.zeros((3, 3)))
    assert Q.A.nnz == 0


def test_signed_ratio_two_balanced_has_zero_eigenvalue():
    g = balanced_four_cycle()
    assert eigs_of(signed_ratio_laplacian(g))[0] <= 1e-10
    assert eigs_of(signed_ratio_laplacian(g, normalized=True))[0] <= 1e-10


def test_signed_ratio_negative_triangle_positive():
    W = -(np.ones((3, 3)) - np.eye(3))
    g = split_signs(W)
    lam = eigs_of(signed_ratio_laplacian(g))
    assert np.isclose(lam[0], 1.0)  # dense oracle: spectrum {1, 1, 4}
    assert lam[0] > 1e-6


def test_signed_ratio_collapses_without_negative_edges(rng):
    g = random_signed_graph(rng, 20, neg_share=0.0)
    Lsr = signed_ratio_laplacian(g).dense()
    L = unsigned_laplacian(g.Wp).dense()
    assert np.array_equal(Lsr, L)


def test_balance_ratio_collapses_without_negative_edges(rng):
    g = random_signed_graph(rng, 15, neg_share=0.0)
    assert np.array_equal(
        balance_ratio_laplacian(g).dense(), unsigned_laplacian(g.Wp).dense()
    )


def test_balance_ratio_single_negative_edge_indefinite():
    g = split_signs(np.array([[0, -1.0], [-1.0, 0]]))
    h = balance_ratio_laplacian(g)
    assert np.array_equal(h.dense(), [[0, 1], [1, 0]])
    assert np.allclose(eigs_of(h), [-1, 1])
    with pytest.raises(ValueError, match="not positive semi-definite"):
        gl_binary_on_full_basis(h)


def test_balance_ratio_four_cycle_spectrum():
    # frozen from the dense oracle on the canonical 2-balanced example
    lam = eigs_of(balance_ratio_laplacian(balanced_four_cycle()))
    assert np.allclose(lam, [-2.0, 2.0, 2.0, 2.0])
    h = balance_ratio_laplacian(balanced_four_cycle(), normalized=True)
    with pytest.raises(ValueError, match="not positive semi-definite"):
        gl_binary_on_full_basis(h)


def test_sponge_reduces_when_one_sign_absent(rng):
    g = random_signed_graph(rng, 12, neg_share=0.0)
    A, B = sponge_operator(g).dense_pair()
    assert np.array_equal(B, np.eye(12))
    gen = sla.eigh(A, B, eigvals_only=True)
    std = np.linalg.eigvalsh(A)
    assert np.allclose(gen, std, atol=1e-10)

    g2 = random_signed_graph(rng, 12, neg_share=1.0)
    A2, B2 = sponge_operator(g2).dense_pair()
    assert np.array_equal(A2, np.eye(12))
    gen2 = np.sort(sla.eigh(A2, B2, eigvals_only=True))
    assert np.allclose(gen2, np.sort(1.0 / np.linalg.eigvalsh(B2)), atol=1e-10)


def test_sponge_recovers_balanced_partition():
    g = balanced_four_cycle()
    A, B = sponge_operator(g).dense_pair()
    lam, V = sla.eigh(A, B)
    v = V[:, 0]
    assert np.isclose(lam[0], 1.0 / 3.0)
    assert len(set(np.sign(v[:2]))) == 1
    assert np.sign(v[0]) == -np.sign(v[2]) == -np.sign(v[3])


def test_arithmetic_mean_conventions(rng):
    g = random_signed_graph(rng, 10, neg_share=0.0)
    am = arithmetic_mean_laplacian(g).dense()
    assert np.array_equal(am, unsigned_laplacian(g.Wp, normalized=True).dense())
    g2 = random_signed_graph(rng, 10, neg_share=1.0)
    am2 = arithmetic_mean_laplacian(g2).dense()
    assert np.array_equal(am2, signless_laplacian(g2.Wn, normalized=True).dense())
    # with both signs absent, both parts are the zero operator
    empty = arithmetic_mean_laplacian(SignedGraph(np.zeros((3, 3)), np.zeros((3, 3))))
    assert empty.A.shape == (3, 3) and empty.A.nnz == 0


def test_arithmetic_mean_spectrum_range(rng):
    for _ in range(10):
        g = random_signed_graph(rng, int(rng.integers(5, 40)), weighted=True)
        lam = eigs_of(arithmetic_mean_laplacian(g))
        assert lam[0] >= -1e-10
        assert lam[-1] <= 4 + 1e-10


def test_arithmetic_mean_separates_balanced_groups():
    lam, V = np.linalg.eigh(arithmetic_mean_laplacian(balanced_four_cycle()).dense())
    v = V[:, 0]
    assert np.sign(v[0]) == np.sign(v[1]) == -np.sign(v[2]) == -np.sign(v[3])


def test_explicit_matrices_are_symmetric(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 30, weighted=True)
        for kind in PSD_KINDS + ["BR", "BN"]:
            S = build_operator(g, kind).dense()
            assert np.array_equal(S, S.T)


def test_psd_kinds_are_psd(rng):
    for _ in range(10):
        g = random_signed_graph(rng, int(rng.integers(5, 60)), weighted=True)
        for kind in PSD_KINDS:
            h = build_operator(g, kind)
            gl_binary_on_full_basis(h)  # accepted
            assert eigs_of(h)[0] >= -1e-10
        A, B = sponge_operator(g).dense_pair()
        assert sla.eigh(A, B, eigvals_only=True)[0] >= -1e-10


def test_normalized_spectra_bounded(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 40, weighted=True)
        for handle in (
            unsigned_laplacian(g.Wp, normalized=True),
            signless_laplacian(g.Wn, normalized=True),
            signed_ratio_laplacian(g, normalized=True),
        ):
            lam = eigs_of(handle)
            assert lam[0] >= -1e-10 and lam[-1] <= 2 + 1e-10


def test_signed_ratio_identity(rng):
    for _ in range(10):
        g = random_signed_graph(rng, int(rng.integers(3, 50)), weighted=True)
        lhs = signed_ratio_laplacian(g).dense()
        rhs = unsigned_laplacian(g.Wp).dense() + signless_laplacian(g.Wn).dense()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_build_operator_dispatch():
    g = balanced_four_cycle()
    assert build_operator(g, "L_plus_sym").spec.kind == OperatorKind.LSYM_POS
    assert build_operator(g, "Q_minus_sym").spec.kind == OperatorKind.QSYM_NEG
    assert build_operator(g, OperatorKind.SPONGE).is_generalized
    with pytest.raises(ValueError, match="adjacency"):
        build_operator(g, "Lsym")


def test_zero_degree_rows_become_identity_rows():
    # node 2 is isolated in the positive graph
    Wp = np.zeros((3, 3))
    Wp[0, 1] = Wp[1, 0] = 1.0
    S = unsigned_laplacian(Wp, normalized=True).dense()
    assert np.array_equal(S[2], [0, 0, 1])
    Q = signless_laplacian(np.zeros((3, 3)), normalized=True).dense()
    assert np.array_equal(Q, np.eye(3))
