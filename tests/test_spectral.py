import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, cg

from signedgl import (
    OperatorHandle,
    OperatorKind,
    OperatorSpec,
    SSBMParams,
    build_operator,
    full_dense_eigs,
    generate_ssbm,
    load_eigenbasis,
    save_eigenbasis,
    signed_ratio_laplacian,
    smallest_eigs,
    sponge_operator,
    unsigned_laplacian,
)
from signedgl.spectral import (
    _CG_RTOL,
    _RESIDUAL_TOL,
    EigenSolveError,
    _cg_solve,
    _csr_operator,
    eigenbasis_cache_file,
)

from conftest import random_signed_graph


def symmetric_handle(S):
    return OperatorHandle(OperatorSpec(OperatorKind.BR), sp.csr_array(S))


def test_identity_operator():
    # the normalized Laplacian of an edgeless graph is the identity
    op = unsigned_laplacian(np.zeros((3, 3)), normalized=True)
    basis = smallest_eigs(op, k=3)
    assert np.allclose(basis.lambdas, [1, 1, 1])
    assert np.allclose(basis.phis.T @ basis.phis, np.eye(3), atol=1e-10)


def test_two_node_path():
    basis = smallest_eigs(unsigned_laplacian(np.array([[0, 1.0], [1.0, 0]])), k=2)
    assert np.allclose(basis.lambdas, [0, 2])


def test_generalized_with_identity_B_matches_standard(rng):
    g = random_signed_graph(rng, 20, neg_share=0.0)  # Wn = 0 -> B = I
    sponge = sponge_operator(g)
    gen = smallest_eigs(sponge, k=5)
    A = OperatorHandle(OperatorSpec(OperatorKind.SPONGE), sponge.A)
    std = smallest_eigs(A, k=5)
    assert np.allclose(gen.lambdas, std.lambdas, atol=1e-8)


def test_smallest_matches_full_dense(rng):
    for _ in range(5):
        g = random_signed_graph(rng, int(rng.integers(10, 200)), weighted=True)
        op = signed_ratio_laplacian(g, normalized=True)
        k = int(rng.integers(1, min(8, g.n)))
        small = smallest_eigs(op, k=k)
        full = full_dense_eigs(op)
        assert np.allclose(small.lambdas, full.lambdas[:k], atol=1e-6)


def test_generalized_matches_dense_oracle(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 30, weighted=True)
        op = sponge_operator(g)
        basis = smallest_eigs(op, k=4)
        A, B = op.dense_pair()
        # the standard problem B^{-1/2} A B^{-1/2}, from B's own eigendecomposition:
        # no generalized driver, so not the one smallest_eigs calls
        mu, U = np.linalg.eigh(B)
        B_inv_half = (U / np.sqrt(mu)) @ U.T
        oracle = np.linalg.eigvalsh(B_inv_half @ A @ B_inv_half)
        assert np.allclose(basis.lambdas, oracle[:4], atol=1e-6)
        assert np.allclose(basis.phis.T @ B @ basis.phis, np.eye(4), atol=1e-8)
        ax, bx = (M @ basis.phis[:, 0] for M in (op.A, op.B))
        assert np.allclose(ax, basis.lambdas[0] * bx, atol=1e-8)


def test_eigenvectors_orthonormal_and_residuals_small(rng):
    g = random_signed_graph(rng, 80, weighted=True)
    op = signed_ratio_laplacian(g, normalized=True)
    basis = smallest_eigs(op, k=10)
    assert np.allclose(basis.phis.T @ basis.phis, np.eye(10), atol=1e-8)
    R = op.A @ basis.phis - basis.phis * basis.lambdas
    assert np.linalg.norm(R, axis=0).max() <= 1e-6


def test_determinism_bitwise(rng):
    g = random_signed_graph(rng, 50)
    op = signed_ratio_laplacian(g, normalized=True)
    a = smallest_eigs(op, k=6)
    b = smallest_eigs(op, k=6)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.phis, b.phis)


def test_sign_canonicalization(rng):
    g = random_signed_graph(rng, 30)
    basis = smallest_eigs(signed_ratio_laplacian(g, normalized=True), k=5)
    idx = np.argmax(np.abs(basis.phis), axis=0)
    assert (basis.phis[idx, np.arange(5)] > 0).all()


def test_degenerate_eigenspace_via_principal_angles():
    # two disjoint edges: eigenvalue 0 with multiplicity 2
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    basis = smallest_eigs(unsigned_laplacian(W), k=2)
    assert np.allclose(basis.lambdas, [0, 0], atol=1e-10)
    oracle = np.zeros((4, 2))
    oracle[:2, 0] = 1 / np.sqrt(2)
    oracle[2:, 1] = 1 / np.sqrt(2)
    angles = sla.subspace_angles(basis.phis, oracle)
    assert np.max(angles) <= 1e-8


def test_lanczos_path_matches_dense_oracle():
    params = SSBMParams(n=2500, k=2, p_in=0.01, p_out=0.01, eta=0.05, seed=5)
    g, _ = generate_ssbm(params)
    op = signed_ratio_laplacian(g, normalized=True)
    basis = smallest_eigs(op, k=6)
    dense = np.linalg.eigvalsh(op.dense())
    assert np.allclose(basis.lambdas, dense[:6], atol=1e-6)
    again = smallest_eigs(op, k=6)
    assert np.array_equal(basis.lambdas, again.lambdas)
    assert np.array_equal(basis.phis, again.phis)


@pytest.mark.parametrize("kind", ["SN", "AM", "SPONGE"])
def test_lanczos_generalized_path(kind):
    # the ssbm2 benchmark graph; for SPONGE, lambda_2..lambda_20 sit within
    # 0.015 of each other at the bottom of a spectrum that reaches 3
    params = SSBMParams(n=2200, k=2, p_in=0.007, p_out=0.007, eta=0.2, seed=1)
    g, _ = generate_ssbm(params)
    op = build_operator(g, kind)
    basis = smallest_eigs(op, k=20)
    Phi = basis.phis
    A, B = op.A, op.B
    if op.is_generalized:
        oracle = sla.eigh(*op.dense_pair(), eigvals_only=True, subset_by_index=[0, 19])
        gram = Phi.T @ (B @ Phi)
        applied = [A, B]
    else:
        oracle = sla.eigh(op.dense(), eigvals_only=True, subset_by_index=[0, 19])
        gram = Phi.T @ Phi
        applied = [A]
    assert np.allclose(basis.lambdas, oracle, rtol=0.0, atol=1e-8)
    assert np.allclose(gram, np.eye(20), rtol=0.0, atol=1e-10)
    # ARPACK stops short of machine precision, but well inside the check
    BPhi = Phi if B is None else B @ Phi
    residuals = np.linalg.norm(A @ Phi - BPhi * basis.lambdas, axis=0)
    assert residuals.max() <= _RESIDUAL_TOL / 10
    again = smallest_eigs(op, k=20)
    assert np.array_equal(basis.lambdas, again.lambdas)
    assert np.array_equal(basis.phis, again.phis)
    # the operators go to scipy's private CSR kernel: its product must stay A @ x
    x = np.random.default_rng(0).standard_normal(g.n)
    for M in applied:
        assert np.array_equal(_csr_operator(M).matvec(x), M @ x)
        # a CSC matrix is converted, not read as the CSR of its transpose,
        # which only a non-symmetric matrix tells apart
        upper = sp.triu(M, format="csc")
        assert np.array_equal(_csr_operator(upper).matvec(x), upper @ x)


def test_lanczos_generalized_path_refuses_indefinite_A():
    # shift-invert at sigma = 0 needs A positive definite; taking 2 off one
    # diagonal entry of A = I + Lsym(W+) gives it one negative eigenvalue
    params = SSBMParams(n=2050, k=2, p_in=0.01, p_out=0.01, eta=0.1, seed=0)
    g, _ = generate_ssbm(params)
    sponge = sponge_operator(g)
    A = sp.csr_array(sponge.A - 2.0 * sp.csr_array(([1.0], ([0], [0])), shape=(g.n, g.n)))
    lowest = np.linalg.eigvalsh(A.toarray())[:2]
    assert lowest[0] < 0 < lowest[1]
    op = OperatorHandle(OperatorSpec(OperatorKind.SPONGE), A, sponge.B)
    with pytest.raises(EigenSolveError, match="not positive definite"):
        smallest_eigs(op, k=5)


def test_cg_solve_matches_scipy_cg(rng):
    op = sponge_operator(random_signed_graph(rng, 300, weighted=True))
    # a tight tolerance and spectral._CG_RTOL (1e-10), the one tolerance of
    # the eigensolver's inner solves and the baselines
    for rtol in (1e-12, 1e-10):
        for M in (op.A, op.B):
            for _ in range(3):
                b = rng.standard_normal(op.n)
                expected, info = cg(M, b, rtol=rtol, atol=0.0)
                assert info == 0
                assert np.array_equal(_cg_solve(M, b, rtol), expected)
    assert not _cg_solve(sp.eye_array(3, format="csr"), np.zeros(3), 1e-12).any()
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        _cg_solve(sp.csr_array(np.diag([1.0, -1.0])), np.array([1.0, 2.0]), 1e-12)


def test_cg_solve_stops_at_an_exact_zero_residual():
    # at rtol = 0 only r = 0 stops CG; on these small systems the recursive
    # residual underflows to exactly 0, and a step from there meets p^T A p = 0
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = sponge_operator(random_signed_graph(rng, 30)).A
        b = rng.standard_normal(A.shape[0])
        x = _cg_solve(A, b, 0.0)
        assert np.linalg.norm(A @ x - b) <= 1e-15 * np.linalg.norm(b)


def test_cg_solve_stops_at_its_step_limit():
    # I plus a skew part keeps p^T A p = |p|^2 > 0, but CG needs symmetry to converge
    A = sp.csr_array(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 20 steps"):
        _cg_solve(A, np.array([1.0, 0.0]), _CG_RTOL)


def test_residual_check_refuses_pairs_above_its_tolerance(rng, monkeypatch):
    op = signed_ratio_laplacian(random_signed_graph(rng, 30), normalized=True)
    smallest_eigs(op, k=3)
    monkeypatch.setattr("signedgl.spectral._RESIDUAL_TOL", 0.0)
    with pytest.raises(EigenSolveError, match=r"exceeds tolerance 0\.0e\+00"):
        smallest_eigs(op, k=3)


@pytest.mark.parametrize("b", [None, 2.0])
def test_lanczos_failures_are_eigensolve_errors(b, monkeypatch):
    # diag(1, ..., 2101), with B = b I: above DENSE_CAP, so solved by eigsh
    n = 2101
    op = OperatorHandle(OperatorSpec(OperatorKind.BR),
                        sp.diags_array(np.arange(1.0, n + 1), format="csr"),
                        None if b is None else b * sp.eye_array(n, format="csr"))
    # A e_1 = e_1 and A e_2 = 2 e_2 (B e = b e), so these pairs have residuals 0.25 and 0.5
    partial = ArpackNoConvergence("", np.array([1.25, 2.5]) / (b or 1.0), np.eye(n, 2))
    failures = [
        (partial, r"did not converge for k=3 \(2 pairs found, best residual 2\.500e-01\)"),
        (ArpackNoConvergence("", np.empty(0), np.empty((n, 0))),
         r"\(0 pairs found, best residual inf\)"),
        (ArpackError(3), "eigensolver failed: ARPACK error 3"),
    ]
    for exc, message in failures:
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("signedgl.spectral.eigsh", fail)
        with pytest.raises(EigenSolveError, match=message):
            smallest_eigs(op, k=3)


def test_k_out_of_range(rng):
    g = random_signed_graph(rng, 10)
    op = signed_ratio_laplacian(g)
    with pytest.raises(ValueError):
        smallest_eigs(op, k=11)
    with pytest.raises(ValueError):
        smallest_eigs(op, k=0)


def test_full_dense_diag():
    h = symmetric_handle(np.diag([3.0, 1.0, 2.0]))
    basis = full_dense_eigs(h)
    assert np.allclose(basis.lambdas, [1, 2, 3])


def test_full_dense_reconstruction(rng):
    M = rng.standard_normal((50, 50))
    S = (M + M.T) / 2
    basis = full_dense_eigs(symmetric_handle(S))
    rebuilt = (basis.phis * basis.lambdas) @ basis.phis.T
    assert np.linalg.norm(rebuilt - S) <= 1e-8 * np.linalg.norm(S)


def test_full_dense_cap():
    n = 2100
    h = symmetric_handle(sp.eye_array(n, format="csr"))
    with pytest.raises(ValueError, match="2000"):
        full_dense_eigs(h)


def test_normalized_signed_spectrum_in_range(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 60, weighted=True)
        lam = full_dense_eigs(signed_ratio_laplacian(g, normalized=True)).lambdas
        assert lam[0] >= -1e-10 and lam[-1] <= 2 + 1e-10


def test_truncate():
    basis = smallest_eigs(unsigned_laplacian(np.zeros((4, 4)), normalized=True), k=4)
    t = basis.truncate(2)
    assert t.k == 2 and t.n == 4
    assert basis.truncate(4) is basis
    with pytest.raises(ValueError):
        basis.truncate(9)


def test_truncated_solve_equals_smaller_solve(rng):
    # the dense path solves the full spectrum, so a sweep may solve once at
    # its largest N_e and truncate for the others
    g = random_signed_graph(rng, 40, weighted=True)
    for kind in (OperatorKind.SN, OperatorKind.AM, OperatorKind.SPONGE):
        op = build_operator(g, kind)
        truncated = smallest_eigs(op, 8).truncate(4)
        direct = smallest_eigs(op, 4)
        assert np.array_equal(truncated.lambdas, direct.lambdas)
        assert np.array_equal(truncated.phis, direct.phis)


def test_cache_round_trip(tmp_path, rng):
    g = random_signed_graph(rng, 25)
    basis = smallest_eigs(signed_ratio_laplacian(g, normalized=True), k=5)
    path = eigenbasis_cache_file(tmp_path, "a" * 64, OperatorKind.SN, 5)
    save_eigenbasis(path, basis)
    loaded = load_eigenbasis(path)
    assert np.array_equal(loaded.lambdas, basis.lambdas)
    assert np.array_equal(loaded.phis, basis.phis)
    assert loaded.source == basis.source
    assert path.name == f"eig_{'a' * 16}_SN_k5.npz"


def test_cache_refuses_another_version(tmp_path, rng, monkeypatch):
    basis = smallest_eigs(signed_ratio_laplacian(random_signed_graph(rng, 10)), k=2)
    monkeypatch.setattr("signedgl.spectral._CACHE_VERSION", 2)
    save_eigenbasis(tmp_path / "v2.npz", basis)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="unsupported eigenbasis cache version 2"):
        load_eigenbasis(tmp_path / "v2.npz")
