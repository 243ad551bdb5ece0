import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, cg, eigsh

from signedgl import (
    Eigenbasis,
    OperatorHandle,
    OperatorKind,
    OperatorSpec,
    SSBMParams,
    build_operator,
    generate_ssbm,
    largest_connected_component,
    load_eigenbasis,
    save_eigenbasis,
    smallest_eigs,
)
from signedgl.spectral import (
    _CG_RTOL,
    _RESIDUAL_TOL,
    EigenSolveError,
    _cg_solve,
    _csr_operator,
    eigenbasis_cache_file,
)

from conftest import positive_only, random_signed_graph


def symmetric_handle(S):
    return OperatorHandle(OperatorKind.BR, sp.csr_array(S))


def test_identity_operator():
    # the normalized Laplacian of an edgeless graph is the identity
    op = build_operator(positive_only(np.zeros((3, 3))), "L_plus_sym")
    basis = smallest_eigs(op, k=3)
    assert np.allclose(basis.lambdas, [1, 1, 1])
    assert np.allclose(basis.phis.T @ basis.phis, np.eye(3), atol=1e-10)


def test_two_node_path():
    W = np.array([[0, 1.0], [1.0, 0]])
    basis = smallest_eigs(build_operator(positive_only(W), "SR"), k=2)
    assert np.allclose(basis.lambdas, [0, 2])


def test_generalized_with_identity_B_matches_standard(rng):
    g = random_signed_graph(rng, 20, neg_share=0.0)  # Wn = 0 -> B = I
    sponge = build_operator(g, "SPONGE")
    gen = smallest_eigs(sponge, k=5)
    A = OperatorHandle(OperatorKind.SPONGE, sponge.A)
    std = smallest_eigs(A, k=5)
    assert np.allclose(gen.lambdas, std.lambdas, atol=1e-8)


def test_smallest_matches_full_dense(rng):
    for _ in range(5):
        g = random_signed_graph(rng, int(rng.integers(10, 200)), weighted=True)
        op = build_operator(g, "SN")
        k = int(rng.integers(1, min(8, g.n)))
        small = smallest_eigs(op, k=k)
        full = smallest_eigs(op, op.n)
        assert np.allclose(small.lambdas, full.lambdas[:k], atol=1e-6)


def test_generalized_matches_dense_oracle(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 30, weighted=True)
        op = build_operator(g, "SPONGE")
        basis = smallest_eigs(op, k=4)
        A, B = op.A.toarray(), op.B.toarray()
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
    op = build_operator(g, "SN")
    basis = smallest_eigs(op, k=10)
    assert np.allclose(basis.phis.T @ basis.phis, np.eye(10), atol=1e-8)
    R = op.A @ basis.phis - basis.phis * basis.lambdas
    assert np.linalg.norm(R, axis=0).max() <= 1e-6


def test_determinism_bitwise(rng):
    g = random_signed_graph(rng, 50)
    op = build_operator(g, "SN")
    a = smallest_eigs(op, k=6)
    b = smallest_eigs(op, k=6)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.phis, b.phis)


def test_sign_canonicalization(rng):
    g = random_signed_graph(rng, 30)
    basis = smallest_eigs(build_operator(g, "SN"), k=5)
    idx = np.argmax(np.abs(basis.phis), axis=0)
    assert (basis.phis[idx, np.arange(5)] > 0).all()


def test_degenerate_eigenspace_via_principal_angles():
    # two disjoint edges: eigenvalue 0 with multiplicity 2
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    basis = smallest_eigs(build_operator(positive_only(W), "SR"), k=2)
    assert np.allclose(basis.lambdas, [0, 0], atol=1e-10)
    oracle = np.zeros((4, 2))
    oracle[:2, 0] = 1 / np.sqrt(2)
    oracle[2:, 1] = 1 / np.sqrt(2)
    angles = sla.subspace_angles(basis.phis, oracle)
    assert np.max(angles) <= 1e-8


def test_lanczos_path_matches_dense_oracle():
    params = SSBMParams(n=2500, k=2, p_in=0.01, p_out=0.01, eta=0.05, seed=5)
    g, _ = generate_ssbm(params)
    op = build_operator(g, "SN")
    basis = smallest_eigs(op, k=6)
    dense = np.linalg.eigvalsh(op.A.toarray())
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
    if op.B is not None:
        oracle = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True, subset_by_index=[0, 19])
        gram = Phi.T @ (B @ Phi)
        applied = [A, B]
    else:
        oracle = sla.eigh(A.toarray(), eigvals_only=True, subset_by_index=[0, 19])
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
        # a handle converts a CSC matrix, which the kernel would read as the
        # CSR of its transpose; only a non-symmetric matrix tells them apart
        upper = sp.triu(M, format="csc")
        held = OperatorHandle(op.kind, upper).A
        assert np.array_equal(_csr_operator(held).matvec(x), upper @ x)


def test_lanczos_generalized_path_refuses_indefinite_A():
    # shift-invert at sigma = 0 needs A positive definite; taking 2 off one
    # diagonal entry of A = I + Lsym(W+) gives it one negative eigenvalue
    params = SSBMParams(n=2050, k=2, p_in=0.01, p_out=0.01, eta=0.1, seed=0)
    g, _ = generate_ssbm(params)
    sponge = build_operator(g, "SPONGE")
    A = sp.csr_array(sponge.A - 2.0 * sp.csr_array(([1.0], ([0], [0])), shape=(g.n, g.n)))
    lowest = np.linalg.eigvalsh(A.toarray())[:2]
    assert lowest[0] < 0 < lowest[1]
    op = OperatorHandle(OperatorKind.SPONGE, A, sponge.B)
    with pytest.raises(EigenSolveError, match="not positive definite"):
        smallest_eigs(op, k=5)


def test_cg_solve_matches_scipy_cg(rng):
    op = build_operator(random_signed_graph(rng, 300, weighted=True), "SPONGE")
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
        A = build_operator(random_signed_graph(rng, 30), "SPONGE").A
        b = rng.standard_normal(A.shape[0])
        x = _cg_solve(A, b, 0.0)
        assert np.linalg.norm(A @ x - b) <= 1e-15 * np.linalg.norm(b)


def test_cg_solve_stops_at_its_step_limit():
    # I plus a skew part keeps p^T A p = |p|^2 > 0, but CG needs symmetry to converge
    A = sp.csr_array(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 20 steps"):
        _cg_solve(A, np.array([1.0, 0.0]), _CG_RTOL)


def test_residual_check_refuses_pairs_above_its_tolerance(rng, monkeypatch):
    op = build_operator(random_signed_graph(rng, 30), "SN")
    smallest_eigs(op, k=3)
    monkeypatch.setattr("signedgl.spectral._RESIDUAL_TOL", 0.0)
    with pytest.raises(EigenSolveError, match=r"exceeds tolerance 0\.0e\+00"):
        smallest_eigs(op, k=3)


def diagonal_handle(b=None):
    """diag(1, ..., 2101), with B = b I: above DENSE_CAP, so solved by eigsh."""
    n = 2101
    return OperatorHandle(OperatorKind.BR,
                          sp.diags_array(np.arange(1.0, n + 1), format="csr"),
                          None if b is None else b * sp.eye_array(n, format="csr"))


@pytest.mark.parametrize("b", [None, 2.0])
def test_lanczos_failures_are_eigensolve_errors(b, monkeypatch):
    op = diagonal_handle(b)
    n = op.n
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


def test_lanczos_pair_with_a_nan_entry_is_refused(monkeypatch):
    # A e_i = i e_i, so every pair below has residual 0 but the one with a NaN
    op = diagonal_handle()
    V = np.eye(op.n, 3)
    V[5, 1] = np.nan
    monkeypatch.setattr("signedgl.spectral.eigsh", lambda *a, **kw: (np.array([1.0, 2.0, 3.0]), V))
    with pytest.raises(EigenSolveError, match="eigenpair residual nan exceeds tolerance"):
        smallest_eigs(op, k=3)


@pytest.mark.parametrize("kind", ["SR", "SN", "SPONGE", "diagonal"])
def test_handle_holds_float64_csr_whatever_it_is_built_from(kind, rng):
    # SR, SN and SPONGE on 40 nodes take the dense path, the diagonal Lanczos
    if kind == "diagonal":
        csr, k = diagonal_handle(), 3
    else:
        csr, k = build_operator(random_signed_graph(rng, 40), kind), 5
    expected = smallest_eigs(csr, k)
    mats = [M for M in (csr.A, csr.B) if M is not None]
    forms = {"csc": lambda M: M.tocsc(), "coo": lambda M: M.tocoo(),
             "fortran": lambda M: np.asfortranarray(M.toarray())}
    if kind in ("SR", "diagonal"):  # integer-valued on an unweighted graph
        forms["int"] = lambda M: M.toarray().astype(np.int64)
    for form, make in forms.items():
        given = [make(M) for M in mats]
        before = [M.copy() for M in given]
        op = OperatorHandle(csr.kind, *given)
        held = [M for M in (op.A, op.B) if M is not None]
        for M, original in zip(held, mats):
            assert M.format == "csr" and M.dtype == np.float64 and M.has_sorted_indices, form
            assert (M != original).nnz == 0, form
        basis = smallest_eigs(op, k)
        assert np.array_equal(basis.lambdas, expected.lambdas), form
        assert np.array_equal(basis.phis, expected.phis), form
        for M, copy in zip(given, before):  # the inputs are left as they were
            assert (M != copy).sum() == 0, form
        del given, before, op, held  # free the 2101 x 2101 arrays before the next form


@pytest.mark.parametrize("pair", [False, True])
def test_dense_solve_refuses_a_matrix_that_is_not_finite(pair):
    # the dense solve skips scipy's finiteness check; LAPACK then finds no
    # pair at all, which must not come back as an empty basis
    S = np.eye(5)
    S[1, 2] = S[2, 1] = np.nan
    op = OperatorHandle(OperatorKind.BR, sp.csr_array(S),
                        sp.eye_array(5, format="csr") if pair else None)
    with pytest.raises(EigenSolveError, match="found 0 of 2 eigenpairs"):
        smallest_eigs(op, k=2)


def test_k_out_of_range(rng):
    g = random_signed_graph(rng, 10)
    op = build_operator(g, "SR")
    with pytest.raises(ValueError):
        smallest_eigs(op, k=11)
    with pytest.raises(ValueError):
        smallest_eigs(op, k=0)
    # not an integer: a float is not rounded, nor a bool read as 1
    for k in (2.5, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            smallest_eigs(op, k=k)


def test_full_dense_diag():
    h = symmetric_handle(np.diag([3.0, 1.0, 2.0]))
    basis = smallest_eigs(h, h.n)
    assert np.allclose(basis.lambdas, [1, 2, 3])


def test_full_dense_reconstruction(rng):
    M = rng.standard_normal((50, 50))
    S = (M + M.T) / 2
    basis = smallest_eigs(symmetric_handle(S), 50)
    rebuilt = (basis.phis * basis.lambdas) @ basis.phis.T
    assert np.linalg.norm(rebuilt - S) <= 1e-8 * np.linalg.norm(S)


def test_normalized_signed_spectrum_in_range(rng):
    for _ in range(5):
        g = random_signed_graph(rng, 60, weighted=True)
        lam = smallest_eigs(build_operator(g, "SN"), g.n).lambdas
        assert lam[0] >= -1e-10 and lam[-1] <= 2 + 1e-10


def test_truncate():
    basis = smallest_eigs(build_operator(positive_only(np.zeros((4, 4))), "L_plus_sym"), k=4)
    t = basis.truncate(2)
    assert t.k == 2 and t.n == 4
    assert basis.truncate(4) is basis
    with pytest.raises(ValueError):
        basis.truncate(9)
    # as smallest_eigs does: a float is not a slice bound, nor a bool a count of one
    for k in (True, 2.5, 0, -1):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            basis.truncate(k)


def test_eigenbasis_refuses_arrays_that_are_not_a_basis():
    spec = OperatorSpec(OperatorKind.SN)
    phis = np.eye(4)
    for lambdas in (np.ones(1), np.ones(5), np.ones((4, 1))):
        with pytest.raises(ValueError, match=r"eigenbasis has eigenvalues of shape "
                                             rf"\({lambdas.shape[0]},.*\) for 4 eigenvectors"):
            Eigenbasis(lambdas, phis, spec)
    with pytest.raises(ValueError, match=r"of shape \(0,\) for 0 eigenvectors"):
        Eigenbasis(np.empty(0), np.empty((4, 0)), spec)
    basis = Eigenbasis(np.ones(4), phis, spec)
    assert basis.k == 4
    with pytest.raises(dataclasses.FrozenInstanceError):  # the check holds for its life
        basis.lambdas = np.ones(1)


def test_truncated_solve_equals_smaller_solve(rng):
    # a sweep solves once at its largest N_e and truncates for the others;
    # the dense path's subset drivers (syevr, sygvx) solve only the k pairs
    # kept, so the leading pairs of a larger solve equal a smaller solve to
    # solver accuracy (gaps near 1e-15 here), not bit for bit
    g = random_signed_graph(rng, 40, weighted=True)
    for kind in (OperatorKind.SN, OperatorKind.AM, OperatorKind.SPONGE):
        op = build_operator(g, kind)
        truncated = smallest_eigs(op, 8).truncate(4)
        direct = smallest_eigs(op, 4)
        scale = np.maximum(1.0, np.abs(direct.lambdas))
        assert np.all(np.abs(truncated.lambdas - direct.lambdas) <= 1e-14 * scale)
        assert np.abs(truncated.phis - direct.phis).max() <= 1e-12


@pytest.fixture(scope="module")
def ssbm300_component():
    # the signed component of the n=300 SSBM that the CLI tests sweep
    g, _ = generate_ssbm(SSBMParams(n=300, k=2, p_in=0.05, p_out=0.05, eta=0.1, seed=0))
    return largest_connected_component(g, "signed")[0]


def _largest_entry_positive(V):
    idx = np.argmax(np.abs(V), axis=0)
    return V * np.sign(V[idx, np.arange(V.shape[1])])


@pytest.mark.parametrize("kind", ["SN", "AM", "SPONGE"])
def test_dense_subset_basis_matches_full_spectrum_oracle(kind, rng, ssbm300_component):
    k = 10
    graphs = [random_signed_graph(rng, 40, weighted=True) for _ in range(3)]
    for g in [*graphs, ssbm300_component]:
        op = build_operator(g, kind)
        held = [M for M in (op.A, op.B) if M is not None]
        before = [[a.tobytes() for a in (M.data, M.indices, M.indptr)] for M in held]
        basis = smallest_eigs(op, k)
        for M, copy in zip(held, before):  # the solve overwrote only its own copies
            assert [a.tobytes() for a in (M.data, M.indices, M.indptr)] == copy
        # every pair from the full-spectrum drivers, then the k smallest
        mats = [M.toarray() for M in held]
        lam, V = sla.eigh(*mats) if op.B is not None else np.linalg.eigh(mats[0])
        assert basis.phis.shape == (g.n, k) and basis.phis.flags.c_contiguous
        assert np.allclose(basis.lambdas, lam[:k], rtol=0.0, atol=1e-12)
        assert np.allclose(basis.phis, _largest_entry_positive(V[:, :k]), rtol=0.0, atol=1e-10)
        B = mats[1] if op.B is not None else np.eye(g.n)
        assert np.allclose(basis.phis.T @ B @ basis.phis, np.eye(k), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind, bound", [("SN", 1.5), ("AM", 1.5), ("SPONGE", 2.5)])
def test_dense_solve_peak_memory(kind, bound, ssbm300_component):
    # the subset drivers work in place on the one dense copy of each matrix
    # and write k eigenvectors, not n: about 1.2 n^2 doubles (2.2 for a
    # pair), where a full solve and a slice took 2.0 (6.0 for a pair)
    op = build_operator(ssbm300_component, kind)
    smallest_eigs(op, 10)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        smallest_eigs(op, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * op.n ** 2


def test_cache_round_trip(tmp_path, rng):
    g = random_signed_graph(rng, 25)
    basis = smallest_eigs(build_operator(g, "SN"), k=5)
    path = eigenbasis_cache_file(tmp_path, "a" * 64, OperatorKind.SN, 5)
    save_eigenbasis(path, basis, "a" * 64)
    loaded = load_eigenbasis(path, "a" * 64, "SN")
    assert np.array_equal(loaded.lambdas, basis.lambdas)
    assert np.array_equal(loaded.phis, basis.phis)
    assert loaded.source == basis.source
    assert path.name == f"eig_{'a' * 16}_SN_k5.npz"


def test_cache_refuses_another_version(tmp_path, rng, monkeypatch):
    basis = smallest_eigs(build_operator(random_signed_graph(rng, 10), "SR"), k=2)
    monkeypatch.setattr("signedgl.spectral._CACHE_VERSION", 3)
    save_eigenbasis(tmp_path / "v3.npz", basis, "a" * 64)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="unsupported eigenbasis cache version 3"):
        load_eigenbasis(tmp_path / "v3.npz", "a" * 64, "SR")


def test_cache_refuses_a_file_of_another_graph_or_operator(tmp_path, rng):
    basis = smallest_eigs(build_operator(random_signed_graph(rng, 10), "SN"), k=2)
    path = tmp_path / "eig.npz"
    digest = "a" * 64
    save_eigenbasis(path, basis, digest)
    held = "it holds the SN basis of graph aaaaaaaaaaaaaaaa..., not the"
    refusals = [
        ("b" * 64, "SN", f"{held} SN basis of graph bbbbbbbbbbbbbbbb..."),
        # the file keeps the whole digest, not the 16 characters its name holds
        ("a" * 63 + "b", "SN", f"{held} SN basis of graph aaaaaaaaaaaaaaaa..."),
        (digest, "AM", f"{held} AM basis of graph aaaaaaaaaaaaaaaa..."),
    ]
    for other, kind, message in refusals:
        with pytest.raises(ValueError) as info:
            load_eigenbasis(path, other, kind)
        assert str(info.value) == f"cannot read cached eigenbasis eig.npz: {message}"
    assert np.array_equal(load_eigenbasis(path, digest, "SN").phis, basis.phis)


@pytest.mark.parametrize("kind", ["SN", "SPONGE"])
def test_dense_path_serves_k_above_n_minus_2_above_the_cap(kind, rng, monkeypatch):
    # above DENSE_CAP, ARPACK solves k <= n - 2 and the subset drivers the rest,
    # among them smallest_eigs(op, op.n), every pair
    monkeypatch.setattr("signedgl.spectral.DENSE_CAP", 10)
    op = build_operator(random_signed_graph(rng, 12, weighted=True), kind)
    mats = [M.toarray() for M in (op.A, op.B) if M is not None]
    lam, V = sla.eigh(*mats)
    assert np.diff(lam).min() > 1e-3  # each eigenvector is fixed up to its sign
    lanczos = []

    def spy(*args, **kwargs):
        lanczos.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr("signedgl.spectral.eigsh", spy)
    for k in (10, 11, 12):
        basis = smallest_eigs(op, k)
        assert np.allclose(basis.lambdas, lam[:k], rtol=0.0, atol=1e-10)
        assert np.allclose(basis.phis, _largest_entry_positive(V[:, :k]), rtol=0.0, atol=1e-10)
    assert lanczos == [10]
