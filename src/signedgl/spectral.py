"""Smallest eigenpairs of symmetric operators and symmetric-definite pairs.

Small problems (n <= DENSE_CAP, the package's one size rule) go through
LAPACK on dense matrices, a generalized pair through its
symmetric-definite driver (``sygvd``); larger ones through ARPACK's
Lanczos iteration.  Every Lanczos run starts from one fixed vector, so a
basis depends on its operator and k alone: a solve repeats bit for bit,
and an eigenbasis cache file keyed by (graph digest, operator, k) holds
what any sweep would solve, whatever seed draws its label masks.
Generalized pairs run shift-invert Lanczos at sigma = 0: A is positive
definite, so the largest 1/lambda are the smallest lambda, and the tight
cluster at the bottom of the spectrum is stretched apart.  A^{-1} is
applied by conjugate gradients rather than by factorizing, since sparse LU
fill-in is prohibitive on graph operators.  ``_cg_solve`` is the package's
one CG solver, at one relative tolerance ``_CG_RTOL``; the baselines solve
every system with it, at every size.

Lanczos stops at the accuracy the residual check asks for, not at machine
precision: ARPACK runs to ``_ARPACK_TOL`` = ``_RESIDUAL_TOL`` / 100, and
every solve still ends in ``_check_residuals`` at ``_RESIDUAL_TOL``.  The
sparse operators (A in mode 1, A inside CG and B in mode 3) are applied by
scipy's CSR kernel directly, which is the arithmetic of ``A @ x`` bit for
bit without its dispatch.  The returned eigenvectors are orthonormal,
B-orthonormal for generalized pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
)

from .laplacians import OperatorHandle, OperatorKind, OperatorSpec

__all__ = [
    "DENSE_CAP",
    "Eigenbasis",
    "EigenSolveError",
    "smallest_eigs",
    "full_dense_eigs",
    "save_eigenbasis",
    "load_eigenbasis",
    "eigenbasis_cache_file",
]

DENSE_CAP = 2000  # largest n solved by dense LAPACK; Lanczos above it
_RESIDUAL_TOL = 1e-6
# ARPACK stops once each Ritz estimate is below tol * |Ritz value| of the
# operator it iterates on (1/lambda for A^{-1} B in shift-invert), which is
# not the ||A v - lambda B v|| that _check_residuals bounds; the factor 100
# covers that gap and the CG error of the inner solves.  On the ssbm2
# benchmark pairs the residuals stay below 1e-8.
_ARPACK_TOL = _RESIDUAL_TOL / 100
# relative tolerance of every CG solve: the shift-invert inner solves and
# the baselines' systems
_CG_RTOL = 1e-10


class EigenSolveError(RuntimeError):
    """Raised when an iterative eigensolver fails to converge."""


@dataclass
class Eigenbasis:
    """The k smallest eigenpairs of an operator.

    ``lambdas`` is ascending; ``phis`` has one eigenvector per column,
    orthonormal (B-orthonormal for generalized pairs) and sign-canonicalized
    so the entry of largest magnitude in each column is positive.
    """

    lambdas: np.ndarray
    phis: np.ndarray
    source: OperatorSpec

    @property
    def n(self) -> int:
        return self.phis.shape[0]

    @property
    def k(self) -> int:
        return self.phis.shape[1]

    def truncate(self, k: int) -> "Eigenbasis":
        """The k leading eigenpairs: a copy, or this basis itself when k is its size."""
        if not 1 <= k <= self.k:
            raise ValueError(f"cannot truncate basis of size {self.k} to k={k}")
        if k == self.k:
            return self
        return Eigenbasis(self.lambdas[:k].copy(), self.phis[:, :k].copy(), self.source)


def _canonical_signs(phis: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(phis), axis=0)
    signs = np.sign(phis[idx, np.arange(phis.shape[1])])
    signs[signs == 0] = 1.0
    return phis * signs


def _float_csr(A) -> sp.csr_array:
    """A as float64 CSR: A itself when it already is, else one conversion,
    so that no CSC index array ever reaches the CSR kernel."""
    if sp.issparse(A) and A.format == "csr" and A.dtype == np.float64:
        return A
    return sp.csr_array(A, dtype=np.float64)


def _matvec_into(A, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y = A x for a float64 CSR A, into y; returns y.

    Zeroes y and calls the kernel that scipy's own ``A @ x`` calls, on the
    same arrays, so the result equals ``A @ x`` bit for bit.
    """
    y.fill(0.0)
    csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, y)
    return y


def _csr_operator(A) -> LinearOperator:
    """A sparse symmetric operator as a LinearOperator applied by the CSR
    kernel: the mode-1 operator and B in mode 3."""
    A = _float_csr(A)
    return LinearOperator(
        A.shape, matvec=lambda x: _matvec_into(A, np.ravel(x), np.empty(A.shape[0])),
        dtype=float,
    )


def _cg_solve(A, b: np.ndarray, rtol: float) -> np.ndarray:
    """Solve A x = b by conjugate gradients from x = 0, stopping at r = 0 or
    ||r|| < rtol ||b||; the arithmetic of scipy's unpreconditioned ``cg``.

    Raises np.linalg.LinAlgError when p^T A p <= 0 (A is not positive
    definite) or when 10 n steps do not reach the tolerance.
    """
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    A = _float_csr(A)
    r = b.copy()
    p = r.copy()
    q = np.empty_like(b)
    scratch = np.empty_like(b)
    rho_prev = None
    for step in range(10 * len(b)):
        rho = np.dot(r, r)
        # np.linalg.norm(r) is sqrt(r . r), to the bit; r = 0 stops even at rtol = 0
        if rho == 0 or np.sqrt(rho) < rtol * bnorm:
            return x
        if step > 0:
            p *= rho / rho_prev
            p += r
        _matvec_into(A, p, q)
        curvature = np.dot(p, q)
        if not curvature > 0:
            raise np.linalg.LinAlgError(
                f"CG solve met p^T A p = {curvature:.3e}: A is not positive definite"
            )
        alpha = rho / curvature
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(q, alpha, out=scratch)
        rho_prev = rho
    raise np.linalg.LinAlgError(f"CG solve did not converge in {10 * len(b)} steps")


def _cg_inverse(A) -> LinearOperator:
    """Apply A^{-1} by conjugate gradients: the shift-invert operator at
    sigma = 0.  A is well conditioned by construction (I + a normalized
    Laplacian), so no factorization is needed and sparsity fill-in is
    avoided.  Each solve stops at ``_CG_RTOL``, two orders of magnitude
    below ``_ARPACK_TOL``, so the inexact applies add far less error than
    ARPACK's own stopping rule leaves; ``_check_residuals`` then measures
    every pair on A and B themselves."""
    A = _float_csr(A)
    return LinearOperator(A.shape, matvec=lambda x: _cg_solve(A, x, _CG_RTOL), dtype=float)


def _arpack_smallest(op: OperatorHandle, k: int):
    v0 = np.random.default_rng(0).standard_normal(op.n)
    try:
        if op.is_generalized:
            # lambda -> 1/lambda: the k largest of 1/lambda are the k smallest lambda
            lam, V = eigsh(op.A, k=k, M=_csr_operator(op.B), sigma=0.0, which="LM",
                           OPinv=_cg_inverse(op.A), v0=v0, tol=_ARPACK_TOL)
        else:
            lam, V = eigsh(_csr_operator(op.A), k=k, which="SA", v0=v0, tol=_ARPACK_TOL)
    except ArpackNoConvergence as exc:
        best = _best_residual(op, exc.eigenvalues, exc.eigenvectors)
        raise EigenSolveError(
            f"eigensolver did not converge for k={k} "
            f"({len(exc.eigenvalues)} pairs found, best residual {best:.3e})"
        ) from exc
    except ArpackError as exc:
        raise EigenSolveError(f"eigensolver failed: {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"inner solve failed: {exc}") from exc
    order = np.argsort(lam)
    return lam[order], V[:, order]


def _residual_norms(op: OperatorHandle, lam, V) -> np.ndarray:
    """||A v - lam B v|| per eigenpair, with B v = v for a plain operator."""
    BV = V if op.B is None else op.B @ V
    return np.linalg.norm(op.A @ V - BV * lam, axis=0)


def _best_residual(op, lam, V) -> float:
    if lam is None or len(lam) == 0:
        return float("inf")
    return float(_residual_norms(op, lam, V).min())


def _check_residuals(op: OperatorHandle, lam: np.ndarray, V: np.ndarray) -> None:
    rnorm = _residual_norms(op, lam, V)
    if np.any(rnorm > _RESIDUAL_TOL):
        raise EigenSolveError(
            f"eigenpair residual {rnorm.max():.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}"
        )


def smallest_eigs(op: OperatorHandle, k: int) -> Eigenbasis:
    """Compute the k smallest eigenpairs of an operator handle.

    A function of (op, k) alone: every Lanczos run starts from the same
    vector, so a repeated solve gives the same bits and a cache file needs
    no seed in its key.  Raises EigenSolveError if the iterative solver
    fails to converge (with the best residual reached), ValueError for k
    out of range.
    """
    n = op.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # ARPACK needs k < n-1; fall back to the dense path near full spectra.
    if n <= DENSE_CAP or k > n - 2:
        if op.is_generalized:
            lam, V = sla.eigh(*op.dense_pair())
        else:
            lam, V = np.linalg.eigh(op.dense())
        lam, V = lam[:k], V[:, :k]
    else:
        lam, V = _arpack_smallest(op, k)
    V = _canonical_signs(np.ascontiguousarray(V))
    _check_residuals(op, lam, V)
    return Eigenbasis(lambdas=lam, phis=V, source=op.spec)


def full_dense_eigs(op: OperatorHandle) -> Eigenbasis:
    """All n eigenpairs, ascending; dense oracle path, n <= DENSE_CAP only."""
    if op.n > DENSE_CAP:
        raise ValueError(f"full dense solve limited to n <= {DENSE_CAP}, got n={op.n}")
    return smallest_eigs(op, op.n)


# ---------------------------------------------------------------------------
# Eigenbasis cache files

_CACHE_VERSION = 1


def eigenbasis_cache_file(cache_dir, dataset_digest: str, kind, k: int) -> Path:
    """Canonical cache filename keyed by (dataset digest, operator kind, k)."""
    kind = OperatorKind(kind)
    return Path(cache_dir) / f"eig_{dataset_digest[:16]}_{kind.value}_k{k}.npz"


def save_eigenbasis(path, eig: Eigenbasis) -> None:
    """Write an eigenbasis as a versioned npz dump (little-endian float64)."""
    np.savez(
        path,
        version=np.int64(_CACHE_VERSION),
        kind=np.str_(eig.source.kind.value),
        lambdas=eig.lambdas.astype("<f8"),
        phis=eig.phis.astype("<f8"),
    )


def load_eigenbasis(path) -> Eigenbasis:
    """Read a save_eigenbasis dump; entries it does not write are ignored."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _CACHE_VERSION:
            raise ValueError(f"unsupported eigenbasis cache version {version}")
        return Eigenbasis(
            lambdas=data["lambdas"].astype(float),
            phis=data["phis"].astype(float),
            source=OperatorSpec(OperatorKind(str(data["kind"]))),
        )
