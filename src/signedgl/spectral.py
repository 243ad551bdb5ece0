"""Smallest eigenpairs of symmetric operators and symmetric-definite pairs.

n <= DENSE_CAP, or k > n - 2 (which ARPACK cannot solve; all n pairs,
``smallest_eigs(op, op.n)``, are dense at any n), goes through LAPACK's subset
drivers, computing only the k pairs kept: ``syevr`` for an operator, the
symmetric-definite ``sygvx`` for a pair, each in place on Fortran-ordered dense
copies that ``smallest_eigs`` makes from the handle and alone owns.  All else
goes through ARPACK's Lanczos iteration.  Every Lanczos run starts from one
fixed vector, so a basis depends on its operator and k alone: a solve repeats
bit for bit, and an eigenbasis cache file keyed by (graph digest, operator, k)
holds what any sweep would solve, whatever seed draws its label masks.  On the
dense path the leading pairs of a k-pair solve equal a smaller solve to solver
accuracy (about 1e-15), not bit for bit.
Generalized pairs run shift-invert Lanczos at sigma = 0: A is positive
definite, so the largest 1/lambda are the smallest lambda, and the tight
cluster at the bottom of the spectrum is stretched apart.  A^{-1} is
applied by conjugate gradients rather than by factorizing, since sparse LU
fill-in is prohibitive on graph operators.  ``_cg_solve`` is the package's
one CG solver, at one relative tolerance ``_CG_RTOL``; the baselines solve
every system with it, at every size.

Lanczos stops at the accuracy the residual check asks for, not at machine
precision: ARPACK runs to ``_ARPACK_TOL`` = ``_RESIDUAL_TOL`` / 100.  Both
paths end in ``_check_pairs``, which refuses fewer than k pairs and any
residual not within ``_RESIDUAL_TOL`` (NaN too).  A handle holds float64
CSR, so the sparse operators (A in mode 1, A inside CG and B in mode 3)
are applied by scipy's CSR kernel directly, which is the arithmetic of
``A @ x`` bit for bit without its dispatch.  The returned eigenvectors are
orthonormal, B-orthonormal for generalized pairs.

An ``Eigenbasis`` records the kind of the handle it was solved from as its
``source``, and refuses arrays without one eigenvalue per eigenvector,
or without eigenvectors; ``truncate`` checks k as ``smallest_eigs`` does.
A cache file records its graph's full digest and its kind, and
``load_eigenbasis`` refuses another graph, kind or version.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
)

from .graph import _positive_int
from .laplacians import OperatorHandle, OperatorKind, OperatorSpec

__all__ = [
    "DENSE_CAP",
    "Eigenbasis",
    "EigenSolveError",
    "smallest_eigs",
    "save_eigenbasis",
    "load_eigenbasis",
    "eigenbasis_cache_file",
]

DENSE_CAP = 2000  # largest n always solved by dense LAPACK; Lanczos above it unless k > n - 2
_RESIDUAL_TOL = 1e-6
# ARPACK stops once each Ritz estimate is below tol * |Ritz value| of the
# operator it iterates on (1/lambda for A^{-1} B in shift-invert), which is
# not the ||A v - lambda B v|| that _check_pairs bounds; the factor 100
# covers that gap and the CG error of the inner solves.  On the ssbm2
# benchmark pairs the residuals stay below 1e-8.
_ARPACK_TOL = _RESIDUAL_TOL / 100
# relative tolerance of every CG solve: the shift-invert inner solves and
# the baselines' systems
_CG_RTOL = 1e-10


class EigenSolveError(RuntimeError):
    """Raised when an iterative eigensolver fails to converge."""


@dataclass(frozen=True)
class Eigenbasis:
    """The k smallest eigenpairs of an operator.

    ``lambdas`` is ascending; ``phis`` has one eigenvector per column,
    orthonormal (B-orthonormal for generalized pairs) and sign-canonicalized
    so the entry of largest magnitude in each column is positive.  Frozen,
    so the shapes checked at construction stay checked.
    """

    lambdas: np.ndarray
    phis: np.ndarray
    source: OperatorSpec

    def __post_init__(self):
        if self.k == 0 or self.lambdas.shape != (self.k,):
            raise ValueError(f"eigenbasis has eigenvalues of shape {self.lambdas.shape} "
                             f"for {self.k} eigenvectors")

    @property
    def n(self) -> int:
        return self.phis.shape[0]

    @property
    def k(self) -> int:
        return self.phis.shape[1]

    def truncate(self, k: int) -> "Eigenbasis":
        """The k leading eigenpairs, k an integer in [1, self.k]: a copy, or
        this basis itself when k is its size."""
        k = _positive_int(k, "k")
        if k > self.k:
            raise ValueError(f"cannot truncate basis of size {self.k} to k={k}")
        if k == self.k:
            return self
        return Eigenbasis(self.lambdas[:k].copy(), self.phis[:, :k].copy(), self.source)


def _canonical_signs(phis: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(phis), axis=0)
    signs = np.sign(phis[idx, np.arange(phis.shape[1])])
    signs[signs == 0] = 1.0
    return phis * signs


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
    return LinearOperator(
        A.shape, matvec=lambda x: _matvec_into(A, np.ravel(x), np.empty(A.shape[0])),
        dtype=float,
    )


def _cg_solve(A, b: np.ndarray, rtol: float) -> np.ndarray:
    """Solve A x = b (A float64 CSR) by conjugate gradients from x = 0, stopping
    at r = 0 or ||r|| < rtol ||b||; the arithmetic of scipy's unpreconditioned ``cg``.

    Raises np.linalg.LinAlgError when p^T A p <= 0 (A is not positive
    definite) or when 10 n steps do not reach the tolerance.
    """
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
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
    ARPACK's own stopping rule leaves; ``_check_pairs`` then measures
    every pair on A and B themselves."""
    return LinearOperator(A.shape, matvec=lambda x: _cg_solve(A, x, _CG_RTOL), dtype=float)


def _arpack_smallest(op: OperatorHandle, k: int):
    v0 = np.random.default_rng(0).standard_normal(op.n)
    try:
        if op.B is not None:
            # lambda -> 1/lambda: the k largest of 1/lambda are the k smallest lambda
            lam, V = eigsh(op.A, k=k, M=_csr_operator(op.B), sigma=0.0, which="LM",
                           OPinv=_cg_inverse(op.A), v0=v0, tol=_ARPACK_TOL)
        else:
            lam, V = eigsh(_csr_operator(op.A), k=k, which="SA", v0=v0, tol=_ARPACK_TOL)
    except ArpackNoConvergence as exc:
        best = _residual_norms(op, exc.eigenvalues, exc.eigenvectors).min(initial=np.inf)
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


def _check_pairs(op: OperatorHandle, k: int, lam: np.ndarray, V: np.ndarray) -> None:
    """Refuse fewer than k pairs (a NaN entry makes LAPACK find fewer) and any
    residual that is not within ``_RESIDUAL_TOL``, NaN included."""
    if len(lam) < k:
        raise EigenSolveError(f"eigensolver found {len(lam)} of {k} eigenpairs")
    rnorm = _residual_norms(op, lam, V)
    if not np.all(rnorm <= _RESIDUAL_TOL):
        raise EigenSolveError(
            f"eigenpair residual {rnorm.max():.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}"
        )


def smallest_eigs(op: OperatorHandle, k: int) -> Eigenbasis:
    """Compute the k smallest eigenpairs of an operator handle.

    A function of (op, k) alone: every Lanczos run starts from the same
    vector, so a repeated solve gives the same bits and a cache file needs
    no seed in its key.  Raises EigenSolveError if Lanczos fails to converge
    (with the best residual reached) or a solve gives fewer than k pairs or
    one above the residual bound; ValueError for a k not an integer in [1, n].
    """
    n = op.n
    k = _positive_int(k, "k")
    if k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # ARPACK needs k < n-1; fall back to the dense path near full spectra.
    if n <= DENSE_CAP or k > n - 2:
        # only the k pairs kept (syevr, or sygvx for a pair), in place on
        # Fortran-ordered copies the solve owns: f2py passes them as they
        # are, and the handle's matrices are never overwritten
        mats = [M.toarray(order="F") for M in (op.A, op.B) if M is not None]
        lam, V = sla.eigh(*mats, subset_by_index=[0, k - 1], overwrite_a=True,
                          overwrite_b=True, check_finite=False)
    else:
        lam, V = _arpack_smallest(op, k)
    V = _canonical_signs(np.ascontiguousarray(V))
    _check_pairs(op, k, lam, V)
    return Eigenbasis(lambdas=lam, phis=V, source=OperatorSpec(op.kind))


# ---------------------------------------------------------------------------
# Eigenbasis cache files

_CACHE_VERSION = 2


def eigenbasis_cache_file(cache_dir, dataset_digest: str, kind, k: int) -> Path:
    """Canonical cache filename keyed by (dataset digest, operator kind, k)."""
    kind = OperatorKind(kind)
    return Path(cache_dir) / f"eig_{dataset_digest[:16]}_{kind.value}_k{k}.npz"


def save_eigenbasis(path, eig: Eigenbasis, digest: str) -> None:
    """Write an eigenbasis of the graph with this digest as a versioned npz
    dump (little-endian float64).

    The dump goes to a temporary file beside ``path``, which then replaces
    ``path`` in one rename: a write that fails or is killed partway leaves
    no file at ``path`` for a later sweep to refuse.  A failed write removes
    its temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        # an open file, since np.savez appends .npz to a name that lacks it
        with open(tmp, "xb") as fh:
            np.savez(
                fh,
                version=np.int64(_CACHE_VERSION),
                digest=np.str_(digest),
                kind=np.str_(eig.source.kind.value),
                lambdas=eig.lambdas.astype("<f8"),
                phis=eig.phis.astype("<f8"),
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_eigenbasis(path, digest: str, kind) -> Eigenbasis:
    """Read the save_eigenbasis dump of the ``kind`` basis of the graph with
    this digest; entries it does not write are ignored.  Any failure, a file
    of another version, graph or kind among them, is a ValueError naming it."""
    kind = OperatorKind(kind)
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported eigenbasis cache version {version}")
            held_digest, held_kind = str(data["digest"]), OperatorKind(str(data["kind"]))
            if (held_digest, held_kind) != (digest, kind):
                raise ValueError(f"it holds the {held_kind.value} basis of graph "
                                 f"{held_digest[:16]}..., not the {kind.value} basis of "
                                 f"graph {digest[:16]}...")
            return Eigenbasis(data["lambdas"].astype(float), data["phis"].astype(float),
                              OperatorSpec(kind))
    except Exception as exc:
        raise ValueError(f"cannot read cached eigenbasis {Path(path).name}: {exc}") from exc
