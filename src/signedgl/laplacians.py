"""Laplacian operators for unsigned and signed graphs.

Every constructor returns an :class:`OperatorHandle`: a symmetric matrix
A, plus B for SPONGE's symmetric-definite generalized pair (A, B), ready
for the eigensolvers in :mod:`signedgl.spectral`.

Conventions:
  * zero-degree nodes: D^{-1/2} entries are set to 0, so such nodes
    contribute identity rows in the I +/- D^{-1/2} W D^{-1/2} operators;
  * an entirely absent sign (Wn = 0 or Wp = 0) contributes the zero
    operator to composite constructions, so e.g. the arithmetic-mean
    operator of an all-positive graph collapses to the normalized
    Laplacian of its positive part;
  * every explicit matrix is symmetrized as (S + S^T)/2 after assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .graph import SignedGraph, _as_csr, degrees

__all__ = [
    "OperatorKind",
    "OperatorSpec",
    "OperatorHandle",
    "unsigned_laplacian",
    "signless_laplacian",
    "signed_ratio_laplacian",
    "balance_ratio_laplacian",
    "sponge_operator",
    "arithmetic_mean_laplacian",
    "build_operator",
    "operator_component",
]

class OperatorKind(str, Enum):
    L = "L"
    LSYM = "Lsym"
    Q = "Q"
    QSYM = "Qsym"
    LSYM_POS = "L_plus_sym"
    QSYM_NEG = "Q_minus_sym"
    SR = "SR"
    SN = "SN"
    BR = "BR"
    BN = "BN"
    SPONGE = "SPONGE"
    AM = "AM"


@dataclass(frozen=True)
class OperatorSpec:
    """Which operator a handle holds."""

    kind: OperatorKind


@dataclass(frozen=True)
class OperatorHandle:
    """A symmetric operator A, or the generalized pair (A, B) with A and B
    positive definite; B is None for a plain operator."""

    spec: OperatorSpec
    A: object
    B: object = None

    @property
    def is_generalized(self) -> bool:
        return self.B is not None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def dense(self) -> np.ndarray:
        if self.is_generalized:
            raise ValueError("use dense_pair() for generalized operators")
        return _to_dense(self.A)

    def dense_pair(self):
        if not self.is_generalized:
            raise ValueError("not a generalized operator")
        return _to_dense(self.A), _to_dense(self.B)


def _to_dense(M) -> np.ndarray:
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def _symmetrized(S) -> sp.csr_array:
    return sp.csr_array((S + S.T) * 0.5)


def _sqrt_inv_degrees(d: np.ndarray) -> np.ndarray:
    out = np.zeros(d.shape, dtype=float)
    nz = d > 0
    out[nz] = 1.0 / np.sqrt(d[nz])
    return out


def _degree_scaled(M, d: np.ndarray) -> sp.csr_array:
    """D^{-1/2} M D^{-1/2} for degrees d, with zero rows for zero-degree nodes."""
    Di = sp.diags_array(_sqrt_inv_degrees(d), format="csr")
    return sp.csr_array(Di @ M @ Di)


def _norm_adjacency(W: sp.csr_array) -> sp.csr_array:
    """D^{-1/2} W D^{-1/2} with D the row sums of W."""
    return _degree_scaled(W, np.asarray(W.sum(axis=1)).ravel())


def _eye(n: int) -> sp.csr_array:
    return sp.eye_array(n, format="csr")


def _norm_laplacian(W: sp.csr_array) -> sp.csr_array:
    return sp.csr_array(_eye(W.shape[0]) - _norm_adjacency(W))


def _norm_signless(W: sp.csr_array) -> sp.csr_array:
    return sp.csr_array(_eye(W.shape[0]) + _norm_adjacency(W))


def _degree_matrix(W: sp.csr_array) -> sp.csr_array:
    return sp.diags_array(np.asarray(W.sum(axis=1)).ravel(), format="csr")


def _handle(kind: OperatorKind, S) -> OperatorHandle:
    return OperatorHandle(OperatorSpec(kind), _symmetrized(S))


def unsigned_laplacian(W, normalized: bool = False) -> OperatorHandle:
    """L = D - W, or its normalized form I - D^{-1/2} W D^{-1/2}."""
    W = _as_csr(W)
    if normalized:
        return _handle(OperatorKind.LSYM, _norm_laplacian(W))
    return _handle(OperatorKind.L, _degree_matrix(W) - W)


def signless_laplacian(W, normalized: bool = False) -> OperatorHandle:
    """Q = D + W, or its normalized form I + D^{-1/2} W D^{-1/2}."""
    W = _as_csr(W)
    if normalized:
        return _handle(OperatorKind.QSYM, _norm_signless(W))
    return _handle(OperatorKind.Q, _degree_matrix(W) + W)


def signed_ratio_laplacian(g: SignedGraph, normalized: bool = False) -> OperatorHandle:
    """Dbar - (Wp - Wn); its smallest eigenvalue is 0 iff the graph is 2-balanced."""
    dbar = degrees(g).dbar
    W = g.signed_adjacency()
    if normalized:
        return _handle(OperatorKind.SN, _eye(g.n) - _degree_scaled(W, dbar))
    return _handle(OperatorKind.SR, sp.diags_array(dbar, format="csr") - W)


def balance_ratio_laplacian(g: SignedGraph, normalized: bool = False) -> OperatorHandle:
    """Dp - Wp + Wn.  Not positive semi-definite in general: the classifier
    refuses a basis of it whose smallest eigenvalue is negative."""
    deg = degrees(g)
    S = sp.csr_array(sp.diags_array(deg.dp, format="csr") - g.Wp + g.Wn)
    if normalized:
        return _handle(OperatorKind.BN, _degree_scaled(S, deg.dbar))
    return _handle(OperatorKind.BR, S)


def sponge_operator(g: SignedGraph) -> OperatorHandle:
    """Generalized pair A = Lsym(Wp) + I, B = Lsym(Wn) + I.

    Both are I plus a positive semidefinite normalized Laplacian, so both
    are symmetric positive definite with spectra in [1, 3]: B makes the
    pair symmetric-definite, and A lets a solver invert it, as shift-invert
    at sigma = 0 does.  An absent sign
    contributes the zero operator (so e.g. Wn = 0 gives B = I).
    """
    eye = _eye(g.n)
    A = eye if g.Wp.nnz == 0 else sp.csr_array(_norm_laplacian(g.Wp) + eye)
    B = eye if g.Wn.nnz == 0 else sp.csr_array(_norm_laplacian(g.Wn) + eye)
    return OperatorHandle(OperatorSpec(OperatorKind.SPONGE), _symmetrized(A), _symmetrized(B))


def arithmetic_mean_laplacian(g: SignedGraph) -> OperatorHandle:
    """Lsym(Wp) + Qsym(Wn), blending attraction and repulsion."""
    n = g.n
    parts = []
    if g.Wp.nnz:
        parts.append(_norm_laplacian(g.Wp))
    if g.Wn.nnz:
        parts.append(_norm_signless(g.Wn))
    if not parts:
        S = sp.csr_array((n, n))
    else:
        S = parts[0] if len(parts) == 1 else sp.csr_array(parts[0] + parts[1])
    return _handle(OperatorKind.AM, S)


# Every kind built on a SignedGraph: its builder, and the connectivity mode
# of the largest component it is built on.  The unsigned kinds (L, Lsym,
# Q, Qsym) take a plain adjacency and are not listed.
_SIGNED_KINDS = {
    OperatorKind.LSYM_POS: (lambda g: _handle(OperatorKind.LSYM_POS, _norm_laplacian(g.Wp)),
                            "positive"),
    OperatorKind.QSYM_NEG: (lambda g: _handle(OperatorKind.QSYM_NEG, _norm_signless(g.Wn)),
                            "negative"),
    OperatorKind.SR: (signed_ratio_laplacian, "signed"),
    OperatorKind.SN: (lambda g: signed_ratio_laplacian(g, normalized=True), "signed"),
    OperatorKind.BR: (balance_ratio_laplacian, "signed"),
    OperatorKind.BN: (lambda g: balance_ratio_laplacian(g, normalized=True), "signed"),
    OperatorKind.SPONGE: (sponge_operator, "signed"),
    OperatorKind.AM: (arithmetic_mean_laplacian, "signed"),
}


def _signed_kind(kind) -> tuple:
    kind = OperatorKind(kind)
    if kind not in _SIGNED_KINDS:
        raise ValueError(
            f"kind {kind.value} takes a plain adjacency; "
            "use unsigned_laplacian or signless_laplacian"
        )
    return _SIGNED_KINDS[kind]


def build_operator(g: SignedGraph, kind) -> OperatorHandle:
    """Construct any signed-graph operator kind from a SignedGraph.

    The unsigned kinds (L, Lsym, Q, Qsym) need an explicit adjacency and
    must go through unsigned_laplacian/signless_laplacian directly.
    """
    build, _ = _signed_kind(kind)
    return build(g)


def operator_component(kind) -> str:
    """Connectivity mode whose largest component an operator kind is built on."""
    return _signed_kind(kind)[1]
