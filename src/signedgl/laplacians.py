"""Laplacian operators of signed graphs.

``build_operator(g, kind)``, the one constructor, returns an
:class:`OperatorHandle`: the kind, and a symmetric matrix A, plus B for
SPONGE's symmetric-definite generalized pair (A, B), each in float64 CSR.
Any dense copy is made by the eigensolver that needs it
(:func:`signedgl.spectral.smallest_eigs`).  The unsigned Laplacians of a
plain adjacency W are kinds on a one-sign graph, bit for bit: L(W) and
Q(W) are SR on (W, 0) and (0, W), Lsym(W) is L_plus_sym on (W, 0) and
Qsym(W) is Q_minus_sym on (0, W).  Harmonic functions build only the
unlabeled block of L(W) (``signedgl.baselines``).

Conventions:
  * D is the graph's own degree vector, the attribute ``g.dp``, ``g.dn`` or
    ``g.dbar``; a zero-degree node's D^{-1/2} entry is 0, an identity row in
    the I +/- D^{-1/2} W D^{-1/2} operators;
  * an entirely absent sign (Wn = 0 or Wp = 0) contributes the zero
    operator to composite constructions, so e.g. the arithmetic-mean
    operator of an all-positive graph collapses to the normalized
    Laplacian of its positive part;
  * every matrix is symmetrized as (S + S^T)/2 after assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .graph import SignedGraph, _as_csr

__all__ = [
    "OperatorKind",
    "OperatorSpec",
    "OperatorHandle",
    "build_operator",
    "operator_component",
]

class OperatorKind(str, Enum):
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
    """Which operator an eigenbasis was solved from (``Eigenbasis.source``)."""

    kind: OperatorKind


@dataclass(frozen=True)
class OperatorHandle:
    """The operator of ``kind``: a symmetric A, or the generalized pair (A, B)
    with A and B positive definite; B is None for a plain operator.  Given
    in any sparse format or as arrays, each is held as a float64 CSR copy
    with sorted indices, the one form the eigensolvers read; the handle
    holds its kind and matrices only, and a dense solve makes its own
    copies of them."""

    kind: OperatorKind
    A: sp.csr_array
    B: sp.csr_array | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", _as_csr(self.A))
        if self.B is not None:
            object.__setattr__(self, "B", _as_csr(self.B))

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _symmetrized(S) -> sp.csr_array:
    return sp.csr_array((S + S.T) * 0.5)


def _degree_scaled(M, d: np.ndarray) -> sp.csr_array:
    """D^{-1/2} M D^{-1/2} for degrees d, with zero rows for zero-degree nodes."""
    inv_sqrt = np.zeros(d.shape, dtype=float)
    nz = d > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(d[nz])
    Di = sp.diags_array(inv_sqrt, format="csr")
    return sp.csr_array(Di @ M @ Di)


def _norm_laplacian(W: sp.csr_array, d: np.ndarray) -> sp.csr_array:
    """I - D^{-1/2} W D^{-1/2}, for W's degree vector d."""
    return sp.csr_array(sp.eye_array(W.shape[0], format="csr") - _degree_scaled(W, d))


def _norm_signless(W: sp.csr_array, d: np.ndarray) -> sp.csr_array:
    return sp.csr_array(sp.eye_array(W.shape[0], format="csr") + _degree_scaled(W, d))


def _signed_ratio(g: SignedGraph) -> tuple:
    """Dbar - (Wp - Wn); its smallest eigenvalue is 0 iff the graph is 2-balanced."""
    return (sp.diags_array(g.dbar, format="csr") - g.signed_adjacency(),)


def _balance_ratio(g: SignedGraph) -> tuple:
    """Dp - Wp + Wn.  Not positive semi-definite in general: the classifier
    refuses a basis of it whose smallest eigenvalue is negative."""
    return (sp.csr_array(sp.diags_array(g.dp, format="csr") - g.Wp + g.Wn),)


def _sponge(g: SignedGraph) -> tuple:
    """Generalized pair A = Lsym(Wp) + I, B = Lsym(Wn) + I.

    Both are I plus a positive semidefinite normalized Laplacian, so both
    are symmetric positive definite with spectra in [1, 3]: B makes the
    pair symmetric-definite, and A lets a solver invert it, as shift-invert
    at sigma = 0 does.  An absent sign
    contributes the zero operator (so e.g. Wn = 0 gives B = I).
    """
    eye = sp.eye_array(g.n, format="csr")
    A = eye if g.Wp.nnz == 0 else sp.csr_array(_norm_laplacian(g.Wp, g.dp) + eye)
    B = eye if g.Wn.nnz == 0 else sp.csr_array(_norm_laplacian(g.Wn, g.dn) + eye)
    return A, B


def _arithmetic_mean(g: SignedGraph) -> tuple:
    """Lsym(Wp) + Qsym(Wn), blending attraction and repulsion."""
    parts = [part(W, d) for part, W, d in ((_norm_laplacian, g.Wp, g.dp),
                                           (_norm_signless, g.Wn, g.dn)) if W.nnz]
    return (sum(parts[1:], parts[0]) if parts else sp.csr_array((g.n, g.n)),)


# Every kind: the connectivity mode of the largest component it is built
# on, and the builder of its matrix (of SPONGE's pair).  SN is
# I - Dbar^{-1/2} (Wp - Wn) Dbar^{-1/2}, and BN is Dbar^{-1/2} BR Dbar^{-1/2}.
_KINDS = {
    OperatorKind.LSYM_POS: ("positive", lambda g: (_norm_laplacian(g.Wp, g.dp),)),
    OperatorKind.QSYM_NEG: ("negative", lambda g: (_norm_signless(g.Wn, g.dn),)),
    OperatorKind.SR: ("signed", _signed_ratio),
    OperatorKind.SN: ("signed", lambda g: (
        sp.eye_array(g.n, format="csr") - _degree_scaled(g.signed_adjacency(), g.dbar),)),
    OperatorKind.BR: ("signed", _balance_ratio),
    OperatorKind.BN: ("signed", lambda g: (_degree_scaled(*_balance_ratio(g), g.dbar),)),
    OperatorKind.SPONGE: ("signed", _sponge),
    OperatorKind.AM: ("signed", _arithmetic_mean),
}


def build_operator(g: SignedGraph, kind) -> OperatorHandle:
    """The operator of ``kind`` (an OperatorKind or its value) on ``g``;
    a value that names no kind raises ValueError."""
    kind = OperatorKind(kind)
    return OperatorHandle(kind, *map(_symmetrized, _KINDS[kind][1](g)))


def operator_component(kind) -> str:
    """Connectivity mode whose largest component an operator kind is built on."""
    return _KINDS[OperatorKind(kind)][0]
