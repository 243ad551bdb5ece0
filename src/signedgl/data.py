"""Dataset ingestion, canonical export, synthetic generation, label sampling.

Edge lists are plain text with one ``src dst weight`` record per line,
label files one ``node_id class_label`` record.  Both go through one
record reader: ``#``/``%`` lines are comments, and a line that holds a
comma is split on commas, any other line on whitespace.  Edge lists may
start with a header line.  A LabelData holds one class index per node,
-1 for an unknown node; ``write_labels`` writes a line for each known one.
Records with the same node pair are summed per sign in record order, so a
pair voted both ways keeps a positive and a negative edge.  Zero-weight
records (neutral votes) and self-loops are dropped with a counted warning.
``_signed_graph`` is the one assembly of a graph from (src, dst, signed
weight) records, for the loader and the block-model generator alike.

The canonical export declares every node in index order via ``# node:``
comment lines; plain edge-list parsers skip them, our loader uses them,
and reloading a canonical file reproduces the exact matrices including
isolated nodes.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .classifier import _positive_int
from .graph import SignedGraph

__all__ = [
    "EdgeListError",
    "LabelData",
    "SSBMParams",
    "load_signed_edge_list",
    "write_signed_edge_list",
    "graph_digest",
    "write_labels",
    "load_labels",
    "generate_ssbm",
    "ssbm_label_data",
    "sample_labeled_nodes",
]

_COMMENT_PREFIXES = ("#", "%")
_NODE_DIRECTIVE = "node:"


class EdgeListError(ValueError):
    """Malformed edge-list or label file; message carries the line number."""


def _iter_records(text: str, node_order: list, header: bool = False):
    """Yield (lineno, fields) for data rows; collect '# node:' directives as
    (lineno, node id).

    A line with a comma is split on commas (fields stripped), any other
    line on whitespace; ``header`` skips the first data row.
    """
    skipped_header = not header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_COMMENT_PREFIXES):
            body = line[1:].strip()
            if body.startswith(_NODE_DIRECTIVE):
                node_order.append((lineno, body[len(_NODE_DIRECTIVE):].strip()))
            continue
        if not skipped_header:
            skipped_header = True
            continue
        yield lineno, [p.strip() for p in line.split(",")] if "," in line else line.split()


def load_signed_edge_list(path, *, header: bool = False) -> SignedGraph:
    """Parse a signed edge list into a SignedGraph.

    Node identifiers are arbitrary strings mapped to dense 0-based
    indices in order of first appearance (or in ``# node:`` manifest
    order when present).  Duplicate records are summed per sign.
    ``header`` skips the first data row.

    Raises:
        EdgeListError: on malformed rows (with line number) or a file that
            names no node.
    """
    text = Path(path).read_text(encoding="utf-8")
    node_order: list[tuple[int, str]] = []
    index: dict[str, int] = {}
    src, dst, weights = [], [], []
    n_self = n_zero = 0

    def node(ident: str) -> int:
        if ident not in index:
            index[ident] = len(index)
        return index[ident]

    records = list(_iter_records(text, node_order, header))
    for lineno, ident in node_order:
        _require_field(path, lineno, "node id", ident)
        node(ident)
    for lineno, fields in records:
        if len(fields) < 3:
            raise EdgeListError(
                f"{path}: line {lineno}: expected 'src dst weight', got {len(fields)} fields"
            )
        _require_field(path, lineno, "node id", fields[0], fields[1])
        try:
            w = float(fields[2])
        except ValueError as exc:
            raise EdgeListError(
                f"{path}: line {lineno}: weight {fields[2]!r} is not a number"
            ) from exc
        if not np.isfinite(w):
            raise EdgeListError(f"{path}: line {lineno}: non-finite weight")
        if fields[0] == fields[1]:
            n_self += 1
            continue
        if w == 0.0:
            n_zero += 1
            continue
        src.append(node(fields[0]))
        dst.append(node(fields[1]))
        weights.append(w)
    if not index:
        raise EdgeListError(
            f"{path}: no edge records found (self-loops and zero weights give no node)"
        )
    if n_self:
        warnings.warn(f"{path}: dropped {n_self} self-loop rows", stacklevel=2)
    if n_zero:
        warnings.warn(f"{path}: dropped {n_zero} zero-weight rows", stacklevel=2)
    return _signed_graph(len(index), src, dst, weights, node_ids=list(index))


def _require_field(path, lineno: int, what: str, *values: str) -> None:
    """Refuse an empty field, which a comma line such as ``a,,1`` yields."""
    if "" in values:
        raise EdgeListError(f"{path}: line {lineno}: empty {what}")


def _signed_graph(n, src, dst, weights, node_ids=None) -> SignedGraph:
    """The one assembly of a graph from (src, dst, signed weight) records.

    A positive record goes to Wp, a negative one to Wn by magnitude, and the
    upper triangle is mirrored.  The records of one node pair are summed per
    sign in record order: bincount adds in input order, starting from 0.0.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    pair = np.minimum(src, dst) * n + np.maximum(src, dst)
    halves = []
    for signed in (weights, -weights):
        keep = signed > 0
        keys, slot = np.unique(pair[keep], return_inverse=True)
        w = np.bincount(slot, weights=signed[keep], minlength=keys.size)
        upper = sp.coo_array((w, np.divmod(keys, n)), shape=(n, n))
        halves.append(upper + upper.T)
    return SignedGraph(*halves, node_ids=node_ids)


def _canonical_lines(g: SignedGraph):
    """Header, node manifest, then one line per upper-triangle record, ordered
    by (i, j, signed weight): a pair carrying both signs lists its negative first."""
    yield "# signed edge list"
    for ident in g.node_ids:
        yield f"# node: {ident}"
    up, un = (sp.triu(W, k=1, format="coo") for W in (g.Wp, g.Wn))
    i, j = np.concatenate([up.row, un.row]), np.concatenate([up.col, un.col])
    w = np.concatenate([up.data, -un.data])
    order = np.lexsort((w, j, i))
    for a, b, x in zip(i[order].tolist(), j[order].tolist(), w[order].tolist()):
        yield f"{g.node_ids[a]} {g.node_ids[b]} {x!r}"


def _check_field(what: str, value: str, file_kind: str) -> None:
    """Refuse a field that would not reload as itself: empty, holding
    whitespace or a comma, or starting with ``#``/``%``."""
    if value.split() != [value] or "," in value or value.startswith(_COMMENT_PREFIXES):
        raise ValueError(f"{what} {value!r} cannot be written to {file_kind}")


def write_signed_edge_list(g: SignedGraph, path) -> None:
    """Write the canonical whitespace-delimited edge list (sorted, exact weights).

    A node id that would not reload as itself raises ValueError first."""
    for ident in g.node_ids:
        _check_field("node id", ident, "an edge list")
    with open(path, "w", encoding="utf-8") as fh:
        for line in _canonical_lines(g):
            fh.write(line + "\n")


def graph_digest(g: SignedGraph) -> str:
    """SHA-256 of the canonical edge-list serialization."""
    h = hashlib.sha256()
    for line in _canonical_lines(g):
        h.update((line + "\n").encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class LabelData:
    """Ground-truth classes aligned to graph indices: y[i] indexes
    ``class_names``, and y[i] = -1 marks an unknown node, so ``known`` is
    y >= 0."""

    y: np.ndarray
    class_names: tuple

    @property
    def known(self) -> np.ndarray:
        return self.y >= 0

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def restrict(self, old_to_new: np.ndarray) -> "LabelData":
        """Re-index onto a subgraph produced by largest_connected_component;
        ``old_to_new`` must cover the graph these labels cover."""
        if old_to_new.shape[0] != self.n:
            raise ValueError(f"labels cover {self.n} nodes, the graph {old_to_new.shape[0]}")
        kept = np.flatnonzero(old_to_new >= 0)
        y = np.full(kept.size, -1, dtype=np.int64)
        y[old_to_new[kept]] = self.y[kept]
        return LabelData(y=y, class_names=self.class_names)


def write_labels(g: SignedGraph, labels: LabelData, path) -> None:
    """Write one ``node_id class_name`` line per known node, in index order.

    A node id or class name that would not reload as itself raises
    ValueError first."""
    if labels.n != g.n:
        raise ValueError(f"labels cover {labels.n} nodes, the graph {g.n}")
    known = np.flatnonzero(labels.known).tolist()
    for i in known:
        _check_field("node id", g.node_ids[i], "a label file")
    for name in labels.class_names:
        _check_field("class name", name, "a label file")
    with open(path, "w", encoding="utf-8") as fh:
        for i in known:
            fh.write(f"{g.node_ids[i]} {labels.class_names[labels.y[i]]}\n")


def load_labels(path, g: SignedGraph, strict: bool = True) -> LabelData:
    """Read (node_id, class_label) rows and align them to graph indices.

    Class labels are arbitrary strings mapped to 0..K-1 in order of
    first appearance.  A label for an unknown node id is an error when
    ``strict`` else skipped with a counted warning; duplicate labels for
    one node are always an error.
    """
    text = Path(path).read_text(encoding="utf-8")
    index = {ident: i for i, ident in enumerate(g.node_ids)}
    classes: dict[str, int] = {}
    y = np.full(g.n, -1, dtype=np.int64)
    n_skipped = 0
    for lineno, fields in _iter_records(text, []):
        if len(fields) < 2:
            raise EdgeListError(
                f"{path}: line {lineno}: expected 'node_id class_label'"
            )
        ident, cls = fields[0], fields[1]
        _require_field(path, lineno, "node id", ident)
        _require_field(path, lineno, "class label", cls)
        if ident not in index:
            if strict:
                raise EdgeListError(
                    f"{path}: line {lineno}: unknown node id {ident!r}"
                )
            n_skipped += 1
            continue
        i = index[ident]
        if y[i] >= 0:
            raise EdgeListError(
                f"{path}: line {lineno}: duplicate label for node {ident!r}"
            )
        if cls not in classes:
            classes[cls] = len(classes)
        y[i] = classes[cls]
    if n_skipped:
        warnings.warn(f"{path}: skipped {n_skipped} labels for absent nodes", stacklevel=2)
    return LabelData(y=y, class_names=tuple(classes))


@dataclass(frozen=True)
class SSBMParams:
    """Signed stochastic block model: positive within blocks, negative across,
    each realized edge sign-flipped independently with probability eta."""

    n: int
    k: int
    p_in: float
    p_out: float
    eta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _positive_int(self.n, "n")
        if _positive_int(self.k, "k") > self.n:
            raise ValueError("k must be in [1, n]")
        _positive_int(self.seed, "seed", least=0)
        for name in ("p_in", "p_out", "eta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def generate_ssbm(params: SSBMParams):
    """Sample a signed stochastic block model.

    Draw order, on which every seeded graph and so every cache file digest
    depends: one ``default_rng(seed)`` stream; for each row i = 0 … n-2,
    ``random(n-1-i)`` gives one uniform per column j = i+1 … n-1 (an edge
    when it is below p_in for a same-block j, p_out otherwise), then, if the
    row has an edge, ``random(#edges)`` gives one flip uniform per edge in
    column order (the sign flips when it is below eta).

    Returns:
        (graph, blocks): the signed graph and the ground-truth block of
        every node.  Deterministic for a fixed seed.
    """
    n, k, p_in, p_out = params.n, params.k, params.p_in, params.p_out
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    blocks = np.repeat(np.arange(k), sizes)
    # blocks are contiguous and ascending: row i's same-block columns are
    # i+1 … block_end[i]-1, so a prefix of its draws compares with p_in
    block_end = np.cumsum(sizes)[blocks]
    ends = block_end.tolist()
    rng = np.random.default_rng(params.seed)
    cols, counts, flips = [np.empty(0, np.int64)], np.zeros(n, np.int64), [np.empty(0)]
    for i in range(n - 1):
        r = rng.random(n - 1 - i)
        hit = r < p_out
        if p_in != p_out:  # the paper's model draws every pair with one p
            m = ends[i] - 1 - i
            np.less(r[:m], p_in, out=hit[:m])
        offsets = np.flatnonzero(hit)  # column j as its offset j-i-1
        if offsets.size:
            cols.append(offsets)
            counts[i] = offsets.size
            flips.append(rng.random(offsets.size))
    rows = np.repeat(np.arange(n), counts)
    # rebinding frees the per-row arrays before the assembly allocates its own
    cols, flips = np.concatenate(cols), np.concatenate(flips) < params.eta
    cols += rows + 1
    signs = np.where((cols < block_end[rows]) != flips, 1.0, -1.0)
    return _signed_graph(n, rows, cols, signs), blocks


def ssbm_label_data(blocks: np.ndarray) -> LabelData:
    """Ground-truth LabelData for a generated block model."""
    blocks = np.asarray(blocks, dtype=np.int64)
    k = int(blocks.max()) + 1 if blocks.size else 0
    return LabelData(y=blocks.copy(), class_names=tuple(f"block{i}" for i in range(k)))


def sample_labeled_nodes(labels: LabelData, fraction: float, seed: int = 0) -> np.ndarray:
    """Uniform sample (without replacement) of labeled training nodes.

    Draws round(fraction * #known) nodes from those with ground truth,
    from ``default_rng(seed)``.  Raises if the rounded count is zero, or if
    ``seed`` is not an integer >= 0 (a float or a bool would be truncated).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    pool = np.flatnonzero(labels.known)
    count = round(fraction * pool.size)
    if count == 0:
        raise ValueError(
            f"fraction {fraction} of {pool.size} labeled nodes rounds to zero"
        )
    rng = np.random.default_rng(_positive_int(seed, "seed", least=0))
    chosen = rng.choice(pool, size=count, replace=False)
    mask = np.zeros(labels.n, dtype=bool)
    mask[chosen] = True
    return mask
