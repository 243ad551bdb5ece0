import hashlib
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from signedgl import (
    LabelData,
    SSBMParams,
    SignedGraph,
    build_operator,
    generate_ssbm,
    graph_digest,
    load_labels,
    load_signed_edge_list,
    sample_labeled_nodes,
    split_signs,
    ssbm_label_data,
    write_labels,
    write_signed_edge_list,
)
from signedgl.data import EdgeListError, _canonical_lines, _iter_records

from conftest import random_signed_graph


def write(tmp_path, text, name="edges.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_basic(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "1 2 +1\n2 3 -1\n"))
    assert g.n == 3
    assert g.num_positive_edges == 1
    assert g.num_negative_edges == 1
    assert g.node_ids == ("1", "2", "3")


def test_load_sums_duplicates(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "1 2 1\n1 2 1\n"))
    assert g.Wp[0, 1] == 2.0


def test_load_keeps_conflicting_signs_separate(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "a b 2\nb a -3\n"))
    assert g.Wp[0, 1] == 2.0
    assert g.Wn[0, 1] == 3.0


def test_load_drops_zero_weight_with_warning(tmp_path):
    with pytest.warns(UserWarning, match="1 zero-weight"):
        g = load_signed_edge_list(write(tmp_path, "1 2 0\n1 3 1\n"))
    assert g.num_positive_edges == 1


def test_load_drops_self_loops_with_warning(tmp_path):
    with pytest.warns(UserWarning, match="1 self-loop"):
        g = load_signed_edge_list(write(tmp_path, "1 1 4\n1 2 1\n"))
    assert g.n == 2


def test_load_malformed_row_reports_line(tmp_path):
    with pytest.raises(EdgeListError, match="line 2"):
        load_signed_edge_list(write(tmp_path, "1 2 1\n1 2\n"))
    with pytest.raises(EdgeListError, match="line 1.*not a number"):
        load_signed_edge_list(write(tmp_path, "1 2 abc\n"))
    for weight in ("inf", "-inf", "nan"):
        with pytest.raises(EdgeListError, match="line 2: non-finite weight"):
            load_signed_edge_list(write(tmp_path, f"1 2 1\n2 3 {weight}\n"))
    # a comma line can hold an empty field: 'a,,1' loaded as nodes 'a' and ''
    with pytest.raises(EdgeListError, match="line 1: empty node id"):
        load_signed_edge_list(write(tmp_path, "a,,1\nb,c,-1\na,b,2\n"))
    with pytest.raises(EdgeListError, match="line 3: empty node id"):
        load_signed_edge_list(write(tmp_path, "a b 1\nb c 1\n, c, -1\n"))
    with pytest.raises(EdgeListError, match="line 2: empty node id"):
        load_signed_edge_list(write(tmp_path, "# node: a\n# node:\na b 1\n"))
    g = load_signed_edge_list(write(tmp_path, "a b 1\n"))
    with pytest.raises(EdgeListError, match="line 2: expected 'node_id class_label'"):
        load_labels(write(tmp_path, "a x\nb\n", "labels.txt"), g)
    # ',1' labelled node '' and 'b,' gave node b the class '', skipping or not
    for line, what in ((",1", "node id"), ("b,", "class label")):
        for strict in (True, False):
            with pytest.raises(EdgeListError, match=f"line 2: empty {what}"):
                load_labels(write(tmp_path, f"a,1\n{line}\n", "labels.txt"), g, strict=strict)


def test_edge_loader_refuses_node_ids_that_read_as_comments(tmp_path):
    # the label line of a node '#b' would be a comment, so it could never be labeled
    for text, line, ident in (("a b 1\na #b 1\n", 2, "#b"),
                              ("# node: a\n# node: #c\na b 1\n", 2, "#c"),
                              ("a,%d,1\n", 1, "%d")):
        with pytest.raises(EdgeListError, match=re.escape(f"line {line}: node id {ident!r}")):
            load_signed_edge_list(write(tmp_path, text))
    # class names are read as before
    g = load_signed_edge_list(write(tmp_path, "a b 1\n"))
    assert load_labels(write(tmp_path, "a #x\n", "labels.txt"), g).class_names == ("#x",)


def test_load_empty_file_errors(tmp_path):
    with pytest.raises(EdgeListError, match="no edge records"):
        load_signed_edge_list(write(tmp_path, "# only a comment\n"))


def test_load_comma_format_and_header(tmp_path):
    text = "src,dst,w\n1,2,1\n2,3,-1\n"
    g = load_signed_edge_list(write(tmp_path, text), header=True)
    assert g.n == 3 and g.num_negative_edges == 1


EDGE_RECORDS = [("a", "b", "1"), ("b", "c", "-2.5"), ("c", "a", "0.5"), ("c", "d", "-1")]
LABEL_RECORDS = [("a", "x"), ("b", "y"), ("d", "x")]


@pytest.mark.parametrize("sep", [" ", ",", ", ", "\t"])
def test_both_loaders_read_every_delimiter_alike(sep, tmp_path):
    def text(records):
        return "# comment\n\n" + "".join(sep.join(r) + "\n" for r in records)

    def load(edge_text, **kwargs):
        g = load_signed_edge_list(write(tmp_path, edge_text), **kwargs)
        return g, load_labels(write(tmp_path, text(LABEL_RECORDS), "l.txt"), g)

    g_ref, labels_ref = load(text(EDGE_RECORDS).replace(sep, " "))
    variants = [
        load(text(EDGE_RECORDS)),
        load(sep.join(("src", "dst", "w")) + "\n" + text(EDGE_RECORDS), header=True),
    ]
    for g, labels in variants:
        assert g.node_ids == g_ref.node_ids == ("a", "b", "c", "d")
        assert (g.Wp != g_ref.Wp).nnz == 0 and (g.Wn != g_ref.Wn).nnz == 0
        assert g.Wn[1, 2] == 2.5
        assert np.array_equal(labels.y, labels_ref.y)
        assert np.array_equal(labels.y, [0, 1, -1, 0])
        assert labels.class_names == labels_ref.class_names == ("x", "y")


def test_load_skips_comments(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "# c\n% c\n1 2 1\n"))
    assert g.n == 2


def test_round_trip_exact(tmp_path, rng):
    for trial in range(5):
        g = random_signed_graph(rng, 30, density=0.1, weighted=True)
        p = tmp_path / f"g{trial}.txt"
        write_signed_edge_list(g, p)
        back = load_signed_edge_list(p)
        assert back.node_ids == g.node_ids
        assert (back.Wp != g.Wp).nnz == 0
        assert (back.Wn != g.Wn).nnz == 0


def test_round_trip_preserves_isolated_nodes(tmp_path):
    Wp = np.zeros((4, 4))
    Wp[0, 1] = Wp[1, 0] = 1.0  # nodes 2, 3 isolated
    g = SignedGraph(Wp, np.zeros((4, 4)), node_ids=["a", "b", "c", "d"])
    p = tmp_path / "iso.txt"
    write_signed_edge_list(g, p)
    back = load_signed_edge_list(p)
    assert back.n == 4
    assert back.node_ids == ("a", "b", "c", "d")


@pytest.mark.parametrize("bad", ["a b", "a,b", "", "#a", "%a"])
def test_writer_refuses_ids_that_do_not_reload(bad, tmp_path):
    # a 3-node path whose middle id would split, vanish, or read as a comment
    Wp = np.zeros((3, 3))
    Wp[0, 1] = Wp[1, 0] = Wp[1, 2] = Wp[2, 1] = 1.0
    g = SignedGraph(Wp, np.zeros((3, 3)), node_ids=["x", bad, "y"])
    p = tmp_path / "bad.txt"
    with pytest.raises(ValueError, match=f"node id {bad!r}"):
        write_signed_edge_list(g, p)
    # the label writer refuses the same fields, node id or class name
    with pytest.raises(ValueError, match=f"node id {bad!r}"):
        write_labels(g, LabelData(y=np.zeros(3, np.int64), class_names=("c",)), p)
    plain = SignedGraph(Wp, np.zeros((3, 3)))
    with pytest.raises(ValueError, match=f"class name {bad!r}"):
        write_labels(plain, LabelData(y=np.array([0, 1, -1]), class_names=("c", bad)), p)
    assert not p.exists()
    graph_digest(g)  # the digest does not reload the file, so it accepts any id
    # an unknown node gets no line, so its id is not checked
    write_labels(g, LabelData(y=np.array([0, -1, 0]), class_names=("c",)), p)
    assert p.read_text(encoding="utf-8") == "x c\ny c\n"


def test_graph_digest_distinguishes(rng):
    g1 = random_signed_graph(rng, 20)
    g2 = random_signed_graph(rng, 20)
    assert graph_digest(g1) == graph_digest(g1)
    assert graph_digest(g1) != graph_digest(g2)


def test_graph_digest_is_sha256_of_the_canonical_file(tmp_path, rng):
    g = random_signed_graph(rng, 30, density=0.1, weighted=True)
    p = tmp_path / "g.txt"
    write_signed_edge_list(g, p)
    assert graph_digest(g) == hashlib.sha256(p.read_bytes()).hexdigest()


def test_load_labels_two_class(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "a b 1\nb c 1\n"))
    lp = write(tmp_path, "a yes\nb no\nc yes\n", "labels.txt")
    labels = load_labels(lp, g)
    assert labels.num_classes == 2
    assert np.array_equal(labels.y, [0, 1, 0])


def test_write_labels_round_trip_keeps_unlabeled_nodes(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "a b 1\nb c -1\nc d 1\n"))
    labels = LabelData(y=np.array([1, -1, 0, 1]), class_names=("x", "y"))
    p = tmp_path / "labels.txt"
    write_labels(g, labels, p)
    assert p.read_text(encoding="utf-8") == "a y\nc x\nd y\n"
    back = load_labels(p, g)
    # the loader numbers classes by first appearance, so compare names, not y
    def names(lab):
        return [lab.class_names[c] if c >= 0 else None for c in lab.y]
    assert names(back) == names(labels) == ["y", None, "x", "y"]
    assert np.array_equal(back.known, [True, False, True, True])
    with pytest.raises(ValueError, match="labels cover 3 nodes, the graph 4"):
        write_labels(g, LabelData(y=np.zeros(3, np.int64), class_names=("x",)), p)


def test_load_labels_absent_node(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "a b 1\n"))
    lp = write(tmp_path, "a x\nzz y\n", "labels.txt")
    with pytest.raises(EdgeListError, match="unknown node"):
        load_labels(lp, g, strict=True)
    with pytest.warns(UserWarning, match="skipped 1"):
        labels = load_labels(lp, g, strict=False)
    assert labels.known.sum() == 1


def test_load_labels_duplicate_errors(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "a b 1\n"))
    lp = write(tmp_path, "a x\na y\n", "labels.txt")
    with pytest.raises(EdgeListError, match="duplicate"):
        load_labels(lp, g)


def test_ssbm_complete_two_balanced():
    g, blocks = generate_ssbm(SSBMParams(n=10, k=2, p_in=1.0, p_out=1.0, eta=0.0, seed=0))
    same = blocks[:, None] == blocks[None, :]
    Wp = g.Wp.toarray()
    Wn = g.Wn.toarray()
    off = ~np.eye(10, dtype=bool)
    assert (Wp[same & off] == 1).all()
    assert (Wn[~same] == 1).all()
    lam = np.linalg.eigvalsh(build_operator(g, "SR").A.toarray())
    assert lam[0] <= 1e-10


def test_ssbm_empty():
    g, _ = generate_ssbm(SSBMParams(n=8, k=2, p_in=0.0, p_out=0.0, seed=1))
    assert g.Wp.nnz == 0 and g.Wn.nnz == 0


def test_ssbm_edge_counts_within_binomial_bounds():
    params = SSBMParams(n=200, k=2, p_in=0.1, p_out=0.1, eta=0.05, seed=7)
    g, blocks = generate_ssbm(params)
    same = np.triu(blocks[:, None] == blocks[None, :], 1)
    diff = np.triu(blocks[:, None] != blocks[None, :], 1)
    W_any = np.triu((g.Wp + g.Wn).toarray() > 0, 1)
    for pairs, p in ((same, params.p_in), (diff, params.p_out)):
        m = int(pairs.sum())
        realized = int((W_any & pairs).sum())
        sigma = np.sqrt(m * p * (1 - p))
        assert abs(realized - m * p) <= 3 * sigma


def test_ssbm_deterministic():
    params = SSBMParams(n=50, k=3, p_in=0.3, p_out=0.2, eta=0.1, seed=11)
    g1, b1 = generate_ssbm(params)
    g2, b2 = generate_ssbm(params)
    assert np.array_equal(b1, b2)
    assert (g1.Wp != g2.Wp).nnz == 0
    assert (g1.Wn != g2.Wn).nnz == 0


def test_ssbm_param_validation():
    with pytest.raises(ValueError):
        SSBMParams(n=0, k=1, p_in=0.5, p_out=0.5)
    with pytest.raises(ValueError):
        SSBMParams(n=5, k=6, p_in=0.5, p_out=0.5)
    with pytest.raises(ValueError):
        SSBMParams(n=5, k=2, p_in=1.5, p_out=0.5)
    # a non-integer size or seed is refused when the params are built, not deep
    # in the generator
    for name, bad in (("n", 10.0), ("n", True), ("k", 2.0), ("k", True), ("k", 0)):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {bad!r}$"):
            SSBMParams(**{"n": 10, "k": 2, name: bad}, p_in=0.5, p_out=0.5)
    for bad in (1.5, -1, False, "3"):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {bad!r}$"):
            SSBMParams(n=10, k=2, p_in=0.5, p_out=0.5, seed=bad)
    params = SSBMParams(n=np.int64(10), k=np.int32(2), p_in=0.5, p_out=0.5, seed=np.uint8(0))
    assert generate_ssbm(params)[0].n == 10


def test_sample_full_fraction():
    labels = ssbm_label_data(np.array([0, 1, 0, 1]))
    mask = sample_labeled_nodes(labels, 1.0)
    assert mask.all()


def test_sample_deterministic():
    labels = ssbm_label_data(np.zeros(100, dtype=int))
    a = sample_labeled_nodes(labels, 0.2, seed=8)
    b = sample_labeled_nodes(labels, 0.2, seed=np.int64(8))
    assert np.array_equal(a, b)
    c = sample_labeled_nodes(labels, 0.2, seed=9)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", -1, None])
def test_sample_refuses_a_seed_that_is_not_an_integer(seed):
    # int(seed) would draw the mask of seed=1 for 1.5 and True
    labels = ssbm_label_data(np.zeros(100, dtype=int))
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        sample_labeled_nodes(labels, 0.2, seed=seed)


def test_sample_count_rounds_half_to_even():
    labels = ssbm_label_data(np.zeros(2325, dtype=int))
    mask = sample_labeled_nodes(labels, 0.05)
    assert mask.sum() == 116  # round(116.25)


def test_sample_zero_count_errors():
    labels = ssbm_label_data(np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="rounds to zero"):
        sample_labeled_nodes(labels, 0.1)
    with pytest.raises(ValueError, match="fraction"):
        sample_labeled_nodes(labels, 0.0)


def test_sample_only_known_nodes(tmp_path):
    g = load_signed_edge_list(write(tmp_path, "a b 1\nb c 1\nc d 1\n"))
    labels = load_labels(write(tmp_path, "a x\nb y\n", "l.txt"), g)
    mask = sample_labeled_nodes(labels, 1.0)
    assert mask.sum() == 2
    assert not mask[2] and not mask[3]


def test_restrict_labels():
    labels = ssbm_label_data(np.array([0, 1, 0, 1, 1]))
    old_to_new = np.array([-1, 0, 1, -1, 2])
    sub = labels.restrict(old_to_new)
    assert np.array_equal(sub.y, [1, 0, 1])
    assert sub.known.all()
    # node 4 is unknown before the restriction and stays unknown after it
    partial = LabelData(y=np.array([0, 1, 0, 1, -1]), class_names=("a", "b"))
    sub = partial.restrict(old_to_new)
    assert np.array_equal(sub.y, [1, 0, -1])
    assert np.array_equal(sub.known, [True, True, False])
    assert sub.class_names == ("a", "b")
    # a map of another graph is refused, in either direction
    for other in (old_to_new[:4], np.append(old_to_new, 3)):
        with pytest.raises(ValueError, match=f"^labels cover 5 nodes, the graph {other.size}$"):
            partial.restrict(other)


def test_label_data_refuses_indices_that_name_no_class():
    # the n=300 CI block model with class 2 of two on three nodes: a sweep scored
    # them as wrong, or failed in the middle when one of them was drawn to train
    _, blocks = generate_ssbm(SSBMParams(n=300, k=2, p_in=0.05, p_out=0.05, eta=0.1, seed=0))
    y = blocks.copy()
    y[[7, 150, 299]] = 2
    with pytest.raises(ValueError, match=r"^y\[7\] = 2 names no class: indices run from "
                                         r"-1 \(unknown\) to 1$"):
        LabelData(y=y, class_names=("block0", "block1"))
    with pytest.raises(ValueError, match=r"^y\[1\] = -3 names no class"):
        LabelData(y=np.array([0, -3, 1]), class_names=("a", "b"))
    for bad in (np.array([0.0, 1.0]), np.array([True, False])):
        with pytest.raises(ValueError, match="^class indices must be integers, got dtype "):
            LabelData(y=bad, class_names=("a", "b"))
    with pytest.raises(ValueError, match=r"^class indices must form a 1-D array, got shape"):
        LabelData(y=np.zeros((2, 2), np.int64), class_names=("a",))
    # a list or another integer type is held as int64
    for y in ([0, -1, 1], np.array([0, 1, 1], np.uint8)):
        labels = LabelData(y=y, class_names=("a", "b"))
        assert labels.y.dtype == np.int64 and labels.y.ndim == 1
    assert np.array_equal(LabelData(y=[1, -1], class_names=("a", "b")).y, [1, -1])


def _dataset_path(name):
    import os
    from pathlib import Path

    root = os.environ.get("SIGNEDGL_DATA") or str(
        Path(__file__).resolve().parent.parent / "data"
    )
    return Path(root) / name


def test_wikipedia_editor_label_share():
    edges = _dataset_path("wikipedia-editor.edges")
    labels_path = _dataset_path("wikipedia-editor.labels")
    if not (edges.exists() and labels_path.exists()):
        pytest.skip("Wikipedia-Editor dataset not present; see README for the manual step")
    from signedgl import largest_connected_component

    g = load_signed_edge_list(edges)
    labels = load_labels(labels_path, g, strict=False)
    comp, old_to_new = largest_connected_component(g, "signed")
    sub = labels.restrict(old_to_new)
    pos = sub.class_names.index("positive")  # README conversion uses this name
    share = np.mean(sub.y[sub.known] == pos)
    assert abs(share - 0.368) <= 0.01  # positive-class share on the signed LCC


def test_split_signs_round_trip_via_files(tmp_path, rng):
    # loader path produces the same graph as in-memory splitting
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 2.0
    W[1, 2] = W[2, 1] = -0.5
    g_mem = split_signs(W)
    lines = ["0 1 2.0", "1 2 -0.5"]
    p = write(tmp_path, "\n".join(lines) + "\n")
    g_file = load_signed_edge_list(p)
    assert np.allclose(g_file.Wp.toarray()[:3, :3], g_mem.Wp.toarray()[:3, :3])
    assert np.allclose(g_file.Wn.toarray()[:3, :3], g_mem.Wn.toarray()[:3, :3])


# ------------- frozen dict loader, COO SSBM assembly and tuple-sort serialization


def reference_pairs_to_matrix(pairs, n):
    """data._pairs_to_matrix as it stood before the one record assembly."""
    if not pairs:
        return sp.csr_array((n, n))
    rows = np.fromiter((k[0] for k in pairs), dtype=np.int64, count=len(pairs))
    cols = np.fromiter((k[1] for k in pairs), dtype=np.int64, count=len(pairs))
    data = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
    upper = sp.coo_array((data, (rows, cols)), shape=(n, n))
    return sp.csr_array(upper + upper.T)


def reference_load(path, header=False):
    """The loader's per-sign dict assembly, on the records data._iter_records yields."""
    node_order, index, pos, neg = [], {}, {}, {}
    records = list(_iter_records(Path(path).read_text(encoding="utf-8"), node_order, header))
    for _, ident in node_order:
        index.setdefault(ident, len(index))
    for _, (src, dst, w) in records:
        w = float(w)
        if src == dst or w == 0.0:
            continue
        i, j = index.setdefault(src, len(index)), index.setdefault(dst, len(index))
        key = (i, j) if i < j else (j, i)
        if w > 0:
            pos[key] = pos.get(key, 0.0) + w
        else:
            neg[key] = neg.get(key, 0.0) - w
    n = len(index)
    ids = [None] * n
    for ident, i in index.items():
        ids[i] = ident
    return SignedGraph(reference_pairs_to_matrix(pos, n), reference_pairs_to_matrix(neg, n),
                       node_ids=ids)


def reference_generate_ssbm(params):
    """generate_ssbm as it stood before the one record assembly: the same draws,
    then one COO block per sign."""
    n, k = params.n, params.k
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    blocks = np.repeat(np.arange(k), sizes)
    rng = np.random.default_rng(params.seed)
    rows, cols, signs = [], [], []
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        same = blocks[j] == blocks[i]
        r = rng.random(n - 1 - i)
        hit = np.where(same, r < params.p_in, r < params.p_out)
        jj = j[hit]
        if jj.size == 0:
            continue
        s = np.where(blocks[jj] == blocks[i], 1.0, -1.0)
        flip = rng.random(jj.size) < params.eta
        s[flip] *= -1.0
        rows.append(np.full(jj.size, i, dtype=np.int64))
        cols.append(jj)
        signs.append(s)
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        signs = np.concatenate(signs)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        signs = np.empty(0)
    ones = np.ones_like(signs)
    Wp_u = sp.coo_array((ones[signs > 0], (rows[signs > 0], cols[signs > 0])), shape=(n, n))
    Wn_u = sp.coo_array((ones[signs < 0], (rows[signs < 0], cols[signs < 0])), shape=(n, n))
    return SignedGraph(Wp_u + Wp_u.T, Wn_u + Wn_u.T), blocks


def reference_canonical_lines(g):
    """data._canonical_lines as it stood before the vectorized record read."""
    yield "# signed edge list"
    for ident in g.node_ids:
        yield f"# node: {ident}"
    entries = []
    for sign, W in ((1.0, g.Wp), (-1.0, g.Wn)):
        coo = W.tocoo()
        keep = coo.row < coo.col
        for i, j, w in zip(coo.row[keep], coo.col[keep], coo.data[keep]):
            entries.append((int(i), int(j), sign * float(w)))
    entries.sort()
    for i, j, w in entries:
        yield f"{g.node_ids[i]} {g.node_ids[j]} {w!r}"


def assert_same_graph(new, ref, case):
    assert new.node_ids == ref.node_ids, case
    for name in ("Wp", "Wn"):
        A, B = getattr(new, name), getattr(ref, name)
        assert A.shape == B.shape, (case, name)
        for part in ("indptr", "indices"):
            a, b = getattr(A, part), getattr(B, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), (case, name, part)
        assert A.data.dtype == B.data.dtype == np.float64, (case, name)
        assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64)), (case, name)
    assert list(_canonical_lines(new)) == list(reference_canonical_lines(ref)), case


def duplicate_heavy_files():
    """Named edge-list texts whose summed weights depend on the summation order."""
    rng = np.random.default_rng(3)
    weights = [0.1, 0.2, 0.3, -0.1, -0.2, -0.3, 0.0, 1 / 3, -2 / 3, 1e-17, -7.25]
    random_records = [
        f"v{a} v{b} {weights[c]!r}"
        for a, b, c in zip(rng.integers(0, 40, 3000), rng.integers(0, 40, 3000),
                           rng.integers(0, len(weights), 3000))
    ]
    ordered = ["a b 0.1", "b a 0.2", "a b 0.3", "a b -0.3", "b a -0.2", "a b -0.1",
               "b c 0.3", "c b 0.2", "b c 0.1", "c a -1", "c c 5", "a d 0"]
    return {
        "ordered": "\n".join(ordered),
        "comments and header": "# votes\nsrc dst w\n% more\n\n" + "\n".join(ordered),
        "manifest with isolated nodes": "\n".join(
            ["# node: z", "# node: b", "# node: lone", *ordered, "# node: late"]),
        "comma": "\n".join(r.replace(" ", ", ") for r in ordered),
        "random duplicates": "\n".join(["# node: v39", "# node: iso", *random_records]),
        "only a manifest": "# node: x\n# node: y",
    }


def test_loader_matches_frozen_dict_assembly(tmp_path):
    for case, text in duplicate_heavy_files().items():
        p = write(tmp_path, text + "\n")
        header = case == "comments and header"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dropped self-loop and zero rows
            g = load_signed_edge_list(p, header=header)
        assert_same_graph(g, reference_load(p, header), case)
        write_signed_edge_list(g, tmp_path / "out.txt")
        assert_same_graph(load_signed_edge_list(tmp_path / "out.txt"), g, case)
    # self-loop and zero-weight records give no node: a file of them alone is refused,
    # rather than loaded as a 0-node graph whose export would not reload
    for text in ("a a 1\nb b -2", "a b 0\nb c -0.0", "a a 1\na b 0"):
        with pytest.raises(EdgeListError, match="no edge records"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_signed_edge_list(write(tmp_path, text + "\n"))
    # the sums above are order-sensitive: file order, not sorted or reversed order
    g = load_signed_edge_list(write(tmp_path, "a b 0.1\na b 0.2\na b 0.3\nb a -0.3\n"
                                              "a b -0.2\na b -0.1\n"))
    assert g.Wp[0, 1] == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    assert g.Wn[0, 1] == (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3
    assert list(_canonical_lines(g))[-2:] == [f"a b {-float(g.Wn[0, 1])!r}",
                                             f"a b {float(g.Wp[0, 1])!r}"]


SSBM_CASES = [
    SSBMParams(n=1, k=1, p_in=0.5, p_out=0.5, seed=3),
    SSBMParams(n=12, k=3, p_in=0.0, p_out=0.0, eta=0.2, seed=1),
    SSBMParams(n=2, k=2, p_in=1.0, p_out=1.0, eta=1.0, seed=0),
    SSBMParams(n=40, k=4, p_in=1.0, p_out=1.0, eta=0.5, seed=2),
    SSBMParams(n=300, k=2, p_in=0.05, p_out=0.05, eta=0.1, seed=1),
    SSBMParams(n=301, k=3, p_in=0.04, p_out=0.02, eta=0.15, seed=7919),
    SSBMParams(n=500, k=5, p_in=0.02, p_out=0.01, eta=0.0, seed=11),
    SSBMParams(n=200, k=200, p_in=0.5, p_out=0.05, eta=0.3, seed=5),
    # the benchmark's two block models, at its default and held-out seeds
    *(SSBMParams(n=2200, k=k, p_in=0.007, p_out=0.007, eta=eta, seed=seed)
      for k, eta in ((2, 0.2), (3, 0.15)) for seed in (1, 7919)),
]


@pytest.mark.parametrize("params", SSBM_CASES, ids=lambda p: f"n{p.n}-k{p.k}-s{p.seed}")
def test_ssbm_matches_frozen_coo_assembly(params):
    g, blocks = generate_ssbm(params)
    ref, ref_blocks = reference_generate_ssbm(params)
    assert np.array_equal(blocks, ref_blocks)
    assert_same_graph(g, ref, params)


def test_ssbm_memory_stays_linear_at_one_node_per_block():
    # k = n is allowed, so the sampler must stay O(n + m): it peaks near 5.5 MB
    # here, and a k-by-n or n-by-n table would add 9 MB even as booleans
    params = SSBMParams(n=3000, k=3000, p_in=0.5, p_out=0.005, eta=0.1, seed=1)
    tracemalloc.start()
    try:
        generate_ssbm(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_graph_digest_of_a_fixed_ssbm_is_pinned():
    # the digest names every cache file: a new serialization would orphan them all
    g, _ = generate_ssbm(SSBMParams(n=40, k=3, p_in=0.3, p_out=0.1, eta=0.2, seed=12))
    assert (g.num_positive_edges, g.num_negative_edges) == (81, 61)
    assert graph_digest(g) == "08755422b2c0724f497bdb10404e9866a31daac7bb29fab741b5bc08e6d8668b"
