import csv
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import signedgl.cli
import signedgl.harness
import signedgl.spectral
from signedgl import (
    ExperimentSpec,
    SignedGraph,
    SSBMParams,
    accuracy,
    build_operator,
    emit_csv,
    generate_ssbm,
    graph_digest,
    largest_connected_component,
    load_eigenbasis,
    load_signed_edge_list,
    run_experiment,
    save_eigenbasis,
    smallest_eigs,
    ssbm_label_data,
    write_signed_edge_list,
)
from signedgl.cli import main as cli_main
from signedgl.harness import (
    ExperimentResult,
    Record,
    method_component,
    operator_component,
)
from signedgl.laplacians import OperatorKind
from signedgl.spectral import DENSE_CAP


def recorded_digest(path):
    """The graph digest that a cache file records."""
    with np.load(path) as data:
        return str(data["digest"])


def small_dataset(seed=1, n=80, eta=0.05, p=0.15):
    g, blocks = generate_ssbm(SSBMParams(n=n, k=2, p_in=p, p_out=p, eta=eta, seed=seed))
    return g, ssbm_label_data(blocks)


# the n=300 SSBM of the CLI sweeps below (graph seed 0); --k sets its block count
SSBM300 = ["ssbm", "--n", "300", "--p-in", "0.05", "--p-out", "0.05", "--eta", "0.1"]


def test_accuracy_examples():
    assert accuracy([1, -1, 1], [1, -1, 1], [True, True, True]) == 1.0
    assert accuracy([1, -1], [-1, 1], [True, True]) == 0.0
    assert accuracy([1, 1, -1, -1], [1, -1, 1, -1], [True] * 4) == 0.5
    with pytest.raises(ValueError, match="empty"):
        accuracy([1], [1], [False])
    with pytest.raises(ValueError, match="aligned"):
        accuracy([1], [1, 2], [True, True])


def test_method_component_mapping():
    assert method_component("gl-plus") == "positive"
    assert method_component("hf") == "positive"
    assert method_component("lgc") == "positive"
    assert method_component("gl-minus") == "negative"
    for m in ("gl-sn", "gl-sponge", "gl-am"):
        assert method_component(m) == "signed"
    with pytest.raises(ValueError, match="unknown method"):
        method_component("gl-gm")


def test_operator_component_mapping():
    assert operator_component(OperatorKind.LSYM_POS) == "positive"
    assert operator_component(OperatorKind.QSYM_NEG) == "negative"
    for kind in ("SR", "SN", "SPONGE", "AM"):
        assert operator_component(kind) == "signed"


def test_spec_validation():
    with pytest.raises(ValueError, match="methods"):
        ExperimentSpec(methods=[], fractions=[0.1])
    with pytest.raises(ValueError, match="fractions"):
        ExperimentSpec(methods=["hf"], fractions=[1.5])
    with pytest.raises(ValueError, match="runs"):
        ExperimentSpec(methods=["hf"], fractions=[0.1], runs=0)
    # runs and max_iter take the positive-integer check of the n_eigs entries
    for bad in (2.5, True, 0, "3"):
        got = f"got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=f"^runs must be a positive integer, {got}"):
            ExperimentSpec(methods=["hf"], fractions=[0.1], runs=bad)
        with pytest.raises(ValueError, match=f"^max_iter must be a positive integer, {got}"):
            ExperimentSpec(methods=["gl-sn"], fractions=[0.1], max_iter=bad)
    assert type(ExperimentSpec(methods=["hf"], fractions=[0.1], runs=np.int64(3)).runs) is int
    # an n_eigs entry that is not a positive integer is refused by name
    for bad in (6.7, True, "6", 0, np.float64(6.0)):
        with pytest.raises(ValueError, match=f"n_eigs .*got {re.escape(repr(bad))}$"):
            ExperimentSpec(methods=["gl-sn"], fractions=[0.1], n_eigs=[8, bad])
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[0.1], n_eigs=[np.int64(6), 8])
    assert spec.n_eigs == [6, 8] and all(type(ne) is int for ne in spec.n_eigs)
    # base_seed is any plain int, negative too; a bool, a float or a string is refused
    for bad in (True, 0.0, 1.5, "0"):
        got = f"got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=f"^base_seed must be an integer, {got}"):
            ExperimentSpec(methods=["hf"], fractions=[0.1], base_seed=bad)
    spec = ExperimentSpec(methods=["hf"], fractions=[0.1], base_seed=np.int64(-3))
    assert spec.base_seed == -3 and type(spec.base_seed) is int
    # the float lists are kept as plain floats, so an int omega0 is written 1000.0
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[np.float64(0.1)], omega0=[1000],
                          epsilon=[np.float32(0.5)])
    assert (spec.fractions, spec.omega0, spec.epsilon) == ([0.1], [1000.0], [0.5])
    assert all(type(v) is float for v in spec.fractions + spec.omega0 + spec.epsilon)


def test_spec_of_numpy_scalars_writes_the_csv_of_python_numbers(tmp_path):
    # a run's mask seed hashes repr(fraction), and the CSV writes str of each value
    g, blocks = generate_ssbm(SSBMParams(n=120, k=2, p_in=0.1, p_out=0.1, eta=0.05, seed=0))
    labels = ssbm_label_data(blocks)
    sweep = dict(methods=["gl-sn", "hf"], n_eigs=[10], runs=2)
    plain = ExperimentSpec(fractions=[0.1], omega0=[1000.0], epsilon=[0.1], base_seed=0,
                           **sweep)
    scalars = ExperimentSpec(fractions=list(np.array([0.1])), omega0=list(np.array([1000.0])),
                             epsilon=[np.float64(0.1)], base_seed=np.int64(0), **sweep)
    paths = tmp_path / "plain.csv", tmp_path / "scalars.csv"
    for spec, path in zip((plain, scalars), paths):
        emit_csv(run_experiment(g, labels, spec), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert "np." not in paths[1].read_text()


def test_run_experiment_rows_and_means():
    g, labels = small_dataset()
    spec = ExperimentSpec(
        methods=["gl-sn", "hf"], fractions=[0.1], n_eigs=[8], runs=3, base_seed=0
    )
    res = run_experiment(g, labels, spec)
    assert len(res.runs) == 6
    assert len(res.means) == 2
    for mean in res.means:
        matching = [
            r for r in res.runs
            if (r.method, r.fraction, r.n_eigs) == (mean.method, mean.fraction, mean.n_eigs)
        ]
        assert len(matching) == spec.runs
        assert np.isclose(mean.accuracy, np.mean([r.accuracy for r in matching]))
    gl_rows = [r for r in res.runs if r.method == "gl-sn"]
    assert all(r.iterations is not None and r.error == "" for r in gl_rows)


def test_run_experiment_deterministic():
    g, labels = small_dataset()
    spec = ExperimentSpec(methods=["gl-am"], fractions=[0.1], n_eigs=[6], runs=3)
    a = run_experiment(g, labels, spec)
    b = run_experiment(g, labels, spec)
    assert [r.accuracy for r in a.runs] == [r.accuracy for r in b.runs]
    assert [r.iterations for r in a.runs] == [r.iterations for r in b.runs]


def test_full_fraction_is_refused():
    # a fraction of 1.0 trains on every node with ground truth, leaving none to score
    with pytest.raises(ValueError, match=r"fractions must lie in \(0, 1\), got 1.0$"):
        ExperimentSpec(methods=["gl-sn"], fractions=[0.1, 1.0], n_eigs=[6], runs=1)


def test_labels_of_another_node_count_are_refused_before_any_solve(monkeypatch):
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    spec = ExperimentSpec(methods=["gl-sn", "hf"], fractions=[0.1], n_eigs=[10], runs=2)
    (g120, labels120), (g150, labels150) = small_dataset(n=120), small_dataset(n=150)
    for g, labels, message in [(g120, labels150, "labels cover 150 nodes, the graph 120"),
                               (g150, labels120, "labels cover 120 nodes, the graph 150")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(g, labels, spec)
    assert solves == []


def test_labels_of_one_class_are_refused_before_any_solve(monkeypatch, tmp_path, capsys):
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    message = "a sweep needs at least 2 classes, the labels hold 1"
    g, blocks = generate_ssbm(SSBMParams(n=100, k=1, p_in=0.1, p_out=0.1))
    spec = ExperimentSpec(methods=["gl-sn", "hf"], fractions=[0.1], n_eigs=[10], runs=2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_experiment(g, ssbm_label_data(blocks), spec)
    # through the CLI: a one-block SSBM, and a label file that names one class
    edges, labels = write_small_dataset(tmp_path)
    one_class = tmp_path / "one.txt"
    one_class.write_text("".join(line + "\n" for line in labels.read_text().splitlines()
                                 if line.endswith(" block0")))
    out = tmp_path / "o.csv"
    for argv in (["ssbm", "--n", "100", "--k", "1", "--p-in", "0.1", "--p-out", "0.1"],
                 ["run", "--dataset", str(edges), "--labels", str(one_class)]):
        capsys.readouterr()
        assert cli_main(argv + ["--methods", "gl-sn", "--neigs", "10", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert solves == [] and not out.exists()


def test_eigenbasis_cache_reused(tmp_path):
    g, labels = small_dataset()
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[0.1], n_eigs=[6], runs=2)
    res1 = run_experiment(g, labels, spec, cache_dir=tmp_path)
    files = list(tmp_path.glob("eig_*.npz"))
    assert len(files) == 1
    stamp = files[0].stat().st_mtime_ns
    res2 = run_experiment(g, labels, spec, cache_dir=tmp_path)
    assert files[0].stat().st_mtime_ns == stamp  # loaded, not rewritten
    assert [r.accuracy for r in res1.runs] == [r.accuracy for r in res2.runs]


def count_calls(monkeypatch, name, record):
    """Wrap signedgl.harness.<name> so every call appends record(*args, **kwargs)."""
    calls = []
    real = getattr(signedgl.harness, name)

    def wrapper(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(signedgl.harness, name, wrapper)
    return calls


MULTI_NE_SPEC = dict(methods=["gl-sn", "gl-am", "hf", "lgc"], fractions=[0.1], n_eigs=[4, 8],
                     runs=2)


def test_sweep_solves_once_per_operator_and_component_once_per_mode(monkeypatch):
    g, labels = small_dataset()
    solves = count_calls(monkeypatch, "smallest_eigs",
                         lambda op, k: (op.kind.value, k))
    modes = count_calls(monkeypatch, "largest_connected_component", lambda g, mode: mode)
    res = run_experiment(g, labels, ExperimentSpec(**MULTI_NE_SPEC))
    assert sorted(solves) == [("AM", 8), ("SN", 8)]
    assert sorted(modes) == ["positive", "signed"]
    assert len(res.runs) == 2 * (2 + 2 + 1 + 1)
    # the truncated k=4 basis gives the rows a k=4 solve of its own gives
    alone = run_experiment(g, labels, ExperimentSpec(**{**MULTI_NE_SPEC, "n_eigs": [4]}))
    four = [r for r in res.runs if r.n_eigs != 8]
    assert [(r.method, r.accuracy, r.iterations) for r in four] == [
        (r.method, r.accuracy, r.iterations) for r in alone.runs
    ]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_cache_holds_one_file_per_operator_and_warm_rerun_solves_nothing(
    k, monkeypatch, tmp_path
):
    # every GL operator kind and all three component modes, cached and re-read
    cache = tmp_path / "cache"
    argv = [*SSBM300, "--k", str(k), "--methods", "gl-plus,gl-minus,gl-sn,gl-sponge,gl-am,hf",
            "--fractions", "0.1", "--neigs", "5,10", "--runs", "1", "--cache-dir", str(cache)]
    solves = count_calls(monkeypatch, "smallest_eigs", lambda op, k: (op.kind.value, k))
    assert cli_main([*argv, "--out", str(tmp_path / "cold.csv")]) == 0
    kinds = sorted(kind.value for kind in signedgl.harness.GL_METHODS.values())
    assert sorted(solves) == [(kind, 10) for kind in kinds]
    files = sorted(cache.iterdir())
    # eig_<digest>_<kind>_k10.npz, the digest of each method's component
    assert sorted(f.name.split("_", 2)[2] for f in files) == [f"{kind}_k10.npz" for kind in kinds]
    solves.clear()
    assert cli_main([*argv, "--out", str(tmp_path / "warm.csv")]) == 0
    assert solves == [] and sorted(cache.iterdir()) == files
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    # equal bytes alone would also pass if both passes refused every basis
    rows = read_rows(tmp_path / "warm.csv")
    assert len(rows) == 22 and all(row["error"] == "" for row in rows)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_warm_sn_rows_fail(tmp_path, spoil, message):
    """A small sweep cold, then warm after ``spoil`` rewrote its SN k=8 cache file:
    every gl-sn run row of the warm pass is an error row starting with ``message``
    (formatted with the file's name and the first 16 characters of the signed
    component's digest), and every other row equals the cold pass."""
    cache = tmp_path / "cache"
    argv = ["ssbm", "--n", "80", "--p-in", "0.15", "--p-out", "0.15", "--eta", "0.05",
            "--methods", "gl-sn,gl-am,hf", "--fractions", "0.1", "--neigs", "4,8",
            "--runs", "2", "--cache-dir", str(cache)]
    assert cli_main(argv + ["--out", str(tmp_path / "cold.csv")]) == 0
    (sn_file,) = cache.glob("eig_*_SN_k8.npz")
    digest = recorded_digest(sn_file)
    spoil(sn_file)
    assert cli_main(argv + ["--out", str(tmp_path / "warm.csv")]) == 0
    cold, warm = read_rows(tmp_path / "cold.csv"), read_rows(tmp_path / "warm.csv")
    # run rows: 2 N_e x 2 runs for each GL method, 2 for hf; one mean row per cell
    assert len(cold) == len(warm) == (4 + 4 + 2) + (2 + 2 + 1)
    for before, after in zip(cold, warm):
        if after["method"] != "gl-sn":
            assert after == before
        elif after["record"] == "run":
            assert after["error"].startswith(message.format(sn_file.name, digest[:16]))
            assert after["accuracy"] == after["iterations"] == ""
        else:
            assert after["error"] == "2/2 runs failed"


def test_corrupt_cache_file_fails_only_its_method(tmp_path):
    assert_warm_sn_rows_fail(tmp_path, lambda path: path.write_text("not an npz file\n"),
                             "cannot read cached eigenbasis {}")


def test_cache_write_that_fails_partway_leaves_no_file(monkeypatch, tmp_path, capsys):
    # a write that fails after a good solve is a warning: the sweep's rows run on the
    # solved basis, while `eigs`, whose one job is the file, fails
    g, labels = small_dataset()
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[0.1], n_eigs=[6], runs=2)
    plain = [(r.accuracy, r.iterations, r.error) for r in run_experiment(g, labels, spec).runs]
    cache = tmp_path / "cache"
    real_savez = np.savez

    def fail_partway(file, **arrays):
        # a readable npz without the eigenvectors, then the disk fills up
        real_savez(file, **{name: a for name, a in arrays.items() if name != "phis"})
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", fail_partway)
    with pytest.warns(UserWarning) as caught:
        res = run_experiment(g, labels, spec, cache_dir=cache)
    (warning,) = caught
    assert re.fullmatch(r"cannot write eigenbasis cache file eig_[0-9a-f]{16}_SN_k6\.npz: "
                        r"\[Errno 28\] No space left on device", str(warning.message))
    assert [(r.accuracy, r.iterations, r.error) for r in res.runs] == plain
    assert list(cache.iterdir()) == []  # no file at the final path, no temporary one
    edges, _ = write_small_dataset(tmp_path)
    capsys.readouterr()
    assert cli_main(["eigs", "--dataset", str(edges), "--operator", "SN", "--neigs", "6",
                     "--cache-dir", str(cache)]) == 1
    out, err = capsys.readouterr()
    assert "cached in" not in out
    assert err.startswith("error: cannot write eigenbasis cache file ") and "[Errno 28]" in err
    assert list(cache.iterdir()) == []
    monkeypatch.undo()
    res = run_experiment(g, labels, spec, cache_dir=cache)
    assert all(r.error == "" for r in res.runs)
    [path] = cache.iterdir()
    digest = graph_digest(largest_connected_component(g, "signed")[0])
    assert path.name.endswith("_SN_k6.npz") and load_eigenbasis(path, digest, "SN").k == 6
    # a cache directory that cannot be made (under a regular file) fails the same way
    blocked = tmp_path / "file" / "cache"
    blocked.parent.write_text("")
    with pytest.warns(UserWarning, match=r"\[Errno 20\] Not a directory"):
        res = run_experiment(g, labels, spec, cache_dir=blocked)
    assert [(r.accuracy, r.iterations, r.error) for r in res.runs] == plain


def test_cached_basis_with_a_negative_eigenvalue_fails_only_its_method(tmp_path):
    # the file reads back fine; only the classifier's check of its numbers refuses it
    def negate_lambda_1(path):
        digest = recorded_digest(path)
        basis = load_eigenbasis(path, digest, "SN")
        basis.lambdas[0] = -1.0
        save_eigenbasis(path, basis, digest)

    assert_warm_sn_rows_fail(tmp_path, negate_lambda_1,
                             "eigenbasis has eigenvalue -1.000e+00: its operator is not positive "
                             "semi-definite")


def test_cached_basis_with_one_eigenvalue_for_eight_vectors_fails_only_its_method(tmp_path):
    # the single eigenvalue would broadcast into the GL step; the Eigenbasis that the
    # loader builds refuses it
    def keep_lambda_1(path):
        with np.load(path) as data:
            entries = dict(data)
        np.savez(path, **{**entries, "lambdas": entries["lambdas"][:1]})

    assert_warm_sn_rows_fail(tmp_path, keep_lambda_1, "cannot read cached eigenbasis {0}: "
                             "eigenbasis has eigenvalues of shape (1,) for 8 eigenvectors")


def test_cached_basis_of_another_operator_fails_only_its_method(tmp_path):
    # SN and AM are both built on the signed component, so their files share a digest
    def copy_am_file(path):
        shutil.copyfile(path.with_name(path.name.replace("_SN_", "_AM_")), path)

    assert_warm_sn_rows_fail(tmp_path, copy_am_file,
                             "cannot read cached eigenbasis {0}: it holds the AM basis of "
                             "graph {1}..., not the SN basis of graph {1}...")


def sn_file_of(g):
    """A cache-file writer: the SN k=8 basis of g's signed component, with its digest."""
    comp, _ = largest_connected_component(g, "signed")
    basis, digest = smallest_eigs(build_operator(comp, OperatorKind.SN), k=8), graph_digest(comp)
    return digest, lambda path: save_eigenbasis(path, basis, digest)


def test_cached_basis_of_another_node_count_fails_only_its_method(tmp_path):
    # the SN basis of a 70-node graph under the 80-node graph's name; the file records
    # the digest of the graph it was solved on, so it is refused when it is read
    digest, save_a_70_node_basis = sn_file_of(small_dataset(n=70)[0])
    assert_warm_sn_rows_fail(tmp_path, save_a_70_node_basis,
                             "cannot read cached eigenbasis {0}: it holds the SN basis of "
                             f"graph {digest[:16]}..., not the SN basis of graph {{1}}...")


def test_cached_basis_of_another_graph_of_the_same_size_fails_only_its_method(tmp_path):
    # the 80-node graph of another seed: its basis fits every shape check of the
    # classifier, and only the digest its file records tells the two apart
    g, _ = small_dataset(seed=5)
    assert largest_connected_component(g, "signed")[0].n == 80
    digest, save_another_graphs_basis = sn_file_of(g)
    assert_warm_sn_rows_fail(tmp_path, save_another_graphs_basis,
                             "cannot read cached eigenbasis {0}: it holds the SN basis of "
                             f"graph {digest[:16]}..., not the SN basis of graph {{1}}...")


def test_version_1_cache_file_fails_only_its_method(tmp_path):
    # a file as version 1 wrote it records no digest, so nothing ties it to its graph
    def write_version_1(path):
        basis = load_eigenbasis(path, recorded_digest(path), "SN")
        np.savez(path, version=np.int64(1), kind=np.str_("SN"), lambdas=basis.lambdas,
                 phis=basis.phis)

    assert_warm_sn_rows_fail(tmp_path, write_version_1, "cannot read cached eigenbasis {0}: "
                             "unsupported eigenbasis cache version 1")


def test_sponge_and_negative_methods_run():
    g, labels = small_dataset(seed=6, n=100, eta=0.05, p=0.2)
    spec = ExperimentSpec(
        methods=["gl-sponge", "gl-minus", "lgc"], fractions=[0.1], n_eigs=[8], runs=3
    )
    res = run_experiment(g, labels, spec)
    by_method = {m.method: m for m in res.means}
    assert by_method["gl-sponge"].error == ""
    assert by_method["gl-sponge"].accuracy >= 0.9
    assert by_method["gl-minus"].error == ""
    assert by_method["gl-minus"].accuracy >= 0.9  # negative edges alone separate blocks
    assert by_method["lgc"].error == ""


@pytest.mark.parametrize("k", [2, 3])
def test_gl_cells_of_the_ci_ssbm_converge_before_max_iter(k):
    # the n=300 SSBMs of test_cache_holds_one_file_per_operator_and_warm_rerun_solves_nothing,
    # with their default graph seed.  Binary GL treats the fidelity term implicitly and
    # converges: no run row of the three signed operators stops at max_iter (the explicit
    # scheme stopped there in 2 of 36); nor does multiclass GL at k=3, where gl-sponge
    # converges in about 15 iterations only because its basis is B-orthonormal rather
    # than orthonormal (ROADMAP item 2)
    g, blocks = generate_ssbm(SSBMParams(n=300, k=k, p_in=0.05, p_out=0.05, eta=0.1, seed=0))
    spec = ExperimentSpec(methods=["gl-sn", "gl-am", "gl-sponge"], fractions=[0.05, 0.1],
                          n_eigs=[5, 10, 20], runs=2)
    res = run_experiment(g, ssbm_label_data(blocks), spec)
    assert len(res.runs) == 36
    assert all(r.error == "" and r.iterations < spec.max_iter for r in res.runs)


@pytest.mark.parametrize("blocks", [2, 3])
def test_lanczos_tolerances_move_no_prediction(blocks, monkeypatch):
    # a sweep above DENSE_CAP whose bases stop at spectral's tolerances gives
    # the run rows of the same sweep solved to machine precision
    g, truth = generate_ssbm(SSBMParams(n=2050, k=blocks, p_in=0.01, p_out=0.01, eta=0.1,
                                        seed=blocks))
    assert largest_connected_component(g, "signed")[0].n > DENSE_CAP
    spec = ExperimentSpec(methods=["gl-sn", "gl-am", "gl-sponge"], fractions=[0.02, 0.05],
                          n_eigs=[10], runs=2, base_seed=blocks)

    def rows():
        res = run_experiment(g, ssbm_label_data(truth), spec)
        return [(r.method, r.fraction, r.n_eigs, r.run, r.accuracy, r.iterations, r.error)
                for r in res.runs]

    loose = rows()
    monkeypatch.setattr(signedgl.spectral, "_ARPACK_TOL", 0.0)
    monkeypatch.setattr(signedgl.spectral, "_CG_RTOL", 1e-12)
    tight = rows()
    assert len(loose) == 12 and all(row[-1] == "" for row in loose)
    assert loose == tight


@pytest.mark.parametrize("k", [2, 3])
def test_cache_file_holds_one_basis_whatever_the_sweep_seed(k, tmp_path):
    # above DENSE_CAP every basis comes from Lanczos (shift-invert with inner CG for
    # SPONGE) at its own tolerances.  The file name leaves out the seed, so the basis in
    # it must not depend on the seed, or a warm sweep at one seed would read bits that
    # its own cold sweep does not solve
    argv = ["ssbm", "--n", "2050", "--k", str(k), "--p-in", "0.01", "--p-out", "0.01",
            "--eta", "0.1", "--methods", "gl-sn,gl-am,gl-sponge,hf", "--fractions", "0.05",
            "--neigs", "5,10", "--runs", "1"]

    def sweep(seed, cache, out):
        assert cli_main(argv + ["--seed", str(seed), "--cache-dir", str(tmp_path / cache),
                                "--out", str(tmp_path / out)]) == 0
        return sorted((tmp_path / cache).iterdir())

    files0 = sweep(0, "c0", "cold0.csv")
    assert sweep(0, "c0", "warm0.csv") == files0
    assert (tmp_path / "warm0.csv").read_bytes() == (tmp_path / "cold0.csv").read_bytes()
    rows = read_rows(tmp_path / "cold0.csv")
    assert len(rows) == 14 and all(row["error"] == "" for row in rows)
    files5 = sweep(5, "c5", "cold5.csv")
    assert [f.name.split("_", 2)[2] for f in files0] == ["AM_k10.npz", "SN_k10.npz",
                                                         "SPONGE_k10.npz"]
    assert [f.name for f in files0] == [f.name for f in files5]
    for path0, path5 in zip(files0, files5):
        kind = path0.stem.split("_")[2]
        assert load_eigenbasis(path0, recorded_digest(path0), kind).n > DENSE_CAP
        # compared entry by entry: the npz archives themselves carry timestamps
        with np.load(path0) as a, np.load(path5) as b:
            assert a.files == b.files
            for key in a.files:
                x, y = a[key], b[key]
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), key
    sweep(5, "c0", "warm5.csv")
    assert (tmp_path / "warm5.csv").read_bytes() == (tmp_path / "cold5.csv").read_bytes()
    assert all(row["error"] == "" for row in read_rows(tmp_path / "cold5.csv"))


def test_gl_step_that_cannot_be_formed_is_an_error_row():
    g, labels = small_dataset()
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[0.1], n_eigs=[6],
                          epsilon=[0.1, 1e-308], runs=2)
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_experiment(g, labels, spec)
    for row in res.runs:
        if row.epsilon == 1e-308:
            assert row.error == "iterate became non-finite at iteration 0"
            assert row.accuracy is row.iterations is None
        else:
            assert row.error == "" and row.accuracy is not None
    assert [m.error for m in res.means] == ["", "2/2 runs failed"]


def test_monotone_trend_in_label_fraction():
    g, blocks = generate_ssbm(
        SSBMParams(n=150, k=2, p_in=0.06, p_out=0.06, eta=0.15, seed=4)
    )
    labels = ssbm_label_data(blocks)
    spec = ExperimentSpec(
        methods=["gl-sn"], fractions=[0.01, 0.05, 0.10, 0.15],
        n_eigs=[10], runs=10, base_seed=2,
    )
    res = run_experiment(g, labels, spec)
    means = sorted(res.means, key=lambda m: m.fraction)
    accs = [m.accuracy for m in means]
    for lo, hi in zip(accs, accs[1:]):
        assert hi >= lo - 0.02


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(ExperimentResult(runs=[]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("record,method,")


def test_emit_csv_sorted_and_parseable(tmp_path):
    rows = [
        Record("hf", 0.1, None, None, None, 1, 0.5, None, wall_time=0.01),
        Record("gl-sn", 0.1, 10, 1000.0, 0.1, 0, 1.0, 42, wall_time=0.02),
        Record("hf", 0.1, None, None, None, 0, 0.75, None, wall_time=0.01),
    ]
    path = tmp_path / "two.csv"
    emit_csv(ExperimentResult(runs=rows), path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert [r["method"] for r in records] == ["gl-sn", "gl-sn", "hf", "hf", "hf"]
    assert [r["record"] for r in records] == ["run", "mean", "run", "run", "mean"]
    assert records[2]["run"] == "0" and records[3]["run"] == "1"
    assert records[1]["run"] == records[4]["run"] == ""
    # parse-back: values survive the round trip
    assert float(records[0]["accuracy"]) == 1.0
    assert int(records[0]["iterations"]) == 42
    assert records[1]["iterations"] == repr(42.0)
    assert records[4]["accuracy"] == repr(0.625)
    assert records[4]["iterations"] == ""
    assert "wall_time" not in records[0]


def test_emit_csv_timings_flag(tmp_path):
    rows = [Record("hf", 0.1, None, None, None, 0, 1.0, None, wall_time=0.5)]
    path = tmp_path / "t.csv"
    emit_csv(ExperimentResult(runs=rows), path, include_timings=True)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert float(records[0]["wall_time"]) == 0.5
    assert records[1]["record"] == "mean" and records[1]["wall_time"] == ""


def test_emit_csv_timings_add_only_a_last_column(monkeypatch, tmp_path):
    calls = []
    real = signedgl.harness.accuracy

    def fail_every_third(*args):
        calls.append(None)
        if len(calls) % 3 == 0:
            raise ValueError("injected failure after the solve")
        return real(*args)

    monkeypatch.setattr(signedgl.harness, "accuracy", fail_every_third)
    g, labels = small_dataset()
    spec = ExperimentSpec(methods=["gl-sn", "gl-am", "hf", "lgc"],
                          fractions=[0.001, 0.1], n_eigs=[6, 8], omega0=[500.0, 1000.0],
                          runs=2)
    res = run_experiment(g, labels, spec)
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    emit_csv(res, plain)
    emit_csv(res, timed, include_timings=True)
    with open(plain, newline="") as fh:
        plain_rows = list(csv.reader(fh))
    with open(timed, newline="") as fh:
        timed_rows = list(csv.reader(fh))
    assert timed_rows[0][-1] == "wall_time"
    assert [r[:-1] for r in timed_rows] == plain_rows
    for row in timed_rows[1:]:  # a time on every run row, error rows too; none on mean rows
        assert (row[-1] == "") == (row[0] == "mean")
    # 0.001 labels no node, so nothing runs (time 0.0); an injected failure comes after
    # the solve, whose time the row keeps
    error = timed_rows[0].index("error")
    failed_times = {r[-1] for r in timed_rows if r[0] == "run" and r[error]}
    assert "0.0" in failed_times and len(failed_times) > 1
    injected = [float(r[-1]) for r in timed_rows if r[error] == "injected failure after the solve"]
    assert injected and min(injected) > 0.0


def test_cli_timings_add_only_a_last_column(tmp_path):
    # --timings must reach emit_csv: the timed CSV is the plain one plus wall_time
    sweep = ["ssbm", "--n", "60", "--p-in", "0.3", "--p-out", "0.3", "--eta", "0.05",
             "--methods", "gl-sn,hf", "--fractions", "0.001,0.2", "--neigs", "6", "--runs", "2"]
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert cli_main([*sweep, "--out", str(plain)]) == 0
    assert cli_main([*sweep, "--timings", "--out", str(timed)]) == 0
    with open(plain, newline="") as fh:
        plain_rows = list(csv.reader(fh))
    with open(timed, newline="") as fh:
        timed_rows = list(csv.reader(fh))
    assert timed_rows[0][-1] == "wall_time"
    assert [r[:-1] for r in timed_rows] == plain_rows


def test_mean_row_of_a_cell_with_one_failed_run(monkeypatch, tmp_path):
    calls = []
    real = signedgl.harness.gl_binary

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(signedgl.harness, "gl_binary", fail_second)
    g, labels = small_dataset()
    spec = ExperimentSpec(methods=["gl-sn"], fractions=[0.1], n_eigs=[6], runs=2)
    path = tmp_path / "one_failed.csv"
    emit_csv(run_experiment(g, labels, spec), path)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert [(r["record"], r["run"]) for r in records] == [("run", "0"), ("run", "1"),
                                                          ("mean", "")]
    assert records[0]["error"] == "" and records[0]["accuracy"] != ""
    assert records[1]["error"] == "injected failure"
    assert records[2]["accuracy"] == records[2]["iterations"] == ""
    assert records[2]["error"] == "1/2 runs failed"


# ------------------------------------------------------------------ CLI


def test_cli_ssbm_run_and_exports(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    edges = tmp_path / "g.txt"
    labels = tmp_path / "labels.txt"
    rc = cli_main([
        "ssbm", "--n", "60", "--k", "2", "--p-in", "0.3", "--p-out", "0.3",
        "--eta", "0.05", "--graph-seed", "3",
        "--methods", "gl-sn,hf", "--fractions", "0.1", "--neigs", "6",
        "--runs", "2", "--seed", "1", "--out", str(out),
        "--save-edges", str(edges), "--save-labels", str(labels),
    ])
    assert rc == 0
    assert out.exists() and edges.exists() and labels.exists()

    rc = cli_main([
        "run", "--dataset", str(edges), "--labels", str(labels),
        "--methods", "hf", "--fractions", "0.2", "--runs", "2",
        "--out", str(tmp_path / "run.csv"),
    ])
    assert rc == 0
    caught = capsys.readouterr()
    assert "run.csv" in caught.out


def run_rows(path):
    with open(path, newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["record"] == "run"]


def test_cli_args_file_with_flag_override(tmp_path):
    edges, labels = write_small_dataset(tmp_path)
    args = tmp_path / "sweep.args"
    args.write_text("--methods=hf\n--fractions=0.2\n--runs=2\n--seed=5\n")
    out = tmp_path / "a.csv"
    rc = cli_main([
        "run", "--dataset", str(edges), "--labels", str(labels),
        f"@{args}", "--out", str(out),
    ])
    assert rc == 0
    rows = run_rows(out)
    assert {r["method"] for r in rows} == {"hf"} and len(rows) == 2
    # a flag after the file overrides the file's --runs=2
    out2 = tmp_path / "b.csv"
    rc = cli_main([
        "run", "--dataset", str(edges), "--labels", str(labels),
        f"@{args}", "--runs", "3", "--out", str(out2),
    ])
    assert rc == 0
    assert len(run_rows(out2)) == 3


def test_cli_args_file_writes_the_same_csv_as_flags(tmp_path):
    edges, labels = write_small_dataset(tmp_path)
    sweep = ["--methods=gl-sn,hf", "--fractions=0.1,0.2", "--neigs=6", "--runs=2"]
    args = tmp_path / "sweep.args"
    args.write_text("\n".join(sweep) + "\n")
    base = ["run", "--dataset", str(edges), "--labels", str(labels)]
    a, b = tmp_path / "flags.csv", tmp_path / "file.csv"
    assert cli_main([*base, *sweep, "--out", str(a)]) == 0
    assert cli_main([*base, f"@{args}", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_args_file_flag_the_subcommand_lacks_is_refused(tmp_path, capsys):
    edges, _ = write_small_dataset(tmp_path)
    args = tmp_path / "f"
    args.write_text("--runs=3\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(["balance-check", "--dataset", str(edges), f"@{args}"])
    assert exc.value.code != 0
    assert "--runs=3" in capsys.readouterr().err


def test_cli_args_file_sets_an_ssbm_flag(tmp_path):
    args = tmp_path / "graph.args"
    args.write_text("--n=40\n--p-in=0.4\n--p-out=0.4\n")
    labels = tmp_path / "l.txt"
    assert cli_main(["ssbm", f"@{args}", "--save-labels", str(labels)]) == 0
    assert len(labels.read_text().splitlines()) == 40


@pytest.mark.parametrize("via_file", [False, True])
def test_cli_list_items_may_have_blanks_after_commas(via_file, tmp_path):
    edges, labels = write_small_dataset(tmp_path)
    sweep = ["--methods=gl-sn, hf", "--neigs=6", "--runs=1"]
    if via_file:
        args = tmp_path / "sweep.args"
        args.write_text("\n".join(sweep) + "\n")
        sweep = [f"@{args}"]
    out = tmp_path / "o.csv"
    assert cli_main(["run", "--dataset", str(edges), "--labels", str(labels),
                     *sweep, "--out", str(out)]) == 0
    assert {r["method"] for r in run_rows(out)} == {"gl-sn", "hf"}


@pytest.mark.parametrize("flag", ["--fractions=x", "--neigs=6,x", "--runs=x"])
def test_cli_malformed_value_is_a_usage_error(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--dataset", "g", "--labels", "l", "--methods", "hf", "--out", "o",
                  flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag.split('=')[0]}: invalid" in err and "<lambda>" not in err


@pytest.mark.parametrize("flag, named", [
    ("--methods=hf,gl-sn,hf", "methods"),
    ("--neigs=6,6", "n_eigs"),
    pytest.param("--neigs=", "n_eigs list is empty", id="--neigs=-empty"),  # not the default
    ("--fractions=0.1,0.2,0.1", "fractions"),
    ("--fractions=0.1,1.0", "fractions"),
    ("--omega0=10,10", "omega0"),
    ("--epsilon=0.1,0.1", "epsilon"),
    ("--epsilon=-1", "epsilon"),
    ("--epsilon=nan", "epsilon"),
    ("--tol=inf", "tol"),
    ("--omega0=-5", "omega0"),
    ("--tau=0", "tau"),
    ("--max-iter=0", "max_iter"),
    ("--alpha=1.5", "alpha"),
])
def test_cli_run_refuses_a_sweep_no_cell_can_run(flag, named, monkeypatch, tmp_path, capsys):
    edges, labels = write_small_dataset(tmp_path)
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    out = tmp_path / "o.csv"
    argv = ["run", "--dataset", str(edges), "--labels", str(labels), "--methods", "gl-sn,lgc",
            "--neigs", "6", "--out", str(out), flag]
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert named in capsys.readouterr().err
    assert solves == [] and not out.exists()


def balance_check(tmp_path, capsys, graph):
    """The three lines balance-check prints for the SSBM that ``graph`` describes."""
    edges = tmp_path / "g.txt"
    assert cli_main(["ssbm", "--k", "2", *graph, "--save-edges", str(edges)]) == 0
    capsys.readouterr()
    assert cli_main(["balance-check", "--dataset", str(edges)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("lambda_min(signed ratio Laplacian) = ")
    return out


def test_cli_balance_check(tmp_path, capsys):
    out = balance_check(tmp_path, capsys, ["--n", "30", "--p-in", "0.5", "--p-out", "0.5",
                                           "--eta", "0.0", "--graph-seed", "2"])
    assert out[0].startswith("largest signed component: nodes=30 of 30 ")
    assert out[2] == "2-balanced (lambda_min <= 1e-10): yes"


@pytest.mark.parametrize("graph, component", [
    (["--n", "30", "--p-in", "0.5", "--p-out", "0.5", "--eta", "0.3", "--graph-seed", "2"],
     "nodes=30 of 30"),
    # isolated nodes and small balanced components each add a zero eigenvalue of the
    # whole graph; its largest signed component has lambda_min 8.2e-3
    (["--n", "300", "--p-in", "0.004", "--p-out", "0.004", "--eta", "0.3", "--graph-seed", "0"],
     "nodes=127 of 300"),
], ids=["connected", "disconnected"])
def test_cli_balance_check_reads_no_with_sign_flips(graph, component, tmp_path, capsys):
    out = balance_check(tmp_path, capsys, graph)
    assert out[0].startswith(f"largest signed component: {component} ")
    assert out[2] == "2-balanced (lambda_min <= 1e-10): no"


def test_cli_eigs_cache_then_run(tmp_path):
    edges = tmp_path / "g.txt"
    labels = tmp_path / "l.txt"
    cache = tmp_path / "cache"
    assert cli_main([
        "ssbm", "--n", "50", "--k", "2", "--p-in", "0.3", "--p-out", "0.3",
        "--eta", "0.05", "--graph-seed", "4",
        "--save-edges", str(edges), "--save-labels", str(labels),
    ]) == 0
    assert cli_main([
        "eigs", "--dataset", str(edges), "--operator", "SN",
        "--neigs", "6", "--cache-dir", str(cache),
    ]) == 0
    cached = list(cache.glob("eig_*_SN_k6.npz"))
    assert len(cached) == 1
    stamp = cached[0].stat().st_mtime_ns
    assert cli_main([
        "run", "--dataset", str(edges), "--labels", str(labels),
        "--methods", "gl-sn", "--fractions", "0.2", "--neigs", "6", "--runs", "1",
        "--out", str(tmp_path / "o.csv"), "--cache-dir", str(cache),
    ]) == 0
    assert cached[0].stat().st_mtime_ns == stamp  # reused the precomputed basis


@pytest.mark.parametrize("neigs, entry", [("5,0", "got 0"), ("5,5", "[5, 5]"),
                                          pytest.param("", "list is empty", id="empty")])
def test_cli_eigs_refuses_neigs_the_sweep_refuses(neigs, entry, monkeypatch, tmp_path, capsys):
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    cache = tmp_path / "cache"
    # an absent dataset: the refusal comes before the graph is read
    assert cli_main(["eigs", "--dataset", str(tmp_path / "absent.txt"), "--operator", "SN",
                     f"--neigs={neigs}", "--cache-dir", str(cache)]) == 1
    err = capsys.readouterr().err
    assert "n_eigs" in err and entry in err
    assert solves == [] and not cache.exists()


def write_small_dataset(tmp_path):
    edges, labels = tmp_path / "g.txt", tmp_path / "l.txt"
    assert cli_main([
        "ssbm", "--n", "50", "--k", "2", "--p-in", "0.3", "--p-out", "0.3",
        "--eta", "0.05", "--graph-seed", "4",
        "--save-edges", str(edges), "--save-labels", str(labels),
    ]) == 0
    return edges, labels


def test_cli_spec_defaults_come_from_experiment_spec(monkeypatch, tmp_path):
    edges, labels = write_small_dataset(tmp_path)
    specs = []

    def capture(g, labels, spec, cache_dir=None):
        specs.append(spec)
        return ExperimentResult(runs=[])

    monkeypatch.setattr(signedgl.cli, "run_experiment", capture)
    base = ["run", "--dataset", str(edges), "--labels", str(labels),
            "--methods", "gl-sn,hf", "--out", str(tmp_path / "o.csv")]
    assert cli_main(base) == 0
    assert cli_main(base + ["--tau", "0.2", "--neigs", "5,7", "--seed", "3"]) == 0
    assert specs[0] == ExperimentSpec(methods=["gl-sn", "hf"], fractions=[0.05])
    assert specs[1] == ExperimentSpec(methods=["gl-sn", "hf"], fractions=[0.05], tau=0.2,
                                      n_eigs=[5, 7], base_seed=3)


def test_cli_eigs_writes_the_one_file_the_sweep_reads(monkeypatch, tmp_path):
    edges, labels = write_small_dataset(tmp_path)
    cache = tmp_path / "cache"
    solves = count_calls(monkeypatch, "smallest_eigs", lambda op, k: k)
    assert cli_main([
        "eigs", "--dataset", str(edges), "--operator", "AM",
        "--neigs", "4,6", "--cache-dir", str(cache),
    ]) == 0
    assert solves == [6]
    (cached,) = cache.glob("eig_*.npz")
    assert cached.name.endswith("_AM_k6.npz")
    assert cli_main([
        "run", "--dataset", str(edges), "--labels", str(labels),
        "--methods", "gl-am", "--fractions", "0.2", "--neigs", "4,6", "--runs", "1",
        "--out", str(tmp_path / "o.csv"), "--cache-dir", str(cache),
    ]) == 0
    assert solves == [6]  # the sweep read the file eigs wrote
    assert [f.name for f in cache.glob("eig_*.npz")] == [cached.name]
    rows = read_rows(tmp_path / "o.csv")
    assert {row["n_eigs"] for row in rows} == {"4", "6"}
    assert all(row["error"] == "" for row in rows)


def test_cli_eigs_files_hold_the_solve_at_their_own_k(tmp_path):
    # above DENSE_CAP Lanczos runs, and the leading 8 vectors of a k=16 solve
    # differ in their last bits from a k=8 solve: a _k8 file holding them
    # would hand a warm sweep other bits than a cold one
    edges = tmp_path / "g.txt"
    assert cli_main(["ssbm", "--n", "2050", "--p-in", "0.01", "--p-out", "0.01",
                     "--eta", "0.05", "--save-edges", str(edges)]) == 0
    cache = tmp_path / "cache"
    assert cli_main(["eigs", "--dataset", str(edges), "--operator", "SN",
                     "--neigs", "8,16", "--cache-dir", str(cache)]) == 0
    comp, _ = largest_connected_component(load_signed_edge_list(edges), "signed")
    assert comp.n > DENSE_CAP
    op = build_operator(comp, "SN")
    files = sorted(cache.glob("eig_*.npz"))
    assert files
    for path in files:
        cached = load_eigenbasis(path, graph_digest(comp), "SN")
        solved = smallest_eigs(op, k=int(path.stem.rsplit("_k", 1)[1]))
        assert np.array_equal(cached.phis.view(np.int64), solved.phis.view(np.int64))
        assert np.array_equal(cached.lambdas.view(np.int64), solved.lambdas.view(np.int64))


def test_cli_eigs_caps_neigs_at_the_component_size_in_one_file(monkeypatch, tmp_path):
    edges = tmp_path / "g.txt"
    assert cli_main(["ssbm", "--n", "30", "--p-in", "0.5", "--p-out", "0.5",
                     "--save-edges", str(edges)]) == 0
    cache = tmp_path / "cache"
    solves = count_calls(monkeypatch, "smallest_eigs", lambda op, k: (op.n, k))
    saves = count_calls(monkeypatch, "save_eigenbasis", lambda path, eig, digest: path.name)
    assert cli_main(["eigs", "--dataset", str(edges), "--operator", "SN",
                     "--neigs=40,50", "--cache-dir", str(cache)]) == 0
    assert solves == [(30, 30)]
    (cached,) = cache.glob("eig_*.npz")
    assert cached.name.endswith("_SN_k30.npz")
    assert saves == [cached.name]  # written once, not once per capped entry


def test_cli_eigs_second_run_is_served_from_the_file(monkeypatch, tmp_path, capsys):
    edges, _ = write_small_dataset(tmp_path)
    cache = tmp_path / "cache"
    argv = ["eigs", "--dataset", str(edges), "--operator", "SPONGE",
            "--neigs", "4,6", "--cache-dir", str(cache)]
    assert cli_main(argv) == 0
    (cached,) = cache.glob("eig_*.npz")
    stamp = cached.stat().st_mtime_ns
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    capsys.readouterr()
    assert cli_main(argv) == 0
    assert solves == []
    assert [f.name for f in cache.glob("eig_*.npz")] == [cached.name]
    assert cached.stat().st_mtime_ns == stamp
    assert capsys.readouterr().out == f"SPONGE eigenbasis (n=50, k=6) cached in {cache}\n"


def write_split_component_dataset(tmp_path):
    """An SSBM plus pendant nodes whose only edge is negative (two) or
    positive (one), so the positive and the negative component are proper
    subsets of the signed one."""
    g, blocks = generate_ssbm(SSBMParams(n=60, k=2, p_in=0.3, p_out=0.3, eta=0.05, seed=2))
    n = g.n + 3
    Wp, Wn = np.zeros((n, n)), np.zeros((n, n))
    Wp[:g.n, :g.n], Wn[:g.n, :g.n] = g.Wp.toarray(), g.Wn.toarray()
    for W, node, anchor in ((Wn, g.n, 0), (Wn, g.n + 1, 1), (Wp, g.n + 2, 2)):
        W[node, anchor] = W[anchor, node] = 1.0
    g = SignedGraph(Wp, Wn)
    sizes = {mode: largest_connected_component(g, mode)[0].n
             for mode in ("positive", "negative", "signed")}
    assert sizes["signed"] == n and max(sizes["positive"], sizes["negative"]) < n
    edges, labels = tmp_path / "g.txt", tmp_path / "l.txt"
    write_signed_edge_list(g, edges)
    labels.write_text("".join(f"{i} block{b}\n" for i, b in enumerate([*blocks, 0, 1, 0])))
    return edges, labels


@pytest.mark.parametrize("method", list(signedgl.harness.GL_METHODS))
def test_cli_eigs_cache_serves_the_sweep_of_every_gl_method(method, monkeypatch, tmp_path):
    # `eigs` writes the one file per operator that the sweep's own solve stage writes: a
    # sweep after it solves nothing, adds no file and equals a sweep without a cache
    edges, labels = write_split_component_dataset(tmp_path)
    cache, cached_csv, plain_csv = tmp_path / "cache", tmp_path / "c.csv", tmp_path / "p.csv"
    kind = signedgl.harness.GL_METHODS[method].value
    assert cli_main(["eigs", "--dataset", str(edges), "--operator", kind,
                     "--neigs", "5,10", "--cache-dir", str(cache)]) == 0
    (cached,) = cache.iterdir()
    assert cached.name.endswith(f"_{kind}_k10.npz")
    sweep = ["run", "--dataset", str(edges), "--labels", str(labels), "--methods", method,
             "--fractions", "0.2", "--neigs", "5,10", "--runs", "1"]
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    assert cli_main([*sweep, "--cache-dir", str(cache), "--out", str(cached_csv)]) == 0
    assert solves == [] and list(cache.iterdir()) == [cached]
    assert cli_main([*sweep, "--out", str(plain_csv)]) == 0
    assert cached_csv.read_bytes() == plain_csv.read_bytes()
    assert all(row["error"] == "" for row in read_rows(cached_csv))


@pytest.mark.parametrize("k", [2, 3])
def test_exported_ssbm_reloads_as_the_same_sweep_from_every_format(k, tmp_path):
    # an exported SSBM reloads as the same graph: its components keep the generator's
    # digests, so a file sweep is served from the generator's cache and writes its CSV.
    # The delimiter is read from each line: a comma copy with a header line does the same
    cache = tmp_path / "cache"
    sweep = ["--methods", "gl-plus,gl-minus,gl-sn,gl-sponge,gl-am,hf,lgc", "--fractions", "0.1",
             "--neigs", "5,10", "--runs", "1", "--cache-dir", str(cache)]
    edges, labels = tmp_path / "g.txt", tmp_path / "l.txt"
    assert cli_main([*SSBM300, "--k", str(k), "--save-edges", str(edges),
                     "--save-labels", str(labels), *sweep,
                     "--out", str(tmp_path / "gen.csv")]) == 0
    listing = sorted(cache.iterdir())
    comma_edges, comma_labels = tmp_path / "g.csv", tmp_path / "l.csv"
    comma_edges.write_text("src,dst,weight\n" + "".join(
        line if line.startswith("#") else line.replace(" ", ",")
        for line in edges.read_text().splitlines(keepends=True)))
    comma_labels.write_text(labels.read_text().replace(" ", ","))
    for name, files in [("space", [edges, labels]),
                        ("comma", [comma_edges, comma_labels, "--header"])]:
        data = ["--dataset", str(files[0]), "--labels", str(files[1]), *files[2:]]
        assert cli_main(["run", *data, *sweep, "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert sorted(cache.iterdir()) == listing
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "gen.csv").read_bytes()


def test_partial_label_file_and_a_line_for_an_absent_node(tmp_path):
    # a label file may leave nodes unlabeled: they are neither sampled nor scored.  A line
    # for an absent node fails the run, and --skip-missing gives the sweep without that line
    edges, every = tmp_path / "g.txt", tmp_path / "all.txt"
    assert cli_main([*SSBM300, "--k", "3", "--save-edges", str(edges),
                     "--save-labels", str(every)]) == 0
    partial, extra = tmp_path / "l.txt", tmp_path / "extra.txt"
    lines = every.read_text().splitlines(keepends=True)
    partial.write_text("".join(line for i, line in enumerate(lines, 1) if i % 10))
    assert len(partial.read_text().splitlines()) == 270
    extra.write_text(partial.read_text() + "absent block0\n")
    sweep = ["run", "--dataset", str(edges), "--methods", "gl-sn,gl-sponge,hf,lgc",
             "--fractions", "0.1", "--neigs", "5,10", "--runs", "2"]
    out = {name: tmp_path / f"{name}.csv" for name in ("partial", "strict", "skipped")}
    assert cli_main([*sweep, "--labels", str(partial), "--out", str(out["partial"])]) == 0
    rows = read_rows(out["partial"])
    assert len(rows) == 18 and sum(row["record"] == "run" for row in rows) == 12
    assert all(row["error"] == "" for row in rows)
    assert cli_main([*sweep, "--labels", str(extra), "--out", str(out["strict"])]) == 1
    assert not out["strict"].exists()
    assert cli_main([*sweep, "--labels", str(extra), "--skip-missing",
                     "--out", str(out["skipped"])]) == 0
    assert out["skipped"].read_bytes() == out["partial"].read_bytes()


def test_cli_eigs_refuses_kinds_no_sweep_method_uses(tmp_path, capsys):
    edges, _ = write_small_dataset(tmp_path)
    for kind in ("BR", "BN", "SR", "Lsym", "GM"):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["eigs", "--dataset", str(edges), "--operator", kind,
                      "--cache-dir", str(tmp_path / "cache")])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_cli_errors_exit_nonzero(tmp_path, capsys, monkeypatch):
    rc = cli_main(["balance-check", "--dataset", str(tmp_path / "missing.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # what the parser cannot check is refused before anything is solved or written (exit 1)
    solves = count_calls(monkeypatch, "smallest_eigs", lambda *a, **kw: None)
    edges, labels = write_small_dataset(tmp_path)
    out = tmp_path / "o.csv"
    lost = tmp_path / "missing" / "x.csv"
    notadir = tmp_path / "notadir"
    notadir.write_text("")
    sweep = ["--methods", "gl-sn", "--fractions", "0.1", "--neigs", "5", "--runs", "1"]
    ssbm = ["ssbm", "--n", "30", "--p-in", "0.5", "--p-out", "0.5"]
    # a sweep that is refused exports no graph either
    exports = [tmp_path / "e.txt", tmp_path / "b.txt"]
    export = ["--save-edges", exports[0], "--save-labels", exports[1]]
    absent = tmp_path / "absent.txt"
    absent.write_text(labels.read_text() + "absent block0\n")
    for argv, message in [
        # so is a generated graph of one class
        (ssbm + ["--k", "1", *sweep, *export, "--out", out],
         "a sweep needs at least 2 classes, the labels hold 1"),
        # run refuses its spec before it reads a file: no missing file, no loader notice
        (["run", "--dataset", tmp_path / "missing.txt", "--labels", labels,
          "--methods", "bogus", "--out", out], "unknown method 'bogus'"),
        (["run", "--dataset", edges, "--labels", absent, "--skip-missing", *sweep,
          "--neigs", "0", "--out", out], "each n_eigs entry must be a positive integer, got 0"),
        (["run", "--dataset", edges, "--labels", labels, "--methods=", "--out", out],
         "methods list is empty"),
        (ssbm, "nothing to do: pass --methods and/or --save-edges"),
        (ssbm + ["--methods", "hf"], "--out is required when running a sweep"),
        (ssbm + ["--methods=", *export, "--out", out], "methods list is empty"),
        (ssbm + ["--methods", "hf", "--fractions", "1.5", *export, "--out", out],
         "fractions must lie in (0, 1), got 1.5"),
        (ssbm + ["--methods", "hf", *export], "--out is required when running a sweep"),
        # an --out the CSV cannot be written to is refused before the sweep runs
        (["run", "--dataset", edges, "--labels", labels, *sweep, "--out", lost],
         f"--out {lost}: directory {lost.parent} does not exist"),
        (ssbm + [*sweep, *export, "--out", lost],
         f"--out {lost}: directory {lost.parent} does not exist"),
        (ssbm + [*sweep, *export, "--out", tmp_path], f"--out {tmp_path} is a directory"),
        # so is an eigs --cache-dir that no cache file could be written into
        (["eigs", "--dataset", edges, "--operator", "SN", "--neigs", "5", "--cache-dir", notadir],
         f"--cache-dir {notadir} is not a directory"),
    ]:
        capsys.readouterr()
        assert cli_main([str(a) for a in argv]) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: {message}"), argv
        assert not out.exists() and not any(path.exists() for path in exports), argv
        assert solves == [], argv


def test_cli_runs_as_a_module(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "signedgl.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    done = module("ssbm", "--n", "40", "--p-in", "0.3", "--p-out", "0.3", "--methods", "hf",
                  "--fractions", "0.2", "--runs", "1", "--out", "s.csv")
    assert done.returncode == 0, done.stderr
    # a header, one run row and its mean row
    assert [line.split(",")[0] for line in (tmp_path / "s.csv").read_text().splitlines()] == [
        "record", "run", "mean"]
    refused = module("balance-check", "--dataset", "missing.txt")
    assert refused.returncode == 1 and refused.stderr.startswith("error: "), refused.stderr


def test_readme_quick_start_runs(capsys):
    # the public example of the library API; a name it uses that is gone fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert re.fullmatch(r"accuracy: [01]\.\d+\n", out), out


# every flag a subcommand always needs, with a value; each line is a whole command
ALWAYS_REQUIRED = {
    "run": {"--dataset": "g.txt", "--labels": "l.txt", "--methods": "gl-sn", "--out": "o.csv"},
    "eigs": {"--dataset": "g.txt", "--operator": "SN", "--cache-dir": "cache"},
    "balance-check": {"--dataset": "g.txt"},
    "ssbm": {"--n": "50", "--p-in": "0.3", "--p-out": "0.3"},
}


@pytest.mark.parametrize("command, missing", [
    pytest.param(command, missing, id=f"{command}-{','.join(missing)}")
    for command, flags in ALWAYS_REQUIRED.items()
    for missing in dict.fromkeys([tuple(flags), *((flag,) for flag in flags)])
])
def test_cli_missing_required_flag_is_a_usage_error(command, missing, monkeypatch, tmp_path,
                                                    capsys):
    write_small_dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    solves = []
    for module in (signedgl.harness, signedgl.cli):
        monkeypatch.setattr(module, "smallest_eigs", lambda *a, **kw: solves.append(a))
    argv = [command, *(arg for flag, value in ALWAYS_REQUIRED[command].items()
                       if flag not in missing for arg in (flag, value))]
    if command == "ssbm":  # a sweep and an export, lacking only the graph's flags
        argv += ["--methods", "gl-sn", "--out", "o.csv", "--save-edges", "e.txt"]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    # one error line, after the usage lines, names every missing flag
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"signedgl {command}: error: the following arguments are required: {', '.join(missing)}")
    assert sorted(tmp_path.rglob("*")) == before and solves == []


def test_cli_prints_loader_notices_as_plain_lines(tmp_path, capsys):
    edges, labels = write_small_dataset(tmp_path)
    dirty, extra = tmp_path / "dirty.txt", tmp_path / "extra.txt"
    dirty.write_text(edges.read_text() + "0 0 1\n0 1 0\n")
    extra.write_text(labels.read_text() + "absent block0\n")
    shown = warnings.showwarning
    capsys.readouterr()
    assert cli_main(["run", "--dataset", str(dirty), "--labels", str(extra), "--skip-missing",
                     "--methods", "hf", "--fractions", "0.2", "--runs", "1",
                     "--out", str(tmp_path / "out.csv")]) == 0
    # one plain line per notice: no warning category, source location or source line
    assert capsys.readouterr().err.splitlines() == [
        f"signedgl: {dirty}: dropped 1 self-loop rows",
        f"signedgl: {dirty}: dropped 1 zero-weight rows",
        f"signedgl: {extra}: skipped 1 labels for absent nodes",
    ]
    assert warnings.showwarning is shown
