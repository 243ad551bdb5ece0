"""What a deletion in ``src/signedgl`` can leave behind: an import nothing
reads, an ``__all__`` entry nothing defines, and a name that the benchmark's
trace layer (``bench/layers.py``, read here and not edited) still looks up."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from signedgl import build_operator, load_eigenbasis, save_eigenbasis, smallest_eigs

from conftest import random_signed_graph

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "signedgl").glob("*.py") if p.name != "__init__.py")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    yield importlib.import_module("layers")
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


def test_every_traced_name_resolves(layers):
    for module, attr, _, _ in layers.WRAPS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_trace_reads_the_kind_of_a_solved_and_a_loaded_basis(layers, tmp_path):
    g = random_signed_graph(np.random.default_rng(3), 20)
    op = build_operator(g, "SN")
    solved = smallest_eigs(op, 3)
    path, digest = tmp_path / "basis.npz", "d" * 64
    save_eigenbasis(path, solved, digest)
    loaded = load_eigenbasis(path, digest, "SN")
    for basis in (solved, loaded):
        assert layers._basis_attrs((op, 3), {}, basis) == {
            "kind": "SN", "n": 20, "k": 3, "_basis": basis}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used_and_all_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, defined, exported = set(), set(), []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined |= names
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - used - set(exported)
    undefined = set(exported) - defined - imported
    assert (unused, undefined) == (set(), set()), (
        "(imported and never used, listed in __all__ and never defined)")
