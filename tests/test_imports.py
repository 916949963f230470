"""Every name a module of the package imports, and every private name it
defines at module level, is used in that module; and every name the
perfbench tracer wraps exists and comes back whole."""

import ast
import importlib.util
import json
import threading
from pathlib import Path

import pytest

from conftest import build_school_db
from skelsearch import bench

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skelsearch"
# Imported but unused on purpose: the perfbench tracer patches these
# names in these modules, where their callers would look them up.
KEPT = {("selector", "parse_query")}


def unused_imports(source: str) -> list[str]:
    """Names that the module `source` imports and never reads, less the
    names it lists in `__all__`."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name)
                      and target.id == "__all__"
                      for target in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport json as codec\n"
              "from a import b, c as d\nfrom e import f\n"
              "__all__ = ['f']\nprint(b, os.sep)\n")
    assert unused_imports(source) == ["codec", "d"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_uses_every_import(path):
    kept = sorted(name for module, name in KEPT if module == path.stem)
    assert unused_imports(path.read_text(encoding="utf-8")) == kept


def unread_private_names(source: str) -> list[str]:
    """Names with one leading underscore that the module `source` binds
    at its top level (def, class or assignment) and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound - read
                  if name.startswith("_") and not name.startswith("__"))


def test_scan_finds_unread_private_names():
    source = ("_A = 1\n_B, (_C, d) = 2, (3, 4)\n_D: int = 5\n"
              "__all__ = []\n_E = 6\n_E = 7\n"
              "def _f():\n    _g = 8\n    return _A\n"
              "def _h(): pass\nclass _K: pass\nprint(_f, _B)\n")
    assert unread_private_names(source) == ["_C", "_D", "_E", "_K", "_h"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.stem)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_perfbench_tracer_wraps_and_restores_its_names(tmp_path):
    """perfbench/spans.py wraps its names in the package by attribute
    name, so a renamed or deleted one fails `install()` here; and a
    traced run over two databases records one profile span for each."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for db_id in ("a", "b"):
        (tmp_path / db_id).mkdir()
        build_school_db(tmp_path / db_id / f"{db_id}.sqlite")
    rows = [{"question": f"q{index}", "db_id": db_id,
             "SQL": "SELECT name FROM students"}
            for index, db_id in enumerate(["a", "b", "a"])]
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps(rows), encoding="utf-8")
    run_item, start = bench.run_item, threading.Thread.start
    tracer = spans.Tracer({})
    try:
        tracer.install()
        assert bench.run_item is not run_item
        assert threading.Thread.start is not start
        bench.run_benchmark(dataset, tmp_path, out_dir=tmp_path / "run")
    finally:
        tracer.uninstall()
    assert bench.run_item is run_item
    assert threading.Thread.start is start
    assert sorted(span.item for span in tracer.spans
                  if span.name == "bench.run_item") == ["0", "1", "2"]
    assert len([span for span in tracer.spans
                if span.name == "schema.profile"]) == 2
    assert spans.layer_metrics(tracer, [])["schema.profile.ms_per_db"] > 0
