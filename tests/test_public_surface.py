"""Every public name has a caller outside the tests.

A public name is a module-level function, class or constant without a ``_``
prefix in any package module; the names of ``cavity_entangler.__all__`` are
among them. It is live when a word-boundary match for it appears in
``perfbench/*.py``, in ``BENCHMARK.json``, or in a package module other than
``__init__.py``, outside its own definition. A match inside the definition of
another public name counts only when that name is live, so a helper used only
by a test-only helper is dead too. Test-only helpers belong in
``tests/conftest.py``.
"""
import ast
import re
from pathlib import Path

import cavity_entangler

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavity_entangler"


def _sources():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "BENCHMARK.json"]
    return {p.resolve(): p.read_text(encoding="utf-8").splitlines() for p in paths}


def _assigned_names(target):
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _assigned_names(elt)]
    return []


def _definitions():
    """Public name -> the (file, 0-based line range) of each module-level definition."""
    spans = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n for target in node.targets for n in _assigned_names(target)]
            elif isinstance(node, ast.AnnAssign):
                names = _assigned_names(node.target)
            else:
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            for name in names:
                if not name.startswith("_"):
                    spans.setdefault(name, []).append((path.resolve(), range(start - 1, node.end_lineno)))
    return spans


def _defined_at(spans, path, index):
    return any(p == path and index in span for p, span in spans)


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = _sources()
    spans = _definitions()
    assert set(cavity_entangler.__all__) <= set(spans)

    def owner(path, index):
        """The public name whose definition holds this line, or None."""
        return next((n for n, defs in spans.items() if _defined_at(defs, path, index)), None)

    callers = {}               # public name -> owners of its references (None: not a public name)
    for name, defs in spans.items():
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        callers[name] = {
            owner(path, i)
            for path, lines in sources.items()
            for i, line in enumerate(lines)
            if pattern.search(line) and not _defined_at(defs, path, i)
        }
    live, found_now = set(), {None}
    while found_now:
        live |= found_now
        found_now = {name for name, found in callers.items() if found & live} - live
    assert sorted(set(spans) - live) == []
