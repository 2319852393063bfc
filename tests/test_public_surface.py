"""Every public name has a caller outside the tests.

A name in ``cavity_entangler.__all__`` is live when a word-boundary match for
it appears in ``perfbench/*.py``, in ``BENCHMARK.json``, or in a package
module other than ``__init__.py``, outside its own definition. A match inside
the definition of another public name counts only when that name is live, so
a helper used only by a test-only helper is dead too. Test-only helpers
belong in ``tests/conftest.py``.
"""
import inspect
import re
from pathlib import Path

import cavity_entangler

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavity_entangler"


def _sources():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "BENCHMARK.json"]
    return {p.resolve(): p.read_text(encoding="utf-8").splitlines() for p in paths}


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = _sources()
    spans = {}                 # public name -> (file, 0-based line range of its definition)
    for name in cavity_entangler.__all__:
        obj = getattr(cavity_entangler, name)
        lines, start = inspect.getsourcelines(obj)
        spans[name] = (Path(inspect.getsourcefile(obj)).resolve(), range(start - 1, start - 1 + len(lines)))

    def owner(path, index):
        """The public name whose definition holds this line, or None."""
        return next((n for n, (p, span) in spans.items() if p == path and index in span), None)

    callers = {}               # public name -> owners of its references (None: not a public name)
    for name in spans:
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        callers[name] = {
            owner(path, i)
            for path, lines in sources.items()
            for i, line in enumerate(lines)
            if pattern.search(line) and not (path == spans[name][0] and i in spans[name][1])
        }
    live, found_now = set(), {None}
    while found_now:
        live |= found_now
        found_now = {name for name, found in callers.items() if found & live} - live
    assert sorted(set(spans) - live) == []
