"""Every import in the package is read somewhere in its module, and every
top-level name is named somewhere outside its own definition.

An import that nothing reads is code that nothing uses.  A name listed in
`__all__` counts as read, and an import line marked `# noqa: F401` is
exempt (`metrics.decode_trip` is kept so `perfbench` can wrap it there).
A top-level function, class or assigned name counts as named when its word
appears in any Python file under src, tests, scripts or perfbench, outside
the lines that define it; a mention in a string counts, because `perfbench`
wraps functions by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted((SRC / "artrip").rglob("*.py"))
# hidden directories, such as perfbench's scratch checkouts, are not searched
SEARCHED = sorted(
    p
    for folder in ("src", "tests", "scripts", "perfbench")
    for p in (ROOT / folder).rglob("*.py")
    if not any(part.startswith(".") for part in p.relative_to(ROOT).parts)
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from csv import writer  # noqa: F401 - kept for callers\n"
        "from re import (\n"
        "    compile,\n"
        "    escape,\n"
        ")\n"
        "__all__ = ['loads']\n"
        "print(dumps(compile('x')))\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 8: escape"]


def unnamed_definitions(source: str, elsewhere: Counter) -> list[str]:
    """Top-level names of `source` that its other lines and `elsewhere`
    (word counts of every other searched file) never mention, in source order."""
    lines = source.splitlines()
    words = Counter(WORD.findall(source))
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        inside = Counter(WORD.findall("\n".join(lines[node.lineno - 1 : node.end_lineno])))
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if not name.startswith("__") and elsewhere[name] + words[name] - inside[name] == 0
        ]
    return found


@pytest.fixture(scope="module")
def word_counts():
    return {path: Counter(WORD.findall(path.read_text())) for path in SEARCHED}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_top_level_name_is_named_outside_its_definition(path, word_counts):
    elsewhere = sum(word_counts.values(), Counter()) - word_counts[path]
    assert unnamed_definitions(path.read_text(), elsewhere) == []


def test_the_scan_finds_a_name_used_only_by_itself():
    source = (
        "LIMIT = 3\n"
        "SPARE, _TABLE = 1, {}\n"
        "__all__ = ['used']\n"
        "def used():\n"
        "    return LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Wrapped:\n"
        "    pass\n"
    )
    elsewhere = Counter(WORD.findall("used(); patch('Wrapped'); _TABLE"))
    assert unnamed_definitions(source, elsewhere) == ["line 2: SPARE", "line 6: recursive"]
