"""Every import in the package, its tests and its scripts is read
somewhere in its module, every top-level name is named somewhere outside
its own definition, and every module imports on its own.

An import that nothing reads is code that nothing uses.  A name listed in
`__all__` counts as read, and an import line marked `# noqa: F401` is
exempt (`metrics.decode_trip` is kept so `perfbench` can wrap it there, and
`artrip.model` keeps the three names `perfbench` imports from it).
A top-level function, class or assigned name counts as named when its word
appears in any Python file under src, tests, scripts or perfbench, outside
the lines that define it; a mention in a string counts, because `perfbench`
wraps functions by name.
The package calls `csv.reader` and `csv.writer` once each, both in
`data.py`, so every CSV it reads or writes goes through one place, and
every text file it opens names its encoding, so no file's bytes depend on
the host's locale.
Only `streams.py` reaches numpy's random module, so every generator the
package builds comes from one table of named streams.
Only `decoding.py` reads or writes a `.plans` attribute, so the decode
plans a model keeps are built, keyed, capped and frozen in one module.
No augmented assignment under `src/artrip` or `scripts` targets an
attribute that `ModelParams` sets: on its frozen record `params.flat -= g`
updates the array in place and only then raises on the rebind.
Every module is imported by another module of the package, except the
console script's module named in `pyproject.toml`: a module that only
tests import is test code and belongs under `tests/`.
A process ends through `artrip.cli.run` alone: it holds the one `os._exit`
call of the package, the `__main__` block of `artrip.cli` is `run()` and
the console script names it, so `main()`, which the study and the tests
call in-process, always returns.
Each module is also imported alone, after every module of its package is
dropped from `sys.modules`.  The package preloads nothing, so an import
cycle that breaks only when one particular module is imported first would
otherwise fail for some callers and pass in the suite.  Imported so,
`artrip.config` loads no `artrip.decoding` and no `artrip.model` module,
and none of `artrip.cli`, `artrip.config`, `artrip.data` and
`artrip.model.bundle` loads numpy, so `artrip ingest` runs without it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from artrip.config import ModelConfig
from artrip.model.params import ModelParams

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
TESTS_AND_SCRIPTS = [p for folder in ("tests", "scripts") for p in sorted((ROOT / folder).glob("*.py"))]
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


@pytest.mark.parametrize("path", TESTS_AND_SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import_in_tests_or_scripts(path):
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


_CSV_CALLS = ("reader", "writer", "DictReader", "DictWriter")


def csv_calls(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file, function) for every call of `csv.reader`, `csv.writer` or their Dict forms, sorted."""
    return sorted(
        (name, node.func.attr)
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "csv"
        and node.func.attr in _CSV_CALLS
    )


def test_the_package_reads_and_writes_csv_in_one_place_each():
    # data.py's loaders share one reader and its writers one writer, so all share one dialect
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert csv_calls(sources) == [("artrip/data.py", "reader"), ("artrip/data.py", "writer")]


def test_the_csv_scan_finds_every_reader_and_writer_call():
    sources = {
        "a.py": "import csv\nrows = csv.reader(fh)\ncsv.field_size_limit(10)\nout = csv.writer(fh)\n",
        "b.py": "import csv\ndef load(fh):\n    return list(csv.DictReader(fh))\nreader(fh)\n",
    }
    assert csv_calls(sources) == [("a.py", "reader"), ("a.py", "writer"), ("b.py", "DictReader")]


def numpy_random_uses(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(file, line) for every reach into numpy's random module, sorted.

    The forms are an `np.random` or `numpy.random` attribute, `import
    numpy.random`, `from numpy.random import ...` and `from numpy import random`.
    """
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                hit = node.module.split(".")[:2] == ["numpy", "random"] or (
                    node.module == "numpy" and any(alias.name == "random" for alias in node.names)
                )
            else:
                continue
            if hit:
                found.append((name, node.lineno))
    return sorted(found)


def test_only_the_streams_module_reaches_numpy_random():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert {name for name, _ in numpy_random_uses(sources)} == {"artrip/streams.py"}


def test_the_numpy_random_scan_finds_every_form():
    sources = {
        "a.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "g = numpy.random.Generator\n"
            "x = np.randomize\n"
            "y = rng.random()\n"
            "import numpy.random\n"
            "import numpy.random.mtrand as mt\n"
        ),
        "b.py": (
            "from numpy.random import default_rng\n"
            "from numpy.random.bit_generator import SeedSequence\n"
            "from numpy import random\n"
            "from numpy import linalg\n"
            "import random\n"
            "from random import random\n"
        ),
    }
    assert numpy_random_uses(sources) == [
        ("a.py", 2),
        ("a.py", 3),
        ("a.py", 6),
        ("a.py", 7),
        ("b.py", 1),
        ("b.py", 2),
        ("b.py", 3),
    ]


def plans_uses(sources: dict[str, str]) -> list[tuple[str, int]]:
    """(file, line) for every read or write of an attribute named `plans`, sorted."""
    return sorted(
        (name, node.lineno)
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "plans"
    )


def test_only_the_decoding_module_reads_or_writes_the_decode_plans():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert {name for name, _ in plans_uses(sources)} == {"artrip/decoding.py"}


def test_the_plans_scan_finds_a_read_and_an_assignment():
    sources = {
        "a.py": "plans = {}\nstore = params.plans.get(key)\nx.plans_cap = 1\n",
        "b.py": "vars(model).update(plans={})\nmodel.plans = {}\n",
    }
    assert plans_uses(sources) == [("a.py", 2), ("b.py", 2)]


# text-file calls, by function name, with the position `encoding` may take as an argument
_TEXT_CALLS = {"open": 3, "read_text": 0, "write_text": 1, "TextIOWrapper": 1}


def text_calls_without_encoding(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, function) for every text-mode `open`, `.read_text`, `.write_text`
    or `TextIOWrapper` call that passes no encoding, sorted.

    `open` counts only called by its bare name, and is text-mode unless its
    mode is a literal holding "b".
    """
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            # a method named open, such as os.open, takes other arguments
            if called not in _TEXT_CALLS or (called == "open" and isinstance(func, ast.Attribute)):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            if called == "open":
                mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
                if isinstance(mode, ast.Constant) and "b" in mode.value:
                    continue
            if "encoding" not in keywords and len(node.args) <= _TEXT_CALLS[called]:
                found.append((name, node.lineno, called))
    return sorted(found)


def test_every_text_file_the_package_opens_names_its_encoding():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert text_calls_without_encoding(sources) == []


def test_the_encoding_scan_finds_every_text_call_without_one():
    sources = {
        "a.py": (
            "open(p)\n"
            "open(p, 'rb')\n"
            "open(p, mode='wb')\n"
            "open(p, 'w', encoding='utf-8')\n"
            "open(p, 'w', newline='')\n"
            "open(p, 'r', -1, 'utf-8')\n"
            "os.open(p, flags)\n"
        ),
        "b.py": (
            "P.read_text()\n"
            "P.read_text('utf-8')\n"
            "P.write_text(s, encoding='ascii')\n"
            "P.write_text(s)\n"
            "io.TextIOWrapper(b)\n"
            "TextIOWrapper(b, 'utf-8')\n"
            "P.read_bytes()\n"
        ),
    }
    assert text_calls_without_encoding(sources) == [
        ("a.py", 1, "open"),
        ("a.py", 5, "open"),
        ("b.py", 1, "read_text"),
        ("b.py", 4, "write_text"),
        ("b.py", 5, "TextIOWrapper"),
    ]


def augmented_attribute_assignments(sources: dict[str, str], names) -> list[tuple[str, int, str]]:
    """(file, line, attribute) for every `x.attr op= ...` whose attribute is in `names`, sorted."""
    return sorted(
        (name, node.lineno, node.target.attr)
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute) and node.target.attr in names
    )


def test_no_augmented_assignment_targets_a_model_params_attribute():
    # tests/ is left out: test_model.py applies `-=` to a frozen model on purpose, inside pytest.raises
    names = set(vars(ModelParams(ModelConfig(), 4, 5)))
    assert {"flat", "blocks", "qkv"} <= names
    paths = [*MODULES, *sorted((ROOT / "scripts").rglob("*.py"))]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    assert augmented_attribute_assignments(sources, names) == []


def test_the_augmented_assignment_scan_finds_every_attribute_target():
    sources = {
        "a.py": (
            "params.flat -= g\n"
            "params.flat[...] -= g\n"
            "np.subtract(params.flat, g, out=params.flat)\n"
            "self.blocks['w'] += 1\n"
            "model.qkv *= 2\n"
            "state.steps += 1\n"
            "flat += 1\n"
        ),
    }
    found = augmented_attribute_assignments(sources, {"flat", "blocks", "qkv"})
    assert found == [("a.py", 1, "flat"), ("a.py", 5, "qkv")]


_SCRIPTS = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
ENTRY_POINTS = set(re.findall(r'"([\w.]+):\w+"', _SCRIPTS.group(1)))


def module_names(paths, root: Path) -> dict[str, str]:
    """Dotted module name -> source for each path under `root`; a package is named by its folder."""
    return {".".join(p.relative_to(root).with_suffix("").parts).removesuffix(".__init__"): p.read_text() for p in paths}


def orphan_modules(sources: dict[str, str], entry_points: set[str]) -> list[str]:
    """Modules of `sources` (dotted name -> source) that no other of them imports, entry points aside, sorted.

    Importing `a.b.c` imports `a` and `a.b` too; `from m import x` counts
    `m.x` in case x is a submodule; relative imports resolve against the
    importing module's package.
    """
    packages = {name.rpartition(".")[0] for name in sources}
    imported: set[str] = set()
    for name, source in sources.items():
        found: set[str] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package = name if name in packages else name.rpartition(".")[0]
                    anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                    base = f"{anchor}.{base}" if base else anchor
                targets = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            for target in targets:
                parts = target.split(".")
                found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        imported |= found - {name}
    return sorted(set(sources) - imported - entry_points)


def test_every_module_is_imported_by_the_package_or_is_its_console_script():
    assert ENTRY_POINTS == {"artrip.cli"}
    assert orphan_modules(module_names(MODULES, SRC), ENTRY_POINTS) == []


def test_the_orphan_scan_finds_a_module_that_only_itself_or_nothing_imports():
    # every other module is imported once, each by a different import form
    sources = {
        "pkg": "",
        "pkg.cli": "import pkg.core\n",
        "pkg.core": "from . import helpers\nfrom .sub import X\n",
        "pkg.helpers": "import os\n",
        "pkg.util": "",
        "pkg.sub": "from .leaf import X\n",
        "pkg.sub.leaf": "from ..util import Y\n",
        "pkg.orphan": "from pkg.core import run\n",
        "pkg.selfish": "import pkg.selfish\n",
    }
    assert orphan_modules(sources, {"pkg.cli"}) == ["pkg.orphan", "pkg.selfish"]


def _owned_calls(node: ast.AST, owner: str):
    """(call, dotted name of the function, class or module around it) for every call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, owner
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _owned_calls(child, f"{owner}.{child.name}" if named else owner)


def exit_path_faults(sources: dict[str, str], scripts: str) -> list[str]:
    """What keeps a process from ending through `artrip.cli.run` alone, sorted.

    `sources` maps dotted module names to sources and `scripts` is the
    `[project.scripts]` table of pyproject.toml.  A fault is an `_exit` call
    anywhere but once in `artrip.cli.run`, an `artrip.cli` whose `__main__`
    block is not exactly `run()`, or console scripts other than `artrip`
    naming `artrip.cli:run`.
    """
    faults = []
    exits = [
        owner
        for name, source in sources.items()
        for call, owner in _owned_calls(ast.parse(source), name)
        if getattr(call.func, "attr", getattr(call.func, "id", None)) == "_exit"
    ]
    if exits != ["artrip.cli.run"]:
        faults.append(f"_exit called in {exits}")
    is_main = ast.dump(ast.parse("__name__ == '__main__'", mode="eval").body)
    blocks = [
        node.body for node in ast.parse(sources.get("artrip.cli", "")).body
        if isinstance(node, ast.If) and ast.dump(node.test) == is_main
    ]
    if [list(map(ast.dump, body)) for body in blocks] != [[ast.dump(ast.parse("run()").body[0])]]:
        faults.append("the __main__ block of artrip.cli is not run()")
    named = re.findall(r'^\s*([\w-]+)\s*=\s*"([^"]*)"', scripts, re.M)
    if named != [("artrip", "artrip.cli:run")]:
        faults.append(f"console scripts {named}")
    return sorted(faults)


def test_every_process_ends_through_cli_run():
    # `main` returns, so the study, the tests and the scripts keep the ordinary exit in-process
    assert exit_path_faults(module_names(MODULES, SRC), _SCRIPTS.group(1)) == []


def test_the_exit_path_scan_finds_every_other_exit():
    good = {
        "artrip.cli": (
            "import os\n"
            "def main():\n    return 0\n"
            "def run():\n    os._exit(main())\n"
            "if __name__ == '__main__':\n    run()\n"
        ),
        "artrip.data": "import os\npid = os.getpid()\n",
    }
    script = 'artrip = "artrip.cli:run"\n'
    assert exit_path_faults(good, script) == []
    bad = {
        "artrip.cli": (
            "import os, sys\n"
            "from os import _exit\n"
            "def main():\n    os._exit(0)\n"
            "def run():\n    _exit(main())\n"
            "class Runner:\n    def stop(self):\n        os._exit(1)\n"
            "if __name__ == '__main__':\n    sys.exit(main())\n"
        ),
        "artrip.data": "import os\nos._exit(2)\n",
    }
    assert exit_path_faults(bad, 'artrip = "artrip.cli:main"\n') == [
        "_exit called in ['artrip.cli.main', 'artrip.cli.run', 'artrip.cli.Runner.stop', 'artrip.data']",
        "console scripts [('artrip', 'artrip.cli:main')]",
        "the __main__ block of artrip.cli is not run()",
    ]
    assert exit_path_faults(good, script + 'other = "artrip.cli:run"\n') == [
        "console scripts [('artrip', 'artrip.cli:run'), ('other', 'artrip.cli:run')]"
    ]


# Imports each named module after dropping every module of its package from
# sys.modules; prints one JSON line per module: its name, the error it raised
# or null, and the package's modules and numpy's then loaded.  numpy is never
# dropped, so its entries belong to the first name that loaded it.
_ALONE = """
import importlib, json, sys
package = sys.argv[1]
for name in sys.argv[2:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == package]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    print(json.dumps([name, error, sorted(m for m in sys.modules if m.split(".")[0] in (package, "numpy"))]))
"""


def import_alone(root: Path, package: str, names: list[str]) -> dict[str, tuple[str | None, list[str]]]:
    """name -> (its error or None, the modules of `package` and numpy loaded) for each of `names` imported alone from `root`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _ALONE, package, *names], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return {name: (error, loaded) for name, error, loaded in map(json.loads, done.stdout.splitlines())}


def import_failures(root: Path, package: str, names: list[str]) -> list[str]:
    """`name: error` for each of `names` that fails to import alone from `root`."""
    return [f"{name}: {error}" for name, (error, _) in import_alone(root, package, names).items() if error]


def test_every_module_imports_on_its_own():
    names = list(module_names(MODULES, SRC))
    assert "artrip" in names and "artrip.model.train" in names
    assert import_failures(SRC, "artrip", names) == []


def test_the_config_loads_neither_the_decoder_nor_the_models(tmp_path):
    # nothing `ingest` imports loads numpy: each name in an interpreter of its own
    loaded = {}
    for name in ("artrip.cli", "artrip.config", "artrip.data", "artrip.model.bundle"):
        error, loaded[name] = import_alone(SRC, "artrip", [name])[name]
        assert error is None and name in loaded[name]
        assert [m for m in loaded[name] if m.split(".")[0] == "numpy"] == [], name
    # the run's records sit below the code they configure
    assert [m for m in loaded["artrip.config"] if m == "artrip.decoding" or m.startswith("artrip.model")] == []
    # and `ingest` runs to the end without numpy
    script = (
        "import sys\n"
        "from artrip.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    corpus = ROOT / "data" / "glasgow"
    flags = ["--poi-file", str(corpus / "POI-glasgow.csv"), "--visits-file", str(corpus / "userVisits-glasgow.csv")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, "ingest", *flags, "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "corpus.csv").exists()


def test_the_import_check_finds_a_cycle_that_one_entry_point_hides(tmp_path):
    (tmp_path / "cyc").mkdir()
    (tmp_path / "cyc" / "__init__.py").write_text("")
    (tmp_path / "cyc" / "a.py").write_text("from cyc.b import B\nA = 1\n")
    (tmp_path / "cyc" / "b.py").write_text("B = 2\nfrom cyc.a import A\n")
    # importing b first loads both; a alone meets b asking for a name a has not bound yet
    failures = import_failures(tmp_path, "cyc", ["cyc.b", "cyc.a"])
    assert [line.split(":")[0] for line in failures] == ["cyc.a"]
    assert "partially initialized module" in failures[0]
