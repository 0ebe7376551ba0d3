"""`study.run_study` scores every cell alike on any worker count, through the CLI alone."""

import ast
from pathlib import Path

from study import ARCHS, run_study

TESTS = Path(__file__).resolve().parent
GLASGOW = TESTS.parent / "data" / "glasgow"
CORPUS_FLAGS = (
    "--poi-file", str(GLASGOW / "POI-glasgow.csv"),
    "--visits-file", str(GLASGOW / "userVisits-glasgow.csv"),
)


def test_a_short_study_gives_equal_per_cell_results_on_one_and_two_workers():
    one, two = (run_study(CORPUS_FLAGS, range(2), workers, epochs=2) for workers in (1, 2))
    assert list(one) == [(arch, on) for arch in ARCHS for on in (False, True)]
    assert all(len(cell["per_seed"]) == 2 for cell in one.values())
    assert one == two


def test_the_study_imports_only_the_cli_and_the_config_names():
    # a cell trains, decodes and scores through `artrip.cli.main`, never by a pipeline of its own
    tree = ast.parse((TESTS / "study.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    modules = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    assert {module for module in modules if module.startswith("artrip")} == {"artrip.cli", "artrip.config"}
