"""Shared test configuration.

The acceptance suite registers one verdict per criterion here; the
terminal summary prints them as a compact pass/fail checklist after
the normal pytest output, below the arithmetic they were computed with
(the first line of `scripts/artifact_hashes.py`'s listing), since the
criteria's numbers hold per BLAS kernel.  The parameter-store check is
shared by the model and bundle tests, the bit comparison by the model and
loss tests, the script loader by the summary and the CLI tests.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from artrip.model.params import block_shapes

# criterion id -> (passed, one line of detail)
ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record(criterion: int, passed: bool, detail: str) -> None:
    ACCEPTANCE[criterion] = (bool(passed), detail)
    assert passed, f"criterion {criterion}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(load_artifact_hashes().arithmetic_line())
    for criterion in sorted(ACCEPTANCE):
        passed, detail = ACCEPTANCE[criterion]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {criterion}: {verdict} - {detail}")


def load_artifact_hashes():
    """`scripts/artifact_hashes.py`, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "artifact_hashes.py"
    spec = importlib.util.spec_from_file_location("artifact_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_blocks_view_flat(params) -> None:
    """Every block is a view of `params.flat` at its declaration-order offset."""
    shapes = block_shapes(params.config, params.k, params.m_max)
    assert list(params.blocks) == list(shapes)
    offset = 0
    for name, shape in shapes.items():
        block = params.blocks[name]
        assert block.shape == shape, name
        assert np.shares_memory(block, params.flat), name
        assert block.ctypes.data == params.flat.ctypes.data + 8 * offset, name
        offset += block.size
    assert offset == params.flat.size


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal arrays with the same sign on every zero, which `np.array_equal` alone lets differ."""
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
