"""`artrip ingest` and `artrip evaluate` on inputs changed one value at a time.

Each example changes one CSV cell, one config line or one manifest field
of a small valid set-up and runs the command through `cli.main`.  Every
example must end in exit status 0 or 1, print no traceback and at most one
`error:` line (exactly one on status 1), which names the file, config key
or path at fault.

The examples run in a child process whose address space is capped with
`resource.setrlimit(RLIMIT_AS)`, set in that child only, so an input that
makes the program allocate without bound fails fast with a MemoryError
instead of exhausting the machine.  Run this file as a script with a
scratch directory to run the child's side alone.
"""

import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import artrip
from artrip import cli
from artrip.config import CONFIG_KEYS, OUTPUT_DIR_ENV

# the child's address-space cap; numpy and its BLAS threads fit well within it
ADDRESS_SPACE_BYTES = 3 * 1024**3
EXAMPLES = 200
# an error line names an input or bundle file, a config key, or the path an OSError met
NAMES = ("pois.csv", "visits.csv", "run.cfg", "manifest.json", "params.bin", "guidance.bin", *CONFIG_KEYS)
OS_ERROR = re.compile(r"error: \[Errno \d+\] [^:]*: ['\"]")

POIS = [
    ["poiID", "poiName", "lat", "long", "theme"],
    ["101", "Castle", "55.95", "-3.19", "Castle"],
    ["102", "Museum", "55.94", "-3.18", "Museum"],
    ["103", "Park", "55.96", "-3.20", "Park"],
    ["104", "Gallery", "55.95", "-3.21", "Gallery"],
    ["105", "Market", "55.93", "-3.19", "Market"],
]
ROUTES = [
    [101, 102, 103],
    [101, 103, 105, 102],
    [104, 102, 101],
    [101, 105, 103],
    [104, 103, 102, 101],
    [104, 105, 102],
    [101, 102, 105, 103],
    [105, 102, 103],
    [103, 104, 101],
    [101, 104, 105, 102],
]
# a tiny one-shot model, one repeat: evaluate decodes the one test route once
CONFIG_LINES = [
    "poi_file = pois.csv",
    "visits_file = visits.csv",
    "min_traj_len = 3",
    "embed_dim = 4",
    "num_layers = 1",
    "num_heads = 2",
    "hidden_dim = 8",
    "epochs = 1",
    "repeats = 1",
    "strategy = greedy",
]
# never changed: the child writes only under its own directory
OUTPUT_LINE = "output_dir = out"


def csv_bytes(rows) -> bytes:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode()


def base_files() -> dict[str, bytes]:
    visits = [["userID", "seqID", "poiID", "dateTaken"]]
    for seq, route in enumerate(ROUTES, start=1):
        visits += [[f"u{seq}", seq, poi, 1357030800 + seq * 86400 + 3600 * i] for i, poi in enumerate(route)]
    return {
        "pois.csv": csv_bytes(POIS),
        "visits.csv": csv_bytes(visits),
        "run.cfg": "\n".join([*CONFIG_LINES, OUTPUT_LINE, ""]).encode(),
    }


def run_main(argv) -> tuple[int, str]:
    """`cli.main(argv)`'s status and stderr; an exception escaping it propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, err.getvalue()


def assert_clean_exit(argv) -> None:
    status, err = run_main(argv)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert status in (0, 1), (status, err)
    assert "Traceback" not in err, err
    assert len(errors) == status, err
    for line in errors:
        assert any(name in line for name in NAMES) or OS_ERROR.match(line), line


cell_values = st.one_of(
    st.binary(max_size=6),
    st.text(max_size=6).map(str.encode),
    st.sampled_from([b"", b"-1", b"0", b"1e308", b"nan", b"inf", b"9" * 30, b"101", b'"', b"\xff", b"Caf\xe9"]),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5)
    | st.sampled_from([0, -1, 1, 2, 3, 10**6, 10**12, 10**30]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def csv_cell_change(draw, files):
    """One cell of the POI or visits CSV replaced by arbitrary bytes."""
    name = draw(st.sampled_from(["pois.csv", "visits.csv"]))
    rows = [line.split(b",") for line in files[name].splitlines()]
    row = draw(st.integers(0, len(rows) - 1))
    rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(cell_values)
    return "ingest", name, b"\n".join(b",".join(r) for r in rows) + b"\n"


@st.composite
def config_line_change(draw, files):
    """One config line's value, or the whole line, replaced by arbitrary bytes."""
    i = draw(st.integers(0, len(CONFIG_LINES) - 1))
    key = CONFIG_LINES[i].split(" = ")[0].encode()
    line = draw(st.one_of(cell_values.map(lambda value: key + b" = " + value), cell_values))
    if b"output_dir" in line or b"\n" in line or b"\r" in line:
        line = b"# " + key
    lines = files["run.cfg"].splitlines()
    lines[i] = line
    return "ingest", "run.cfg", b"\n".join(lines) + b"\n"


@st.composite
def manifest_field_change(draw, manifest):
    """One manifest field, top-level or inside `config` or `mechanisms`, replaced or dropped."""
    changed = json.loads(manifest)
    paths = [(key,) for key in changed] + [(s, key) for s in ("config", "mechanisms") for key in changed[s]]
    *parents, field = draw(st.sampled_from(sorted(paths)))
    holder = changed[parents[0]] if parents else changed
    if draw(st.booleans()):
        holder[field] = draw(json_values)
    else:
        del holder[field]
    return "evaluate", "out/model/manifest.json", json.dumps(changed).encode()


def check_every_change(root: Path) -> None:
    """Write the set-up under `root`, train its bundle, then run every drawn change."""
    os.chdir(root)
    files = base_files()
    for name, data in files.items():
        Path(name).write_bytes(data)
    assert run_main(["train", "--config", "run.cfg"])[0] == 0
    files["out/model/manifest.json"] = Path("out/model/manifest.json").read_bytes()
    changes = st.one_of(
        csv_cell_change(files), config_line_change(files), manifest_field_change(files["out/model/manifest.json"])
    )

    @settings(
        max_examples=EXAMPLES,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(changes)
    def one_change(change):
        command, name, data = change
        for other, original in files.items():
            Path(other).write_bytes(data if other == name else original)
        assert_clean_exit([command, "--config", "run.cfg"])

    one_change()


def test_one_changed_input_value_ends_in_at_most_one_error_line(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != OUTPUT_DIR_ENV}
    paths = [str(Path(artrip.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    child = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stdout + child.stderr


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    check_every_change(Path(sys.argv[1]))
