"""Hash every artifact the CLI writes over the main decode settings.

    PYTHONPATH=src python scripts/artifact_hashes.py OUT_DIR

It first runs `ingest` into `ingest/` (`corpus.csv`, `summary.csv`), so the
CSV loader's output is covered too.  For each architecture it trains one
bundle on Glasgow with the criterion-8 flags, then evaluates it with
greedy, top_k, top_p, adaptive (temperature mode) and adaptive in threshold
mode, each with the no-repeat mask off and on, and runs `analyze` and
`recommend` once each with adaptive decoding; `recommend` asks for the corpus's first trajectory (its endpoints, their
times and its length).  The Markov baseline is evaluated with greedy,
top_k, top_p and adaptive, each with the mask off and on.  One more sampled
run per architecture (adaptive) and for Markov (top_p) uses decode seed 2**32,
whose per-query seeds do not fit one uint32 word each.  Two more runs per
architecture pass no `--strategy` flag, with `adapting` at its default and
with `--adapting false`, so the strategy comes from the config's own rule.
The popularity baseline is evaluated once.  Each architecture is also
trained and evaluated with `--guiding false --drifting false` into
`mechanisms-off/<arch>/`, so the zero guidance of training and decoding and
the zeroed alpha are covered.  The model shape
of the mechanism study (the defaults: 2 layers, embed 32, hidden 64) is
trained too, for each architecture with alpha 0 and 1, one epoch each; of
those runs only `params.bin` and `loss_trace.csv` are kept.  Commands run in-process through
`artrip.cli.main` and their console output goes to stderr.  Standard output is one
`sha256  path` line per file under OUT_DIR, sorted by path, so running it
against two checkouts (point PYTHONPATH at each `src`) and diffing the two
listings shows whether a change kept every output byte.  A first `#` line
names the arithmetic the bytes depend on: numpy's version, the SIMD
extensions it was built for and found, and the kernel its bundled OpenBLAS
picked for this CPU.  Two hosts that differ there may differ in the last
bits of training, and so in the hash lines.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np

from artrip.cli import main as cli_main
from artrip.config import ExperimentConfig
from artrip.data import extract_trajectories, load_poi_catalog, load_visits

DATA = Path(__file__).resolve().parents[1] / "data" / "glasgow"

# the model shape of acceptance criterion 8
CRITERION_8_FLAGS = (
    "--poi-file", str(DATA / "POI-glasgow.csv"),
    "--visits-file", str(DATA / "userVisits-glasgow.csv"),
    "--embed-dim", "16",
    "--num-layers", "1",
    "--hidden-dim", "32",
    "--epochs", "3",
    "--repeats", "2",
)
# the default model shape, which the criterion-5/6 study trains
STUDY_FLAGS = ("--epochs", "1")
STUDY_ALPHAS = ("0", "1")
ARCHS = ("one_shot", "recurrent")
# (directory name, decode flags)
STRATEGIES = (
    ("greedy", ["--strategy", "greedy"]),
    ("top_k", ["--strategy", "top_k"]),
    ("top_p", ["--strategy", "top_p"]),
    ("adaptive", ["--strategy", "adaptive"]),
    ("adaptive-threshold", ["--strategy", "adaptive", "--adaptive-mode", "threshold"]),
)
# the Markov baseline has no confidence model, so no threshold mode
MARKOV_STRATEGIES = STRATEGIES[:4]
MASKS = ("false", "true")
# no --strategy flag: `adapting` decides the strategy
UNSET_STRATEGY = (
    ("unset-strategy-adapting-true", []),
    ("unset-strategy-adapting-false", ["--adapting", "false"]),
)
# training and decoding without guidance, training without the drift loss
MECHANISMS_OFF = ["--guiding", "false", "--drifting", "false"]
# decode seed 2**32 does not fit one uint32 word, so per-query seeds go to numpy as given
WIDE_SEED = ["--decode-seed", str(2**32)]


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"artrip {' '.join(argv)} exited with {code}")


def _evaluations(strategies):
    for strategy, flags in strategies:
        for mask in MASKS:
            name = f"{strategy}-mask-{'on' if mask == 'true' else 'off'}"
            yield name, [*flags, "--no-repeat-mask", mask]


def _recommend_flags(flags: list[str]) -> list[str]:
    """`recommend` flags that ask for the corpus's first trajectory."""
    opts = dict(zip(flags[::2], flags[1::2]))
    catalog = load_poi_catalog(opts["--poi-file"])
    visits, _ = load_visits(opts["--visits-file"], catalog)
    first = extract_trajectories(visits, catalog, min_len=ExperimentConfig.min_traj_len)[0]
    return [
        "--start", str(catalog.id_of(first.pois[0])),
        "--end", str(catalog.id_of(first.pois[-1])),
        "--length", str(len(first)),
        "--start-time", str(first.times[0]),
        "--end-time", str(first.times[-1]),
    ]


def _train_study_shape(out_dir: Path, flags: list[str]) -> None:
    """Train the default shape on the corpus of `flags`; keep params and loss trace."""
    opts = dict(zip(flags[::2], flags[1::2]))
    data = ["--poi-file", opts["--poi-file"], "--visits-file", opts["--visits-file"]]
    for arch in ARCHS:
        for alpha in STUDY_ALPHAS:
            run_dir = out_dir / "study" / f"{arch}-alpha-{alpha}"
            _run(["train", *data, *STUDY_FLAGS, "--arch", arch, "--alpha", alpha,
                  "--output-dir", str(run_dir)])
            (run_dir / "model" / "params.bin").rename(run_dir / "params.bin")
            shutil.rmtree(run_dir / "model")


def write_artifacts(out_dir: Path, flags=CRITERION_8_FLAGS) -> None:
    """Train and evaluate every setting into its own directory under out_dir."""
    flags = list(flags)
    recommend = _recommend_flags(flags)
    _run(["ingest", *flags, "--output-dir", str(out_dir / "ingest")])
    for arch in ARCHS:
        arch_dir = out_dir / arch
        common = [*flags, "--arch", arch, "--output-dir", str(arch_dir)]
        _run(["train", *common])
        wide = ("adaptive-seed-2p32", ["--strategy", "adaptive", *WIDE_SEED])
        for name, decode_flags in [*_evaluations(STRATEGIES), wide, *UNSET_STRATEGY]:
            _run(["evaluate", *common, *decode_flags])
            (arch_dir / name).mkdir()
            for artifact in ("metrics.csv", "trips.csv"):
                (arch_dir / artifact).rename(arch_dir / name / artifact)
        _run(["analyze", *common, "--strategy", "adaptive"])
        _run(["recommend", *common, "--strategy", "adaptive", *recommend])
        off = [*flags, "--arch", arch, *MECHANISMS_OFF, "--output-dir", str(out_dir / "mechanisms-off" / arch)]
        _run(["train", *off])
        _run(["evaluate", *off])
    wide = ("top_p-seed-2p32", ["--strategy", "top_p", *WIDE_SEED])
    for name, decode_flags in [*_evaluations(MARKOV_STRATEGIES), wide]:
        target = out_dir / "markov" / name
        _run(["evaluate", *flags, "--generator", "markov", "--output-dir", str(target), *decode_flags])
    _run(["evaluate", *flags, "--generator", "popularity", "--output-dir", str(out_dir / "popularity")])
    _train_study_shape(out_dir, flags)


def hash_lines(out_dir: Path) -> list[str]:
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out_dir).as_posix()}"
        for p in files
    ]


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def arithmetic_line() -> str:
    """The listing's first line: numpy's version, its SIMD extensions and the OpenBLAS core."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    parts = [f"numpy {np.__version__}", *(f"SIMD {key} {' '.join(names)}" for key, names in simd.items())]
    return f"# {', '.join(parts)}, OpenBLAS core {openblas_core()}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: artifact_hashes.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    if out_dir.exists() and any(out_dir.iterdir()):
        print(f"error: {out_dir} is not empty", file=sys.stderr)
        return 1
    write_artifacts(out_dir)
    print("\n".join([arithmetic_line(), *hash_lines(out_dir)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
