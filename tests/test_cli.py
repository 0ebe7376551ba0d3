import argparse
import csv
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import load_artifact_hashes

from artrip import analysis, baselines, cli, decoding
from artrip.cli import main
from artrip.config import ConfigError, DecodeConfig, ExperimentConfig, ModelConfig, load_config
from artrip.data import Trajectory, split_corpus
from artrip.model import train as train_module

SRC = Path(__file__).resolve().parents[1] / "src"

POI_HEADER = ["poiID", "poiName", "lat", "long", "theme"]
VISIT_HEADER = ["userID", "seqID", "poiID", "dateTaken"]

POIS = [
    [101, "Castle 01", 55.95, -3.19, "Castle"],
    [102, "Museum 02", 55.94, -3.18, "Museum"],
    [103, "Park 03", 55.96, -3.20, "Park"],
    [104, "Gallery 04", 55.95, -3.21, "Gallery"],
    [105, "Market 05", 55.93, -3.19, "Market"],
    [106, "Bridge 06", 55.97, -3.18, "Bridge"],
]

# ten trips of 3-4 stops each; the 0.8/0.1/0.1 split gives 8/1/1
ROUTES = [
    [101, 102, 103],
    [101, 103, 105, 102],
    [104, 102, 101],
    [101, 105, 103],
    [106, 103, 102, 101],
    [104, 105, 102],
    [101, 102, 105, 103],
    [106, 102, 103],
    [103, 104, 101],
    [101, 104, 105, 102],
]


def write_corpus(root, routes):
    with open(root / "pois.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POI_HEADER)
        writer.writerows(POIS)
    with open(root / "visits.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VISIT_HEADER)
        for seq, route in enumerate(routes, start=1):
            ts = 1357030800 + seq * 86400
            for poi in route:
                writer.writerow([f"{seq:08d}@N00", seq, poi, ts])
                ts += 3600
    return root


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("corpus"), ROUTES)


@pytest.fixture(scope="module")
def long_test_corpus_dir(tmp_path_factory):
    """ROUTES with the default split's one test route grown to 6 stops, past the train horizon of 4."""
    marks = [Trajectory(pois=(i,), times=(0,)) for i in range(len(ROUTES))]
    (test_mark,) = split_corpus(marks).test
    routes = [list(r) for r in ROUTES]
    routes[test_mark.pois[0]] = [101, 102, 103, 104, 105, 106]
    return write_corpus(tmp_path_factory.mktemp("long_test_corpus"), routes)


@pytest.fixture
def base_flags(corpus_dir, tmp_path):
    return [
        "--poi-file", str(corpus_dir / "pois.csv"),
        "--visits-file", str(corpus_dir / "visits.csv"),
        "--output-dir", str(tmp_path / "out"),
        "--embed-dim", "8",
        "--num-layers", "1",
        "--num-heads", "2",
        "--hidden-dim", "16",
        "--epochs", "2",
        "--repeats", "2",
    ]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestIngest:
    def test_writes_corpus_and_summary(self, base_flags, tmp_path, capsys):
        assert main(["ingest", *base_flags]) == 0
        out = tmp_path / "out"
        rows = read_rows(out / "corpus.csv")
        assert rows[0] == ["trajectory", "position", "poi_id", "timestamp"]
        assert rows[1][:3] == ["0", "1", "101"]
        total_positions = sum(len(r) for r in ROUTES)
        assert len(rows) == 1 + total_positions
        summary = dict(r for r in read_rows(out / "summary.csv")[1:])
        assert summary["pois"] == "6"
        assert summary["trajectories"] == "10"
        assert summary["length_3"] == "6"
        assert summary["length_4"] == "4"
        assert "ingested 10 trajectories" in capsys.readouterr().out

    def test_missing_files_fail_cleanly(self, capsys):
        assert main(["ingest"]) == 1
        assert "poi_file" in capsys.readouterr().err

    def test_nonexistent_path_fails_cleanly(self, base_flags, capsys):
        flags = list(base_flags)
        flags[1] = "/does/not/exist.csv"
        assert main(["ingest", *flags]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, loads", [("ingest", False), ("train", True)])
    def test_only_a_command_that_splits_loads_numpy_random(self, base_flags, command, loads):
        # a child process: this one loaded numpy's random module long ago
        script = (
            "import sys\n"
            "from artrip.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script, command, *base_flags], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(loads)


    @pytest.mark.parametrize("routes", [[], ROUTES[:2]], ids=["header-only", "two-trajectories"])
    def test_a_corpus_under_three_trajectories_is_the_same_error_for_every_command(self, routes, tmp_path, capsys):
        corpus = write_corpus(tmp_path, routes)
        flags = [
            "--poi-file", str(corpus / "pois.csv"),
            "--visits-file", str(corpus / "visits.csv"),
            "--output-dir", str(tmp_path / "out"),
        ]
        want = [f"error: {corpus / 'visits.csv'}: {len(routes)} trajectories of at least 3 stops, need at least 3"]
        for command in ("ingest", "train", "evaluate", "analyze"):
            assert main([command, *flags]) == 1
            assert capsys.readouterr().err.splitlines() == want, command
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_writes_bundle_and_loss_trace(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        out = tmp_path / "out"
        for name in ("manifest.json", "params.bin", "guidance.bin"):
            assert (out / "model" / name).exists()
        rows = read_rows(out / "loss_trace.csv")
        assert rows[0] == ["epoch", "mean_loss"]
        assert len(rows) == 3  # header + 2 epochs
        assert "bundle ->" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, base_flags, tmp_path):
        assert main(["train", *base_flags]) == 0
        out = tmp_path / "out"
        first = {
            name: (out / "model" / name).read_bytes()
            for name in ("manifest.json", "params.bin", "guidance.bin")
        }
        first["loss_trace"] = (out / "loss_trace.csv").read_bytes()
        assert main(["train", *base_flags]) == 0
        assert (out / "model" / "manifest.json").read_bytes() == first["manifest.json"]
        assert (out / "model" / "params.bin").read_bytes() == first["params.bin"]
        assert (out / "model" / "guidance.bin").read_bytes() == first["guidance.bin"]
        assert (out / "loss_trace.csv").read_bytes() == first["loss_trace"]

    def test_mechanism_switches_change_the_params(self, base_flags, tmp_path):
        assert main(["train", *base_flags]) == 0
        with_mechs = (tmp_path / "out" / "model" / "params.bin").read_bytes()
        flags = [*base_flags, "--guiding", "false", "--drifting", "false"]
        assert main(["train", *flags]) == 0
        without = (tmp_path / "out" / "model" / "params.bin").read_bytes()
        assert with_mechs != without

    @pytest.mark.parametrize(
        "switches",
        list(itertools.product([True, False], repeat=3)),
        ids=lambda switches: "-".join("on" if on else "off" for on in switches),
    )
    def test_the_manifest_records_the_runs_switches(self, base_flags, tmp_path, switches):
        mechanisms = dict(zip(("guiding", "drifting", "adapting"), switches))
        flags = [token for key, on in mechanisms.items() for token in (f"--{key}", str(on).lower())]
        assert main(["train", *base_flags, "--epochs", "1", *flags]) == 0
        manifest = json.loads((tmp_path / "out" / "model" / "manifest.json").read_text())
        assert manifest["mechanisms"] == mechanisms


class TestCommandTable:
    def test_the_parser_offers_exactly_the_tables_commands(self):
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli.COMMANDS) == ["ingest", "train", "evaluate", "recommend", "analyze"]
        assert {a.dest: a.help for a in sub._choices_actions} == {name: text for name, (_, text) in cli.COMMANDS.items()}

    def test_main_calls_each_handler_once_with_the_collected_config_and_args(self, monkeypatch, tmp_path):
        calls = []
        for code, (name, (_, text)) in enumerate(list(cli.COMMANDS.items()), start=10):
            handler = lambda config, args, name=name, code=code: calls.append((name, config, args)) or code
            monkeypatch.setitem(cli.COMMANDS, name, (handler, text))
        trip = ["--start", "101", "--end", "102", "--length", "3"]
        for code, name in enumerate(cli.COMMANDS, start=10):
            argv = [name, "--output-dir", str(tmp_path / name), *(trip if name == "recommend" else [])]
            assert main(argv) == code
            args = cli.build_parser().parse_args(argv)
            assert calls == [(name, cli._collect(args), args)]
            calls.clear()


GLASGOW = SRC.parent / "data" / "glasgow"
GLASGOW_FLAGS = ["--poi-file", str(GLASGOW / "POI-glasgow.csv"), "--visits-file", str(GLASGOW / "userVisits-glasgow.csv")]


def child(*args):
    """A finished `python *args` with `src` on its path and stdout and stderr piped, so both are block-buffered."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


# `python -c` with this prelude, an entry and a command's flags: the entry is
# the ordinary exit, `sys.exit(main())`, or the `__main__` block that
# `python -m artrip.cli` runs
BROKEN_STDOUT = (
    "import io, runpy, sys\n"
    "class Broken(io.StringIO):\n"
    "    def flush(self):\n"
    "        raise BrokenPipeError(32, 'Broken pipe')\n"
    "    def __repr__(self):\n"
    "        return '<broken stdout>'\n"
    "sys.stdout = Broken()\n"
)
ENTRIES = {
    "ordinary": "from artrip.cli import main\nsys.exit(main())\n",
    "module": "runpy.run_module('artrip.cli', run_name='__main__')\n",
}


class TestProcessEntry:
    def test_the_module_entry_prints_and_writes_what_main_does(self, tmp_path, capsys):
        assert main(["ingest", *GLASGOW_FLAGS, "--output-dir", str(tmp_path / "main")]) == 0
        printed = capsys.readouterr().out
        done = child("-m", "artrip.cli", "ingest", *GLASGOW_FLAGS, "--output-dir", str(tmp_path / "child"))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == printed.replace(str(tmp_path / "main"), str(tmp_path / "child"))
        assert printed.startswith("ingested ") and printed.count("\n") == 1
        for name in ("corpus.csv", "summary.csv"):
            assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "main" / name).read_bytes(), name

    def test_the_module_entry_exits_1_with_one_error_line(self, tmp_path):
        flags = [*GLASGOW_FLAGS[:3], str(tmp_path / "missing.csv"), "--output-dir", str(tmp_path / "out")]
        done = child("-m", "artrip.cli", "ingest", *flags)
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and "missing.csv" in line
        assert done.stdout == ""

    def test_the_module_entry_skips_the_interpreter_teardown(self, tmp_path):
        script = (
            "import atexit, os, runpy\n"
            "atexit.register(os.write, 2, b'atexit ran\\n')\n"
            "runpy.run_module('artrip.cli', run_name='__main__')\n"
        )
        done = child("-c", script, "ingest", *GLASGOW_FLAGS, "--output-dir", str(tmp_path / "out"))
        assert done.returncode == 0
        assert "atexit ran" not in done.stderr
        assert done.stdout.startswith("ingested ")

    def test_a_failing_stdout_flush_exits_as_the_ordinary_exit_does(self, tmp_path):
        runs = {
            entry: child("-c", BROKEN_STDOUT + code, "ingest", *GLASGOW_FLAGS, "--output-dir", str(tmp_path / entry))
            for entry, code in ENTRIES.items()
        }
        ordinary, module = runs["ordinary"], runs["module"]
        # the interpreter's own exit: it reports the failed flush and exits 120
        assert ordinary.returncode == 120
        assert "Exception ignored in: <broken stdout>" in ordinary.stderr and "BrokenPipeError" in ordinary.stderr
        assert (module.returncode, module.stderr) == (ordinary.returncode, ordinary.stderr)


class TestEvaluate:
    def test_model_generator_end_to_end(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        assert main(["evaluate", *base_flags]) == 0
        out = tmp_path / "out"
        rows = read_rows(out / "metrics.csv")
        assert rows[0] == ["repeat", "query", "f1", "pairs_f1", "rep"]
        assert rows[-2][0] == "mean" and rows[-1][0] == "std"
        trip_rows = read_rows(out / "trips.csv")
        assert trip_rows[0] == ["repeat", "query", "position", "poi_id"]
        assert len(trip_rows) > 1
        assert "evaluated model" in capsys.readouterr().out

    def test_evaluate_without_bundle_fails(self, base_flags, capsys):
        assert main(["evaluate", *base_flags]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_malformed_manifest_is_an_error_line_naming_the_file(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        path = tmp_path / "out" / "model" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["arch"] = "x"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", *base_flags]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: manifest.json: config: unknown arch 'x'"]

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("config", "num_layers", 10**6),
            ("config", "hidden_dim", 10**12),
            ("config", "embed_dim", 10**12),
            (None, "m_max", 10**30),
        ],
        ids=["num-layers", "hidden-dim", "embed-dim", "m-max"],
    )
    def test_a_manifest_sizing_the_model_past_its_files_is_an_error_line(
        self, base_flags, tmp_path, capsys, section, field, value
    ):
        # the size check comes before any array is built, so nothing is allocated or looped over
        assert main(["train", *base_flags]) == 0
        model = tmp_path / "out" / "model"
        manifest = json.loads((model / "manifest.json").read_text())
        (manifest[section] if section else manifest)[field] = value
        (model / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        # the run states what the manifest now says, so no key disagrees with it
        agree = ["--" + field.replace("_", "-"), str(value)] if section else []
        assert main(["evaluate", *base_flags, *agree]) == 1
        size = (model / "params.bin").stat().st_size
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(rf"error: params\.bin size is {size} bytes, expected \d+ from manifest\.json", line)

    def test_a_string_guidance_total_is_an_error_line_naming_the_entry(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        path = tmp_path / "out" / "model" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["guidance_totals"][0] = str(manifest["guidance_totals"][0])
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", *base_flags]) == 1
        total = manifest["guidance_totals"][0]
        assert capsys.readouterr().err.splitlines() == [
            f"error: manifest.json: guidance_totals entry 0 is '{total}', expected a non-negative integer"
        ]

    def test_rerun_is_byte_identical(self, base_flags, tmp_path):
        assert main(["train", *base_flags]) == 0
        assert main(["evaluate", *base_flags]) == 0
        out = tmp_path / "out"
        metrics = (out / "metrics.csv").read_bytes()
        trips = (out / "trips.csv").read_bytes()
        assert main(["evaluate", *base_flags]) == 0
        assert (out / "metrics.csv").read_bytes() == metrics
        assert (out / "trips.csv").read_bytes() == trips

    def test_popularity_generator_needs_no_bundle(self, base_flags, capsys):
        assert main(["evaluate", *base_flags, "--generator", "popularity"]) == 0
        assert "evaluated popularity" in capsys.readouterr().out

    def test_markov_generator_needs_no_bundle(self, base_flags, capsys):
        assert main(["evaluate", *base_flags, "--generator", "markov"]) == 0
        assert "evaluated markov" in capsys.readouterr().out

    def test_unknown_generator_fails(self, base_flags, capsys):
        assert main(["evaluate", *base_flags, "--generator", "oracle"]) == 1
        assert "generator" in capsys.readouterr().err

    def test_strategy_flag_overrides_adapting(self, base_flags, tmp_path):
        assert main(["train", *base_flags]) == 0
        out = tmp_path / "out"
        assert main(["evaluate", *base_flags, "--strategy", "greedy"]) == 0
        greedy = (out / "trips.csv").read_bytes()
        assert main(["evaluate", *base_flags, "--strategy", "greedy"]) == 0
        assert (out / "trips.csv").read_bytes() == greedy

    def test_strategy_in_the_config_file_beats_adapting(self, base_flags, tmp_path):
        # adapting stays at its default (true); a strategy set in the file still wins
        assert main(["train", *base_flags]) == 0
        out = tmp_path / "out"
        cfg = tmp_path / "top_k.cfg"
        cfg.write_text("strategy = top_k\n")
        assert main(["evaluate", "--config", str(cfg), *base_flags]) == 0
        from_file = (out / "trips.csv").read_bytes()
        assert main(["evaluate", *base_flags, "--strategy", "top_k"]) == 0
        assert (out / "trips.csv").read_bytes() == from_file
        assert main(["evaluate", *base_flags]) == 0
        assert (out / "trips.csv").read_bytes() != from_file


class TestRecommend:
    def test_popularity_generator_needs_no_bundle(self, base_flags, tmp_path):
        args = ["recommend", *base_flags, "--start", "101", "--end", "102", "--length", "4"]
        assert main([*args, "--generator", "popularity"]) == 0
        rows = read_rows(tmp_path / "out" / "trip.csv")
        assert [row[1] for row in rows[1:]] == ["101", "103", "105", "102"]

    def test_prints_and_writes_trip(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        capsys.readouterr()
        args = ["recommend", *base_flags, "--start", "101", "--end", "102", "--length", "4"]
        assert main(args) == 0
        rows = read_rows(tmp_path / "out" / "trip.csv")
        assert rows[0] == ["position", "poi_id", "poi_name"]
        assert len(rows) == 5
        assert rows[1][1] == "101" and rows[4][1] == "102"
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("1. [101]")

    def test_unknown_poi_fails(self, base_flags, capsys):
        assert main(["train", *base_flags]) == 0
        capsys.readouterr()
        args = ["recommend", *base_flags, "--start", "999", "--end", "102", "--length", "3"]
        assert main(args) == 1
        assert "999" in capsys.readouterr().err

    def test_degenerate_length_fails(self, base_flags, capsys):
        assert main(["train", *base_flags]) == 0
        capsys.readouterr()
        args = ["recommend", *base_flags, "--start", "101", "--end", "102", "--length", "1"]
        assert main(args) == 1
        assert "length" in capsys.readouterr().err


    @pytest.mark.parametrize("generator, arch", [("model", "one_shot"), ("model", "recurrent"), ("markov", "one_shot")])
    def test_length_past_the_horizon_fails_before_any_decode_or_write(self, base_flags, tmp_path, capsys, monkeypatch, generator, arch):
        flags = [*base_flags, "--generator", generator, "--arch", arch]
        assert main(["train", *flags]) == 0
        capsys.readouterr()

        def no_decode(*args):
            raise AssertionError("an over-long trip was decoded")

        monkeypatch.setattr(decoding, "decode_trip", no_decode)
        monkeypatch.setattr(baselines, "markov_decode", no_decode)
        # the training routes have at most 4 stops
        args = ["recommend", *flags, "--start", "101", "--end", "102", "--length", "5"]
        assert main(args) == 1
        assert "trip length n=5 exceeds the horizon m_max=4" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trip.csv").exists()

    def test_unknown_poi_fails_before_the_bundle_is_read(self, base_flags, capsys):
        # no bundle was trained: the unknown POI is what must be reported
        args = ["recommend", *base_flags, "--start", "999", "--end", "102", "--length", "3"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "999" in err and "manifest" not in err

    def test_degenerate_length_fails_before_any_file_is_read(self, tmp_path, capsys):
        # neither a corpus nor a bundle exists: the length is what must be reported
        args = ["recommend", "--output-dir", str(tmp_path / "none"), "--start", "1", "--end", "2", "--length", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "length" in err and "poi_file" not in err and "manifest" not in err


class TestAnalyze:
    # a 6/1/3 split of the ten routes: three test queries
    THREE_TEST_QUERIES = ["--train-ratio", "0.6", "--val-ratio", "0.1", "--test-ratio", "0.3"]

    def test_missing_bundle_fails_before_any_report_is_written(self, base_flags, tmp_path, capsys):
        assert main(["analyze", *base_flags]) == 1
        assert "error:" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not (out / "sparsity.csv").exists() and not (out / "pmr.csv").exists()

    def test_markov_generator_needs_no_bundle(self, base_flags, tmp_path, capsys):
        assert main(["analyze", *base_flags, "--generator", "markov", "--strategy", "greedy"]) == 0
        assert (tmp_path / "out" / "repeat_gaps.csv").exists()
        assert "analyzed" in capsys.readouterr().out

    def test_markov_generator_estimates_the_transitions_once(self, base_flags, monkeypatch):
        calls = []
        estimate = analysis.empirical_transitions

        def counting(*args):
            calls.append(args)
            return estimate(*args)

        monkeypatch.setattr(analysis, "empirical_transitions", counting)
        assert main(["analyze", *base_flags, "--generator", "markov", "--strategy", "greedy"]) == 0
        assert len(calls) == 1

    def test_writes_all_reports(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        assert main(["analyze", *base_flags]) == 0
        out = tmp_path / "out"
        sparsity = read_rows(out / "sparsity.csv")
        assert sparsity[0] == ["position", "xi"]
        assert len(sparsity) >= 3  # max_len 4 -> 3 transition positions
        for row in sparsity[1:]:
            assert 0.0 < float(row[1]) <= 1.0
        pmr_rows = read_rows(out / "pmr.csv")
        assert pmr_rows[0] == ["j", "term", "cumulative"]
        assert pmr_rows[-1][0] == "status"
        assert pmr_rows[-1][1] in ("converged", "non-convergent")
        positions = read_rows(out / "repeat_positions.csv")
        gaps = read_rows(out / "repeat_gaps.csv")
        assert positions[0] == ["position", "count"]
        assert gaps[0] == ["gap", "count"]
        assert "analyzed" in capsys.readouterr().out

    def test_repeat_histograms_are_those_of_the_first_evaluate_repeat(self, base_flags, tmp_path):
        flags = [*base_flags, *self.THREE_TEST_QUERIES]
        assert main(["train", *flags]) == 0
        assert main(["evaluate", *flags]) == 0
        assert main(["analyze", *flags]) == 0
        out = tmp_path / "out"
        trips: dict[str, list[int]] = {}
        for repeat, query, _, poi in read_rows(out / "trips.csv")[1:]:
            if repeat == "0":
                trips.setdefault(query, []).append(int(poi))
        assert len(trips) == 3
        position_counts, gap_counts = analysis.repeat_histogram(list(trips.values()))
        assert position_counts.sum() > 0
        positions = read_rows(out / "repeat_positions.csv")
        gaps = read_rows(out / "repeat_gaps.csv")
        assert positions[1:] == [[str(j), str(c)] for j, c in enumerate(position_counts[1:], 1)]
        assert gaps[1:] == [[str(j), str(c)] for j, c in enumerate(gap_counts[1:], 1)]

    def test_a_failed_decode_leaves_no_report(self, base_flags, tmp_path, capsys, monkeypatch):
        flags = [*base_flags, *self.THREE_TEST_QUERIES, "--generator", "markov", "--strategy", "greedy"]
        decode = baselines.markov_decode
        calls = []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("decode failed on the second query")
            return decode(*args)

        monkeypatch.setattr(baselines, "markov_decode", fail_second)
        assert main(["analyze", *flags]) == 1
        assert "decode failed on the second query" in capsys.readouterr().err
        assert len(calls) == 2
        out = tmp_path / "out"
        assert not (out / "sparsity.csv").exists() and not (out / "pmr.csv").exists()

    def test_jmax_flag_controls_series_length(self, base_flags, tmp_path):
        assert main(["train", *base_flags]) == 0
        assert main(["analyze", *base_flags, "--jmax", "4"]) == 0
        pmr_rows = read_rows(tmp_path / "out" / "pmr.csv")
        assert len(pmr_rows) == 1 + 4 + 1  # header, terms, status


# a decode command's trip flags, which only recommend takes
TRIP = {"recommend": ["--start", "101", "--end", "102", "--length", "3"]}


class TestBundleAgreement:
    @pytest.mark.parametrize("command", ["evaluate", "recommend", "analyze"])
    @pytest.mark.parametrize(
        "flag, value, key, ours, theirs",
        [
            ("--arch", "recurrent", "arch", "'recurrent'", "'one_shot'"),
            ("--embed-dim", "16", "embed_dim", "16", "8"),
            ("--learning-rate", "0.01", "learning_rate", "0.01", "0.001"),
            ("--drifting", "false", "drifting", "False", "True"),
        ],
        ids=["str", "int", "float", "bool"],
    )
    def test_a_stated_key_unlike_the_bundle_is_refused_before_the_corpus_is_read(
        self, tmp_path, capsys, command, flag, value, key, ours, theirs
    ):
        corpus = write_corpus(tmp_path, ROUTES)
        flags = [
            "--poi-file", str(corpus / "pois.csv"),
            "--visits-file", str(corpus / "visits.csv"),
            "--output-dir", str(tmp_path / "out"),
            "--embed-dim", "8",
        ]
        assert main(["train", *flags, "--hidden-dim", "16", "--epochs", "1"]) == 0
        (corpus / "visits.csv").unlink()
        before = sorted((tmp_path / "out").rglob("*"))
        capsys.readouterr()
        assert main([command, *flags, flag, value, *TRIP.get(command, [])]) == 1
        manifest = tmp_path / "out" / "model" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key} = {ours} disagrees with the bundle's {key} = {theirs} in {manifest}"
        ]
        assert sorted((tmp_path / "out").rglob("*")) == before

    def test_a_key_in_the_config_file_is_held_to_the_bundle_too(self, base_flags, tmp_path, capsys):
        assert main(["train", *base_flags]) == 0
        config = tmp_path / "run.cfg"
        # model_seed is ModelConfig.seed: the key is named, not the field
        config.write_text("model_seed = 3\n")
        capsys.readouterr()
        assert main(["evaluate", *base_flags, "--config", str(config)]) == 1
        assert "error: model_seed = 3 disagrees with the bundle's model_seed = 0 in " in capsys.readouterr().err

    def test_unstated_keys_and_the_decode_time_switches_follow_the_run(self, corpus_dir, tmp_path, capsys):
        data = ["--poi-file", str(corpus_dir / "pois.csv"), "--visits-file", str(corpus_dir / "visits.csv")]
        data += ["--output-dir", str(tmp_path / "out"), "--repeats", "1"]
        # alpha is 0 at both ends: drifting off zeroes the stated 0.5
        model = ["--embed-dim", "8", "--hidden-dim", "16", "--epochs", "1", "--alpha", "0.5", "--drifting", "false"]
        assert main(["train", *data, *model]) == 0
        for argv in ([], model, [*model, "--guiding", "false", "--adapting", "false"]):
            assert main(["evaluate", *data, *argv]) == 0, argv
        assert "error" not in capsys.readouterr().err


class TestHorizon:
    @pytest.fixture
    def long_flags(self, base_flags, long_test_corpus_dir):
        flags = list(base_flags)
        flags[1] = str(long_test_corpus_dir / "pois.csv")
        flags[3] = str(long_test_corpus_dir / "visits.csv")
        return flags

    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    @pytest.mark.parametrize("generator, arch", [("model", "one_shot"), ("model", "recurrent"), ("markov", "one_shot")])
    def test_an_over_long_test_route_fails_before_any_decode_or_report(
        self, long_flags, tmp_path, capsys, monkeypatch, command, generator, arch
    ):
        flags = [*long_flags, "--generator", generator, "--arch", arch]
        assert main(["train", *flags]) == 0
        out = tmp_path / "out"
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        capsys.readouterr()

        def no_decode(*args):
            raise AssertionError("an over-long trip was decoded")

        monkeypatch.setattr(decoding, "decode_trip", no_decode)
        monkeypatch.setattr(baselines, "markov_decode", no_decode)
        assert main([command, *flags]) == 1
        assert "trip length n=6 exceeds the horizon m_max=4" in capsys.readouterr().err
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before

    def test_popularity_has_no_horizon(self, long_flags, tmp_path):
        assert main(["evaluate", *long_flags, "--generator", "popularity"]) == 0
        trips = read_rows(tmp_path / "out" / "trips.csv")
        assert max(int(row[2]) for row in trips[1:]) == 6


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny smoke config\n"
            f"poi_file = {corpus_dir / 'pois.csv'}\n"
            f"visits_file = {corpus_dir / 'visits.csv'}\n"
            f"output_dir = {tmp_path / 'from_file'}\n"
        )
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_file" / "corpus.csv").exists()

    def test_flag_beats_config_file(self, corpus_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"poi_file = {corpus_dir / 'pois.csv'}\n"
            f"visits_file = {corpus_dir / 'visits.csv'}\n"
            f"output_dir = {tmp_path / 'from_file'}\n"
        )
        flag_dir = tmp_path / "from_flag"
        assert main(["ingest", "--config", str(cfg), "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "corpus.csv").exists()
        assert not (tmp_path / "from_file").exists()

    def test_env_var_moves_output(self, corpus_dir, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("ARTRIP_OUTPUT_DIR", str(env_dir))
        flags = [
            "--poi-file", str(corpus_dir / "pois.csv"),
            "--visits-file", str(corpus_dir / "visits.csv"),
        ]
        assert main(["ingest", *flags]) == 0
        assert (env_dir / "corpus.csv").exists()

    def test_flag_beats_env_var(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ARTRIP_OUTPUT_DIR", str(tmp_path / "from_env"))
        flag_dir = tmp_path / "from_flag"
        flags = [
            "--poi-file", str(corpus_dir / "pois.csv"),
            "--visits-file", str(corpus_dir / "visits.csv"),
            "--output-dir", str(flag_dir),
        ]
        assert main(["ingest", *flags]) == 0
        assert (flag_dir / "corpus.csv").exists()
        assert not (tmp_path / "from_env").exists()

    def test_unknown_config_key_reports_line(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("poi_file = x\nnot_a_key = 1\n")
        assert main(["ingest", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "not_a_key" in err and ":2:" in err

    def test_an_undecodable_config_line_is_an_error_line_naming_the_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# decode settings\ntop_k = 3\n\xff = 3\n")
        assert main(["ingest", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg} line 3: not valid UTF-8 (invalid start byte 0xff)"
        ]

    def test_bad_value_type_fails(self, base_flags, capsys):
        assert main(["ingest", *base_flags, "--epochs", "many"]) == 1
        assert "epochs" in capsys.readouterr().err

    def test_bad_ratio_sum_fails(self, base_flags, capsys):
        assert main(["ingest", *base_flags, "--train-ratio", "0.9"]) == 1
        assert "sum to 1" in capsys.readouterr().err


class TestStrategyRule:
    @pytest.mark.parametrize(
        "overrides, strategy",
        [
            ({}, "adaptive"),
            ({"adapting": "false"}, "greedy"),
            ({"strategy": "top_k"}, "top_k"),
            ({"strategy": "top_p", "adapting": "false"}, "top_p"),
        ],
    )
    def test_a_set_strategy_wins_else_adapting_decides(self, overrides, strategy):
        assert load_config(None, overrides).decode.strategy == strategy


class TestConfigValidation:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("strategy", "bogus"),
            ("top_p", "1.5"),
            ("top_k", "0"),
            ("lam", "nan"),
            ("adaptive_mode", "bogus"),
            ("arch", "transformer"),
            ("embed_dim", "7"),
            ("alpha", "-1"),
            ("num_heads", "0"),
            ("num_layers", "-1"),
            ("hidden_dim", "0"),
            ("alpha", "nan"),
            ("learning_rate", "0"),
            ("learning_rate", "-1"),
        ],
    )
    def test_bad_model_or_decode_setting_fails_at_load(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model_seed", "-1"),
            ("decode_seed", "-5"),
            ("split_seed", "-1"),
            ("noise_seed", "-1"),
            ("train_ratio", "nan"),
            ("val_ratio", "nan"),
            ("test_ratio", "nan"),
            ("noise_sigma", "nan"),
            ("noise_sigma", "inf"),
        ],
    )
    def test_bad_seed_ratio_or_noise_fails_at_load(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train", "--model-seed", "-1"], "model_seed"),
            (["analyze", "--noise-sigma", "nan"], "noise_sigma"),
            (["ingest", "--train-ratio", "nan", "--val-ratio", "0.1", "--test-ratio", "0.1"], "train_ratio"),
        ],
    )
    def test_bad_seed_ratio_or_noise_is_an_error_line(self, base_flags, argv, key, capsys):
        assert main([*argv, *base_flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "key, value", [("epochs", 2.5), ("guiding", 0), ("top_k", True)], ids=["epochs", "guiding", "top_k"]
    )
    def test_a_typed_override_that_no_flag_string_could_give_fails_at_load(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})

    @pytest.mark.parametrize(
        "key, value, flag",
        [("epochs", 2, "2"), ("alpha", 1, "1"), ("guiding", False, "false"), ("model_seed", np.int64(3), "3")],
        ids=["epochs", "alpha", "guiding", "model_seed"],
    )
    def test_a_typed_override_gives_the_config_of_its_flag_string(self, key, value, flag):
        # repr compares field types too: alpha 1 == 1.0 and np.int64(3) == 3
        assert repr(load_config(None, {key: value})) == repr(load_config(None, {key: flag}))

    @pytest.mark.parametrize(
        "make, key",
        [
            (lambda: ModelConfig(seed=-1), "model_seed"),
            (lambda: ModelConfig(seed=(0, 1)), "model_seed"),
            (lambda: DecodeConfig(seed=-1), "decode_seed"),
            (lambda: DecodeConfig(seed=(3, -1)), "decode_seed"),
        ],
        ids=["model", "model-tuple", "decode", "decode-tuple-part"],
    )
    def test_each_record_refuses_a_bad_seed_of_its_own(self, make, key):
        with pytest.raises(ConfigError, match=key):
            make()

    def test_a_run_config_holds_a_decode_config_with_a_tuple_seed(self):
        config = ExperimentConfig(model=ModelConfig(), decode=DecodeConfig(seed=(1, 2)))
        assert config.decode.seed == (1, 2)

    def test_zero_heads_is_an_error_line_not_a_traceback(self, capsys):
        assert main(["evaluate", "--num-heads", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_heads" in err

    def test_bad_strategy_fails_before_the_corpus_is_read(self, capsys):
        # no poi_file either: the strategy is what must be reported
        assert main(["evaluate", "--strategy", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "strategy" in err and "poi_file" not in err


# key -> (flag, coercion type, default); the golden record of the config surface.
# A `strategy` left unset is decided by `adapting` (see TestConfigSurface).
SURFACE = {
    "poi_file": ("--poi-file", "str", ""),
    "visits_file": ("--visits-file", "str", ""),
    "output_dir": ("--output-dir", "str", "out"),
    "min_traj_len": ("--min-traj-len", "int", 3),
    "train_ratio": ("--train-ratio", "float", 0.8),
    "val_ratio": ("--val-ratio", "float", 0.1),
    "test_ratio": ("--test-ratio", "float", 0.1),
    "split_seed": ("--split-seed", "int", 0),
    "arch": ("--arch", "str", "one_shot"),
    "embed_dim": ("--embed-dim", "int", 32),
    "num_layers": ("--num-layers", "int", 2),
    "num_heads": ("--num-heads", "int", 2),
    "hidden_dim": ("--hidden-dim", "int", 64),
    "alpha": ("--alpha", "float", 1.0),
    "learning_rate": ("--learning-rate", "float", 1e-3),
    "epochs": ("--epochs", "int", 50),
    "model_seed": ("--model-seed", "int", 0),
    "guiding": ("--guiding", "bool", True),
    "drifting": ("--drifting", "bool", True),
    "adapting": ("--adapting", "bool", True),
    "strategy": ("--strategy", "str", "adaptive"),
    "top_k": ("--top-k", "int", 5),
    "top_p": ("--top-p", "float", 0.8),
    "lam": ("--lam", "float", 1.0),
    "adaptive_mode": ("--adaptive-mode", "str", "temperature"),
    "no_repeat_mask": ("--no-repeat-mask", "bool", False),
    "decode_seed": ("--decode-seed", "int", 0),
    "generator": ("--generator", "str", "model"),
    "repeats": ("--repeats", "int", 5),
    "j_max": ("--jmax", "int", 10),
    "noise_sigma": ("--noise-sigma", "float", 0.1),
    "noise_seed": ("--noise-seed", "int", 0),
}
# config key -> the field of the object the library receives
MODEL_FIELDS = {key: key for key in ("arch", "embed_dim", "num_layers", "num_heads", "hidden_dim", "alpha", "learning_rate", "epochs")}
MODEL_FIELDS["model_seed"] = "seed"
DECODE_FIELDS = {key: key for key in ("strategy", "top_k", "top_p", "lam", "adaptive_mode", "no_repeat_mask")}
DECODE_FIELDS["decode_seed"] = "seed"
# every key set away from its default
EVERY_KEY = {
    "min_traj_len": "2",
    "train_ratio": "0.7",
    "val_ratio": "0.1",
    "test_ratio": "0.2",
    "split_seed": "3",
    "arch": "recurrent",
    "embed_dim": "8",
    "num_layers": "1",
    "num_heads": "1",
    "hidden_dim": "16",
    "alpha": "0.5",
    "learning_rate": "0.01",
    "epochs": "2",
    "model_seed": "4",
    "guiding": "false",
    "drifting": "true",
    "adapting": "false",
    "strategy": "top_k",
    "top_k": "3",
    "top_p": "0.9",
    "lam": "2.0",
    "adaptive_mode": "threshold",
    "no_repeat_mask": "true",
    "decode_seed": "7",
    "generator": "markov",
    "repeats": "2",
    "j_max": "4",
    "noise_sigma": "0.5",
    "noise_seed": "6",
}


class Received(Exception):
    """Stops a command at the library call whose arguments a test reads."""


def received(monkeypatch, argv, corpus=()):
    """All 32 keys as the library receives them from `artrip ... *argv`.

    The data, switch and evaluation keys come from the collected config;
    the model keys from the ModelConfig `train` is given, and the decode
    keys from the DecodeConfig of the Markov walk `recommend` starts.
    Also returns whether `train` was given any non-zero guidance.
    """
    config = cli._collect(cli.build_parser().parse_args(["ingest", *corpus, *argv]))
    values = {key: getattr(config, key) for key in SURFACE if key not in MODEL_FIELDS and key not in DECODE_FIELDS}

    def stop(*args):
        raise Received(*args)

    monkeypatch.setattr(train_module, "train", stop)
    with pytest.raises(Received) as model_call:
        main(["train", *corpus, *argv])
    _, pm, model = model_call.value.args
    values.update({key: getattr(model, name) for key, name in MODEL_FIELDS.items()})
    monkeypatch.setattr(baselines, "markov_decode", stop)
    trip = ["--generator", "markov", "--start", "101", "--end", "102", "--length", "3"]
    with pytest.raises(Received) as decode_call:
        main(["recommend", *corpus, *argv, *trip])
    decode = decode_call.value.args[2]
    values.update({key: getattr(decode, name) for key, name in DECODE_FIELDS.items()})
    return values, bool(pm.values.any())


class TestConfigSurface:
    @pytest.fixture
    def corpus(self, corpus_dir, monkeypatch):
        monkeypatch.delenv("ARTRIP_OUTPUT_DIR", raising=False)
        return ["--poi-file", str(corpus_dir / "pois.csv"), "--visits-file", str(corpus_dir / "visits.csv")]

    def test_every_key_has_its_flag_and_no_other_key_exists(self):
        assert len(SURFACE) == 32
        trip = ["--start", "1", "--end", "2", "--length", "3"]
        for name in ("ingest", "train", "evaluate", "recommend", "analyze"):
            args = cli.build_parser().parse_args([name, "--config", "c.cfg", *(trip if name == "recommend" else [])])
            assert set(vars(args)) - {"command", "config", "start", "end", "length", "start_time", "end_time"} == set(SURFACE)
        flags = [token for key, (flag, _, _) in SURFACE.items() for token in (flag, f"v-{key}")]
        args = cli.build_parser().parse_args(["ingest", *flags])
        assert {key: getattr(args, key) for key in SURFACE} == {key: f"v-{key}" for key in SURFACE}

    @pytest.mark.parametrize("key", [key for key, (_, kind, _) in SURFACE.items() if kind != "str"])
    def test_each_typed_flag_names_its_key_and_type_on_a_bad_value(self, key, capsys):
        flag, kind, _ = SURFACE[key]
        assert main(["ingest", flag, "x"]) == 1
        expects = "true or false" if kind == "bool" else kind
        assert capsys.readouterr().err == f"error: {key} expects {expects}, got 'x'\n"

    @pytest.mark.parametrize("key", [key for key, (_, kind, _) in SURFACE.items() if kind != "str"])
    def test_each_typed_key_in_a_config_file_names_the_file_and_line_on_a_bad_value(self, key, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# a comment, then a blank line\n\n{key} = x\n")
        assert main(["ingest", "--config", str(cfg)]) == 1
        expects = "true or false" if SURFACE[key][1] == "bool" else SURFACE[key][1]
        assert capsys.readouterr().err == f"error: {cfg}:3: {key} expects {expects}, got 'x'\n"

    def test_defaults(self, corpus, monkeypatch):
        values, guided = received(monkeypatch, [], corpus)
        defaults = {key: default for key, (_, _, default) in SURFACE.items()}
        defaults.update(poi_file=corpus[1], visits_file=corpus[3])
        assert values == defaults
        assert guided
        for key, (_, kind, _) in SURFACE.items():
            assert type(values[key]).__name__ == kind, key

    def test_every_key_reaches_the_library_with_its_type(self, corpus, monkeypatch, tmp_path):
        flags = [token for key, raw in EVERY_KEY.items() for token in (SURFACE[key][0], raw)]
        values, guided = received(monkeypatch, [*flags, "--output-dir", str(tmp_path / "o")], corpus)
        cast = {"bool": lambda raw: raw == "true", "int": int, "float": float, "str": str}
        expected = {key: cast[SURFACE[key][1]](raw) for key, raw in EVERY_KEY.items()}
        expected.update(poi_file=corpus[1], visits_file=corpus[3], output_dir=str(tmp_path / "o"))
        assert values == expected
        assert not guided
        for key, (_, kind, _) in SURFACE.items():
            assert type(values[key]).__name__ == kind, key

    @pytest.mark.parametrize(
        "flags, strategy, alpha, guided",
        [
            ([], "adaptive", 1.0, True),
            (["--adapting", "false"], "greedy", 1.0, True),
            (["--strategy", "top_k"], "top_k", 1.0, True),
            (["--strategy", "top_p", "--adapting", "false"], "top_p", 1.0, True),
            (["--strategy", "greedy", "--adapting", "true"], "greedy", 1.0, True),
            (["--drifting", "false", "--alpha", "0.5"], "adaptive", 0.0, True),
            (["--guiding", "false"], "adaptive", 1.0, False),
            (["--guiding", "false", "--drifting", "false", "--adapting", "false"], "greedy", 0.0, False),
        ],
    )
    def test_switches_resolve_to_what_the_library_receives(self, corpus, monkeypatch, flags, strategy, alpha, guided):
        values, got_guidance = received(monkeypatch, flags, corpus)
        assert (values["strategy"], values["alpha"], got_guidance) == (strategy, alpha, guided)

    @pytest.mark.parametrize("switch", ["--drifting", "--guiding"])
    def test_a_bad_alpha_is_refused_whatever_the_switches(self, switch, capsys):
        assert main(["train", "--alpha", "nan", switch, "false"]) == 1
        assert capsys.readouterr().err == "error: alpha must be finite and non-negative, got nan\n"

    def test_file_then_env_then_flag(self, corpus, monkeypatch, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"output_dir = {tmp_path / 'file'}\n"
            "embed_dim = 8\nnum_heads = 1\nepochs = 2\n"
            "top_k = 3\nstrategy = top_k\nrepeats = 2\n"
        )
        values, _ = received(monkeypatch, ["--config", str(cfg)], corpus)
        assert (values["output_dir"], values["embed_dim"], values["top_k"]) == (str(tmp_path / "file"), 8, 3)
        # a strategy from the file beats the default `adapting = true`
        assert (values["strategy"], values["epochs"], values["repeats"]) == ("top_k", 2, 2)
        monkeypatch.setenv("ARTRIP_OUTPUT_DIR", str(tmp_path / "env"))
        values, _ = received(monkeypatch, ["--config", str(cfg)], corpus)
        assert values["output_dir"] == str(tmp_path / "env")
        flags = ["--output-dir", str(tmp_path / "flag"), "--embed-dim", "4", "--top-k", "2", "--strategy", "greedy"]
        values, _ = received(monkeypatch, ["--config", str(cfg), *flags], corpus)
        assert (values["output_dir"], values["embed_dim"], values["top_k"]) == (str(tmp_path / "flag"), 4, 2)
        assert (values["strategy"], values["epochs"]) == ("greedy", 2)


class TestArtifactHashes:
    def test_hashes_every_setting_and_repeat_runs_agree(self, corpus_dir, tmp_path, capsys):
        script = load_artifact_hashes()
        flags = [
            "--poi-file", str(corpus_dir / "pois.csv"),
            "--visits-file", str(corpus_dir / "visits.csv"),
            "--embed-dim", "8",
            "--hidden-dim", "16",
            "--epochs", "2",
        ]
        listings = []
        for run in ("a", "b"):
            script.write_artifacts(tmp_path / run, flags)
            listings.append(script.hash_lines(tmp_path / run))
        first = listings[0]
        # ingest: corpus.csv, summary.csv;
        # per arch: 3 bundle files, the loss trace, 13 x (metrics, trips) and
        # the 4 analyze reports plus trip.csv, and with guiding and drifting
        # off 3 bundle files, the loss trace, metrics and trips;
        # Markov: 9 x (metrics, trips); popularity: metrics, trips;
        # the study shape: 2 archs x 2 alphas x (params.bin, loss_trace.csv)
        assert len(first) == 2 + 2 * (4 + 26 + 5 + 6) + 18 + 2 + 8
        names = {line.split("  ", 1)[1] for line in first}
        assert {"ingest/corpus.csv", "ingest/summary.csv"} <= names
        assert {"one_shot/top_p-mask-on/trips.csv", "recurrent/adaptive-threshold-mask-off/trips.csv"} <= names
        assert "markov/top_p-mask-off/metrics.csv" in names
        assert {"recurrent/adaptive-seed-2p32/trips.csv", "markov/top_p-seed-2p32/trips.csv"} <= names
        assert "markov/adaptive-threshold-mask-off/metrics.csv" not in names
        assert {"one_shot/unset-strategy-adapting-true/trips.csv", "recurrent/unset-strategy-adapting-false/trips.csv"} <= names
        assert "popularity/trips.csv" in names
        assert {"mechanisms-off/one_shot/model/params.bin", "mechanisms-off/recurrent/trips.csv"} <= names
        assert "study/recurrent-alpha-1/params.bin" in {line.split("  ", 1)[1] for line in first}
        assert "one_shot/model/params.bin" in {line.split("  ", 1)[1] for line in first}
        assert first == sorted(first, key=lambda line: line.split("  ", 1)[1])
        assert listings[1] == first
        # console output of the commands stays off stdout
        assert capsys.readouterr().out == ""

    def test_the_glasgow_listing_matches_the_committed_one(self, tmp_path):
        # the default flags train and decode on Glasgow; only a planned byte
        # epoch may regenerate tests/artifact_hashes.txt
        script = load_artifact_hashes()
        script.write_artifacts(tmp_path)
        arithmetic, *golden = (Path(__file__).resolve().parent / "artifact_hashes.txt").read_text().splitlines()
        listing = script.hash_lines(tmp_path)
        here = script.arithmetic_line()
        # bytes hold per host: name a changed arithmetic before the hash lines it moved
        if listing != golden and here != arithmetic:
            moved = len(set(golden) - set(listing))
            pytest.fail(f"arithmetic differs: {here!r} here, {arithmetic!r} in the golden listing; {moved} hash lines moved")
        assert listing == golden

    def test_main_prints_the_arithmetic_line_first(self, tmp_path, capsys, monkeypatch):
        script = load_artifact_hashes()
        monkeypatch.setattr(script, "write_artifacts", lambda out_dir: (out_dir / "a.csv").write_text("x\n"))
        assert script.main([str(tmp_path)]) == 0
        first, *rest = capsys.readouterr().out.splitlines()
        assert first == script.arithmetic_line()
        assert re.fullmatch(r"# numpy \S+, SIMD .*, OpenBLAS core \S+", first)
        assert rest == script.hash_lines(tmp_path)

    def test_refuses_a_non_empty_output_dir(self, tmp_path, capsys):
        (tmp_path / "stale.csv").write_text("x\n")
        assert load_artifact_hashes().main([str(tmp_path)]) == 1
        assert "not empty" in capsys.readouterr().err
