import csv
import importlib.util
from pathlib import Path

import pytest

from artrip.cli import main
from artrip.config import ConfigError, load_config

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


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    with open(root / "pois.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POI_HEADER)
        writer.writerows(POIS)
    with open(root / "visits.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VISIT_HEADER)
        for seq, route in enumerate(ROUTES, start=1):
            ts = 1357030800 + seq * 86400
            for poi in route:
                writer.writerow([f"{seq:08d}@N00", seq, poi, ts])
                ts += 3600
    return root


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


class TestRecommend:
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

    def test_jmax_flag_controls_series_length(self, base_flags, tmp_path):
        assert main(["train", *base_flags]) == 0
        assert main(["analyze", *base_flags, "--jmax", "4"]) == 0
        pmr_rows = read_rows(tmp_path / "out" / "pmr.csv")
        assert len(pmr_rows) == 1 + 4 + 1  # header, terms, status


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

    def test_bad_value_type_fails(self, base_flags, capsys):
        assert main(["ingest", *base_flags, "--epochs", "many"]) == 1
        assert "epochs" in capsys.readouterr().err

    def test_bad_ratio_sum_fails(self, base_flags, capsys):
        assert main(["ingest", *base_flags, "--train-ratio", "0.9"]) == 1
        assert "sum to 1" in capsys.readouterr().err


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

    def test_zero_heads_is_an_error_line_not_a_traceback(self, capsys):
        assert main(["evaluate", "--num-heads", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "num_heads" in err

    def test_bad_strategy_fails_before_the_corpus_is_read(self, capsys):
        # no poi_file either: the strategy is what must be reported
        assert main(["evaluate", "--strategy", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "strategy" in err and "poi_file" not in err


def load_artifact_hashes():
    path = Path(__file__).resolve().parents[1] / "scripts" / "artifact_hashes.py"
    spec = importlib.util.spec_from_file_location("artifact_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        # per arch: 3 bundle files, the loss trace, 10 x (metrics, trips) and
        # the 4 analyze reports plus trip.csv; Markov: 8 x (metrics, trips);
        # the study shape: 2 archs x 2 alphas x (params.bin, loss_trace.csv)
        assert len(first) == 2 * (4 + 20 + 5) + 16 + 8
        names = {line.split("  ", 1)[1] for line in first}
        assert {"one_shot/top_p-mask-on/trips.csv", "recurrent/adaptive-threshold-mask-off/trips.csv"} <= names
        assert "markov/top_p-mask-off/metrics.csv" in names
        assert "markov/adaptive-threshold-mask-off/metrics.csv" not in names
        assert "study/recurrent-alpha-1/params.bin" in {line.split("  ", 1)[1] for line in first}
        assert "one_shot/model/params.bin" in {line.split("  ", 1)[1] for line in first}
        assert first == sorted(first, key=lambda line: line.split("  ", 1)[1])
        assert listings[1] == first
        # console output of the commands stays off stdout
        assert capsys.readouterr().out == ""

    def test_refuses_a_non_empty_output_dir(self, tmp_path, capsys):
        (tmp_path / "stale.csv").write_text("x\n")
        assert load_artifact_hashes().main([str(tmp_path)]) == 1
        assert "not empty" in capsys.readouterr().err
