"""Command line entry point.

Subcommands cover the full pipeline: ingest raw CSVs, train a model
bundle, evaluate it (or a baseline) on the held-out split, recommend a
single trip, and analyze the repetition structure of the corpus and
the decoder.  Every run is deterministic for a fixed config, so
re-running a command overwrites its outputs with identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from artrip import analysis, baselines, metrics
from artrip.config import CONFIG_KEYS, ConfigError, ExperimentConfig, load_config
from artrip.data import (
    IngestError,
    PoiCatalog,
    Query,
    extract_trajectories,
    load_poi_catalog,
    load_visits,
    make_query,
    split_corpus,
)
from artrip.decoding import decode_config_for_query, decode_trip
from artrip.guidance import build_confidence, build_guidance_matrix, zero_guidance
from artrip.model import load_bundle, save_bundle, train
from artrip.model.bundle import vocab_sha256

# flags whose spelling differs from the config key
_FLAG_NAMES = {"j_max": "--jmax"}


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for key in CONFIG_KEYS:
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(flag, dest=key, default=None, metavar="V", help=argparse.SUPPRESS)


def _collect(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    return load_config(args.config, overrides)


def _load_corpus(config: ExperimentConfig):
    if not config.poi_file or not config.visits_file:
        raise ConfigError("poi_file and visits_file must be set")
    catalog = load_poi_catalog(config.poi_file)
    visits, dropped = load_visits(config.visits_file, catalog)
    trajectories = extract_trajectories(visits, catalog, min_len=config.min_traj_len)
    return catalog, visits, dropped, trajectories


def _split(config: ExperimentConfig, trajectories):
    return split_corpus(
        trajectories,
        ratios=(config.train_ratio, config.val_ratio, config.test_ratio),
        seed=config.split_seed,
    )


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _effective_strategy(config: ExperimentConfig, flag: str | None) -> str:
    """An explicit --strategy flag wins; otherwise adapting implies adaptive."""
    if flag is not None:
        return flag
    return "adaptive" if config.adapting else config.strategy


def cmd_ingest(config: ExperimentConfig) -> int:
    catalog, visits, dropped, trajectories = _load_corpus(config)
    out = _out_dir(config)
    with open(out / "corpus.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["trajectory", "position", "poi_id", "timestamp"])
        for tid, traj in enumerate(trajectories):
            for pos, (poi, ts) in enumerate(zip(traj.pois, traj.times), start=1):
                writer.writerow([tid, pos, catalog.id_of(poi), ts])
    lengths: dict[int, int] = {}
    for traj in trajectories:
        lengths[len(traj)] = lengths.get(len(traj), 0) + 1
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["pois", len(catalog)])
        writer.writerow(["visits", len(visits)])
        writer.writerow(["dropped_visits", dropped])
        writer.writerow(["trajectories", len(trajectories)])
        for length in sorted(lengths):
            writer.writerow([f"length_{length}", lengths[length]])
    print(f"ingested {len(trajectories)} trajectories over {len(catalog)} POIs -> {out}")
    return 0


def cmd_train(config: ExperimentConfig) -> int:
    model_config = config.model_config()
    catalog, _, _, trajectories = _load_corpus(config)
    split = _split(config, trajectories)
    pm = build_guidance_matrix(split.train, len(catalog))
    conf = build_confidence(pm, len(catalog))
    pm_train = pm if config.guiding else zero_guidance(pm.k, pm.m_max)
    effective = replace(model_config, alpha=model_config.alpha if config.drifting else 0.0)
    result = train(split.train, pm_train, effective)
    out = _out_dir(config)
    mechanisms = {"guiding": config.guiding, "drifting": config.drifting, "adapting": config.adapting}
    save_bundle(out / "model", result.params, pm, conf, mechanisms, catalog.ids)
    with open(out / "loss_trace.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(result.epoch_losses):
            writer.writerow([epoch, repr(loss)])
    final = result.epoch_losses[-1] if result.epoch_losses else float("nan")
    print(
        f"trained {model_config.arch} on {len(split.train)} trajectories "
        f"(k={pm.k}, m_max={pm.m_max}, epochs={model_config.epochs}, final loss {final:.6f})"
    )
    print(f"bundle -> {out / 'model'}")
    return 0


def _bundle_for(config: ExperimentConfig, catalog: PoiCatalog):
    bundle = load_bundle(Path(config.output_dir) / "model")
    if bundle.manifest["vocab_sha256"] != vocab_sha256(catalog.ids):
        raise ConfigError("bundle vocabulary does not match the ingested corpus")
    return bundle


def cmd_evaluate(config: ExperimentConfig, strategy_flag: str | None) -> int:
    catalog, _, _, trajectories = _load_corpus(config)
    split = _split(config, trajectories)
    if not split.test:
        raise ConfigError("test split is empty; adjust ratios or corpus")
    trips: dict[tuple[int, int], tuple[int, ...]] = {}
    if config.generator == "model":
        bundle = _bundle_for(config, catalog)
        # decode-time mechanism switches follow the current config
        strategy = _effective_strategy(config, strategy_flag)
        decode_cfg = config.decode_config(strategy)
        pm = bundle.pm if config.guiding else zero_guidance(bundle.pm.k, bundle.pm.m_max)
        conf = bundle.confidence

        def decode_fn(query: Query, ordinal: int, repeat_seed: int):
            per_query = decode_config_for_query(decode_cfg, repeat_seed, ordinal)
            return decode_trip(query, bundle.params, pm, conf, per_query)

    elif config.generator == "popularity":
        counts = baselines.build_popularity(split.train, len(catalog))

        def decode_fn(query: Query, ordinal: int, repeat_seed: int):
            return baselines.popularity_decode(query, counts)

    else:
        matrices = analysis.empirical_transitions(split.train, len(catalog))
        decode_cfg = config.decode_config(_effective_strategy(config, strategy_flag))

        def decode_fn(query: Query, ordinal: int, repeat_seed: int):
            per_query = decode_config_for_query(decode_cfg, repeat_seed, ordinal)
            return baselines.markov_decode(query, matrices, per_query)

    def recording_decode(query: Query, ordinal: int, repeat_seed: int):
        trip = decode_fn(query, ordinal, repeat_seed)
        repeat = repeat_seed - config.decode_seed
        trips[(repeat, ordinal)] = trip.pois
        return trip

    report = metrics.evaluate_decoder(recording_decode, split.test, config.repeats, config.decode_seed)
    out = _out_dir(config)
    metrics.write_metrics_csv(report, out / "metrics.csv")
    with open(out / "trips.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["repeat", "query", "position", "poi_id"])
        for (repeat, ordinal), pois in sorted(trips.items()):
            for pos, poi in enumerate(pois, start=1):
                writer.writerow([repeat, ordinal, pos, catalog.id_of(poi)])
    print(
        f"evaluated {config.generator} on {len(split.test)} queries x {config.repeats} repeats: "
        f"F1 {report.f1_mean:.4f}, PairsF1 {report.pairs_f1_mean:.4f}, REP {report.rep_mean:.4f}"
    )
    print(f"metrics -> {out / 'metrics.csv'}")
    return 0


def cmd_recommend(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.length < 2:
        raise ConfigError("trip length must be at least 2")
    catalog, _, _, _ = _load_corpus(config)
    for poi in (args.start, args.end):
        if poi not in catalog:
            raise ConfigError(f"POI id {poi} not in the catalog")
    bundle = _bundle_for(config, catalog)
    query = Query(
        p_s=catalog.index_of(args.start),
        t_s=args.start_time,
        p_e=catalog.index_of(args.end),
        t_e=args.end_time,
        n=args.length,
    )
    strategy = _effective_strategy(config, args.strategy)
    decode_cfg = config.decode_config(strategy)
    pm = bundle.pm if config.guiding else zero_guidance(bundle.pm.k, bundle.pm.m_max)
    trip = decode_trip(query, bundle.params, pm, bundle.confidence, decode_cfg)
    out = _out_dir(config)
    with open(out / "trip.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["position", "poi_id", "poi_name"])
        for pos, poi in enumerate(trip.pois, start=1):
            writer.writerow([pos, catalog.id_of(poi), catalog.pois[poi].name])
    for pos, poi in enumerate(trip.pois, start=1):
        print(f"{pos}. [{catalog.id_of(poi)}] {catalog.pois[poi].name}")
    print(f"trip -> {out / 'trip.csv'}")
    return 0


def cmd_analyze(config: ExperimentConfig, strategy_flag: str | None) -> int:
    catalog, _, _, trajectories = _load_corpus(config)
    split = _split(config, trajectories)
    if not split.test:
        raise ConfigError("test split is empty; adjust ratios or corpus")
    out = _out_dir(config)
    matrices = analysis.empirical_transitions(split.train, len(catalog))
    with open(out / "sparsity.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["position", "xi"])
        for matrix in matrices:
            writer.writerow([matrix.position, repr(analysis.sparsity_xi(matrix))])
    perturbed = [
        analysis.perturb(matrix, config.noise_sigma, config.noise_seed + i)
        for i, matrix in enumerate(matrices)
    ]
    xi_mean = float(np.mean([analysis.sparsity_xi(m) for m in perturbed]))
    series = analysis.pmr_series(perturbed, len(catalog), xi_mean, config.j_max)
    with open(out / "pmr.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["j", "term", "cumulative"])
        running = 0.0
        for j, term in enumerate(series.terms, start=1):
            running += term
            writer.writerow([j, repr(term), repr(running)])
        status = "converged" if series.converged else "non-convergent"
        writer.writerow(["status", status, repr(series.value)])
    bundle = _bundle_for(config, catalog)
    strategy = _effective_strategy(config, strategy_flag)
    decode_cfg = config.decode_config(strategy)
    pm = bundle.pm if config.guiding else zero_guidance(bundle.pm.k, bundle.pm.m_max)
    trips = []
    for ordinal, truth in enumerate(split.test):
        per_query = decode_config_for_query(decode_cfg, config.decode_seed, ordinal)
        trips.append(decode_trip(make_query(truth), bundle.params, pm, bundle.confidence, per_query))
    histogram = analysis.repeat_histogram(trips)
    with open(out / "repeat_positions.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["position", "count"])
        for pos in range(1, len(histogram.position_counts)):
            writer.writerow([pos, int(histogram.position_counts[pos])])
    with open(out / "repeat_gaps.csv", "w", newline="") as fh:
        writer = _writer(fh)
        writer.writerow(["gap", "count"])
        for gap in range(1, len(histogram.gap_counts)):
            writer.writerow([gap, int(histogram.gap_counts[gap])])
    pmr_status = "converged" if series.converged else "non-convergent"
    print(
        f"analyzed {len(matrices)} transition positions: mean xi {xi_mean:.4f}, "
        f"PMR {series.value:.6f} ({pmr_status}), {histogram.total} repeats in decoded trips"
    )
    print(f"reports -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artrip",
        description="POI trip recommendation with repetition analysis and mitigation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("ingest", "load raw CSVs, extract trajectories, write corpus summaries"),
        ("train", "train a model and save the bundle"),
        ("evaluate", "score the configured generator on the test split"),
        ("recommend", "generate a single trip from a trained bundle"),
        ("analyze", "transition sparsity, return-probability series and repeat histograms"),
    ):
        p = sub.add_parser(name, help=text)
        _add_config_flags(p)
        if name == "recommend":
            p.add_argument("--start", type=int, required=True, help="start POI id")
            p.add_argument("--end", type=int, required=True, help="end POI id")
            p.add_argument("--length", type=int, required=True, help="number of stops")
            p.add_argument(
                "--start-time", type=int, default=36000, help="start unix time (default 10:00)"
            )
            p.add_argument(
                "--end-time", type=int, default=64800, help="end unix time (default 18:00)"
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _collect(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.strategy)
        if args.command == "recommend":
            return cmd_recommend(config, args)
        return cmd_analyze(config, args.strategy)
    except (ConfigError, IngestError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
