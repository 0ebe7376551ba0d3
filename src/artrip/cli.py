"""Command line entry point.

Subcommands cover the full pipeline: ingest raw CSVs, train a model
bundle, evaluate it (or a baseline) on the held-out split, recommend a
single trip, and analyze the repetition structure of the corpus and
the decoder.  Every run is deterministic for a fixed config, so
re-running a command overwrites its outputs with identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from artrip import analysis, baselines, metrics
from artrip.config import CONFIG_KEYS, ConfigError, ExperimentConfig, load_config
from artrip.data import (
    MIN_TRAJECTORIES,
    IngestError,
    PoiCatalog,
    Query,
    Trajectory,
    extract_trajectories,
    load_poi_catalog,
    load_visits,
    split_corpus,
    write_csv,
)
from artrip.decoding import decode_config_for_query, decode_trip
from artrip.guidance import build_confidence, build_guidance_matrix, check_horizon
from artrip.model.bundle import MECHANISM_KEYS, load_bundle, save_bundle, vocab_sha256
from artrip.model.train import train

# flags whose spelling differs from the config key
_FLAG_NAMES = {"j_max": "--jmax"}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for key in CONFIG_KEYS:
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        parser.add_argument(flag, dest=key, default=None, metavar="V", help=argparse.SUPPRESS)


def _collect(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key) is not None}
    return load_config(args.config, overrides)


def _load_corpus(config: ExperimentConfig):
    """`(catalog, visits, dropped, trajectories)` from the configured files."""
    if not config.poi_file or not config.visits_file:
        raise ConfigError("poi_file and visits_file must be set")
    catalog = load_poi_catalog(config.poi_file)
    visits, dropped = load_visits(config.visits_file, catalog)
    trajectories = extract_trajectories(visits, catalog, min_len=config.min_traj_len)
    if len(trajectories) < MIN_TRAJECTORIES:
        raise IngestError(
            f"{config.visits_file}: {len(trajectories)} trajectories of at least {config.min_traj_len} stops, "
            f"need at least {MIN_TRAJECTORIES}"
        )
    return catalog, visits, dropped, trajectories


def _load_split(config: ExperimentConfig):
    """`(catalog, split)`: the corpus split seeded by the config."""
    catalog, *_, trajectories = _load_corpus(config)
    ratios = (config.train_ratio, config.val_ratio, config.test_ratio)
    return catalog, split_corpus(trajectories, ratios, config.split_seed)


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(config: ExperimentConfig, args: argparse.Namespace) -> int:
    catalog, visits, dropped, trajectories = _load_corpus(config)
    out = _out_dir(config)
    rows = (
        [tid, pos, catalog.id_of(poi), ts]
        for tid, traj in enumerate(trajectories)
        for pos, (poi, ts) in enumerate(zip(traj.pois, traj.times), start=1)
    )
    write_csv(out / "corpus.csv", ["trajectory", "position", "poi_id", "timestamp"], rows)
    lengths = Counter(len(traj) for traj in trajectories)
    counts = dict(pois=len(catalog), visits=len(visits), dropped_visits=dropped, trajectories=len(trajectories))
    counts.update((f"length_{length}", lengths[length]) for length in sorted(lengths))
    write_csv(out / "summary.csv", ["key", "value"], counts.items())
    print(f"ingested {len(trajectories)} trajectories over {len(catalog)} POIs -> {out}")
    return 0


def cmd_train(config: ExperimentConfig, args: argparse.Namespace) -> int:
    catalog, split = _load_split(config)
    pm = build_guidance_matrix(split.train, len(catalog))
    conf = build_confidence(pm, len(catalog))
    result = train(split.train, config.guidance(pm), config.model)
    out = _out_dir(config)
    mechanisms = {key: getattr(config, key) for key in MECHANISM_KEYS}
    save_bundle(out / "model", result.params, pm, conf, mechanisms, catalog.ids)
    write_csv(out / "loss_trace.csv", ["epoch", "mean_loss"], enumerate(map(repr, result.epoch_losses)))
    final = result.epoch_losses[-1] if result.epoch_losses else float("nan")
    print(
        f"trained {config.model.arch} on {len(split.train)} trajectories "
        f"(k={pm.k}, m_max={pm.m_max}, epochs={config.model.epochs}, final loss {final:.6f})"
    )
    print(f"bundle -> {out / 'model'}")
    return 0


def _decoder(
    config: ExperimentConfig, catalog: PoiCatalog, train: list[Trajectory], longest: int, matrices=None
):
    """`decode(query, cfg)` for the configured generator, built once per command.

    `cfg` is the DecodeConfig of that one query.  Decode-time mechanism
    switches follow the current config, not the bundle.
    The Markov generator walks `matrices` when given, the empirical
    transitions of `train` otherwise.  A `longest` trip length past a
    positional generator's horizon raises ValueError here, before any decode.
    """
    if config.generator == "popularity":
        counts = baselines.build_popularity(train, len(catalog))
        return lambda query, cfg: baselines.popularity_decode(query, counts)
    if config.generator == "markov":
        if matrices is None:
            matrices = analysis.empirical_transitions(train, len(catalog))
        check_horizon(longest, len(matrices) + 1)
        return lambda query, cfg: baselines.markov_decode(query, matrices, cfg)
    bundle = load_bundle(Path(config.output_dir) / "model")
    if bundle.manifest["vocab_sha256"] != vocab_sha256(catalog.ids):
        raise ConfigError("bundle vocabulary does not match the ingested corpus")
    check_horizon(longest, bundle.params.m_max)
    pm = config.guidance(bundle.pm)
    return lambda query, cfg: decode_trip(query, bundle.params, pm, bundle.confidence, cfg)


def _score_test_split(config: ExperimentConfig, repeats: int, transitions: bool = False):
    """Decode and score the test split; returns `(catalog, matrices, report)`.

    Query i of repeat r decodes with the seed pair `(decode_seed + r, i)`.  With
    `transitions`, `matrices` holds the training split's empirical transitions,
    estimated once and walked by the Markov generator; otherwise it is None.
    Nothing is written, so a failed decode leaves no report behind.
    """
    catalog, split = _load_split(config)
    if not split.test:
        raise ConfigError("test split is empty; adjust ratios or corpus")
    matrices = analysis.empirical_transitions(split.train, len(catalog)) if transitions else None
    decode = _decoder(config, catalog, split.train, max(len(t) for t in split.test), matrices)

    def decode_fn(query, i, repeat_seed):
        return decode(query, decode_config_for_query(config.decode, repeat_seed, i))

    return catalog, matrices, metrics.evaluate_decoder(decode_fn, split.test, repeats, config.decode.seed)


def cmd_evaluate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    catalog, _, report = _score_test_split(config, config.repeats)
    out = _out_dir(config)
    metrics.write_metrics_csv(report, out / "metrics.csv")
    rows = (
        [row["repeat"], row["query"], pos, catalog.id_of(poi)]
        for row in report.rows
        for pos, poi in enumerate(row["trip"], start=1)
    )
    write_csv(out / "trips.csv", ["repeat", "query", "position", "poi_id"], rows)
    print(
        f"evaluated {config.generator} on {len(report.rows) // report.repeats} queries x {report.repeats} "
        f"repeats: F1 {report.f1_mean:.4f}, PairsF1 {report.pairs_f1_mean:.4f}, REP {report.rep_mean:.4f}"
    )
    print(f"metrics -> {out / 'metrics.csv'}")
    return 0


def cmd_recommend(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if args.length < 2:
        raise ConfigError("trip length must be at least 2")
    catalog, split = _load_split(config)
    for poi in (args.start, args.end):
        if poi not in catalog:
            raise ConfigError(f"POI id {poi} not in the catalog")
    decode = _decoder(config, catalog, split.train, args.length)
    query = Query(
        p_s=catalog.index_of(args.start),
        t_s=args.start_time,
        p_e=catalog.index_of(args.end),
        t_e=args.end_time,
        n=args.length,
    )
    trip = decode(query, config.decode)
    out = _out_dir(config)
    rows = [[pos, catalog.id_of(poi), catalog.pois[poi].name] for pos, poi in enumerate(trip.pois, start=1)]
    write_csv(out / "trip.csv", ["position", "poi_id", "poi_name"], rows)
    for pos, poi_id, name in rows:
        print(f"{pos}. [{poi_id}] {name}")
    print(f"trip -> {out / 'trip.csv'}")
    return 0


def cmd_analyze(config: ExperimentConfig, args: argparse.Namespace) -> int:
    # one repeat: query i decodes with the seed pair (decode_seed, i), as in repeat 0 of evaluate
    catalog, matrices, report = _score_test_split(config, 1, transitions=True)
    out = _out_dir(config)
    xis = ([position, repr(analysis.sparsity_xi(m))] for position, m in enumerate(matrices, 1))
    write_csv(out / "sparsity.csv", ["position", "xi"], xis)
    perturbed = np.array([
        analysis.perturb(matrix, config.noise_sigma, config.noise_seed + i)
        for i, matrix in enumerate(matrices)
    ])
    xi_mean = float(np.mean([analysis.sparsity_xi(m) for m in perturbed]))
    series = analysis.pmr_series(perturbed, len(catalog), xi_mean, config.j_max)
    status = "converged" if series.converged else "non-convergent"
    rows, running = [], 0.0
    for j, term in enumerate(series.terms, start=1):
        running += term
        rows.append([j, repr(term), repr(running)])
    rows.append(["status", status, repr(series.value)])
    write_csv(out / "pmr.csv", ["j", "term", "cumulative"], rows)
    position_counts, gap_counts = analysis.repeat_histogram([row["trip"] for row in report.rows])
    positions, gaps = position_counts[1:].tolist(), gap_counts[1:].tolist()
    write_csv(out / "repeat_positions.csv", ["position", "count"], enumerate(positions, 1))
    write_csv(out / "repeat_gaps.csv", ["gap", "count"], enumerate(gaps, 1))
    print(
        f"analyzed {len(matrices)} transition positions: mean xi {xi_mean:.4f}, "
        f"PMR {series.value:.6f} ({status}), {sum(positions)} repeats in decoded trips"
    )
    print(f"reports -> {out}")
    return 0


# subcommand -> (handler, help); every handler takes (config, args)
COMMANDS = {
    "ingest": (cmd_ingest, "load raw CSVs, extract trajectories, write corpus summaries"),
    "train": (cmd_train, "train a model and save the bundle"),
    "evaluate": (cmd_evaluate, "score the configured generator on the test split"),
    "recommend": (cmd_recommend, "generate a single trip from a trained bundle"),
    "analyze": (cmd_analyze, "transition sparsity, return-probability series and repeat histograms"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artrip",
        description="POI trip recommendation with repetition analysis and mitigation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in COMMANDS.items():
        _add_config_flags(sub.add_parser(name, help=text))
    trip = sub.choices["recommend"]
    trip.add_argument("--start", type=int, required=True, help="start POI id")
    trip.add_argument("--end", type=int, required=True, help="end POI id")
    trip.add_argument("--length", type=int, required=True, help="number of stops")
    trip.add_argument("--start-time", type=int, default=36000, help="start unix time (default 10:00)")
    trip.add_argument("--end-time", type=int, default=64800, help="end unix time (default 18:00)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler, _ = COMMANDS[args.command]
        return handler(_collect(args), args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
