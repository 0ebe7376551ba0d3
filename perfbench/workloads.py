"""The benchmark's three workloads on the Glasgow corpus.

Each workload has a set-up, timed on its own, and an iteration that the
run repeats until its time is up.  Every iteration does the same work,
so two iterations of one run must produce the same digest.  Inputs come
from the workload seed only; the package sees just the generated
queries, seeds and config files.

Functions of the package are always called through their module
(``decoding.decode_trip``, not a local name), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from artrip import analysis, baselines, data, decoding, guidance, metrics
from artrip.data import Trajectory
from artrip.decoding import DecodeConfig
from artrip.model import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig

# the package re-exports the function `train` as `artrip.model.train`
model_train = importlib.import_module("artrip.model.train")
model_bundle = importlib.import_module("artrip.model.bundle")

CITY = "glasgow"
ARCHS = (ARCH_ONE_SHOT, ARCH_RECURRENT)
MECHANISMS = {"guiding": True, "drifting": True, "adapting": True}
# command timeout; a command that hits it is a failed operation
CLI_TIMEOUT_S = 120


@dataclass
class Tally:
    """Operations attempted and failed; a failure is counted, never retried."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Corpus:
    catalog: data.PoiCatalog
    trajectories: list[Trajectory]
    train: list[Trajectory]
    test: list[Trajectory]
    pm: guidance.GuidanceMatrix
    conf: guidance.ConfidenceVector

    @property
    def k(self) -> int:
        return len(self.catalog)


def city_files(root: Path) -> tuple[Path, Path]:
    folder = root / "data" / CITY
    return folder / f"POI-{CITY}.csv", folder / f"userVisits-{CITY}.csv"


def load_corpus(root: Path) -> Corpus:
    poi_file, visits_file = city_files(root)
    catalog = data.load_poi_catalog(poi_file)
    visits, _ = data.load_visits(visits_file, catalog)
    trajectories = data.extract_trajectories(visits, catalog, min_len=3)
    split = data.split_corpus(trajectories, seed=0)
    pm = guidance.build_guidance_matrix(split.train, len(catalog))
    conf = guidance.build_confidence(pm, len(catalog))
    return Corpus(catalog, trajectories, split.train, split.test, pm, conf)


def trip_ok(trip, query, k: int) -> bool:
    pois = trip.pois
    return (
        len(pois) == query.n
        and pois[0] == query.p_s
        and pois[-1] == query.p_e
        and all(0 <= p < k for p in pois)
    )


def sampled_truths(trajectories: list[Trajectory], m_max: int, count: int, rng) -> list[Trajectory]:
    """Ground-truth routes of length 3..m_max with endpoints and times from the corpus.

    Lengths are uniform and stratified (each length equally often, in
    shuffled order) so the decode work barely depends on the seed.  A
    route keeps its corpus trajectory's first n-1 stops and its last stop.
    """
    lengths = [3 + i % (m_max - 2) for i in range(count)]
    rng.shuffle(lengths)
    out = []
    for n in lengths:
        pool = [t for t in trajectories if len(t) >= n]
        t = pool[int(rng.integers(len(pool)))]
        out.append(
            Trajectory(pois=t.pois[: n - 1] + t.pois[-1:], times=t.times[: n - 1] + t.times[-1:])
        )
    return out


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Interface: `setup()` is timed on its own; `iterate()` returns
    (figures for this iteration, digest of its outputs).

    `iterate()` calls `self.mark()` after each piece of work, the last
    piece included; a long `setup()` may call it between pieces too.  The call probes the host's speed and returns the
    scale that turns the piece's raw seconds into host-adjusted ones; the
    figures hold adjusted times.
    """

    name = ""

    def __init__(self, root: Path, seed: int, tally: Tally, work: Path, tiny: bool = False):
        self.root = root
        self.seed = seed
        self.tally = tally
        self.work = work
        self.tiny = tiny
        # span recorder of a traced run, and the host-speed probe that the
        # run calls between pieces of an iteration
        self.recorder = None
        self.mark = lambda: 1.0

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self) -> tuple[dict[str, float], str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def enough(self) -> bool:
        """Whether the run has the samples its figures need."""
        return True


class TrainStudy(Workload):
    """A scaled copy of the criterion-5/6 mechanism study.

    Per iteration: base (zero guidance, alpha 0) and +agd (guidance,
    alpha 1) for both architectures at default hyperparameters but few
    epochs, each then scored on the test split, greedy for base and
    adaptive for +agd.
    """

    name = "train_study"
    EPOCHS = 2
    REPEATS = 3

    def setup(self) -> None:
        self.corpus = load_corpus(self.root)
        c = self.corpus
        self.zero = guidance.zero_guidance(c.k, c.pm.m_max)
        self.train_set = c.train[:16] if self.tiny else c.train
        self.test_set = c.test[:4] if self.tiny else c.test
        self.epochs = 1 if self.tiny else self.EPOCHS
        self.repeats = 1 if self.tiny else self.REPEATS
        seeds = _seeds(np.random.default_rng([self.seed, 1]), 4)
        self.runs = [
            (arch, agd, seeds[2 * a + int(agd)])
            for a, arch in enumerate(ARCHS)
            for agd in (False, True)
        ]

    def iterate(self):
        c = self.corpus
        digest = hashlib.sha256()
        figures = {f"{arch}_{key}": 0.0 for arch in ARCHS for key in ("steps", "train_s")}
        figures.update(eval_queries=0.0, eval_s=0.0)
        for arch, agd, seed in self.runs:
            pm = c.pm if agd else self.zero
            config = ModelConfig(arch=arch, alpha=1.0 if agd else 0.0, epochs=self.epochs, seed=seed)
            label = f"{arch} {'+agd' if agd else 'base'} seed {seed}"
            start = time.perf_counter()
            try:
                result = model_train.train(self.train_set, pm, config)
            except (RuntimeError, ValueError) as exc:
                self.tally.check(False, f"train {label}: {exc}")
                continue
            figures[f"{arch}_train_s"] += (time.perf_counter() - start) * self.mark()
            figures[f"{arch}_steps"] += self.epochs * len(self.train_set)
            losses = result.epoch_losses
            if not self.tally.check(
                len(losses) == self.epochs and bool(np.isfinite(losses).all()),
                f"train {label}: epoch losses {losses}",
            ):
                continue
            for block in result.params.blocks.values():
                digest.update(block.tobytes())
            strategy = "adaptive" if agd else "greedy"
            cfg = DecodeConfig(strategy=strategy, seed=seed)
            trips = []

            def decode_fn(query, ordinal, repeat_seed, params=result.params, pm=pm, cfg=cfg):
                per_query = decoding.decode_config_for_query(cfg, repeat_seed, ordinal)
                trip = decoding.decode_trip(query, params, pm, c.conf, per_query)
                trips.append((query, trip))
                return trip

            start = time.perf_counter()
            try:
                metrics.evaluate_decoder(decode_fn, self.test_set, self.repeats, cfg.seed)
            except ValueError as exc:
                self.tally.check(False, f"evaluate {label}: {exc}")
                continue
            eval_s = time.perf_counter() - start
            figures["eval_queries"] += len(trips)
            for query, trip in trips:
                self.tally.check(trip_ok(trip, query, c.k), f"{label}: bad trip {trip.pois} for {query}")
                digest.update(np.asarray(trip.pois, dtype="<i8").tobytes())
            figures["eval_s"] += eval_s * self.mark()
        return figures, digest.hexdigest()


class DecodeMix(Workload):
    """Inference only, from bundles trained, saved and reloaded in set-up.

    Phase (a) scores every architecture x strategy x repeat-mask decoder
    plus the Markov and popularity baselines on seeded queries.  Phase
    (b) is one closed-loop client sending default (adaptive) requests,
    each sent after the previous reply.
    """

    name = "decode_mix"
    SETUP_EPOCHS = 3
    QUERIES = 48
    REPEATS = 2
    REQUESTS = 250
    DECODERS_PER_PIECE = 2
    REQUESTS_PER_PIECE = 125
    MIN_REQUESTS = 1000
    STRATEGIES = ("greedy", "top_p", "adaptive")

    def setup(self) -> None:
        self.corpus = c = load_corpus(self.root)
        rng = np.random.default_rng([self.seed, 2])
        train_set = c.train[:16] if self.tiny else c.train
        epochs = 1 if self.tiny else self.SETUP_EPOCHS
        self.bundles = {}
        for arch, seed in zip(ARCHS, _seeds(rng, len(ARCHS))):
            config = ModelConfig(arch=arch, alpha=1.0, epochs=epochs, seed=seed)
            result = model_train.train(train_set, c.pm, config)
            path = self.work / f"bundle-{arch}"
            model_bundle.save_bundle(path, result.params, c.pm, c.conf, MECHANISMS, c.catalog.ids)
            self.bundles[arch] = model_bundle.load_bundle(path)
            self.mark()
        self.markov = analysis.empirical_transitions(c.train, c.k)
        self.popularity = baselines.build_popularity(c.train, c.k)
        count = 6 if self.tiny else self.QUERIES
        self.truths = sampled_truths(c.trajectories, c.pm.m_max, count, rng)
        self.repeats = 1 if self.tiny else self.REPEATS
        self.decode_seed = _seeds(rng, 1)[0]
        requests = 12 if self.tiny else self.REQUESTS
        self.requests = [
            (ARCHS[int(a)], data.make_query(t), s)
            for a, t, s in zip(
                rng.integers(0, len(ARCHS), size=requests),
                sampled_truths(c.trajectories, c.pm.m_max, requests, rng),
                _seeds(rng, requests),
            )
        ]
        self.sent = 0

    def _decoders(self):
        for arch in ARCHS:
            bundle = self.bundles[arch]
            for strategy in self.STRATEGIES:
                for mask in (False, True):
                    cfg = DecodeConfig(strategy=strategy, no_repeat_mask=mask, seed=self.decode_seed)

                    def fn(query, ordinal, repeat_seed, bundle=bundle, cfg=cfg):
                        per_query = decoding.decode_config_for_query(cfg, repeat_seed, ordinal)
                        return decoding.decode_trip(query, bundle.params, bundle.pm, bundle.confidence, per_query)

                    yield f"{arch}/{strategy}/mask={mask}", fn
        markov_cfg = DecodeConfig(strategy="top_p", seed=self.decode_seed)

        def markov(query, ordinal, repeat_seed):
            per_query = decoding.decode_config_for_query(markov_cfg, repeat_seed, ordinal)
            return baselines.markov_decode(query, self.markov, per_query)

        def popularity(query, ordinal, repeat_seed):
            return baselines.popularity_decode(query, self.popularity)

        yield "markov", markov
        yield "popularity", popularity

    def iterate(self):
        k = self.corpus.k
        digest = hashlib.sha256()
        figures = {"eval_queries": 0.0, "eval_s": 0.0}
        # the host's speed drifts within an iteration, so probe it often
        piece_s = 0.0
        for i, (label, fn) in enumerate(self._decoders()):
            if i and i % self.DECODERS_PER_PIECE == 0:
                figures["eval_s"] += piece_s * self.mark()
                piece_s = 0.0
            trips = []

            def recording(query, ordinal, repeat_seed, fn=fn):
                trip = fn(query, ordinal, repeat_seed)
                trips.append((query, trip))
                return trip

            start = time.perf_counter()
            try:
                metrics.evaluate_decoder(recording, self.truths, self.repeats, self.decode_seed)
            except (ValueError, RuntimeError) as exc:
                self.tally.check(False, f"evaluate {label}: {exc}")
                continue
            piece_s += time.perf_counter() - start
            figures["eval_queries"] += len(trips)
            for query, trip in trips:
                self.tally.check(trip_ok(trip, query, k), f"{label}: bad trip {trip.pois} for {query}")
                digest.update(np.asarray(trip.pois, dtype="<i8").tobytes())
        figures["eval_s"] += piece_s * self.mark()
        latencies, piece = [], []
        for j, (arch, query, seed) in enumerate(self.requests):
            if piece and j % self.REQUESTS_PER_PIECE == 0:
                scale = self.mark()
                latencies += [x * scale for x in piece]
                piece = []
            self.sent += 1
            bundle = self.bundles[arch]
            cfg = DecodeConfig(strategy="adaptive", seed=seed)
            start = time.perf_counter()
            try:
                trip = decoding.decode_trip(query, bundle.params, bundle.pm, bundle.confidence, cfg)
            except (ValueError, RuntimeError) as exc:
                self.tally.check(False, f"request {arch} {query}: {exc}")
                continue
            piece.append(time.perf_counter() - start)
            self.tally.check(trip_ok(trip, query, k), f"request {arch}: bad trip {trip.pois} for {query}")
            digest.update(np.asarray(trip.pois, dtype="<i8").tobytes())
        scale = self.mark()
        figures["latencies"] = latencies + [x * scale for x in piece]
        return figures, digest.hexdigest()

    def enough(self) -> bool:
        return self.tiny or self.sent >= self.MIN_REQUESTS


# files each command must write, relative to its output directory
CLI_OUTPUTS = {
    "ingest": ("corpus.csv", "summary.csv"),
    "train": ("model/manifest.json", "model/params.bin", "model/guidance.bin", "loss_trace.csv"),
    "evaluate": ("metrics.csv", "trips.csv"),
    "analyze": ("sparsity.csv", "pmr.csv", "repeat_positions.csv", "repeat_gaps.csv"),
    "recommend": ("trip.csv",),
}


class CliPipeline(Workload):
    """`ingest`, `train`, `evaluate`, `analyze`, `recommend` as subprocesses.

    Each iteration writes into a fresh output directory with a small
    model of the criterion-8 shape, so interpreter start-up, CSV ingest,
    bundle writes and reads, analysis and the CSV writers all weigh in.
    """

    name = "cli_pipeline"
    EPOCHS = 3
    REPEATS = 2

    def setup(self) -> None:
        corpus = load_corpus(self.root)
        rng = np.random.default_rng([self.seed, 3])
        model_seed, decode_seed = _seeds(rng, 2)
        poi_file, visits_file = city_files(self.root)
        self.config = self.work / "pipeline.cfg"
        lines = {
            "poi_file": poi_file,
            "visits_file": visits_file,
            "embed_dim": 16,
            "num_layers": 1,
            "hidden_dim": 32,
            "epochs": 1 if self.tiny else self.EPOCHS,
            "repeats": 1 if self.tiny else self.REPEATS,
            "model_seed": model_seed,
            "decode_seed": decode_seed,
        }
        self.config.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
        self.eval_queries = len(corpus.test) * lines["repeats"]
        truth = sampled_truths(corpus.trajectories, corpus.pm.m_max, 1, rng)[0]
        self.trip_query = (
            corpus.catalog.id_of(truth.pois[0]),
            corpus.catalog.id_of(truth.pois[-1]),
            len(truth),
        )
        self.valid_ids = set(corpus.catalog.ids)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.iteration = 0
        # a first interpreter start warms the file cache for the timed ones
        subprocess.run(
            [sys.executable, "-c", "import artrip.cli"],
            env=self.env,
            cwd=self.root,
            check=True,
            timeout=CLI_TIMEOUT_S,
        )

    def _argv(self, command: str, out: Path) -> list[str]:
        args = [command, "--config", str(self.config), "--output-dir", str(out)]
        if command == "recommend":
            start, end, length = self.trip_query
            args += ["--start", str(start), "--end", str(end), "--length", str(length)]
        return args

    def _run(self, command: str, argv: list[str], out: Path) -> bool:
        if self.recorder is None:
            prefix = [sys.executable, "-m", "artrip.cli"]
            return self._spawn(command, prefix + argv)
        span_file = out / f".spans-{command}.json"
        prefix = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(span_file)]
        with self.recorder.span(f"cli.{command}") as idx:
            ok = self._spawn(command, prefix + argv)
        if span_file.exists():
            payload = json.loads(span_file.read_text())
            self.recorder.add_foreign(payload["spans"], payload["counters"], idx)
            span_file.unlink()
        return ok

    def _spawn(self, command: str, argv: list[str]) -> bool:
        try:
            proc = subprocess.run(
                argv,
                env=self.env,
                cwd=self.root,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self.tally.check(False, f"{command}: timed out after {CLI_TIMEOUT_S}s")
        return self.tally.check(
            proc.returncode == 0, f"{command}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        )

    def iterate(self):
        self.iteration += 1
        out = self.work / f"run-{self.iteration}"
        figures = {}
        digest = hashlib.sha256()
        try:
            if self.recorder is not None:
                with self.recorder.span("cli.startup"):
                    self._spawn("startup", [sys.executable, "-c", "import artrip.cli"])
            for command, expected in CLI_OUTPUTS.items():
                start = time.perf_counter()
                ran = self._run(command, self._argv(command, out), out)
                elapsed = time.perf_counter() - start
                if ran:
                    missing = [name for name in expected if not (out / name).is_file()]
                    if self.tally.check(not missing, f"{command}: missing {missing}"):
                        for name in expected:
                            digest.update((out / name).read_bytes())
                figures[f"cli_{command}_s"] = elapsed * self.mark()
            figures.update(eval_queries=self.eval_queries, eval_s=figures["cli_evaluate_s"])
            self._check_outputs(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return figures, digest.hexdigest()

    def _check_outputs(self, out: Path) -> None:
        loss_trace = out / "loss_trace.csv"
        if loss_trace.is_file():
            with open(loss_trace, newline="") as fh:
                losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
            self.tally.check(
                bool(losses) and bool(np.isfinite(losses).all()), f"train: epoch losses {losses}"
            )
        trip_file = out / "trip.csv"
        if trip_file.is_file():
            with open(trip_file, newline="") as fh:
                ids = [int(row["poi_id"]) for row in csv.DictReader(fh)]
            start, end, length = self.trip_query
            self.tally.check(
                len(ids) == length
                and ids[:1] == [start]
                and ids[-1:] == [end]
                and all(i in self.valid_ids for i in ids),
                f"recommend: bad trip {ids} for {self.trip_query}",
            )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(children=True)


WORKLOADS = {cls.name: cls for cls in (TrainStudy, DecodeMix, CliPipeline)}
