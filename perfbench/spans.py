"""Timing spans recorded from outside the artrip package.

The traced run swaps module attributes for wrappers that record one span
per call: name, start, end, parent span and a group id shared by the
spans of one training step or one decoded query.  Spans stay in memory
until the run ends.  Nothing here changes what the wrapped functions
return.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import time

import numpy as np

# layer names are the package modules
LAYERS = (
    "data",
    "guidance",
    "model.one_shot",
    "model.recurrent",
    "model.losses",
    "model.train",
    "model.bundle",
    "decoding",
    "metrics",
    "analysis",
    "baselines",
    "cli",
)

# spans that begin a new group: one training step, one decoded query
_GROUP_STARTS = {
    "model.one_shot.forward",
    "model.recurrent.teacher",
    "decoding.decode",
    "baselines.markov",
    "baselines.popularity",
}


@functools.lru_cache(maxsize=None)
def layer_of(name: str) -> str:
    """Longest layer name that prefixes a span name."""
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span {name!r} belongs to no layer")
    return best


class Recorder:
    """Spans as parallel lists; index in the lists is the span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.groups: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._group = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or name in _GROUP_STARTS:
            self._group += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.groups.append(self._group)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code of the benchmark's own, such as a subprocess."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def add_foreign(self, spans: list, counters: dict, parent: int) -> None:
        """Attach spans recorded by a child process under one of ours."""
        offset = len(self.names)
        self._group += 1
        base_group = self._group
        for name, start, end, par, group in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if par < 0 else par + offset)
            self.groups.append(base_group + group)
        if spans:
            self._group = base_group + max(s[4] for s in spans)
        for key, value in counters.items():
            self.count(key, value)

    def take(self) -> "Recorder":
        """Move every finished span and counter into a new recorder."""
        if self._stack:
            raise RuntimeError("cannot take spans while some are open")
        out = Recorder()
        out.names, self.names = self.names, []
        out.starts, self.starts = self.starts, []
        out.ends, self.ends = self.ends, []
        out.parents, self.parents = self.parents, []
        out.groups, self.groups = self.groups, []
        out.counters, self.counters = self.counters, {}
        return out

    def rows(self) -> list:
        return [
            [n, s, e, p, g]
            for n, s, e, p, g in zip(self.names, self.starts, self.ends, self.parents, self.groups)
        ]

    def write(self, path, phase: str) -> None:
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps([phase, *row]) + "\n")


# --- hooks that count work inside a wrapped call --------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _decode_hook(rec: Recorder, args, kwargs, call):
    """Count positions, and nucleus sizes through decode_trip's trace hook."""
    if len(args) > 5:
        args, trace = args[:5], args[5]
    else:
        trace = kwargs.get("trace")
    if trace is None:
        trace = []
    start = len(trace)
    result = call(args, dict(kwargs, trace=trace))
    rec.count("decoding.positions", max(0, _arg(args, kwargs, 0, "query").n - 2))
    picked = trace[start:]
    rec.count("decoding.sampled", len(picked))
    rec.count("decoding.candidates", sum(len(cands) for cands, _ in picked))
    return result


def _columns_hook(rec: Recorder, args, kwargs, call):
    pm = _arg(args, kwargs, 0, "pm")
    last = _arg(args, kwargs, 1, "first_position") + _arg(args, kwargs, 2, "m") - 1
    rec.count("guidance.horizon_warnings", max(0, last - pm.m_max))
    return call(args, kwargs)


def _mask_hook(rec: Recorder, args, kwargs, call):
    """A released mask leaves an already-used POI with a finite score."""
    result = call(args, kwargs)
    used = _arg(args, kwargs, 1, "used")
    if used and np.isfinite(result[list(used)]).any():
        rec.count("decoding.mask_releases")
    return result


def _save_hook(rec: Recorder, args, kwargs, call):
    result = call(args, kwargs)
    path = _arg(args, kwargs, 0, "path")
    for name in ("manifest.json", "params.bin", "guidance.bin"):
        rec.count("model.bundle.bytes_written", os.path.getsize(os.path.join(path, name)))
    return result


# (span name, defining module, attribute, hook, other modules that import it by name)
PATCHES = (
    ("data.load", "artrip.data", "load_poi_catalog", None, ("artrip.cli", "artrip")),
    ("data.load", "artrip.data", "load_visits", None, ("artrip.cli", "artrip")),
    ("data.load", "artrip.data", "extract_trajectories", None, ("artrip.cli", "artrip")),
    ("data.split", "artrip.data", "split_corpus", None, ("artrip.cli", "artrip")),
    ("guidance.build", "artrip.guidance", "build_guidance_matrix", None, ("artrip.cli", "artrip")),
    ("guidance.build", "artrip.guidance", "build_confidence", None, ("artrip.cli", "artrip")),
    ("guidance.columns", "artrip.guidance", "guidance_columns", _columns_hook, ("artrip.model.train",)),
    ("model.one_shot.forward", "artrip.model.one_shot", "forward_with_cache", None, ()),
    (
        "model.one_shot.forward",
        "artrip.model.one_shot",
        "forward_one_shot",
        None,
        ("artrip.decoding", "artrip.model"),
    ),
    ("model.one_shot.backward", "artrip.model.one_shot", "backward", None, ()),
    ("model.recurrent.teacher", "artrip.model.recurrent", "forward_teacher", None, ()),
    ("model.recurrent.backward", "artrip.model.recurrent", "backward", None, ()),
    (
        "model.recurrent.step",
        "artrip.model.recurrent",
        "forward_recurrent_step",
        None,
        ("artrip.decoding", "artrip.model"),
    ),
    (
        "model.recurrent.init",
        "artrip.model.recurrent",
        "init_recurrent_state",
        None,
        ("artrip.decoding", "artrip.model"),
    ),
    ("model.losses.total", "artrip.model.losses", "total_loss_grad", None, ("artrip.model.train",)),
    ("model.losses.drift", "artrip.model.losses", "drift_loss_grad", None, ()),
    ("model.train", "artrip.model.train", "train", None, ("artrip.model", "artrip", "artrip.cli")),
    ("model.bundle.save", "artrip.model.bundle", "save_bundle", _save_hook, ("artrip.model", "artrip.cli")),
    ("model.bundle.load", "artrip.model.bundle", "load_bundle", None, ("artrip.model", "artrip.cli")),
    (
        "decoding.decode",
        "artrip.decoding",
        "decode_trip",
        _decode_hook,
        ("artrip.metrics", "artrip.cli", "artrip"),
    ),
    ("decoding.sample", "artrip.decoding", "greedy_pick", None, ("artrip.baselines",)),
    ("decoding.sample", "artrip.decoding", "top_k_sample", None, ("artrip.baselines",)),
    ("decoding.sample", "artrip.decoding", "top_p_sample", None, ("artrip.baselines",)),
    ("decoding.sample", "artrip.decoding", "adaptive_sample", None, ()),
    ("decoding.mask", "artrip.decoding", "mask_repeats", _mask_hook, ("artrip.baselines",)),
    ("metrics.evaluate", "artrip.metrics", "evaluate_decoder", None, ()),
    ("baselines.markov", "artrip.baselines", "markov_decode", None, ()),
    ("baselines.popularity", "artrip.baselines", "build_popularity", None, ()),
    ("baselines.popularity", "artrip.baselines", "popularity_decode", None, ()),
    ("analysis.transitions", "artrip.analysis", "empirical_transitions", None, ()),
    ("analysis.perturb", "artrip.analysis", "perturb", None, ()),
    ("analysis.pmr", "artrip.analysis", "pmr_series", None, ()),
    ("analysis.histogram", "artrip.analysis", "repeat_histogram", None, ()),
)


def wrap(rec: Recorder, name: str, fn, hook=None):
    """A stand-in for `fn` that records one span per call."""

    def plain(args, kwargs):
        return fn(*args, **kwargs)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(rec, args, kwargs, plain)
        finally:
            rec.close(idx)

    return wrapper


class Patched:
    """Install wrappers on entry; put every original back on exit."""

    def __init__(self, rec: Recorder, patches=PATCHES):
        self.rec = rec
        self.patches = patches
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self):
        try:
            for name, home, attr, hook, importers in self.patches:
                module = importlib.import_module(home)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{home}.{attr}")
                    continue
                wrapper = wrap(self.rec, name, original, hook)
                for where in (home, *importers):
                    target = importlib.import_module(where)
                    # a module that no longer imports the name keeps its own
                    if getattr(target, attr, None) is original:
                        self.saved.append((target, attr, original))
                        setattr(target, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self.saved:
            target, attr, original = self.saved.pop()
            setattr(target, attr, original)
        return False


# --- arithmetic over a finished span list ---------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Read-only view of recorded spans with self-time arithmetic."""

    def __init__(self, names, starts, ends, parents):
        self.names = list(names)
        self.starts = list(starts)
        self.ends = list(ends)
        self.parents = list(parents)
        self.children: list[list[int]] = [[] for _ in self.names]
        self.by_name: dict[str, list[int]] = {}
        for idx, (name, parent) in enumerate(zip(self.names, self.parents)):
            if parent >= 0:
                self.children[parent].append(idx)
            self.by_name.setdefault(name, []).append(idx)
        self.layers = [layer_of(n) for n in self.names]

    @classmethod
    def of(cls, rec: Recorder) -> "SpanTree":
        return cls(rec.names, rec.starts, rec.ends, rec.parents)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_time(self, idx: int) -> float:
        """Duration minus the part covered by spans of other layers below it.

        Spans of the same layer nested inside count as its own time, so a
        layer's self time is the time spent in that layer's code.
        """
        start, end = self.starts[idx], self.ends[idx]
        layer = self.layers[idx]
        foreign: list[tuple[float, float]] = []
        pending = list(self.children[idx])
        while pending:
            child = pending.pop()
            if self.layers[child] == layer:
                pending.extend(self.children[child])
                continue
            lo, hi = max(start, self.starts[child]), min(end, self.ends[child])
            if hi > lo:
                foreign.append((lo, hi))
        return (end - start) - _union_length(foreign)

    def _inside(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def outermost(self, name: str) -> list[int]:
        """Spans of `name` not nested inside another span of the same name."""
        return [i for i in self.by_name.get(name, ()) if not self._inside(i, name)]

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.outermost(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(i) for i in self.outermost(name))

    def count(self, name: str, inside: str | None = None) -> int:
        spans = self.outermost(name)
        if inside is not None:
            spans = [i for i in spans if self._inside(i, inside)]
        return len(spans)

    def covered_s(self, windows: list[tuple[float, float]]) -> float:
        """Wall time inside the windows that root spans cover."""
        roots = [(self.starts[i], self.ends[i]) for i, p in enumerate(self.parents) if p < 0]
        covered = 0.0
        for lo, hi in windows:
            clipped = [(max(lo, s), min(hi, e)) for s, e in roots if e > lo and s < hi]
            covered += _union_length(clipped)
        return covered


CLI_COMMANDS = ("ingest", "train", "evaluate", "analyze", "recommend")


def layer_figures(tree: SpanTree, counters: dict) -> dict[str, float]:
    """Per-layer sums and counts for one phase of a traced run."""
    out = {
        "model.train.steps": tree.count("model.losses.total", inside="model.train"),
        "model.train.self_s": tree.self_total("model.train"),
        "model.one_shot.forward_calls": tree.count("model.one_shot.forward"),
        "model.one_shot.forward_s": tree.total("model.one_shot.forward"),
        "model.one_shot.backward_s": tree.total("model.one_shot.backward"),
        "model.recurrent.teacher_s": tree.total("model.recurrent.teacher"),
        "model.recurrent.backward_s": tree.total("model.recurrent.backward"),
        "model.recurrent.step_calls": tree.count("model.recurrent.step"),
        "model.recurrent.step_s": tree.total("model.recurrent.step"),
        "model.losses.total_s": tree.total("model.losses.total"),
        "model.losses.drift_calls": tree.count("model.losses.drift"),
        "model.losses.drift_s": tree.total("model.losses.drift"),
        "guidance.columns_calls": tree.count("guidance.columns"),
        "guidance.columns_s": tree.total("guidance.columns"),
        "guidance.build_s": tree.total("guidance.build"),
        "guidance.horizon_warnings": counters.get("guidance.horizon_warnings", 0.0),
        "decoding.decode_calls": tree.count("decoding.decode"),
        "decoding.positions": counters.get("decoding.positions", 0.0),
        "decoding.decode_s": tree.total("decoding.decode"),
        "decoding.self_s": tree.self_total("decoding.decode"),
        "decoding.sample_s": tree.total("decoding.sample"),
        "decoding.sampled": counters.get("decoding.sampled", 0.0),
        "decoding.candidates": counters.get("decoding.candidates", 0.0),
        "decoding.mask_releases": counters.get("decoding.mask_releases", 0.0),
        "metrics.evaluate_self_s": tree.self_total("metrics.evaluate"),
        "baselines.markov_s": tree.total("baselines.markov"),
        "baselines.popularity_s": tree.total("baselines.popularity"),
        "model.bundle.save_s": tree.total("model.bundle.save"),
        "model.bundle.load_s": tree.total("model.bundle.load"),
        "model.bundle.bytes_written": counters.get("model.bundle.bytes_written", 0.0),
        "data.load_s": tree.total("data.load"),
        "data.split_s": tree.total("data.split"),
        "analysis.transitions_s": tree.total("analysis.transitions"),
        "analysis.perturb_s": tree.total("analysis.perturb"),
        "analysis.pmr_s": tree.total("analysis.pmr"),
        "analysis.histogram_s": tree.total("analysis.histogram"),
        "cli.startup_s": tree.total("cli.startup"),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = tree.total(f"cli.{command}")
    return out


def finish_figures(figures: dict[str, float]) -> dict[str, float]:
    """Turn summed counts into the ratios reported per layer."""
    out = dict(figures)
    steps = out.get("model.train.steps", 0.0)
    out["model.train.self_us_per_step"] = 1e6 * out["model.train.self_s"] / steps if steps else 0.0
    sampled = out.pop("decoding.sampled", 0.0)
    candidates = out.pop("decoding.candidates", 0.0)
    out["decoding.mean_candidates"] = candidates / sampled if sampled else 0.0
    return out
