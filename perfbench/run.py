"""The artrip benchmark: run one workload, print every metric, end with a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

Run from the root of a checkout; the package is imported from its `src`.
With `--trace 0` the last line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics of a
separate traced run.  `--out` appends the full record (figures per
workload, machine facts, host probe, digests) to a JSON-lines file that
`--compare` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# host-probe time at reference speed: host-adjusted timings are seconds at this speed
REFERENCE_PROBE_MS = 16.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-ups timed per run; setup_s is their median
SETUPS = {"train_study": 9, "decode_mix": 3, "cli_pipeline": 5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "iteration_s": "s",
    "eval_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _required_files() -> list[Path]:
    return [
        ROOT / "src" / "artrip" / "__init__.py",
        ROOT / "data" / "glasgow" / "POI-glasgow.csv",
        ROOT / "data" / "glasgow" / "userVisits-glasgow.csv",
    ]


def _import_program():
    """Put the checkout's package first on the path and import the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    return spans, workloads


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }


def host_probe_ms() -> float:
    """Fixed work of the kind artrip does: interpreter loops and numpy calls on
    small arrays.  A slow host shows as a larger number."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    x = np.ones(32)
    for _ in range(3000):
        x = np.tanh(x * 0.5 + 0.1)
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Probes the host's speed between pieces of work.

    Each piece of work, from one mark to the next, is scaled by
    REFERENCE_PROBE_MS over the mean of the two probes around it, which
    turns its time into seconds at reference speed.  On a shared host whose
    speed drifts between and within processes this removes most of the
    run-to-run spread; raw times are kept beside.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.adjusted_s = 0.0
        self.probe_s = 0.0
        self._probe: float | None = None
        self._since = 0.0

    def mark(self) -> float:
        """Close the piece of work since the last mark; return its scale."""
        end = time.perf_counter()
        probe = host_probe_ms()
        factor = 1.0
        if self._probe is not None:
            factor = REFERENCE_PROBE_MS / ((self._probe + probe) / 2)
            self.raw_s += end - self._since
            self.adjusted_s += (end - self._since) * factor
        self._probe = probe
        self._since = time.perf_counter()
        self.probe_s += self._since - end
        return factor

    def started(self) -> None:
        if self._probe is None:
            self.mark()


@dataclass
class Iteration:
    raw_s: float
    seconds: float
    figures: dict
    digest: str
    window: tuple[float, float]
    probe_s: float


def timed_setup(workload, clock: HostClock) -> tuple[float, float]:
    """Raw and host-adjusted seconds of one set-up."""
    workload.mark = clock.mark
    clock.started()
    raw, adjusted = clock.raw_s, clock.adjusted_s
    workload.setup()
    clock.mark()
    return clock.raw_s - raw, clock.adjusted_s - adjusted


def measure(workload, clock: HostClock, seconds: float) -> list[Iteration]:
    """Iterate until `seconds` have passed and the workload has its samples."""
    workload.mark = clock.mark
    clock.started()
    out: list[Iteration] = []
    start = time.perf_counter()
    # a failing workload that never collects its samples still stops
    hard_stop = start + 2 * seconds + 30
    while True:
        now = time.perf_counter()
        if out and ((now >= start + seconds and workload.enough()) or now >= hard_stop):
            break
        raw, adjusted, probed = clock.raw_s, clock.adjusted_s, clock.probe_s
        t0 = time.perf_counter()
        figures, digest = workload.iterate()
        t1 = time.perf_counter()
        out.append(
            Iteration(
                clock.raw_s - raw,
                clock.adjusted_s - adjusted,
                figures,
                digest,
                (t0, t1),
                clock.probe_s - probed,
            )
        )
    return out


def _median_rate(its: list[Iteration], count: str, seconds: str) -> float:
    rates = [it.figures[count] / it.figures[seconds] for it in its if it.figures.get(seconds)]
    return statistics.median(rates) if rates else 0.0


def workload_figures(name: str, its: list[Iteration]) -> dict:
    """The figures a user of this workload reads: (value, unit, better).

    The workloads report host-adjusted times, like the end-to-end metrics.
    """
    out = {}
    median_s = statistics.median(it.seconds for it in its)
    if name == "train_study":
        out["study_s"] = (median_s, "s", "lower")
        for arch in ("one_shot", "recurrent"):
            rate = _median_rate(its, f"{arch}_steps", f"{arch}_train_s")
            out[f"train_{arch}_steps_per_s"] = (rate, "1/s", "higher")
    elif name == "decode_mix":
        lat = sorted(1e3 * x for it in its for x in it.figures["latencies"])
        out["recommend_p50_ms"] = (statistics.median(lat), "ms", "lower")
        cut = statistics.quantiles(lat, n=100)[98] if len(lat) >= 2 else lat[-1]
        out["recommend_p99_ms"] = (cut, "ms", "lower")
        out["recommend_samples"] = (len(lat), "count", "higher")
    else:
        out["pipeline_s"] = (median_s, "s", "lower")
        for key in sorted(its[0].figures):
            if key.startswith("cli_"):
                out[key] = (statistics.median(it.figures[key] for it in its), "s", "lower")
    out["eval_queries_per_s"] = (_median_rate(its, "eval_queries", "eval_s"), "1/s", "higher")
    out["iteration_raw_s"] = (statistics.median(it.raw_s for it in its), "s", "lower")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record."""
    spans, workloads = _import_program()
    cls = workloads.WORKLOADS[name]
    tally = workloads.Tally()
    clock = HostClock()
    work = WORK / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)

    def make(label: str):
        folder = work / label
        folder.mkdir()
        return cls(ROOT, seed, tally, folder, tiny=tiny)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        probe_start = host_probe_ms()
        setups = []
        for i in range(1 if trace or tiny else SETUPS[name]):
            workload = make(f"setup-{i}")
            setups.append(timed_setup(workload, clock))
        if trace:
            record["per_layer"] = traced(spans, workload, make("traced"), clock, seconds, work)
        else:
            its = measure(workload, clock, seconds)
        probe_end = host_probe_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        machine=machine_facts(),
        host_probe_ms=[probe_start, probe_end],
    )
    if trace:
        return record
    figs = workload_figures(name, its)
    figs["setup_raw_s"] = (statistics.median(raw for raw, _ in setups), "s", "lower")
    record["metrics"] = {
        "setup_s": statistics.median(adjusted for _, adjusted in setups),
        "iteration_s": statistics.median(it.seconds for it in its),
        "eval_queries_per_s": figs["eval_queries_per_s"][0],
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    record["figures"] = {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in figs.items()}
    record["iterations"] = len(its)
    record["samples"] = {
        "setup_raw_s": [raw for raw, _ in setups],
        "setup_s": [adjusted for _, adjusted in setups],
        "iteration_raw_s": [it.raw_s for it in its],
        "iteration_s": [it.seconds for it in its],
    }
    digests = {it.digest for it in its}
    record["digest"] = {"first": its[0].digest, "stable": len(digests) == 1}
    return record


def traced(spans, untraced, workload, clock: HostClock, seconds: float, work: Path) -> dict:
    """Untraced then traced iterations; per-layer figures of one set-up plus one iteration.

    Span times are raw; the tracing overhead compares host-adjusted times.
    """
    plain = measure(untraced, clock, seconds / 2)
    rec = spans.Recorder()
    workload.recorder = rec
    with spans.Patched(rec):
        workload.setup()
        setup_rec = rec.take()
        its = measure(workload, clock, seconds / 2)
    iter_tree = spans.SpanTree.of(rec)
    setup_figs = spans.layer_figures(spans.SpanTree.of(setup_rec), setup_rec.counters)
    iter_figs = spans.layer_figures(iter_tree, rec.counters)
    n = len(its)
    combined = {key: setup_figs[key] + iter_figs[key] / n for key in setup_figs}
    out = spans.finish_figures(combined)
    # the traced CLI starts one extra interpreter per iteration to time start-up
    factor = sum(it.seconds for it in its) / sum(it.raw_s for it in its)
    startup = factor * iter_figs["cli.startup_s"] / n
    traced_s = statistics.median(it.seconds for it in its)
    out["trace.overhead_s"] = traced_s - startup - statistics.median(it.seconds for it in plain)
    # probes between pieces of work are the benchmark's, not the program's
    wall = sum(it.window[1] - it.window[0] - it.probe_s for it in its)
    out["trace.coverage"] = iter_tree.covered_s([it.window for it in its]) / wall
    setup_rec.write(work.parent / f"spans-{work.name}.jsonl.gz", "setup")
    rec.write(work.parent / f"spans-{work.name}.jsonl.gz", "iterations")
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_us_per_step"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in record["metrics"].items()}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict) -> None:
    m = record["machine"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']}  trace {record['trace']}"
    )
    print(
        f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, numpy {m['numpy']}, "
        f"blas {m['blas']}, threads {m['threads']}"
    )
    start, end = record["host_probe_ms"]
    print(f"host probe: {start:.2f} ms at start, {end:.2f} ms at end")
    if record["trace"]:
        for key, value in record["per_layer"].items():
            print(f"  {key:34s} {value:14.6g} {per_layer_unit(key)}")
    else:
        print(f"end to end (iterations: {record['iterations']}):")
        for key, value in record["metrics"].items():
            print(f"  {key:34s} {value:14.6g} {END_TO_END_UNITS[key]}")
        print("workload figures:")
        for key, fig in record["figures"].items():
            print(f"  {key:34s} {fig['value']:14.6g} {fig['unit']}")
        digest = record["digest"]
        verdict = "stable" if digest["stable"] else "DIFFERS BETWEEN ITERATIONS"
        print(f"digest: sha256 {digest['first']} ({verdict})")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"fail_ratio: {record['failed']}/{record['attempted']} = {ratio:.6g}")
    for problem in record["problems"]:
        print(f"  failed: {problem}")


def main(argv=None) -> int:
    # one BLAS/OpenMP thread for this process and the commands it starts;
    # set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the full record as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    missing = [str(p) for p in _required_files() if not p.is_file()]
    if missing:
        print(f"error: not a checkout of artrip, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
