"""Compare two files of benchmark records, metric by metric and workload by workload.

Each file is what `run.py --out FILE` appended: one JSON record per run.
For every end-to-end metric and workload figure present on both sides it
prints each side's median and quartiles and a verdict:

- better: the second side wins at least nine tenths of the paired runs
  and the medians differ by more than the first side's quartile spread;
- unresolved: the run-to-run spread is wider than the bound, unless
  every run of the second side reads better than every run of the first;
- worse: the second side's median is worse by more than the bound;
- unchanged: otherwise.

Bounds come from BENCHMARK.json.  A workload figure that is not an
end-to-end metric there takes the bound of `iteration_s`, the time it is
part of.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict[str, list[dict]]:
    """Untraced records by workload, in seed order."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    by_workload[record["workload"]].append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["seed"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(before)
    a1, a_med, a3 = quartiles(after)
    pairs = list(zip(before, after))
    wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(a_med - b_med) > b3 - b1:
        return "better"
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0, (a3 - a1) / abs(a_med) if a_med else 0.0)
    if spread > bound:
        all_better = all(sign * (a - b) > 0 for a in after for b in before)
        return "unchanged" if all_better else "unresolved"
    worse_by = sign * (b_med - a_med) / abs(b_med) if b_med else 0.0
    return "worse" if worse_by > bound else "unchanged"


def _series(records: list[dict]) -> dict[str, tuple[list[float], str, str]]:
    """metric name -> (values, unit, better) over the records."""
    out: dict[str, tuple[list[float], str, str]] = {}
    for record in records:
        entries = {k: {"value": v, "unit": "", "better": ""} for k, v in record["metrics"].items()}
        entries.update(record.get("figures", {}))
        for name, entry in entries.items():
            values, unit, better = out.get(name, ([], entry["unit"], entry["better"]))
            values.append(entry["value"])
            out[name] = (values, unit, better)
    return out


def main(before_path, after_path, benchmark_path) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    default_bound = spec["iteration_s"]["bound"]
    before, after = load(before_path), load(after_path)
    print(f"{'workload':13s} {'metric':28s} {'before q1/med/q3':>32s} {'after q1/med/q3':>32s}  verdict")
    for workload in sorted(set(before) & set(after)):
        b_series, a_series = _series(before[workload]), _series(after[workload])
        for name in sorted(set(b_series) & set(a_series)):
            b_values, unit, better = b_series[name]
            a_values = a_series[name][0]
            if name in spec:
                unit, better, bound = spec[name]["unit"], spec[name]["better"], spec[name]["bound"]
            else:
                bound = default_bound
            b_q, a_q = quartiles(b_values), quartiles(a_values)
            print(
                f"{workload:13s} {name:28s} "
                f"{'/'.join(f'{q:.4g}' for q in b_q):>32s} "
                f"{'/'.join(f'{q:.4g}' for q in a_q):>32s}  "
                f"{verdict(b_values, a_values, better, bound)} "
                f"({unit}, n={len(b_values)}/{len(a_values)}, bound {bound:g})"
            )
    return 0
