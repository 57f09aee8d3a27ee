"""Compare two result sets of the benchmark, or summarise one.

    python3 perfbench/compare.py a.jsonl b.jsonl   # parent, change
    python3 perfbench/compare.py a.jsonl           # spread of one set

For each workload and metric it prints each side's median and quartiles.
With two sets it classifies the change, pairing the runs in file order
(collect.py writes alternating pairs):

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (per-layer metrics have no bound: worse
  when the parent wins nine tenths of the pairs by more than its spread);
- unresolved: neither, while the parent's spread is wider than the bound,
  unless every run of the change reads better than every run of the parent;
- unchanged: otherwise.

With one set it prints each metric's spread (interquartile distance over
median) next to its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path) -> dict:
    """{(workload, metric): [values in file order]}."""
    out = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def classify(a, b, better, bound) -> str:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    gain = sign * (med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > q3 - q1:
            return "worse"
        return "unchanged" if med_a == med_b else "unresolved"
    if -gain > bound * abs(med_a):
        return "worse"
    every_run_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (q3 - q1) > bound * abs(med_a) and not every_run_better:
        return "unresolved"
    return "unchanged"


def metric_specs() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    sets = [load(p) for p in argv]
    keys = sorted(set(sets[0]).intersection(*sets[1:]))
    for workload, name in keys:
        better, bound = specs.get(name, ("lower", None))
        values = [s[(workload, name)] for s in sets]
        cells = " | ".join(_fmt(v) for v in values)
        if len(sets) == 1:
            limit = "" if bound is None else f" bound {bound:.3g}"
            verdict = f"spread {spread(values[0]):.3f}{limit}"
        else:
            verdict = classify(values[0], values[1], better, bound)
        print(f"{workload:12s} {name:44s} {cells} | {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
