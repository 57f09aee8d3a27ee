"""treksep benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload rank_large --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass (plus an untraced pass over the same
inputs, to give the tracing overhead).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Any wrong
answer makes the run exit 1.  `--workload all` runs every workload, each in
a fresh process.  The library is imported from the `src/` directory next to
this one (or --src); without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is measured in fresh processes until there are at least this many
# samples covering at least this much time (import alone takes ~60 ms).
SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_SAMPLES = 25
WORKLOAD_NAMES = tuple(w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])

_FIGURE_UNITS = {"calls": "count", "self_s": "s", "wall_s": "s"}
_COUNTER_UNITS = {"separation.repeat_graph_share": "ratio",
                  "algebra.sigma_bits_max": "bits"}
TRACE_METRICS = (("trace.spans", "count"), ("trace.wall_s", "s"),
                 ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"))


def load_layers() -> list:
    with open(HERE / "layers.json") as f:
        return json.load(f)["layers"]


def per_layer_metrics(layers) -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in layers:
        for name in layer["wrap"]:
            out += [(f"{name}.{fig}", _FIGURE_UNITS[fig]) for fig in layer["report"]]
        out += [(name, _COUNTER_UNITS.get(name, "count")) for name in layer["counters"]]
    return out + list(TRACE_METRICS)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(src: Path, texts) -> float:
    """Median scaled CPU time over fresh processes of `import treksep` plus parsing every text."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"setup-texts-{os.getpid()}.txt"
    path.write_text("\0".join(texts))
    try:
        samples = []
        while len(samples) < SETUP_MAX_SAMPLES and (
                len(samples) < SETUP_MIN_SAMPLES or sum(samples) < SETUP_MIN_SECONDS):
            done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src),
                                   str(path)], capture_output=True, text=True, check=True,
                                  timeout=170)
            cpu_s, reference_s = map(float, done.stdout.split())
            samples.append(cpu_s * reference.REFERENCE_S / reference_s)
    finally:
        path.unlink()
    return statistics.median(samples)


def _percentile_ms(latencies, k) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=100, method="inclusive")[k - 1] * 1000


def end_to_end(outcome, setup_s) -> dict:
    """Times are CPU times scaled by the reference loop (see reference.py)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = reference.scale(outcome.reference)
    run_s = outcome.cpu_s * factor
    return {"setup_s": _metric(setup_s, "s"),
            "run_s": _metric(run_s, "s"),
            "ops_per_s": _metric(outcome.attempted / run_s, "1/s"),
            "op_p50_ms": _metric(_percentile_ms(outcome.latencies, 50) * factor, "ms"),
            "op_p90_ms": _metric(_percentile_ms(outcome.latencies, 90) * factor, "ms"),
            "peak_rss_mib": _metric(peak, "MiB")}


def per_layer(tracer, layers, untraced, traced) -> dict:
    figures = tracer.per_name()
    counters = dict(tracer.counters)
    counters["separation.repeat_graph_share"] = tracer.repeat_graph_share()
    counters["algebra.sigma_bits_max"] = tracer.sigma_bits_max
    counters["trace.spans"] = len(tracer.span_name)
    counters["trace.wall_s"] = traced.wall_s
    counters["trace.untraced_wall_s"] = untraced.wall_s
    counters["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    out = {}
    for name, unit in per_layer_metrics(layers):
        base, _, fig = name.rpartition(".")
        if base in figures:
            calls, self_s, wall_s = figures[base]
            value = {"calls": calls, "self_s": self_s, "wall_s": wall_s}[fig]
        else:
            value = counters.get(name, 0)
        out[name] = _metric(value, unit)
    return out


def environment(src: Path) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "src_lines": lines}


def run_one(args, src: Path) -> dict:
    import harness
    from tracer import Tracer

    inputs = harness.make_inputs(args.workload, args.seed, args.seconds)
    shape = {"workload": args.workload, **harness.input_shape(inputs), **environment(src)}
    if args.trace:
        layers = load_layers()
        untraced = harness.run(args.workload, inputs)
        tracer = Tracer([n for layer in layers for n in layer["wrap"]])
        traced = harness.run(args.workload, inputs, tracer)
        outcomes = (untraced, traced)
        metrics = per_layer(tracer, layers, untraced, traced)
        shape["separation.repeat_graph_share"] = tracer.repeat_graph_share()
        shape["separation.graphs_queried"] = dict(tracer.graph_shape)
        shape["separation.set_sizes"] = {f"{side}{size}": count for (side, size), count
                                         in sorted(tracer.set_sizes.items())}
        if tracer.missing:
            shape["untraced_names"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.tsv")
    else:
        setup_s = measure_setup(src, harness.graph_texts(inputs))
        outcome = harness.run(args.workload, inputs)
        outcomes = (outcome,)
        metrics = end_to_end(outcome, setup_s)
    failures = [f for o in outcomes for f in o.failures]
    result = {"correct": not any(o.failed for o in outcomes),
              "attempted": sum(o.attempted for o in outcomes),
              "failed": sum(o.failed for o in outcomes),
              "metrics": metrics}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {result['failed'] / result['attempted']:.6g}")
    clocks = {"wall_s": outcomes[-1].wall_s, "cpu_s": outcomes[-1].cpu_s,
              "scale": reference.scale(outcomes[-1].reference)}
    print(f"{args.workload} unscaled: " + json.dumps(clocks))
    print("shape: " + json.dumps(shape, sort_keys=True))
    for failure in failures:
        print("failure: " + json.dumps(failure, sort_keys=True, default=sorted))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "unscaled": clocks, "shape": shape, "result": result}) + "\n")
    return result


def run_all(args, src: Path) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--src", str(src)]
        if args.record:
            cmd += ["--record", args.record]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"{workload}: run failed with exit code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="sizes the work: about this long at the defining commit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the treksep package (default: ../src)")
    p.add_argument("--record", help="append the run, with its input shape, to this JSONL file")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = args.src.resolve()
    if not (src / "treksep" / "__init__.py").is_file():
        print(f"error: no treksep package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import treksep
    if Path(treksep.__file__).resolve().parent != src / "treksep":
        print(f"error: imported treksep from {treksep.__file__}, not {src}", file=sys.stderr)
        return 2
    result = run_all(args, src) if args.workload == "all" else run_one(args, src)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
