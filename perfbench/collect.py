"""Make result sets: run the benchmark over several seeds on one or two trees.

    python3 perfbench/collect.py --out DIR --runs 10 PARENT_TREE [CHANGE_TREE]

A tree is a checkout holding `src/treksep`.  Both trees run this copy of the
benchmark, with the same arguments.  Run i uses seed FIRST_SEED + i; with
two trees the side that runs first alternates from one run to the next, so
the runs form alternating pairs.  Tree k's runs are appended to DIR/<k>.jsonl
(a.jsonl, b.jsonl), the format `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs="+", type=Path, help="one or two checkouts")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append", choices=names,
                   help="repeatable; default: every workload")
    args = p.parse_args(argv)
    if len(args.trees) > 2:
        p.error("give one or two trees")
    args.out.mkdir(parents=True, exist_ok=True)
    sides = [(tree.resolve() / "src", args.out / f"{'ab'[k]}.jsonl")
             for k, tree in enumerate(args.trees)]
    status = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in args.workload or names:
            for src, record in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--src", str(src),
                       "--record", str(record)]
                done = subprocess.run(cmd, capture_output=True, text=True)
                print(f"{record.stem} {workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
