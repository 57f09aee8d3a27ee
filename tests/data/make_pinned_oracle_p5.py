"""Write pinned_oracle_p5.json: oracle answers mod 5 on seeded queries.

Each row is one query on a `verify.random_graph` instance (DAG, undirected
or mixed, n from 2 to 24) with the answers of `generic_rank_oracle` at
PRIME = 5 for one trial and for five.  Mod 5 a trial often falls short of
the generic rank, so an answer depends on every parameter the trials draw
and on the exact rank of each trial's matrix.  The committed file was
written by the oracle that eliminated each trial's matrix without a plan,
so tests/test_algebra.py pins the current oracle's draws and ranks to it.

    PYTHONPATH=src python tests/data/make_pinned_oracle_p5.py
"""

import json
import random
from pathlib import Path

from treksep import algebra
from treksep.graph import DAG, MIXED, UNDIRECTED
from treksep.verify import random_graph

FIELDS = ["class", "n", "graph_seed", "density", "A", "B", "seed", "trials_1", "trials_5"]
QUERIES_PER_CLASS = 60


def _subset(rng, n, hi):
    return sorted(rng.sample(range(1, n + 1), rng.randint(1, min(hi, n))))


def rows():
    rng = random.Random("treksep/pinned-oracle-p5")
    for cls in (DAG, UNDIRECTED, MIXED):
        for _ in range(QUERIES_PER_CLASS):
            n = rng.randint(2, 24)
            graph_seed = rng.getrandbits(32)
            density = rng.choice((0.1, 0.25, 0.5))
            g = random_graph(cls, n, graph_seed, density)
            A, B = _subset(rng, n, 6), _subset(rng, n, 6)
            seed = rng.getrandbits(32)
            yield [cls, n, graph_seed, density, A, B, seed,
                   algebra.generic_rank_oracle(g, A, B, seed, 1),
                   algebra.generic_rank_oracle(g, A, B, seed, 5)]


def main():
    algebra.PRIME = 5
    out = Path(__file__).with_name("pinned_oracle_p5.json")
    lines = ",\n".join(json.dumps(row) for row in rows())
    out.write_text(f'{{"fields": {json.dumps(FIELDS)},\n"rows": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
