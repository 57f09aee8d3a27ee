"""Write pinned_certificates.json: seeded min-cut queries with their answers.

Each row is one query on a `verify.random_graph` instance (DAG, undirected
or mixed, n from 2 to 9) together with the rank and the (C_L, C_M, C_R)
certificate that `min_t_separator` returned, plus one random triple and the
`is_t_separating` verdict on it.  The committed file was written by the
tuple-keyed flow network that preceded the int-indexed one, so
tests/test_pinned_certificates.py pins the current solver to those answers.

    PYTHONPATH=src python tests/data/make_pinned_certificates.py
"""

import json
import random
from pathlib import Path

from treksep.graph import DAG, MIXED, UNDIRECTED
from treksep.separation import SeparationTriple, is_t_separating, min_t_separator
from treksep.verify import random_graph

FIELDS = ["class", "n", "graph_seed", "density", "A", "B", "rank",
          "cl", "cm", "cr", "triple", "triple_separates"]
QUERIES_PER_SHAPE = 30


def _subset(rng, n, lo, hi):
    return sorted(rng.sample(range(1, n + 1), rng.randint(lo, min(hi, n))))


def rows():
    rng = random.Random("treksep/pinned-certificates")
    for cls in (DAG, UNDIRECTED, MIXED):
        for n in range(2, 10):
            for _ in range(QUERIES_PER_SHAPE):
                seed = rng.getrandbits(32)
                density = rng.choice((0.3, 0.5, 0.7))
                g = random_graph(cls, n, seed, density)
                A = _subset(rng, n, 1, 4)
                B = _subset(rng, n, 1, 4)
                res = min_t_separator(g, A, B)
                cert = res.certificate
                triple = [_subset(rng, n, 0, 2) for _ in range(3)]
                verdict = is_t_separating(g, A, B, SeparationTriple.of(*triple))
                yield [cls, n, seed, density, A, B, res.rank,
                       sorted(cert.c_left), sorted(cert.c_mid),
                       sorted(cert.c_right), triple, verdict]


def main():
    out = Path(__file__).with_name("pinned_certificates.json")
    lines = ",\n".join(json.dumps(row) for row in rows())
    out.write_text(f'{{"fields": {json.dumps(FIELDS)},\n"rows": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
