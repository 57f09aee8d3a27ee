"""The min-cut solver reproduces a pinned corpus of ranks and certificates.

tests/data/pinned_certificates.json holds 720 seeded queries answered by
the tuple-keyed flow network that preceded the int-indexed one (see
tests/data/make_pinned_certificates.py).  The minimal source-side minimum
cut is unique, so any correct max-flow gives the same certificate.
"""

import json
from pathlib import Path

from treksep.separation import SeparationTriple, is_t_separating, min_t_separator
from treksep.verify import random_graph

CORPUS = Path(__file__).parent / "data" / "pinned_certificates.json"


def _corpus():
    data = json.loads(CORPUS.read_text())
    return [dict(zip(data["fields"], row)) for row in data["rows"]]


def test_corpus_covers_every_class_and_size():
    rows = _corpus()
    assert len(rows) >= 600
    assert {(r["class"], r["n"]) for r in rows} == {
        (cls, n) for cls in ("DAG", "Undirected", "Mixed") for n in range(2, 10)}


def test_pinned_ranks_and_certificates():
    mismatches = []
    for row in _corpus():
        g = random_graph(row["class"], row["n"], row["graph_seed"], row["density"])
        A, B = row["A"], row["B"]
        res = min_t_separator(g, A, B)
        cert = res.certificate
        got = [res.rank, sorted(cert.c_left), sorted(cert.c_mid), sorted(cert.c_right)]
        if got != [row["rank"], row["cl"], row["cm"], row["cr"]]:
            mismatches.append((row, got))
            continue
        if not is_t_separating(g, A, B, cert):
            mismatches.append((row, "certificate does not separate"))
        members = {"cl": cert.c_left, "cm": cert.c_mid, "cr": cert.c_right}
        for key, level in members.items():
            for v in level:
                weakened = SeparationTriple.of(**{**members, key: level - {v}})
                if is_t_separating(g, A, B, weakened):
                    mismatches.append((row, f"separates without {v} in {key}"))
        triple = SeparationTriple.of(*row["triple"])
        if is_t_separating(g, A, B, triple) != row["triple_separates"]:
            mismatches.append((row, "triple verdict"))
    assert not mismatches, mismatches[:5]
