import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import treksep
from treksep import algebra, cli, graph, separation, verify
from treksep.cli import _build_parser, main
from treksep.instances import CHOKE_TEXT, SPIDER_TEXT


@pytest.fixture
def choke_file(tmp_path):
    path = tmp_path / "choke.graph"
    path.write_text(CHOKE_TEXT)
    return str(path)


@pytest.fixture
def spider_file(tmp_path):
    path = tmp_path / "spider.graph"
    path.write_text(SPIDER_TEXT)
    return str(path)


@pytest.mark.parametrize("argv", [["validate"], ["rank", "--A", "1", "--B", "2"]])
def test_vertex_count_above_limit_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graph, "_build", no_build)  # make_graph and parse_graph build here
    path = tmp_path / "huge.graph"
    path.write_text(f"v {10**18}\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: line 1: vertex count {10**18} "
                            "exceeds the limit of 1000000\n")


def test_rank_skips_empty_id_tokens(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,3", "--B", "4,5", "--output", "json"]) == 0
    plain = capsys.readouterr()
    assert main(["rank", choke_file, "--A", "1,,3", "--B", " 4 , 5 ", "--output", "json"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("output, digest", [
    ("text", "2bfc80c95f22645fa32205a8dd525a9ed5a03dd7fc5a3b1fa2c4b0298f9fcb11"),
    ("json", "770f866a7c1a7043d70888dfb5e3182acd796c3f96dc259e61b94da4e1262d89"),
], ids=["text", "json"])
def test_treks_dense_listing_is_pinned(tmp_path, capsys, output, digest):
    # the complete DAG on 12 vertices: 29,525 simple treks between 11 and 12,
    # out of 699,051 left/right path pairs that meet; the digests pin the
    # bytes of both outputs
    path = tmp_path / "dense.graph"
    path.write_text("v 12\n" + "".join(f"e {a} -> {b}\n" for a in range(1, 13)
                                        for b in range(a + 1, 13)))
    assert main(["treks", str(path), "--i", "11", "--j", "12", "--output", output]) == 0
    out = capsys.readouterr().out
    if output == "json":
        assert json.loads(out)["count"] == 29525
    else:
        assert out.endswith("\n29525 simple trek(s)\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_small_run(capsys):
    assert main(["verify", "--graphs", "3", "--max-vertices", "4",
                 "--seed", "1", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 1
    assert payload["failures"] == []
    assert payload["checks"]["canonical_instances"]["failures"] == 0


def test_verify_text_lists_each_criterion_in_order(capsys):
    assert main(["verify", "--graphs", "1", "--max-vertices", "4", "--seed", "1"]) == 0
    cfg = verify.SuiteConfig(seed=1, max_vertices=4, graph_count=1)
    assert capsys.readouterr().out.splitlines() == ["seed 1"] + [
        f"{result.name}: {result.passes} passed, 0 failed"
        for result in (criterion(cfg) for criterion in verify.ALL_CRITERIA)]


def test_verify_text_writes_each_failure_as_json(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_menger_ok", lambda *args: False)
    assert main(["verify", "--graphs", "1", "--max-vertices", "4", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert fails and lines[1 + len(verify.ALL_CRITERIA):] == fails
    assert all("check" in json.loads(line[len("FAIL "):]) for line in fails)


def test_verify_defaults_are_the_suite_config_defaults():
    args = _build_parser().parse_args(["verify"])
    assert verify.SuiteConfig(seed=args.seed, max_vertices=args.max_vertices,
                              graph_count=args.graphs,
                              trials_per_instance=args.trials) == verify.SuiteConfig()
    args = _build_parser().parse_args(["rank", "g", "--A", "1", "--B", "2"])
    assert (args.seed, args.trials) == (verify.SuiteConfig().seed,
                                        verify.SuiteConfig().trials_per_instance)


@pytest.mark.parametrize("argv", [["-h"], ["rank", "-h"], ["verify", "--help"]])
def test_help_still_prints_usage(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: treksep") and captured.err == ""


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/g.graph"]) == 2


def test_validate_parse_error(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("e 1 -> 2\n")
    assert main(["validate", str(path)]) == 2


def test_rank_bad_ids(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,9", "--B", "4"]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["text", "json"])
def test_dsep_conditioning_cap_exits_4(tmp_path, capsys, output):
    empty = tmp_path / "empty.graph"
    empty.write_text("v 23\n")
    assert main(["dsep", str(empty), "--A", "1", "--B", "2",
                 "--C", ",".join(map(str, range(3, 24))), "--output", output]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: partition search over 21 conditioning "
                            "vertices exceeds the cap of 20\n")


def test_treks_cap(choke_file, capsys):
    assert main(["treks", choke_file, "--i", "1", "--j", "4", "--cap", "1"]) == 4


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_treks_cap_below_one_is_usage_error(choke_file, capsys, cap, output):
    assert main(["treks", choke_file, "--i", "1", "--j", "4",
                 "--cap", cap, "--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cap must be at least 1\n"


def test_rank_oracle_zero_trials_is_usage_error(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,2", "--B", "5",
                 "--oracle", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials must be at least 1\n"


@pytest.mark.parametrize("flags, message", [
    (["--graphs", "0"], "--graphs must be at least 1"),
    (["--max-vertices", "1"], "--max-vertices must be at least 4"),
    (["--trials", "0"], "--trials must be at least 1"),
    (["--max-vertices", "2"], "--max-vertices must be at least 4"),
    (["--max-vertices", "3"], "--max-vertices must be at least 4"),
    (["--max-vertices", "17"], "--max-vertices must be at most 16"),
    (["--max-vertices", "1000000000"], "--max-vertices must be at most 16"),
    (["--trials", "1001"], "--trials must be at most 1000"),
    (["--graphs", "1", "--trials", "1000000000"], "--trials must be at most 1000"),
    (["--graphs", "100001"], "--graphs must be at most 100000"),
    (["--graphs", "1000000000"], "--graphs must be at most 100000"),
    (["--graphs", "100000", "--max-vertices", "16"],
     "--graphs at --max-vertices 16 must be at most 1977"),
    (["--graphs", "1978", "--max-vertices", "16"],
     "--graphs at --max-vertices 16 must be at most 1977"),
    (["--graphs", "53978", "--max-vertices", "7"],
     "--graphs at --max-vertices 7 must be at most 53977"),
])
def test_verify_bad_counts_are_usage_errors(flags, message, capsys):
    assert main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_internal_error_exits_3(choke_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise separation.InternalError("certificate size 0 differs from flow value 1")

    monkeypatch.setattr(separation, "min_t_separator", broken)
    assert main(["rank", choke_file, "--A", "1", "--B", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: certificate size 0 differs "
                            "from flow value 1\n")


@pytest.mark.parametrize("output", ["text", "json"])
def test_rank_oracle_disagreement_exits_3(spider_file, capsys, monkeypatch, output):
    # an oracle that finds one more than the min-cut: the answer is printed,
    # with the disagreement, and the exit code is 3
    real = algebra.generic_rank_oracle
    monkeypatch.setattr(algebra, "generic_rank_oracle", lambda *args: real(*args) + 1)
    assert main(["rank", spider_file, "--A", "1,2,3", "--B", "4,5,6",
                 "--oracle", "--output", output]) == cli.EXIT_DISAGREE == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    if output == "json":
        payload = json.loads(captured.out)
        assert (payload["rank"], payload["oracle_rank"], payload["agrees"]) == (2, 3, False)
    else:
        assert captured.out.splitlines()[-1] == \
            "oracle rank 3 (seed 31415, trials 5): DISAGREES"


@pytest.mark.parametrize("output", ["text", "json"])
def test_dsep_disagreement_exits_3(tmp_path, capsys, monkeypatch, output):
    # a partition search that answers the opposite of Bayes-ball
    chain = tmp_path / "chain.graph"
    chain.write_text("v 3\ne 1 -> 2\ne 2 -> 3\n")
    real = separation.d_sep_via_t_sep
    monkeypatch.setattr(separation, "d_sep_via_t_sep", lambda *args: not real(*args))
    assert main(["dsep", str(chain), "--A", "1", "--B", "3", "--C", "2",
                 "--output", output]) == cli.EXIT_DISAGREE == 3
    captured = capsys.readouterr()
    if output == "json":
        assert json.loads(captured.out) == {"d_separates": True, "via_t_separation": False}
    else:
        assert captured.out == "yes/no\n"
    assert captured.err == "error: the two d-separation algorithms disagree\n"


# `python -m treksep ARGS` with the address space capped at 150 MB in this
# process alone, as `ulimit -v 150000` caps a shell's child
_CAPPED_MEMORY = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (150_000 * 1024,) * 2)
runpy.run_module("treksep", run_name="__main__")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS bounds the address space on Linux only")
def test_memory_exhausted_exits_4_with_one_line(tmp_path):
    # 10^6 vertices need more than 150 MB: one stderr line and the
    # resource-limit code, not a traceback and exit 1, the code for "no"
    path = tmp_path / "million.graph"
    path.write_text("v 1000000\ne 1 -> 2\n")
    src = str(Path(treksep.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _CAPPED_MEMORY, "rank", str(path),
                           "--A", "1", "--B", "2"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == cli.EXIT_CAP == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == "error: out of memory\n"


@pytest.mark.parametrize("exists, code", [(True, 0), (False, 2)])
def test_python_m_treksep(choke_file, tmp_path, exists, code):
    src = str(Path(treksep.__file__).resolve().parents[1])
    path = choke_file if exists else str(tmp_path / "missing.graph")
    done = subprocess.run([sys.executable, "-m", "treksep", "validate", path],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == code, done.stderr
    assert done.stdout == ""
    assert (done.stderr == "") == exists


@pytest.mark.parametrize("argv", [
    ["treks", "--i", "1", "--j", "5"],
    ["treks", "--i", "1", "--j", "5", "--output", "json"],
    ["rank", "--A", "1,3", "--B", "4,5", "--oracle"],
])
def test_closed_stdout_exits_141_without_a_traceback(choke_file, argv):
    # stdout's reader is gone before anything is written, as after
    # `treksep treks ... | head -n 1` on a long listing: no traceback, no
    # "Exception ignored" line, and the documented exit code.
    src = str(Path(treksep.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "treksep", argv[0], choke_file, *argv[1:]],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_PIPE == 141
    assert done.stderr == ""


# The graph files of the tables below, each {name} a path in a row's argv
# and message.  {missing} names a file that is never written.
_GRAPHS = {
    "choke": CHOKE_TEXT.encode(),
    "spider": SPIDER_TEXT.encode(),
    "bad": b"e 1 -> 2\n",
    "wide": b"v 23\n",
    "cycle": b"v 2\ne 1 -> 2\ne 2 -> 1\n",
    "triangle": b"v 3\ne 1 -> 2\ne 2 -> 3\ne 3 -> 1\n",
    # ids that do not increase along the edges: the cycle 4 -> 6 -> 5 -> 4
    # and the vertex 2 below it are listed, 1 and 3 are not
    "shuffled": b"v 6\ne 6 -> 5\ne 5 -> 4\ne 4 -> 6\ne 4 -> 2\ne 3 -> 1\n",
    "chain": b"v 3\ne 1 -> 2\ne 2 -> 3\n",
    "collider": b"v 3\ne 1 -> 3\ne 2 -> 3\n",
    "mixed": b"v 3\ne 1 -> 2\ne 2 <-> 3\n",
    # an undirected middle 1 -- 2 and a bidirected middle 3 <-> 4
    "middles": b"v 4\ne 1 -- 2\ne 2 -> 3\ne 3 <-> 4\n",
    "binary": b"v 2\ne 1 -> 2\n\xff\n",
    "bom": b"\xef\xbb\xbfv 3\ne 1 -> 2\n",  # UTF-8 with a byte-order mark
    # the complete DAG on 40 vertices: 2^37 directed paths end at 39
    "complete": ("v 40\n" + "".join(f"e {a} -> {b}\n" for a in range(1, 41)
                                    for b in range(a + 1, 41))).encode(),
    # two or three faults each: the edge repeated on line 3 comes first, and
    # with the last two lines swapped the unknown operator does
    "repeat": b"v 3\ne 1 -> 2\ne 1 -> 2\ne 1 -> x\n",
    "first": b"v 3\ne 1 -> 2\ne 1 -> 2\ne 1 => 3\n",
    "swapped": b"v 3\ne 1 -> 2\ne 1 => 3\ne 1 -> 2\n",
    # ids that int() reads as 10, 1 and 11, and the format refuses
    "underscore": b"v 12\ne 1_0 -> 2\n",
    "plus": b"v 3\nu +1\n",
    "arabic": "v 12\ne 1 -> ١١\n".encode(),
}

# One row per run that ends in an error: (subcommand, error class, argv, exit
# code, the one stderr line); stdout stays empty.  "internal" rows run with a
# flow search that raises (tsep runs none: it checks its triple by a search
# of the graph itself).
_ERROR_ROWS = [
    ("validate", "missing file", ["{missing}"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("validate", "parse error", ["{bad}"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("validate", "undecodable file", ["{binary}"], 2,
     "error: cannot read {binary}: 'utf-8' codec can't decode byte 0xff in position 13: "
     "invalid start byte"),
    ("validate", "parse error", ["{repeat}"], 2,
     "error: {repeat}: line 3: duplicate directed edge 1 -> 2"),
    ("validate", "parse error", ["{first}"], 2,
     "error: {first}: line 3: duplicate directed edge 1 -> 2"),
    ("validate", "parse error", ["{swapped}"], 2,
     "error: {swapped}: line 3: unknown edge kind '=>'"),
    ("validate", "malformed id", ["{underscore}"], 2,
     "error: {underscore}: line 2: expected a vertex id, got '1_0'"),
    ("validate", "malformed id", ["{plus}"], 2,
     "error: {plus}: line 2: expected a vertex id, got '+1'"),
    ("validate", "malformed id", ["{arabic}"], 2,
     "error: {arabic}: line 2: expected a vertex id, got '١١'"),
    ("rank", "missing file", ["{missing}", "--A", "1", "--B", "4"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("rank", "parse error", ["{bad}", "--A", "1", "--B", "4"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("rank", "undecodable file", ["{binary}", "--A", "1", "--B", "2"], 2,
     "error: cannot read {binary}: 'utf-8' codec can't decode byte 0xff in position 13: "
     "invalid start byte"),
    ("rank", "out-of-range id", ["{choke}", "--A", "1,9", "--B", "4"], 2,
     "error: --A: vertex 9 out of range [1,5]"),
    ("rank", "empty set", ["{choke}", "--A", "", "--B", "4"], 2,
     "error: --A and --B must be nonempty"),
    ("rank", "malformed id", ["{choke}", "--A", "+1,0_3", "--B", "4,5"], 2,
     "error: --A: '+1' is not a vertex id"),
    ("rank", "malformed id", ["{choke}", "--A", "1_0", "--B", "4"], 2,
     "error: --A: '1_0' is not a vertex id"),
    ("rank", "malformed id", ["{choke}", "--A", "١١", "--B", "4"], 2,
     "error: --A: '١١' is not a vertex id"),
    ("rank", "count below minimum",
     ["{choke}", "--A", "1", "--B", "4", "--oracle", "--trials", "0"], 2,
     "error: --trials must be at least 1"),
    ("rank", "count above maximum",
     ["{choke}", "--A", "1,3", "--B", "4,5", "--oracle", "--trials", "1001"], 2,
     "error: --trials must be at most 1000"),
    ("rank", "count above maximum",
     ["{choke}", "--A", "1,3", "--B", "4,5", "--oracle", "--trials", "1000000000"], 2,
     "error: --trials must be at most 1000"),
    ("rank", "internal error", ["{choke}", "--A", "1", "--B", "4"], 3,
     "internal error: injected"),
    ("tsep", "missing file", ["{missing}", "--A", "1", "--B", "4"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("tsep", "parse error", ["{bad}", "--A", "1", "--B", "4"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("tsep", "out-of-range id", ["{choke}", "--A", "1", "--B", "4", "--CR", "9"], 2,
     "error: --CR: vertex 9 out of range [1,5]"),
    ("tsep", "empty set", ["{choke}", "--A", "1", "--B", ""], 2,
     "error: --A and --B must be nonempty"),
    # tsep checks --A and --B before it parses the triple
    ("tsep", "two faults", ["{choke}", "--A", "", "--B", "4", "--CR", "9"], 2,
     "error: --A and --B must be nonempty"),
    ("dsep", "missing file", ["{missing}", "--A", "1", "--B", "4"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("dsep", "parse error", ["{bad}", "--A", "1", "--B", "4"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("dsep", "not a DAG", ["{mixed}", "--A", "1", "--B", "3"], 2,
     "error: d-separation queries require a purely directed graph"),
    ("dsep", "out-of-range id", ["{choke}", "--A", "1", "--B", "4", "--C", "9"], 2,
     "error: --C: vertex 9 out of range [1,5]"),
    ("dsep", "empty set", ["{choke}", "--A", "1", "--B", ""], 2,
     "error: --A and --B must be nonempty"),
    # dsep parses --C before it checks --A and --B
    ("dsep", "two faults", ["{choke}", "--A", "", "--B", "5", "--C", "99"], 2,
     "error: --C: vertex 99 out of range [1,5]"),
    ("dsep", "overlapping sets", ["{choke}", "--A", "1", "--B", "4", "--C", "4"], 2,
     "error: --A, --B and --C must be pairwise disjoint"),
    ("dsep", "overlapping sets", ["{chain}", "--A", "1", "--B", "1"], 2,
     "error: --A, --B and --C must be pairwise disjoint"),
    ("dsep", "cap exceeded",
     ["{wide}", "--A", "1", "--B", "2", "--C", ",".join(map(str, range(3, 24)))], 4,
     "error: partition search over 21 conditioning vertices exceeds the cap of 20"),
    ("ci", "missing file", ["{missing}", "--A", "1", "--B", "4"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("ci", "parse error", ["{bad}", "--A", "1", "--B", "4"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("ci", "out-of-range id", ["{choke}", "--A", "1", "--B", "9"], 2,
     "error: --B: vertex 9 out of range [1,5]"),
    ("ci", "empty set", ["{choke}", "--A", "", "--B", "4"], 2,
     "error: --A and --B must be nonempty"),
    ("ci", "overlapping sets", ["{choke}", "--A", "1", "--B", "1"], 2,
     "error: --A, --B and --C must be pairwise disjoint"),
    ("ci", "internal error", ["{choke}", "--A", "1", "--B", "4"], 3,
     "internal error: injected"),
    ("treks", "missing file", ["{missing}", "--i", "1", "--j", "4"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("treks", "parse error", ["{bad}", "--i", "1", "--j", "4"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("treks", "out-of-range id", ["{choke}", "--i", "9", "--j", "4"], 2,
     "error: --i: vertex 9 out of range [1,5]"),
    ("treks", "cap exceeded", ["{choke}", "--i", "1", "--j", "4", "--cap", "1"], 4,
     "error: enumeration cap of 1 exceeded by the simple treks between 1 and 4"),
    # the cap bounds the paths listed, not only the treks kept
    ("treks", "cap exceeded", ["{complete}", "--i", "39", "--j", "40", "--cap", "10"], 4,
     "error: enumeration cap of 10 exceeded by the directed paths into 39"),
    ("treks", "count below minimum", ["{choke}", "--i", "1", "--j", "4", "--cap", "0"], 2,
     "error: --cap must be at least 1"),
    ("treks", "count below minimum", ["{choke}", "--i", "1", "--j", "4", "--cap", "-1"], 2,
     "error: --cap must be at least 1"),
    ("verify", "count below minimum", ["--graphs", "0"], 2,
     "error: --graphs must be at least 1"),
    ("verify", "count below minimum", ["--max-vertices", "1"], 2,
     "error: --max-vertices must be at least 4"),
    ("verify", "count below minimum", ["--max-vertices", "2"], 2,
     "error: --max-vertices must be at least 4"),
    ("verify", "count below minimum", ["--max-vertices", "3"], 2,
     "error: --max-vertices must be at least 4"),
    ("verify", "count below minimum", ["--trials", "0"], 2,
     "error: --trials must be at least 1"),
    ("verify", "count above maximum", ["--graphs", "100001"], 2,
     "error: --graphs must be at most 100000"),
    ("verify", "count above maximum", ["--graphs", "1000000000"], 2,
     "error: --graphs must be at most 100000"),
    ("verify", "count above maximum", ["--max-vertices", "17"], 2,
     "error: --max-vertices must be at most 16"),
    ("verify", "count above maximum", ["--max-vertices", "1000000000"], 2,
     "error: --max-vertices must be at most 16"),
    ("verify", "count above maximum", ["--trials", "1001"], 2,
     "error: --trials must be at most 1000"),
    ("verify", "count above maximum", ["--graphs", "1", "--trials", "1000000000"], 2,
     "error: --trials must be at most 1000"),
    # graphs x max-vertices^4 is bounded, beyond each count's own bound
    ("verify", "work above maximum", ["--graphs", "100000", "--max-vertices", "16"], 2,
     "error: --graphs at --max-vertices 16 must be at most 1977"),
    ("verify", "work above maximum", ["--graphs", "1978", "--max-vertices", "16"], 2,
     "error: --graphs at --max-vertices 16 must be at most 1977"),
    ("verify", "work above maximum", ["--graphs", "53978", "--max-vertices", "7"], 2,
     "error: --graphs at --max-vertices 7 must be at most 53977"),
    ("verify", "internal error", ["--graphs", "1", "--max-vertices", "4"], 3,
     "internal error: injected"),
]

# One row per run that ends in an answer: (subcommand, what it shows, argv,
# exit code, the text stdout, the json stdout); stderr stays empty.
_ANSWER_ROWS = [
    ("validate", "valid graph", ["{choke}"], 0, "", None),
    ("validate", "directed cycle", ["{cycle}"], 1, "directed cycle: 1,2\n", None),
    ("validate", "byte-order mark", ["{bom}"], 0, "", None),
    ("validate", "directed cycle", ["{triangle}"], 1, "directed cycle: 1,2,3\n", None),
    ("validate", "shuffled cycle", ["{shuffled}"], 1, "directed cycle: 2,4,5,6\n", None),
    ("rank", "DAG", ["{choke}", "--A", "1,3", "--B", "4,5"], 0,
     "rank 1; C_L={} C_M={} C_R={4}\npair view: C_A={} C_B={4}\n",
     '{"rank": 1, "certificate": {"cl": [], "cm": [], "cr": [4]}}\n'),
    ("rank", "singleton overlap", ["{choke}", "--A", "1", "--B", "1"], 0,
     "rank 1; C_L={1} C_M={} C_R={}\npair view: C_A={1} C_B={}\n",
     '{"rank": 1, "certificate": {"cl": [1], "cm": [], "cr": []}}\n'),
    ("rank", "byte-order mark", ["{bom}", "--A", "1", "--B", "2"], 0,
     "rank 1; C_L={1} C_M={} C_R={}\npair view: C_A={1} C_B={}\n",
     '{"rank": 1, "certificate": {"cl": [1], "cm": [], "cr": []}}\n'),
    ("rank", "oracle", ["{spider}", "--A", "1,2,3", "--B", "4,5,6", "--oracle", "--seed", "5"], 0,
     "rank 2; C_L={3,7} C_M={} C_R={}\npair view: C_A={3,7} C_B={}\n"
     "oracle rank 2 (seed 5, trials 5): agrees\n",
     '{"rank": 2, "certificate": {"cl": [3, 7], "cm": [], "cr": []}, "oracle_rank": 2, '
     '"agrees": true}\n'),
    ("rank", "oracle seed", ["{choke}", "--A", "1", "--B", "5", "--oracle", "--seed", "77"], 0,
     "rank 1; C_L={1} C_M={} C_R={}\npair view: C_A={1} C_B={}\n"
     "oracle rank 1 (seed 77, trials 5): agrees\n",
     '{"rank": 1, "certificate": {"cl": [1], "cm": [], "cr": []}, "oracle_rank": 1, '
     '"agrees": true}\n'),
    ("rank", "oracle trial maximum",
     ["{choke}", "--A", "1,3", "--B", "4,5", "--oracle", "--trials", "1000"], 0,
     "rank 1; C_L={} C_M={} C_R={4}\npair view: C_A={} C_B={4}\n"
     "oracle rank 1 (seed 31415, trials 1000): agrees\n",
     '{"rank": 1, "certificate": {"cl": [], "cm": [], "cr": [4]}, "oracle_rank": 1, '
     '"agrees": true}\n'),
    # at the suite's default seed and trials
    ("rank", "oracle defaults", ["{choke}", "--A", "1,3", "--B", "4,5", "--oracle"], 0,
     "rank 1; C_L={} C_M={} C_R={4}\npair view: C_A={} C_B={4}\n"
     "oracle rank 1 (seed 31415, trials 5): agrees\n",
     '{"rank": 1, "certificate": {"cl": [], "cm": [], "cr": [4]}, "oracle_rank": 1, '
     '"agrees": true}\n'),
    # the hub 7 has parents 3 and 6, ids on either side of it
    ("rank", "hub", ["{spider}", "--A", "1,2,3", "--B", "4,5,6"], 0,
     "rank 2; C_L={3,7} C_M={} C_R={}\npair view: C_A={3,7} C_B={}\n",
     '{"rank": 2, "certificate": {"cl": [3, 7], "cm": [], "cr": []}}\n'),
    # every trek from {1,2} to {3,4} crosses the middle level of 2
    ("rank", "middle level", ["{middles}", "--A", "1,2", "--B", "3,4"], 0,
     "rank 1; C_L={} C_M={2} C_R={}\n",
     '{"rank": 1, "certificate": {"cl": [], "cm": [2], "cr": []}}\n'),
    ("tsep", "separated by C_R", ["{choke}", "--A", "1,3", "--B", "4,5", "--CR", "4"], 0,
     "yes\n", '{"separates": true}\n'),
    ("tsep", "not separated", ["{choke}", "--A", "1,3", "--B", "4,5", "--CR", "5"], 1,
     "no\n", '{"separates": false}\n'),
    ("tsep", "separated by C_L", ["{choke}", "--A", "1,3", "--B", "4,5", "--CL", "1,3"], 0,
     "yes\n", '{"separates": true}\n'),
    ("tsep", "not separated", ["{choke}", "--A", "1,3", "--B", "4,5", "--CM", "4"], 1,
     "no\n", '{"separates": false}\n'),
    ("dsep", "chain", ["{chain}", "--A", "1", "--B", "3", "--C", "2"], 0,
     "yes/yes\n", '{"d_separates": true, "via_t_separation": true}\n'),
    ("dsep", "collider", ["{collider}", "--A", "1", "--B", "2", "--C", "3"], 1,
     "no/no\n", '{"d_separates": false, "via_t_separation": false}\n'),
    ("dsep", "separated", ["{choke}", "--A", "1", "--B", "5", "--C", "4"], 0,
     "yes/yes\n", '{"d_separates": true, "via_t_separation": true}\n'),
    ("dsep", "not separated", ["{choke}", "--A", "1", "--B", "5"], 1,
     "no/no\n", '{"d_separates": false, "via_t_separation": false}\n'),
    ("ci", "implied", ["{choke}", "--A", "1", "--B", "5", "--C", "4"], 0,
     "yes\n", '{"ci_implied": true}\n'),
    ("ci", "not implied", ["{choke}", "--A", "1", "--B", "5"], 1,
     "no\n", '{"ci_implied": false}\n'),
    ("treks", "listing", ["{choke}", "--i", "1", "--j", "4"], 0,
     "left 1 right 1->2->4  lambda(1,2)*lambda(2,4)*phi(1,1)\n"
     "left 1 right 1->3->4  lambda(1,3)*lambda(3,4)*phi(1,1)\n2 simple trek(s)\n",
     '{"count": 2, "treks": [{"left": [1], "middle_kind": null, "middle": [1], '
     '"right": [1, 2, 4], "monomial": "lambda(1,2)*lambda(2,4)*phi(1,1)"}, '
     '{"left": [1], "middle_kind": null, "middle": [1], "right": [1, 3, 4], '
     '"monomial": "lambda(1,3)*lambda(3,4)*phi(1,1)"}]}\n'),
    ("treks", "none", ["{spider}", "--i", "3", "--j", "6"], 0,
     "0 simple trek(s)\n", '{"count": 0, "treks": []}\n'),
    ("treks", "listing", ["{choke}", "--i", "1", "--j", "5"], 0,
     "left 1 right 1->2->4->5  lambda(1,2)*lambda(2,4)*lambda(4,5)*phi(1,1)\n"
     "left 1 right 1->3->4->5  lambda(1,3)*lambda(3,4)*lambda(4,5)*phi(1,1)\n"
     "2 simple trek(s)\n",
     '{"count": 2, "treks": [{"left": [1], "middle_kind": null, "middle": [1], '
     '"right": [1, 2, 4, 5], "monomial": "lambda(1,2)*lambda(2,4)*lambda(4,5)*phi(1,1)"}, '
     '{"left": [1], "middle_kind": null, "middle": [1], "right": [1, 3, 4, 5], '
     '"monomial": "lambda(1,3)*lambda(3,4)*lambda(4,5)*phi(1,1)"}]}\n'),
    # each trek's monomial is text, whatever its middle
    ("treks", "undirected middle", ["{middles}", "--i", "1", "--j", "3"], 0,
     "left 1 [undirected: 1-2] right 2->3  lambda(2,3)*psi(1,2)\n1 simple trek(s)\n",
     '{"count": 1, "treks": [{"left": [1], "middle_kind": "undirected", "middle": [1, 2], '
     '"right": [2, 3], "monomial": "lambda(2,3)*psi(1,2)"}]}\n'),
    ("treks", "bidirected middle", ["{middles}", "--i", "3", "--j", "4"], 0,
     "left 3 [bidirected: 3-4] right 4  phi(3,4)\n1 simple trek(s)\n",
     '{"count": 1, "treks": [{"left": [3], "middle_kind": "bidirected", "middle": [3, 4], '
     '"right": [4], "monomial": "phi(3,4)"}]}\n'),
]

# argparse's own errors, one line each: (argv, the line; or its start, then
# "...", where the rest differs between Python releases).
_ARGPARSE_ROWS = [
    ([], "error: the following arguments are required: command"),
    (["validate"], "error: the following arguments are required: graph"),
    (["rank", "{choke}", "--A", "1"], "error: the following arguments are required: --B"),
    (["tsep", "{choke}", "--B", "4"], "error: the following arguments are required: --A"),
    (["dsep", "{choke}", "--A", "1"], "error: the following arguments are required: --B"),
    (["ci", "{choke}", "--A", "1"], "error: the following arguments are required: --B"),
    (["treks", "{choke}", "--i", "1"], "error: the following arguments are required: --j"),
    (["verify", "--graphs", "two"], "error: argument --graphs: invalid int value: 'two'"),
    # the empty value joins the message after a space
    (["rank", "{choke}", "--A", "1", "--B", "4", "--j", ""],
     "error: unrecognized arguments: --j "),
    (["rank", "{choke}", "--A", "1", "--B", "4", "--output", "xml"],
     "error: argument --output: invalid choice: 'xml'..."),
    (["treks", "{choke}", "--i", "1", "--j", "4", "--output", "xml"],
     "error: argument --output: invalid choice: 'xml'..."),
    (["rank", "{choke}", "--A", "1", "--B", "4", "--seed", "x"],
     "error: argument --seed: invalid int value: 'x'"),
    (["verify", "--seed", "1.5"], "error: argument --seed: invalid int value: '1.5'"),
    (["rank"], "error: the following arguments are required: graph, --A, --B"),
    # every int flag, --i and --j and the counts alike, reads ASCII digits as an id does
    (["treks", "{choke}", "--i", "1_0", "--j", "5"],
     "error: argument --i: invalid int value: '1_0'"),
    (["treks", "{choke}", "--i", "+1", "--j", "5"],
     "error: argument --i: invalid int value: '+1'"),
    (["treks", "{choke}", "--i", "١", "--j", "5"],
     "error: argument --i: invalid int value: '١'"),
    (["rank", "{choke}", "--A", "1", "--B", "4", "--oracle", "--trials", "1_0"],
     "error: argument --trials: invalid int value: '1_0'"),
]


# A case is (kind, argv, exit code, stdout, stderr), each {name} in its argv
# and stderr a path of write_graphs.  An error or answer row gives one case
# per output, its id such as `rank-empty-set-json`; a later row of the same
# subcommand and kind adds its number: `treks-cap-exceeded-2-text`.
def _cases(rows):
    seen = Counter()
    for command, kind, argv, code, *expected in rows:
        seen[command, kind] += 1
        name = f"{command} {kind}" + (f" {seen[command, kind]}" if seen[command, kind] > 1 else "")
        # validate has no --output option: it reports in text only
        for output in ("text",) if command == "validate" else ("text", "json"):
            flags = ["--output", "json"] if output == "json" else []
            if len(expected) == 1:  # an error row: empty stdout, one stderr line
                out, err = "", expected[0] + "\n"
            else:  # an answer row: its text or json stdout, empty stderr
                out, err = expected[output == "json"], ""
            case = (kind, [command, *argv, *flags], code, out, err)
            yield f"{name} {output}".replace(" ", "-"), case


# An argparse row's id is its index and its line, as pytest named it.
def _argparse_cases():
    for n, (argv, line) in enumerate(_ARGPARSE_ROWS):
        yield f"argv{n}-{line}", ("argparse", argv, 2, "", line + "\n")


# Every case of the three tables, by id: Tier-1 runs each through
# `cli.main`, and `run_cli_rows.py` all but the internal errors through the
# installed `treksep`.
CASES = [*_cases(_ERROR_ROWS), *_cases(_ANSWER_ROWS), *_argparse_cases()]


def write_graphs(directory: Path) -> dict:
    """Write each graph of _GRAPHS into directory; the path of each by name,
    and of `missing`, which is never written."""
    paths = {name: str(directory / f"{name}.graph") for name in (*_GRAPHS, "missing")}
    for name, data in _GRAPHS.items():
        Path(paths[name]).write_bytes(data)
    return paths


def check_case(case, paths, run) -> None:
    """Run a case through run(argv) -> (exit code, stdout, stderr), and raise
    AssertionError unless all three are the case's, exactly.  A line that
    ends in "..." gives the start of a one-line stderr."""
    _, argv, code, out, err = case
    argv = [arg.format(**paths) for arg in argv]
    want = (code, out, err.format(**paths))
    got = tuple(run(argv))
    if err.endswith("...\n") and got[2].count("\n") == 1 and got[2].endswith("\n"):
        got = (*got[:2], got[2][:len(want[2]) - 4] + "...\n")
    if got != want:
        raise AssertionError(f"{argv}\n  got  {got!r}\n  want {want!r}")


def _params(cases):
    return [pytest.param(case, id=name) for name, case in cases]


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    return write_graphs(tmp_path_factory.mktemp("graphs"))


@pytest.fixture
def run_main(capsys):
    """`cli.main` in-process, as run(argv) -> (exit code, stdout, stderr)."""
    return lambda argv: (main(argv), *capsys.readouterr())


def test_error_table_covers_every_subcommand_and_class():
    assert {row[0] for row in _ERROR_ROWS} \
        == {"validate", "rank", "tsep", "dsep", "ci", "treks", "verify"}
    assert {row[1] for row in _ERROR_ROWS} == {
        "missing file", "parse error", "undecodable file", "out-of-range id", "malformed id",
        "empty set", "overlapping sets", "not a DAG", "cap exceeded", "count below minimum",
        "count above maximum", "work above maximum", "internal error", "two faults"}


@pytest.mark.parametrize("case", _params(_cases(_ERROR_ROWS)))
def test_error_ends_in_one_stderr_line(graph_paths, run_main, monkeypatch, case):
    if case[0] == "internal error":
        def broken(*args, **kwargs):
            raise separation.InternalError("injected")

        monkeypatch.setattr(separation, "_search", broken)
    check_case(case, graph_paths, run_main)


@pytest.mark.parametrize("case", _params(_cases(_ANSWER_ROWS)))
def test_answer_is_exact_stdout(graph_paths, run_main, case):
    check_case(case, graph_paths, run_main)


@pytest.mark.parametrize("case", _params(_argparse_cases()))
def test_argparse_error_is_one_stderr_line(graph_paths, run_main, case):
    check_case(case, graph_paths, run_main)
