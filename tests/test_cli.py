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


# argparse's own errors, one line each: (argv, the line; or its start, then
# "...", where the rest differs between Python releases).  {choke} is a
# graph path.
_ARGPARSE_ROWS = [
    ([], "error: the following arguments are required: command"),
    (["validate"], "error: the following arguments are required: graph"),
    (["rank", "{choke}", "--A", "1"], "error: the following arguments are required: --B"),
    (["tsep", "{choke}", "--B", "4"], "error: the following arguments are required: --A"),
    (["dsep", "{choke}", "--A", "1"], "error: the following arguments are required: --B"),
    (["ci", "{choke}", "--A", "1"], "error: the following arguments are required: --B"),
    (["treks", "{choke}", "--i", "1"], "error: the following arguments are required: --j"),
    (["verify", "--graphs", "two"], "error: argument --graphs: invalid int value: 'two'"),
    (["rank", "{choke}", "--A", "1", "--B", "4", "--j", ""],
     "error: unrecognized arguments: --j..."),
    (["rank", "{choke}", "--A", "1", "--B", "4", "--output", "xml"],
     "error: argument --output: invalid choice: 'xml'..."),
    (["treks", "{choke}", "--i", "1", "--j", "4", "--output", "xml"],
     "error: argument --output: invalid choice: 'xml'..."),
    (["rank", "{choke}", "--A", "1", "--B", "4", "--seed", "x"],
     "error: argument --seed: invalid int value: 'x'"),
    (["verify", "--seed", "1.5"], "error: argument --seed: invalid int value: '1.5'"),
    (["rank"], "error: the following arguments are required: graph, --A, --B"),
]


@pytest.mark.parametrize("argv, line", _ARGPARSE_ROWS)
def test_argparse_error_is_one_stderr_line(choke_file, capsys, argv, line):
    assert main([arg.format(choke=choke_file) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    if line.endswith("..."):
        assert captured.err.startswith(line[:-3]), captured.err
    else:
        assert captured.err == line + "\n"


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
    "chain": b"v 3\ne 1 -> 2\ne 2 -> 3\n",
    "collider": b"v 3\ne 1 -> 3\ne 2 -> 3\n",
    "mixed": b"v 3\ne 1 -> 2\ne 2 <-> 3\n",
    "binary": b"v 2\ne 1 -> 2\n\xff\n",
    "bom": b"\xef\xbb\xbfv 3\ne 1 -> 2\n",  # UTF-8 with a byte-order mark
    # the complete DAG on 40 vertices: 2^37 directed paths end at 39
    "complete": ("v 40\n" + "".join(f"e {a} -> {b}\n" for a in range(1, 41)
                                    for b in range(a + 1, 41))).encode(),
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
    ("tsep", "separated by C_R", ["{choke}", "--A", "1,3", "--B", "4,5", "--CR", "4"], 0,
     "yes\n", '{"separates": true}\n'),
    ("tsep", "not separated", ["{choke}", "--A", "1,3", "--B", "4,5", "--CR", "5"], 1,
     "no\n", '{"separates": false}\n'),
    ("tsep", "separated by C_L", ["{choke}", "--A", "1,3", "--B", "4,5", "--CL", "1,3"], 0,
     "yes\n", '{"separates": true}\n'),
    ("dsep", "chain", ["{chain}", "--A", "1", "--B", "3", "--C", "2"], 0,
     "yes/yes\n", '{"d_separates": true, "via_t_separation": true}\n'),
    ("dsep", "collider", ["{collider}", "--A", "1", "--B", "2", "--C", "3"], 1,
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
]


# Each row once per output, its id such as `rank-empty-set-json`; a later row
# of the same subcommand and kind adds its number: `treks-cap-exceeded-2-text`.
def _cases(rows):
    seen = Counter()
    for command, kind, *rest in rows:
        seen[command, kind] += 1
        name = f"{command} {kind}" + (f" {seen[command, kind]}" if seen[command, kind] > 1 else "")
        # validate has no --output option: it reports in text only
        for output in ("text",) if command == "validate" else ("text", "json"):
            yield pytest.param(command, kind, *rest, output,
                               id=f"{name} {output}".replace(" ", "-"))


def test_error_table_covers_every_subcommand_and_class():
    assert {row[0] for row in _ERROR_ROWS} \
        == {"validate", "rank", "tsep", "dsep", "ci", "treks", "verify"}
    assert {row[1] for row in _ERROR_ROWS} == {
        "missing file", "parse error", "undecodable file", "out-of-range id", "empty set",
        "overlapping sets", "not a DAG", "cap exceeded", "count below minimum",
        "count above maximum", "work above maximum", "internal error", "two faults"}


@pytest.mark.parametrize("command, kind, argv, code, line, output", _cases(_ERROR_ROWS))
def test_error_ends_in_one_stderr_line(tmp_path, capsys, monkeypatch,
                                       command, kind, argv, code, line, output):
    paths = {name: tmp_path / f"{name}.graph" for name in (*_GRAPHS, "missing")}
    for name, data in _GRAPHS.items():
        paths[name].write_bytes(data)
    if kind == "internal error":
        def broken(*args, **kwargs):
            raise separation.InternalError("injected")

        monkeypatch.setattr(separation, "_search", broken)
    argv = [command, *(arg.format(**paths) for arg in argv)]
    if output == "json":
        argv += ["--output", "json"]
    assert main(argv) == code
    assert capsys.readouterr() == ("", line.format(**paths) + "\n")


@pytest.mark.parametrize("command, kind, argv, code, text, json_text, output",
                         _cases(_ANSWER_ROWS))
def test_answer_is_exact_stdout(tmp_path, capsys, command, kind, argv, code, text, json_text,
                                output):
    paths = {name: tmp_path / f"{name}.graph" for name in _GRAPHS}
    for name, data in _GRAPHS.items():
        paths[name].write_bytes(data)
    argv = [command, *(arg.format(**paths) for arg in argv)]
    if output == "json":
        argv += ["--output", "json"]
    assert main(argv) == code
    assert capsys.readouterr() == (text if output == "text" else json_text, "")
