import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treksep
from treksep import cli, graph, verify
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


def test_validate_ok(choke_file, capsys):
    assert main(["validate", choke_file]) == 0
    assert capsys.readouterr().out == ""


def test_validate_cycle(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("v 2\ne 1 -> 2\ne 2 -> 1\n")
    assert main(["validate", str(path)]) == 1
    assert "directed cycle" in capsys.readouterr().out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/g.graph"]) == 2


def test_validate_parse_error(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("e 1 -> 2\n")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("argv", [["validate"], ["rank", "--A", "1", "--B", "2"]])
def test_non_utf8_file_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "bin.g"
    path.write_bytes(b"v 2\ne 1 -> 2\n\xff\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {path}: 'utf-8' codec can't decode "
                            "byte 0xff in position 13: invalid start byte\n")


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


def test_rank_text(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,3", "--B", "4,5"]) == 0
    out = capsys.readouterr().out
    assert "rank 1" in out and "C_R={4}" in out
    assert "pair view" in out  # DAG extra line


def test_rank_json_schema(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,3", "--B", "4,5",
                 "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["rank", "certificate"]
    assert payload["rank"] == 1
    assert payload["certificate"] == {"cl": [], "cm": [], "cr": [4]}


def test_rank_with_oracle(spider_file, capsys):
    assert main(["rank", spider_file, "--A", "1,2,3", "--B", "4,5,6",
                 "--oracle", "--seed", "5", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["rank", "certificate", "oracle_rank", "agrees"]
    assert payload["rank"] == payload["oracle_rank"] == 2
    assert payload["agrees"] is True


def test_rank_seed_echoed_in_text(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1", "--B", "5",
                 "--oracle", "--seed", "77"]) == 0
    assert "seed 77" in capsys.readouterr().out


def test_rank_bad_ids(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,9", "--B", "4"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_rank_singleton_overlap(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1", "--B", "1"]) == 0
    assert "rank 1" in capsys.readouterr().out


def test_tsep(choke_file, capsys):
    assert main(["tsep", choke_file, "--A", "1,3", "--B", "4,5",
                 "--CR", "4"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["tsep", choke_file, "--A", "1,3", "--B", "4,5",
                 "--CR", "5"]) == 1
    assert capsys.readouterr().out.strip() == "no"
    assert main(["tsep", choke_file, "--A", "1,3", "--B", "4,5",
                 "--CL", "1,3"]) == 0


def test_dsep(tmp_path, capsys):
    chain = tmp_path / "chain.graph"
    chain.write_text("v 3\ne 1 -> 2\ne 2 -> 3\n")
    assert main(["dsep", str(chain), "--A", "1", "--B", "3", "--C", "2"]) == 0
    assert capsys.readouterr().out.strip() == "yes/yes"
    collider = tmp_path / "collider.graph"
    collider.write_text("v 3\ne 1 -> 3\ne 2 -> 3\n")
    assert main(["dsep", str(collider), "--A", "1", "--B", "2", "--C", "3"]) == 1
    assert capsys.readouterr().out.strip() == "no/no"


def test_dsep_rejects_overlap(tmp_path, capsys):
    chain = tmp_path / "chain.graph"
    chain.write_text("v 3\ne 1 -> 2\ne 2 -> 3\n")
    assert main(["dsep", str(chain), "--A", "1", "--B", "1"]) == 2


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


def test_ci(choke_file, capsys):
    assert main(["ci", choke_file, "--A", "1", "--B", "5", "--C", "4"]) == 0
    assert main(["ci", choke_file, "--A", "1", "--B", "5"]) == 1


def test_treks_listing(choke_file, capsys):
    assert main(["treks", choke_file, "--i", "1", "--j", "4",
                 "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    monos = {t["monomial"] for t in payload["treks"]}
    assert monos == {"lambda(1,2)*lambda(2,4)*phi(1,1)",
                     "lambda(1,3)*lambda(3,4)*phi(1,1)"}


def test_treks_empty(spider_file, capsys):
    assert main(["treks", spider_file, "--i", "3", "--j", "6",
                 "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_treks_cap(choke_file, capsys):
    assert main(["treks", choke_file, "--i", "1", "--j", "4", "--cap", "1"]) == 4


def test_treks_cap_bounds_the_paths_listed(tmp_path, capsys):
    # a complete DAG on 40 vertices: 2^37 directed paths end at 39
    path = tmp_path / "complete.graph"
    path.write_text("v 40\n" + "".join(f"e {a} -> {b}\n" for a in range(1, 41)
                                        for b in range(a + 1, 41)))
    assert main(["treks", str(path), "--i", "39", "--j", "40", "--cap", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration cap of 10 exceeded by the directed paths into 39\n"


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


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_treks_cap_below_one_is_usage_error(choke_file, capsys, cap, output):
    assert main(["treks", choke_file, "--i", "1", "--j", "4",
                 "--cap", cap, "--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cap must be at least 1\n"


def test_verify_small_run(capsys):
    assert main(["verify", "--graphs", "3", "--max-vertices", "4",
                 "--seed", "1", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 1
    assert payload["failures"] == []
    assert payload["checks"]["canonical_instances"]["failures"] == 0


def test_verify_defaults_are_the_suite_config_defaults():
    args = _build_parser().parse_args(["verify"])
    assert verify.SuiteConfig(seed=args.seed, max_vertices=args.max_vertices,
                              graph_count=args.graphs,
                              trials_per_instance=args.trials) == verify.SuiteConfig()
    args = _build_parser().parse_args(["rank", "g", "--A", "1", "--B", "2"])
    assert (args.seed, args.trials) == (verify.SuiteConfig().seed,
                                        verify.SuiteConfig().trials_per_instance)


def test_usage_error_exit_code():
    assert main(["rank"]) == 2
    assert main([]) == 2


def test_rank_oracle_zero_trials_is_usage_error(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,2", "--B", "5",
                 "--oracle", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials must be at least 1\n"


@pytest.mark.parametrize("trials", ["1001", "1000000000"])
def test_rank_oracle_trials_above_maximum_is_usage_error(choke_file, capsys, trials):
    assert main(["rank", choke_file, "--A", "1,3", "--B", "4,5",
                 "--oracle", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --trials must be at most {verify.MAX_TRIALS}\n"


def test_rank_oracle_at_the_trial_maximum_runs(choke_file, capsys):
    assert main(["rank", choke_file, "--A", "1,3", "--B", "4,5",
                 "--oracle", "--trials", str(verify.MAX_TRIALS)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"oracle rank 1 (seed 31415, trials {verify.MAX_TRIALS}): agrees"


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
    from treksep import separation

    def broken(*args, **kwargs):
        raise separation.InternalError("certificate size 0 differs from flow value 1")

    monkeypatch.setattr(separation, "min_t_separator", broken)
    assert main(["rank", choke_file, "--A", "1", "--B", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: certificate size 0 differs "
                            "from flow value 1\n")


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


# One row per subcommand and error class: (subcommand, error class, argv,
# exit code, the one stderr line).  {choke}, {bad}, {missing} and {wide} are
# graph paths; "internal" rows run with a flow search that raises (tsep runs
# none: it checks its triple by a search of the graph itself).
_ERROR_ROWS = [
    ("validate", "missing file", ["{missing}"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("validate", "parse error", ["{bad}"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("rank", "missing file", ["{missing}", "--A", "1", "--B", "4"], 2,
     "error: cannot read {missing}: No such file or directory"),
    ("rank", "parse error", ["{bad}", "--A", "1", "--B", "4"], 2,
     "error: {bad}: line 1: first directive must be `v <m>`"),
    ("rank", "out-of-range id", ["{choke}", "--A", "1,9", "--B", "4"], 2,
     "error: --A: vertex 9 out of range [1,5]"),
    ("rank", "empty set", ["{choke}", "--A", "", "--B", "4"], 2,
     "error: --A and --B must be nonempty"),
    ("rank", "count below minimum",
     ["{choke}", "--A", "1", "--B", "4", "--oracle", "--trials", "0"], 2,
     "error: --trials must be at least 1"),
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
    ("dsep", "out-of-range id", ["{choke}", "--A", "1", "--B", "4", "--C", "9"], 2,
     "error: --C: vertex 9 out of range [1,5]"),
    ("dsep", "empty set", ["{choke}", "--A", "1", "--B", ""], 2,
     "error: --A and --B must be nonempty"),
    # dsep parses --C before it checks --A and --B
    ("dsep", "two faults", ["{choke}", "--A", "", "--B", "5", "--C", "99"], 2,
     "error: --C: vertex 99 out of range [1,5]"),
    ("dsep", "overlapping sets", ["{choke}", "--A", "1", "--B", "4", "--C", "4"], 2,
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
     "error: enumeration cap of 1 exceeded"),
    ("treks", "count below minimum", ["{choke}", "--i", "1", "--j", "4", "--cap", "0"], 2,
     "error: --cap must be at least 1"),
    ("verify", "count below minimum", ["--graphs", "0"], 2,
     "error: --graphs must be at least 1"),
    ("verify", "internal error", ["--graphs", "1", "--max-vertices", "4"], 3,
     "internal error: injected"),
]


def _error_cases():
    for command, kind, argv, code, line in _ERROR_ROWS:
        # validate has no --output option: it reports in text only
        for output in ("text",) if command == "validate" else ("text", "json"):
            yield pytest.param(command, kind, argv, code, line, output,
                               id=f"{command}-{kind.replace(' ', '-')}-{output}")


def test_error_table_covers_every_subcommand_and_class():
    assert {row[0] for row in _ERROR_ROWS} \
        == {"validate", "rank", "tsep", "dsep", "ci", "treks", "verify"}
    assert {row[1] for row in _ERROR_ROWS} == {
        "missing file", "parse error", "out-of-range id", "empty set",
        "overlapping sets", "cap exceeded", "count below minimum", "internal error",
        "two faults"}


@pytest.mark.parametrize("command, kind, argv, code, line, output", _error_cases())
def test_error_ends_in_one_stderr_line(tmp_path, capsys, monkeypatch,
                                       command, kind, argv, code, line, output):
    from treksep import separation

    paths = {"choke": tmp_path / "choke.graph", "bad": tmp_path / "bad.graph",
             "missing": tmp_path / "missing.graph", "wide": tmp_path / "wide.graph"}
    paths["choke"].write_text(CHOKE_TEXT)
    paths["bad"].write_text("e 1 -> 2\n")
    paths["wide"].write_text("v 23\n")
    if kind == "internal error":
        def broken(*args, **kwargs):
            raise separation.InternalError("injected")

        monkeypatch.setattr(separation, "_search", broken)
    argv = [command, *(arg.format(**paths) for arg in argv)]
    if output == "json":
        argv += ["--output", "json"]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.format(**paths) + "\n"
