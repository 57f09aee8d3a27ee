"""Command-line surface.

Exit codes: 0 success / affirmative verdict, 1 negative verdict or suite
failures, 2 usage or input error, 3 internal cross-check disagreement or
internal error, 4 enumeration resource cap exceeded, 141 stdout closed by
its reader before all of it was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, separation, treks, verify
from .graph import (DAG, GraphError, InvalidGraphError, MixedGraph, ParseError,
                    _require_vertices, graph_class, parse_graph)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3
EXIT_CAP = 4
EXIT_PIPE = 141


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> MixedGraph:
    text = _read_text(path)
    try:
        return parse_graph(text)
    except GraphError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_ids(raw: str, g: MixedGraph, flag: str) -> frozenset:
    if not raw:
        return frozenset()
    out = set()
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = int(tok)
        except ValueError:
            raise UsageError(f"{flag}: {tok!r} is not a vertex id") from None
        _require_flag_vertex(g, flag, v)
        out.add(v)
    return frozenset(out)


def _require_flag_vertex(g: MixedGraph, flag: str, v: int) -> None:
    """graph._require_vertices for one vertex, its error a UsageError that names the flag."""
    try:
        _require_vertices(g, (v,))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _require_count(flag: str, value: int, least: int, most: float = float("inf")) -> None:
    if value < least:
        raise UsageError(f"{flag} must be at least {least}")
    if value > most:
        raise UsageError(f"{flag} must be at most {most}")


def _emit(args, payload: dict, text_lines):
    if args.output == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _fmt_set(s) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def _parse_ab(args, g: MixedGraph, *flags) -> list:
    """The vertex sets of --A, --B and then of each of flags, parsed in that
    order; then --A and --B must be nonempty."""
    sets = [_parse_ids(getattr(args, flag[2:]), g, flag) for flag in ("--A", "--B", *flags)]
    if not sets[0] or not sets[1]:
        raise UsageError("--A and --B must be nonempty")
    return sets


def cmd_validate(args) -> int:
    text = _read_text(args.graph)
    try:
        parse_graph(text)
    except ParseError as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc
    except InvalidGraphError as exc:
        for violation in exc.violations:
            print(violation)
        return EXIT_FALSE
    return EXIT_OK


def cmd_rank(args) -> int:
    _require_count("--trials", args.trials, 1, verify.MAX_TRIALS)
    g = _load_graph(args.graph)
    A, B = _parse_ab(args, g)
    res = separation.min_t_separator(g, A, B)
    cert = res.certificate
    payload = {"rank": res.rank, "certificate": cert.as_dict()}
    lines = [f"rank {res.rank}; C_L={_fmt_set(cert.c_left)} "
             f"C_M={_fmt_set(cert.c_mid)} C_R={_fmt_set(cert.c_right)}"]
    if graph_class(g) == DAG:
        c_a, c_b = cert.dag_pair_view()
        lines.append(f"pair view: C_A={_fmt_set(c_a)} C_B={_fmt_set(c_b)}")
    code = EXIT_OK
    if args.oracle:
        oracle = algebra.generic_rank_oracle(g, A, B, args.seed, args.trials)
        agrees = oracle == res.rank
        payload["oracle_rank"] = oracle
        payload["agrees"] = agrees
        lines.append(f"oracle rank {oracle} (seed {args.seed}, "
                     f"trials {args.trials}): "
                     + ("agrees" if agrees else "DISAGREES"))
        if not agrees:
            code = EXIT_DISAGREE
    _emit(args, payload, lines)
    return code


def cmd_tsep(args) -> int:
    g = _load_graph(args.graph)
    A, B = _parse_ab(args, g)
    triple = separation.SeparationTriple.of(
        cl=_parse_ids(args.CL, g, "--CL"),
        cm=_parse_ids(args.CM, g, "--CM"),
        cr=_parse_ids(args.CR, g, "--CR"))
    verdict = separation.is_t_separating(g, A, B, triple)
    _emit(args, {"separates": verdict}, ["yes" if verdict else "no"])
    return EXIT_OK if verdict else EXIT_FALSE


def _disjoint_abc(args, g):
    A, B, C = _parse_ab(args, g, "--C")
    if A & B or A & C or B & C:
        raise UsageError("--A, --B and --C must be pairwise disjoint")
    return A, B, C


def cmd_dsep(args) -> int:
    g = _load_graph(args.graph)
    if graph_class(g) != DAG:
        raise UsageError("d-separation queries require a purely directed graph")
    A, B, C = _disjoint_abc(args, g)
    classic = separation.d_separates(g, A, B, C)
    via_tsep = separation.d_sep_via_t_sep(g, A, B, C)
    payload = {"d_separates": classic, "via_t_separation": via_tsep}
    lines = [f"{'yes' if classic else 'no'}/{'yes' if via_tsep else 'no'}"]
    _emit(args, payload, lines)
    if classic != via_tsep:
        print("error: the two d-separation algorithms disagree", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK if classic else EXIT_FALSE


def cmd_ci(args) -> int:
    g = _load_graph(args.graph)
    A, B, C = _disjoint_abc(args, g)
    verdict = separation.ci_implied(g, A, B, C)
    _emit(args, {"ci_implied": verdict}, ["yes" if verdict else "no"])
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_treks(args) -> int:
    _require_count("--cap", args.cap, 1)
    g = _load_graph(args.graph)
    _require_flag_vertex(g, "--i", args.i)
    _require_flag_vertex(g, "--j", args.j)
    found = treks.enumerate_simple_treks(g, args.i, args.j, args.cap)
    if args.output == "json":  # each output builds only itself
        print(json.dumps({"count": len(found), "treks": [
            {"left": list(t.left), "middle_kind": t.middle_kind, "middle": list(t.middle),
             "right": list(t.right), "monomial": treks.trek_monomial(t)} for t in found]}))
        return EXIT_OK
    for t in found:
        mid = "" if t.middle_kind is None else f" [{t.middle_kind}: " \
            + "-".join(str(v) for v in t.middle) + "]"
        print("left " + "->".join(str(v) for v in t.left) + mid
              + " right " + "->".join(str(v) for v in t.right)
              + f"  {treks.trek_monomial(t)}")
    print(f"{len(found)} simple trek(s)")
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_count("--graphs", args.graphs, 1, verify.MAX_GRAPHS)
    _require_count("--max-vertices", args.max_vertices, verify.MIN_VERTICES, verify.MAX_VERTICES)
    _require_count(f"--graphs at --max-vertices {args.max_vertices}", args.graphs, 1,
                   verify.max_graphs(args.max_vertices))
    _require_count("--trials", args.trials, 1, verify.MAX_TRIALS)
    cfg = verify.SuiteConfig(seed=args.seed, max_vertices=args.max_vertices,
                             graph_count=args.graphs,
                             trials_per_instance=args.trials)
    report = verify.run_suite(cfg)
    if args.output == "json":
        print(json.dumps({"seed": args.seed, **report.to_dict()}))
    else:
        print(f"seed {args.seed}")
        for name, counts in report.checks.items():
            print(f"{name}: {counts['passes']} passed, "
                  f"{counts['failures']} failed")
        for failure in report.failures:
            print(f"FAIL {json.dumps(failure)}")
    return EXIT_OK if report.total_failures == 0 else EXIT_FALSE


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with one way out for every usage error: one
    `error: ...` line on stderr, with no usage line, and exit 2.  Its
    subparsers are of this class too, and `main` hands it the UsageErrors
    of the commands."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treksep",
        description="Generic ranks of covariance submatrices of Gaussian "
                    "graphical models on mixed graphs, via minimum "
                    "trek-separating sets, with an exact algebraic oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    suite = verify.SuiteConfig()  # the defaults of `verify`, and of `rank --seed`

    def common(p, *vertex_sets, graph=True):
        if graph:
            p.add_argument("graph", help="graph file")
        p.add_argument("--output", choices=("text", "json"), default="text")
        for flag in vertex_sets:
            p.add_argument(flag, required=flag in ("--A", "--B"), default="",
                           help="comma-separated vertex ids")

    p = sub.add_parser("validate", help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rank", help="generic rank of Sigma_{A,B}")
    common(p, "--A", "--B")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the exact algebraic oracle")
    p.add_argument("--seed", type=int, default=suite.seed)
    p.add_argument("--trials", type=int, default=algebra.DEFAULT_TRIALS)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("tsep", help="does (C_L,C_M,C_R) t-separate A from B?")
    common(p, "--A", "--B", "--CL", "--CM", "--CR")
    p.set_defaults(func=cmd_tsep)

    p = sub.add_parser("dsep", help="d-separation, two independent algorithms")
    common(p, "--A", "--B", "--C")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("ci", help="is X_A independent of X_B given X_C, generically?")
    common(p, "--A", "--B", "--C")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("treks", help="list simple treks between two vertices")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--cap", type=int, default=treks.DEFAULT_CAP)
    p.set_defaults(func=cmd_treks)

    p = sub.add_parser("verify", help="run the randomized cross-check suite")
    common(p, graph=False)
    p.add_argument("--seed", type=int, default=suite.seed)
    p.add_argument("--graphs", type=int, default=suite.graph_count)
    p.add_argument("--max-vertices", type=int, default=suite.max_vertices)
    p.add_argument("--trials", type=int, default=algebra.DEFAULT_TRIALS)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except UsageError as exc:
            parser.error(str(exc))
    except SystemExit as exc:  # a usage error, or -h
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except treks.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except separation.InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout's reader left (`... | head`): the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)
