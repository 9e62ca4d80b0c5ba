"""Command-line front door.

Machine-readable output goes to stdout, diagnostics to stderr.  Exit codes:
0 on success / YES, 1 on NO / FAIL, 2 on usage or input errors.  The
commands let the library's exceptions through, and ``main`` alone maps them
to exit 2 with one ``error:`` line on stderr: ``SolverTimeout``, ``OSError``
and ``ValueError`` (``GraphFormatError`` is one).  ``CertificateError`` is
never mapped: it is a bug, not a verdict, and ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

from . import families
from .colouring import SolverTimeout, chromatic_number, k_colourable
from .decompose import decompose_auto, verify_profile
from .graphio import emit_graph, parse_any_graph, parse_graph, to_dot
from .graphs import Graph
from .homomorphism import find_homomorphism, find_subgraph, is_isomorphic
from .report import verify_paper
from .search import compact_line, enumerate_extremal
from .structure import NeighbourhoodSides, _edge_maximal, _odd_wheel, is_twin_free
from .weighting import optimal_weighting, verify_weighting


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())


def _threshold(text: str) -> Fraction:
    """A --beats value p/q."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed threshold {text!r}") from None


def _deadline(args) -> float | None:
    """The monotonic deadline of a --timeout, or None without one."""
    return None if args.timeout is None else time.monotonic() + args.timeout


def _open_output(path: str | None):
    """The -o file opened for writing, or stdout (left open) without -o."""
    return nullcontext(sys.stdout) if path is None else open(path, "w")


def cmd_families(args) -> int:
    if args.action == "list":
        for name in families.list_families():
            print(name)
        return 0
    g = families.generate(args.family_id)
    text = to_dot(g, name=args.family_id.replace("(", "_").replace(")", "")) if args.dot else emit_graph(g)
    with _open_output(args.output) as out:
        out.write(text)
    return 0


def cmd_check(args) -> int:
    g = _read_graph(args.file)
    sides = NeighbourhoodSides(g)  # one table for both tests
    witness = _odd_wheel(g, sides)
    print(f"locally-bipartite: {'yes' if witness is None else 'no'}")
    if witness is not None:
        print(str(witness))
    print(f"twin-free: {'yes' if is_twin_free(g) else 'no'}")
    edge_max = _edge_maximal(sides) if witness is None else False
    print(f"edge-maximal: {'yes' if edge_max else 'no'}")
    return 0


def cmd_hom(args) -> int:
    g = _read_graph(args.g_file)
    h = _read_graph(args.h_file)
    if args.iso:
        if is_isomorphic(g, h):
            print("YES")
            return 0
        print("NO")
        return 1
    if args.induced:
        embedding = find_subgraph(g, h, induced=True)
    else:
        embedding = find_homomorphism(g, h)
    if embedding is None:
        print("NO")
        return 1
    print("YES map: " + ",".join(map(str, embedding)))
    return 0


def cmd_chi(args) -> int:
    k, colouring = chromatic_number(_read_graph(args.file), _deadline(args))
    print(f"chi={k} colouring: " + ",".join(map(str, colouring)))
    return 0


def cmd_colour(args) -> int:
    colouring = k_colourable(_read_graph(args.file), args.k, _deadline(args))
    if colouring is None:
        print(f"NONE: not {args.k}-colourable")
        return 1
    print(f"k={args.k} colouring: " + ",".join(map(str, colouring)))
    return 0


def cmd_weight(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    g, wg = parse_any_graph(text)
    c = None if args.beats is None else _threshold(args.beats)
    # check the given weighting before the LP and before any output
    given = None if wg is None or c is None else verify_weighting(g, wg.weights, c)
    result = optimal_weighting(g)
    print(f"t*={result.optimum} omega: " + ",".join(str(w) for w in result.weights))
    if result.has_isolated_vertex:
        print("warning: isolated vertex forces t* = 0", file=sys.stderr)
    if c is not None:
        if given is not None:
            print(f"GIVEN-WEIGHTING {'BEATS' if given else 'DOES-NOT-BEAT'} {c}")
        print(f"{'BEATS' if result.beats(c) else 'DOES-NOT-BEAT'} {c}")
        return 0 if result.beats(c) else 1
    return 0


def cmd_search(args) -> int:
    c = _threshold(args.beats)
    if args.output is not None:  # fail on an unwritable file before the search, empty it only after
        open(args.output, "a").close()
    result = enumerate_extremal(args.n, c, checkpoint_path=args.checkpoint, resume_path=args.resume)
    with _open_output(args.output) as out:
        for f in result.found:
            print(compact_line(f), file=out)
    for lv in result.levels:
        print(
            f"level {lv.n}: {lv.parents} parents, {lv.masks_tried} masks tried, "
            f"{lv.children} locally bipartite children, {lv.canonical_forms} canonical forms, "
            f"{lv.classes} classes, {lv.seconds:.2f} s in {lv.processes} "
            f"{'process' if lv.processes == 1 else 'processes'}",
            file=sys.stderr,
        )
    print(f"searched n<={args.n} beating {c}: {len(result.found)} graphs", file=sys.stderr)
    return 0


def _print_certificate(cert) -> None:
    print(f"outcome {cert.outcome}")
    if cert.reason:
        print(f"reason {cert.reason}")
    if cert.anchor:
        print("anchor " + ",".join(map(str, cert.anchor)))
    if cert.parts:
        for name in sorted(cert.parts):
            print(f"part {name} " + ",".join(map(str, cert.parts[name])))
    if cert.s_value is not None:
        print(f"s {cert.s_value}")
    if cert.target:
        print(f"target {cert.target}")
    if cert.hom:
        print("map " + ",".join(map(str, cert.hom)))
    if cert.colouring:
        print("colouring " + ",".join(map(str, cert.colouring)))
    if cert.failed_upgrades:
        print("failed-upgrades " + ";".join(cert.failed_upgrades))


def cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    cert = decompose_auto(g)
    _print_certificate(cert)
    summary = f"{cert.kind} decomposition: {cert.outcome}"
    if cert.reason:
        summary += f" ({cert.reason})"
    print(summary, file=sys.stderr)
    return 0 if cert.ok else 1


def cmd_verify_profile(args) -> int:
    report = verify_profile(_read_graph(args.file))
    print(f"n {report.n}")
    print(f"delta {report.min_degree}")
    print(f"ratio {report.ratio}")
    print(f"regime {report.regime}")
    print(f"outcome {report.outcome}")
    if report.colouring:
        print("colouring " + ",".join(map(str, report.colouring)))
    if report.hom_target:
        print(f"target {report.hom_target}")
        print("map " + ",".join(map(str, report.hom)))
    print(report.detail, file=sys.stderr)
    return 1 if report.hard_failure else 0


def cmd_verify_paper(args) -> int:
    report = verify_paper(only=args.only, timeout=args.timeout)
    if not report.entries:
        raise ValueError(f"no claim id contains {args.only!r}")
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code


def seconds(text: str) -> float:
    """A --timeout value; 0 is a budget that has already run out."""
    if not float(text) >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"not a non-negative number of seconds: {text!r}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localchrom",
        description="Exact tools for the chromatic profile of locally bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list or emit the named graph families")
    fsub = p.add_subparsers(dest="action", required=True)
    fsub.add_parser("list", help="list family ids")
    pe = fsub.add_parser("emit", help="write a family graph in adjacency-list format")
    pe.add_argument("family_id")
    pe.add_argument("-o", "--output")
    pe.add_argument("--dot", action="store_true", help="emit DOT instead")
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("check", help="locally-bipartite / twin-free / edge-maximal checks")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("hom", help="homomorphism / induced-subgraph / isomorphism decision")
    p.add_argument("g_file")
    p.add_argument("h_file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--induced", action="store_true")
    mode.add_argument("--iso", action="store_true")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("chi", help="exact chromatic number with witness")
    p.add_argument("file")
    p.add_argument("--timeout", type=seconds, default=None)
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("colour", help="exact k-colourability with witness")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--timeout", type=seconds, default=None)
    p.set_defaults(fn=cmd_colour)

    p = sub.add_parser("weight", help="optimal blow-up weighting t* (exact LP)")
    p.add_argument("file")
    p.add_argument("--beats", default=None, help="threshold p/q to compare against")
    p.set_defaults(fn=cmd_weight)

    p = sub.add_parser("search", help="enumerate twin-free edge-maximal locally bipartite graphs beating c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beats", required=True, help="threshold p/q")
    p.add_argument("--resume", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("decompose", help="C7BAR / H2+ decomposition certificate")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify-profile", help="end-to-end theorem pipeline on one graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify_profile)

    p = sub.add_parser("verify-paper", help="run the acceptance-claim report")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--only", default=None, help="substring filter on claim ids")
    p.add_argument("--timeout", type=seconds, default=None, help="global budget in seconds")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SolverTimeout:
        print("error: timeout", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
