"""Command-line interface: bound computation, sign-reversal verification,
exact coloring, corpus comparison, and graph generation.

Exit codes: 0 success, 2 input/parameter error, 3 improper coloring,
4 exact-oracle timeout. Generator kinds and the vertex limit (`MAX_VERTICES`)
live in `graphs`, bound defaults and method names in `bounds`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import bounds, exact, graphs, linalg, reversal

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPROPER = 3
EXIT_TIMEOUT = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_graph(path) -> graphs.Graph:
    """Parse a DIMACS file; reject graphs with more than graphs.MAX_VERTICES vertices."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        g = graphs.parse_dimacs(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    if g.n > graphs.MAX_VERTICES:
        raise CliError(f"{path}: {g.n} vertices exceed the limit of {graphs.MAX_VERTICES}")
    return g


def _write_output(text, output):
    """Write to the file `output`, or to stdout when it is None."""
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _report_text(doc) -> str:
    lines = [f"graph {doc['graphId']}: n={doc['n']} m={doc['m']}"]
    for key in ("hoffman", "wilf", "tauOnes", "tauOptimized", "barnes"):
        value = doc[key]
        lines.append(f"  {key:<13} {value if value is not None else 'absent'}")
    lines.append(f"  {'exactChi':<13} {doc['exactChi'] if doc['exactChi'] is not None else 'absent'}")
    lines.append(f"  {'lower':<13} {doc['lower']}")
    for note in doc["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


def _bound_config(args) -> bounds.BoundConfig:
    methods = bounds.METHODS if args.method == "all" else (args.method, "exact")
    return bounds.BoundConfig(
        restarts=args.restarts,
        iterations=args.iters,
        seed=args.seed,
        allow_complex=args.complex_weights,
        exact_limit=args.exact_limit,
        methods=methods,
    )


def cmd_bound(args) -> int:
    g = _load_graph(args.input)
    config = _bound_config(args)
    report = bounds.chromatic_lower_bound(g, config, graph_id=Path(args.input).stem)
    doc = report.to_document()
    text = _dump_json(doc) if args.format == "json" else _report_text(doc)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_chi(args) -> int:
    g = _load_graph(args.input)
    result = exact.exact_chi(g, args.budget)
    doc = {
        "graphId": Path(args.input).stem,
        "chi": result.chi,
        "exact": not result.timed_out,
        "nodesExplored": result.nodes_explored,
        "witness": list(result.witness.colors),
    }
    status = "exact" if not result.timed_out else "timed out (best known)"
    text = f"chi = {result.chi} ({status}, {result.nodes_explored} nodes)\n"
    _write_output(_dump_json(doc) if args.format == "json" else text, args.output)
    return EXIT_TIMEOUT if result.timed_out else EXIT_OK


def _coloring_for(g, spec_str, budget):
    if spec_str == "dsatur":
        return exact.greedy_dsatur(g)
    if spec_str == "exact":
        result = exact.exact_chi(g, budget)
        if result.timed_out:
            raise CliError(f"exact oracle timed out (best known {result.chi})", EXIT_TIMEOUT)
        return result.witness
    try:
        tokens = Path(spec_str).read_text().split()
        colors = [int(t) for t in tokens]
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read coloring file {spec_str}: {exc}")
    if len(colors) != g.n:
        raise CliError(f"coloring file has {len(colors)} entries, graph has {g.n} vertices")
    if not graphs.is_proper(g, colors):
        violating = next((u, v) for u, v in sorted(g.edges) if colors[u] == colors[v])
        raise CliError(
            f"coloring is improper: edge {violating[0]}-{violating[1]} is monochromatic",
            EXIT_IMPROPER,
        )
    return graphs.Coloring(tuple(colors), max(colors) + 1)


def cmd_reverse(args) -> int:
    g = _load_graph(args.input)
    if g.num_edges == 0:
        raise CliError("graph has no edges; nothing to reverse")
    coloring = _coloring_for(g, args.colors, args.budget)
    terms = coloring.num_colors - 1
    entries = terms * g.n * g.n
    if entries > graphs.MAX_VERTICES**2:
        raise CliError(
            f"applying a map of {terms} unitaries to a {g.n}x{g.n} target "
            f"touches {entries} entries, above the limit of {graphs.MAX_VERTICES**2}"
        )
    if terms > graphs.MAX_VERTICES:
        raise CliError(
            f"a map of {terms} unitaries exceeds the limit of {graphs.MAX_VERTICES} terms; "
            f"a proper coloring of {g.n} vertices needs at most {g.n} colors"
        )
    if args.weight == "ones":
        m = graphs.adjacency_matrix(g)  # M = W * A = A for the all-ones W
    else:
        m = bounds.weighted_adjacency(g, bounds.WeightMatrix(linalg.random_hermitian(g.n, args.seed), "random"))
    rmap = reversal.reversal_from_coloring(g, coloring)
    check = reversal.verify_reversal(rmap, m, tol=args.tol)
    doc = {
        "graphId": Path(args.input).stem,
        "numColors": coloring.num_colors,
        "cost": linalg.fmt12(reversal.reversal_cost(rmap)),
        "costTarget": coloring.num_colors - 1,
        "residual": linalg.fmt12(check.residual),
        "ok": check.ok,
    }
    if args.emit_map:
        _write_output(_dump_json(reversal.serialize_map(rmap)), args.emit_map)
    text = (
        f"colors {coloring.num_colors}, cost {doc['cost']} "
        f"(target {doc['costTarget']}), residual {doc['residual']:.3e}, "
        f"{'ok' if check.ok else 'FAILED'}\n"
    )
    _write_output(_dump_json(doc) if args.format == "json" else text, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.gen_corpus:
        named = graphs.default_corpus()
    elif args.inputs:
        named = [(Path(p).stem, _load_graph(p)) for p in args.inputs]
    else:
        raise CliError("compare needs input files or --gen-corpus")
    config = _bound_config(args)
    rows = []
    improvements = tight = 0
    for name, g in named:
        try:
            report = bounds.chromatic_lower_bound(g, config, graph_id=name)
            doc = report.to_document()
            if not args.certificates:
                doc["certificates"] = {}
            rows.append(doc)
            classical = [x for x in (report.hoffman, report.barnes) if x is not None]
            if (
                report.tau_optimized is not None
                and classical
                and report.tau_optimized > max(classical) + 1e-6
            ):
                improvements += 1
            if report.exact_chi is not None and report.lower == report.exact_chi:
                tight += 1
        except ValueError as exc:
            rows.append({"graphId": name, "error": str(exc)})
    summary = {"graphs": len(rows), "tauOptImprovements": improvements, "lowerEqualsChi": tight}
    if args.format == "json":
        _write_output(_dump_json({"rows": rows, "summary": summary}), args.output)
    else:
        header = f"{'graph':<14}{'n':>4}{'m':>5}{'hoffman':>10}{'barnes':>10}{'tauOnes':>10}{'tauOpt':>10}{'wilf':>8}{'chi':>5}{'lower':>7}"
        lines = [header]
        for doc in rows:
            if "error" in doc:
                lines.append(f"{doc['graphId']:<14}error: {doc['error']}")
                continue

            def cell(v, width=10):
                return f"{v:>{width}.4f}" if v is not None else " " * (width - 6) + "   -  "

            chi = doc["exactChi"] if doc["exactChi"] is not None else "-"
            lines.append(
                f"{doc['graphId']:<14}{doc['n']:>4}{doc['m']:>5}"
                f"{cell(doc['hoffman'])}{cell(doc['barnes'])}{cell(doc['tauOnes'])}"
                f"{cell(doc['tauOptimized'])}{cell(doc['wilf'], 8)}{chi:>5}{doc['lower']:>7}"
            )
        lines.append(
            f"{summary['graphs']} graphs; tau-opt beats hoffman/barnes on "
            f"{summary['tauOptImprovements']}; lower equals exact chi on {summary['lowerEqualsChi']}"
        )
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_gen(args) -> int:
    g = graphs.generate(args.kind, *args.params)
    _write_output(graphs.emit_dimacs(g, comment=f"{args.kind}({', '.join(args.params)})"), args.out)
    return EXIT_OK


def _int_at_least(k):
    """argparse type factory: an integer >= k."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = k - 1
        if value < k:
            raise argparse.ArgumentTypeError(f"expected an integer >= {k}, got {text!r}")
        return value

    return parse


def _tolerance(text):
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _add_bound_flags(p):
    p.add_argument("--method", default="all", choices=("all",) + bounds.METHODS[:-1])
    p.add_argument("--restarts", type=_int_at_least(1), default=bounds.DEFAULT_RESTARTS)
    p.add_argument("--iters", type=_int_at_least(1), default=bounds.DEFAULT_ITERATIONS,
                   help="eigensolves per restart of the weight ascent; a restart may stop early")
    p.add_argument("--exact-limit", type=_int_at_least(0), default=bounds.DEFAULT_EXACT_LIMIT)
    p.add_argument("--seed", type=_int_at_least(0), default=bounds.DEFAULT_SEED)
    p.add_argument("--complex-weights", action="store_true", help="allow complex edge weights in the optimizer")


def _add_output_flags(p):
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--output", default=None, help="write to file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused by every later `main` call.

    argparse makes a help formatter for each argument it adds, so building takes about
    1.5 ms, a large share of a small `bound` job. Parsing keeps no state in the parser,
    so one instance serves every call in the process.
    """
    parser = argparse.ArgumentParser(
        prog="chromabound",
        description="Spectral lower bounds on the chromatic number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute bounds for one DIMACS graph")
    p.add_argument("input")
    _add_bound_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("chi", help="exact chromatic number")
    p.add_argument("input")
    p.add_argument("--budget", type=_int_at_least(1), default=exact.DEFAULT_BUDGET)
    _add_output_flags(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("reverse", help="build and verify a coloring-derived sign-reversal map")
    p.add_argument("input")
    p.add_argument("--colors", default="dsatur", help="dsatur, exact, or a coloring file path")
    p.add_argument("--weight", default="ones", choices=("ones", "random"))
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--budget", type=_int_at_least(1), default=exact.DEFAULT_BUDGET)
    p.add_argument("--emit-map", default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("compare", help="bound table over many graphs")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--gen-corpus", action="store_true", help="use the built-in corpus")
    p.add_argument("--certificates", action="store_true", help="keep certificates in json rows")
    _add_bound_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    kinds = "".join(f"\n  {graphs.generator_usage(kind)}" for kind in graphs.GENERATORS)
    p = sub.add_parser("gen", help="emit a generated graph as DIMACS", epilog="kinds and parameters:" + kinds,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("kind", help="generator kind, listed below")
    p.add_argument("params", nargs="*", help="the kind's parameters, in order")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # every error class of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
