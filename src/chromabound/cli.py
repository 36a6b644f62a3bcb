"""Command-line interface: bound computation, sign-reversal verification,
exact coloring, corpus comparison, and graph generation.

Exit codes: 0 success, 2 input/parameter error, 3 improper coloring,
4 exact-oracle timeout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import bounds, exact, graphs, linalg, reversal

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPROPER = 3
EXIT_TIMEOUT = 4

ALL_METHODS = ("wilf", "hoffman", "tau-ones", "barnes", "tau-opt", "exact")

# Vertex limit for every command that loads or generates a graph. bound,
# compare and reverse build dense n x n matrices (64 MiB each when complex at
# this n), and chi's DSATUR works on n-bit integers (at this n on G(n, 0.01),
# greedy DSATUR takes 0.03 s and the default budget of 10^6 nodes about 6 s).
# reverse also caps its map at MAX_DENSE_N^2 unitary entries.
MAX_DENSE_N = 2048


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _load_graph(path) -> graphs.Graph:
    """Parse a DIMACS file; reject graphs with more than MAX_DENSE_N vertices."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        g = graphs.parse_dimacs(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    if g.n > MAX_DENSE_N:
        raise CliError(f"{path}: {g.n} vertices exceed the limit of {MAX_DENSE_N}")
    return g


def _write_output(text, output):
    if output:
        Path(output).write_text(text)
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
    methods = ALL_METHODS if args.method == "all" else (args.method, "exact")
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
    if args.format == "json":
        _write_output(_dump_json(doc), args.output)
    else:
        status = "exact" if not result.timed_out else "timed out (best known)"
        _write_output(f"chi = {result.chi} ({status}, {result.nodes_explored} nodes)\n", args.output)
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
    entries = (coloring.num_colors - 1) * g.n * g.n
    if entries > MAX_DENSE_N**2:
        raise CliError(
            f"a map of {coloring.num_colors - 1} unitaries of size {g.n}x{g.n} has "
            f"{entries} entries, above the limit of {MAX_DENSE_N**2}"
        )
    if args.weight == "ones":
        w = bounds.ones_weight(g.n)
    else:
        w = bounds.WeightMatrix(linalg.random_hermitian(g.n, args.seed), "random")
    m = bounds.weighted_adjacency(g, w)
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
        Path(args.emit_map).write_text(_dump_json(reversal.serialize_map(rmap)))
    if args.format == "json":
        _write_output(_dump_json(doc), args.output)
    else:
        _write_output(
            f"colors {coloring.num_colors}, cost {doc['cost']} "
            f"(target {doc['costTarget']}), residual {doc['residual']:.3e}, "
            f"{'ok' if check.ok else 'FAILED'}\n",
            args.output,
        )
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


def _check_gen_size(desc, count, at_least=False):
    """Refuse a generated graph from its vertex count, before it is built."""
    if count > MAX_DENSE_N:
        bound = "at least " if at_least else ""
        raise CliError(f"{desc}: {bound}{count} vertices exceed the limit of {MAX_DENSE_N}")


def cmd_gen(args) -> int:
    kind = args.kind
    params = args.params
    try:
        if kind in ("complete", "cycle", "star"):
            if len(params) != 1:
                raise ValueError(f"{kind} takes one parameter: n")
            desc = f"{kind}({params[0]})"
            n = int(params[0])
            _check_gen_size(desc, n)
            g = graphs.generate(kind, n=n)
        elif kind == "petersen":
            if params:
                raise ValueError("petersen takes no parameters")
            g = graphs.petersen()
            desc = "petersen"
        elif kind == "kneser":
            if len(params) != 2:
                raise ValueError("kneser takes two parameters: n k")
            desc = f"kneser({params[0]}, {params[1]})"
            n, k = int(params[0]), int(params[1])
            if 1 <= k <= n // 2:  # else graphs.kneser rejects (n, k)
                _check_gen_size(desc, n, at_least=True)  # C(n, k) >= n
                _check_gen_size(desc, math.comb(n, k))
            g = graphs.kneser(n, k)
        elif kind == "mycielski":
            if len(params) != 1:
                raise ValueError("mycielski takes one parameter: tower height over K2")
            levels = int(params[0])
            if levels < 1:
                raise ValueError("tower height must be >= 1")
            desc = f"mycielski tower level {levels}"
            # level L has 3 * 2^L - 1 vertices; level 11 is far past the limit
            _check_gen_size(desc, 3 * 2 ** min(levels, 11) - 1, at_least=levels > 11)
            g = graphs.complete(2)
            for _ in range(levels):
                g = graphs.mycielski(g)
        elif kind == "erdos-renyi":
            if len(params) != 3:
                raise ValueError("erdos-renyi takes three parameters: n p seed")
            desc = f"erdos_renyi({params[0]}, {params[1]}, seed={params[2]})"
            n = int(params[0])
            _check_gen_size(desc, n)
            g = graphs.erdos_renyi(n, float(params[1]), int(params[2]))
        else:
            raise ValueError(f"unknown kind {kind!r}")
    except ValueError as exc:
        raise CliError(str(exc))
    _write_output(graphs.emit_dimacs(g, comment=desc), args.out)
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
    p.add_argument("--method", default="all", choices=("all",) + ALL_METHODS[:-1])
    p.add_argument("--restarts", type=_int_at_least(1), default=8)
    p.add_argument("--iters", type=_int_at_least(1), default=200,
                   help="eigensolves per restart of the weight ascent; a restart may stop early")
    p.add_argument("--exact-limit", type=_int_at_least(0), default=30)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--complex-weights", action="store_true", help="allow complex edge weights in the optimizer")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromabound",
        description="Spectral lower bounds on the chromatic number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute bounds for one DIMACS graph")
    p.add_argument("input")
    _add_bound_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("chi", help="exact chromatic number")
    p.add_argument("input")
    p.add_argument("--budget", type=_int_at_least(1), default=exact.DEFAULT_BUDGET)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("reverse", help="build and verify a coloring-derived sign-reversal map")
    p.add_argument("input")
    p.add_argument("--colors", default="dsatur", help="dsatur, exact, or a coloring file path")
    p.add_argument("--weight", default="ones", choices=("ones", "random"))
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--budget", type=_int_at_least(1), default=exact.DEFAULT_BUDGET)
    p.add_argument("--emit-map", default=None)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("compare", help="bound table over many graphs")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--gen-corpus", action="store_true", help="use the built-in corpus")
    p.add_argument("--certificates", action="store_true", help="keep certificates in json rows")
    _add_bound_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="emit a generated graph as DIMACS")
    p.add_argument("kind")
    p.add_argument("params", nargs="*")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
