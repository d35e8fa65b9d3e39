"""Command-line front end with strict JSON input and deterministic output.

Subcommands: classify, fan, verify, graph, boundary, selftest.  All JSON
documents carry a "schema": "kdl/1" field; input parsing is strict (unknown
fields are rejected) so a typo in a datum cannot silently change a congruence
result.  Exit codes: 0 success, 1 a verification or selftest failure, 2
malformed input (with a JSON error object on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import selfcheck
from .boundary import adjacency_edges, boundary_payload, enumerate_components, render_dot
from .classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    TYPE_NAMES,
    EllipticRuledDatum,
    GluingMatrix,
    HopfDatum,
    RationalDatum,
    classify,
    surface_class_payload,
)
from .errors import KdlError, MalformedInput
from .fans import window_payload
from .graphs import (
    BicolouredGraph,
    GluingClass,
    PolygonGluing,
    betti1,
    classify_gluing,
    enumerate_gluings,
    gluing_morphism,
    pullback_rank,
)
from .smoothing import FAMILIES, FAMILY_NAMES, build_family, family_payload, report_payload, verify_family

SCHEMA = "kdl/1"


def _emit(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2))


def _load_json(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"input is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("input is nested too deeply") from None
    if not isinstance(value, dict):
        raise MalformedInput("input must be a JSON object")
    return value


def _check_keys(data: dict, required: set, optional: set) -> None:
    keys = set(data)
    unknown = keys - required - optional
    if unknown:
        raise MalformedInput(f"unknown fields: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise MalformedInput(f"missing fields: {sorted(missing)}")
    if data.get("schema", SCHEMA) != SCHEMA:
        raise MalformedInput(f"unsupported schema {data['schema']!r}; expected {SCHEMA!r}")


def _int_field(data: dict, key: str) -> int:
    value = data[key]
    if type(value) is not int:
        raise MalformedInput(f"field {key!r} must be an integer")
    return value


def _bool_field(data: dict, key: str) -> bool:
    value = data[key]
    if type(value) is not bool:
        raise MalformedInput(f"field {key!r} must be a boolean")
    return value


def _datum_text(args) -> str:
    if args.data is not None:
        return args.data
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _parse_hopf(data: dict) -> HopfDatum:
    _check_keys(
        data,
        required={"n", "n1", "n2", "b"},
        optional={"schema", "type", "alpha_label", "matrix"},
    )
    n = _int_field(data, "n")
    n1, n2, b = (_int_field(data, k) for k in ("n1", "n2", "b"))
    datum = HopfDatum(n, n1, n2, b, alpha_label=str(data.get("alpha_label", "alpha")))
    if math.gcd(n1, n) != 1 or math.gcd(n2, n) != 1:
        raise MalformedInput("n1 and n2 must be units modulo n")
    return datum


def _parse_elliptic(data: dict) -> EllipticRuledDatum:
    _check_keys(data, required={"e", "w", "translation"}, optional={"schema", "type", "j_label"})
    return EllipticRuledDatum(
        _int_field(data, "e"),
        _int_field(data, "w"),
        translation=_bool_field(data, "translation"),
        j_label=str(data.get("j_label", "j")),
    )


def _parse_rational(data: dict) -> RationalDatum:
    _check_keys(
        data, required={"e", "w", "untwisted"}, optional={"schema", "type", "horizontal_labels"}
    )
    labels = data.get("horizontal_labels", ["h1", "h2"])
    if not (isinstance(labels, list) and len(labels) == 2 and all(isinstance(x, str) for x in labels)):
        raise MalformedInput("field 'horizontal_labels' must be a list of two strings")
    return RationalDatum(
        _int_field(data, "e"),
        _int_field(data, "w"),
        untwisted=_bool_field(data, "untwisted"),
        horizontal_labels=tuple(labels),
    )


def _parse_matrix(data: dict) -> GluingMatrix | None:
    # Only Hopf data may carry a matrix: the other parsers reject the field.
    if "matrix" not in data:
        return None
    entries = data["matrix"]
    if not (isinstance(entries, list) and len(entries) == 4 and all(type(x) is int for x in entries)):
        raise MalformedInput("field 'matrix' must be a list [a, b, c, d] of four integers")
    return GluingMatrix(*entries)


_PARSERS = {HOPF: _parse_hopf, ELLIPTIC_RULED: _parse_elliptic, RATIONAL: _parse_rational}


def _cmd_classify(args) -> int:
    data = _load_json(_datum_text(args))
    declared = data.get("type")
    surface_type = TYPE_NAMES.get(args.type)
    if declared is not None:
        # A JSON array or object is not hashable, so only strings are looked up.
        named = TYPE_NAMES.get(declared) if isinstance(declared, str) else None
        if named is None:
            raise MalformedInput(f"unknown surface type {declared!r}")
        if surface_type is not None and named != surface_type:
            raise MalformedInput(f"--type {surface_type} contradicts datum type {declared!r}")
        surface_type = named
    if surface_type is None:
        raise MalformedInput("no surface type: pass --type or a 'type' field")
    datum = _PARSERS[surface_type](data)
    _emit(surface_class_payload(classify(datum, _parse_matrix(data))))
    return 0


def _family_args(args, need_w: bool) -> tuple:
    family = args.family
    min_degree = FAMILIES[family].min_degree
    if min_degree is None:
        if args.e is not None or args.w is not None:
            raise MalformedInput(f"the {family} family takes no --e or --w")
        return family, None, None
    if args.e is None:
        raise MalformedInput(f"the {family} family needs --e" + (" (0 is allowed)" if min_degree == 0 else ""))
    if need_w and args.w is None:
        raise MalformedInput(f"the {family} family needs --w here")
    return family, args.e, args.w if args.w is not None else 1


def _cmd_fan(args) -> int:
    family, e, w = _family_args(args, need_w=False)
    fam = build_family(family, e=e, w=w, window=args.window)
    if args.full:
        _emit(family_payload(fam))
    else:
        _emit(window_payload(fam.fan))
    return 0


def _cmd_verify(args) -> int:
    family, e, w = _family_args(args, need_w=True)
    fam = build_family(family, e=e, w=w, window=args.window)
    report = verify_family(fam)
    _emit(report_payload(report))
    return 0 if report.all_pass else 1


def _parse_graph_document(text: str) -> BicolouredGraph:
    data = _load_json(text)
    _check_keys(data, required={"white", "black", "edges"}, optional={"schema"})
    white, black, edges = data["white"], data["black"], data["edges"]
    if not (isinstance(white, list) and all(isinstance(x, str) for x in white)):
        raise MalformedInput("field 'white' must be a list of vertex ids")
    if not (isinstance(black, list) and all(isinstance(x, str) for x in black)):
        raise MalformedInput("field 'black' must be a list of vertex ids")
    if not (
        isinstance(edges, list)
        and all(isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e) for e in edges)
    ):
        raise MalformedInput("field 'edges' must be a list of [white, black] pairs")
    try:
        return BicolouredGraph(tuple(white), tuple(black), tuple((w, b) for w, b in edges))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def _parse_gluing_document(text: str) -> PolygonGluing:
    data = _load_json(text)
    _check_keys(data, required={"components", "nodes"}, optional={"schema"})
    comps, nodes = data["components"], data["nodes"]
    for name, seq in (("components", comps), ("nodes", nodes)):
        if not (isinstance(seq, list) and len(seq) == 6 and all(type(x) is int for x in seq)):
            raise MalformedInput(f"field {name!r} must be a list of six integers")
    try:
        return PolygonGluing(tuple(comps), tuple(nodes))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def _gluing_result_payload(p: PolygonGluing) -> dict:
    cls = classify_gluing(p)
    rank = None if cls is GluingClass.INVALID else pullback_rank(gluing_morphism(p))
    return {
        "components": list(p.component_targets),
        "nodes": list(p.node_targets),
        "classification": cls.value,
        "pullback_rank": rank,
    }


def _cmd_graph(args) -> int:
    chosen = [x for x in (args.betti, args.gluing) if x is not None]
    if args.enumerate + len(chosen) != 1:
        raise MalformedInput("pass exactly one of --betti, --gluing, --enumerate")
    if args.betti is not None:
        graph = _parse_graph_document(args.betti)
        _emit({"betti1": betti1(graph), "components": graph.component_count()})
        return 0
    if args.gluing is not None:
        _emit(_gluing_result_payload(_parse_gluing_document(args.gluing)))
        return 0
    survey = enumerate_gluings(up_to_symmetry=args.up_to_symmetry)
    for p, _ in survey.results:
        print(json.dumps({"schema": SCHEMA, **_gluing_result_payload(p)}))
    summary = {
        "schema": SCHEMA,
        "summary": {
            "total": survey.total,
            "untwisted": survey.untwisted,
            "twisted": survey.twisted,
            "invalid": survey.invalid,
            "dihedral_orbits": survey.orbit_counts,
            "up_to_symmetry": args.up_to_symmetry,
        },
    }
    print(json.dumps(summary))
    return 0


def _cmd_boundary(args) -> int:
    if args.format == "dot":
        components = enumerate_components(args.degree, args.max_warp)
        sys.stdout.write(render_dot(components, adjacency_edges(components)))
        return 0
    _emit(boundary_payload(args.degree, args.max_warp))
    return 0


def _cmd_selftest(args) -> int:
    results = selfcheck.run_all()
    for result in results:
        print(result.line())
    passed = sum(1 for r in results if r.passed)
    print(f"passed {passed}/{len(results)} criteria")
    return 0 if passed == len(results) else 1


_PARSER: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call: parsing leaves no state in it."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _make_parser()
    return _PARSER


def _make_parser() -> argparse.ArgumentParser:
    # Help and usage text wrap at the width argparse picks for an 80-column
    # terminal, whatever COLUMNS or the terminal says.
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="kdl",
        description="Classify degenerations of primary Kodaira surfaces and verify their toric smoothing families.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    p = add_parser("classify", help="classify a surface datum (JSON via --data, --file, or stdin)")
    p.add_argument("--type", choices=list(TYPE_NAMES))
    p.add_argument("--data", help="datum as a JSON string")
    p.add_argument("--file", help="path to a datum JSON file")
    p.set_defaults(handler=_cmd_classify)

    p = add_parser("fan", help="emit a fan window (or the full family with --full)")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--e", type=int, help="degree (hopf/rational/elliptic)")
    p.add_argument("--w", type=int, help="warp (used by --full and the elliptic twist)")
    p.add_argument("--window", type=int, default=16, help="verify indices with |m|,|n| <= window")
    p.add_argument("--full", action="store_true", help="emit generators and quotient data too")
    p.set_defaults(handler=_cmd_fan)

    p = add_parser("verify", help="run the verification battery; exit 0 iff all checks pass")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--e", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--window", type=int, default=16)
    p.set_defaults(handler=_cmd_verify)

    p = add_parser("graph", help="graph cohomology and 6-gon gluing classification")
    p.add_argument("--betti", help="bicoloured graph JSON; prints its first Betti number")
    p.add_argument("--gluing", help="polygon gluing JSON; prints class and pullback rank")
    p.add_argument("--enumerate", action="store_true", help="stream every candidate gluing as JSON lines")
    p.add_argument("--up-to-symmetry", action="store_true", help="one gluing per dihedral orbit")
    p.set_defaults(handler=_cmd_graph)

    p = add_parser("boundary", help="enumerate moduli boundary components and adjacencies")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-warp", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(handler=_cmd_boundary)

    p = add_parser("selftest", help="run the acceptance criteria; exit 0 iff all pass")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (KdlError, ValueError) as exc:
        error = {
            "schema": SCHEMA,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        print(json.dumps(error), file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            json.dumps({"schema": SCHEMA, "error": "OSError", "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
