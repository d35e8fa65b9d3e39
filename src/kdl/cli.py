"""Command-line front end with strict JSON input and deterministic output.

Subcommands: classify, fan, verify, graph, boundary, selftest.  All JSON
documents carry a "schema": "kdl/1" field; input parsing is strict (unknown
fields are rejected) so a typo in a datum cannot silently change a congruence
result.  Each input document is one row of ``_DOCUMENTS``, which gives every
field a kind from ``_KINDS``; ``_read`` checks all five documents.  Exit codes:
0 success, 1 a verification or selftest failure, 2 bad input (with a JSON error
object on stderr, or argparse's usage text), 141 stdout closed by its reader.
A well-formed request is read from its command parser's action tables, any other
takes one pass of the full parser, whose help and usage errors are argparse's own;
``emit`` writes ``json.dumps(indent=2)``'s bytes in one pass, as CPython 3.11's json has no C encoder for ``indent``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .boundary import adjacency_edges, boundary_payload, enumerate_components, render_dot
from .classify import (
    ELLIPTIC_RULED,
    HOPF,
    RATIONAL,
    TYPE_NAMES,
    TYPES,
    GluingMatrix,
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
from .smoothing import FAMILY_NAMES, build_family, family_payload, report_payload, verify_family

SCHEMA = "kdl/1"
# The text json.dumps writes for each scalar type that ``emit`` takes.
_LITERAL = {True: "true", False: "false", None: "null"}.get
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, bool: _LITERAL, type(None): _LITERAL}


class _Indents(dict):
    # Per depth: the text before a closing bracket, after a comma and before a first item, built at its first use.
    def __missing__(self, depth: int) -> tuple:
        pad = "\n" + "  " * depth
        self[depth] = ends = (pad, "," + pad + "  ", pad + "  ")
        return ends


_INDENTS = _Indents()


def emit(payload: dict) -> None:
    """Print ``payload`` under the schema field as an indented JSON document."""
    parts = []
    _write({"schema": SCHEMA, **payload}, 0, parts)
    print("".join(parts))


def _write(value, depth: int, parts: list) -> None:
    # Appends json.dumps(value, indent=2) of a dict, list or tuple at ``depth`` to ``parts``, each scalar
    # item written here.  Any other type, or a key that is not a str, raises TypeError.
    close, comma, sep = _INDENTS[depth]
    kind = type(value)
    if kind is dict:
        parts.append("{")
        for key, item in value.items():
            leaf = _LEAVES.get(type(item))
            if leaf is not None:
                parts += sep, encode_basestring_ascii(key), ": ", leaf(item)
            else:
                parts += sep, encode_basestring_ascii(key), ": "
                _write(item, depth + 1, parts)
            sep = comma
        parts += (close, "}") if value else ("}",)
    elif kind is list or kind is tuple:
        parts.append("[")
        for item in value:
            leaf = _LEAVES.get(type(item))
            if leaf is not None:
                parts += sep, leaf(item)
            else:
                parts.append(sep)
                _write(item, depth + 1, parts)
            sep = comma
        parts += (close, "]") if value else ("]",)
    else:
        raise TypeError(f"kdl does not encode {kind.__name__} values")


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


def _datum_text(args) -> str:
    if args.data is not None:
        return args.data
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _is(exact_type):
    return lambda value: type(value) is exact_type


def _list_of(item, length=None):
    return lambda value: (
        isinstance(value, list) and (length is None or len(value) == length) and all(map(item, value))
    )


# Each field kind: the test a JSON value must pass, the end of the message when
# it fails ("field 'x' must be ..."), and the conversion to the value the record
# takes.  A label takes any value and keeps its text.
_KINDS = {
    "integer": (_is(int), "an integer", int),
    "boolean": (_is(bool), "a boolean", bool),
    "label": (lambda value: True, None, str),
    "label pair": (_list_of(_is(str), 2), "a list of two strings", tuple),
    "matrix": (_list_of(_is(int), 4), "a list [a, b, c, d] of four integers", GluingMatrix._make),
    "vertex ids": (_list_of(_is(str)), "a list of vertex ids", tuple),
    "edges": (_list_of(_list_of(_is(str), 2)), "a list of [white, black] pairs", tuple),
    "six integers": (_list_of(_is(int), 6), "a list of six integers", tuple),
}

# Each input document's fields as (name, kind, may be omitted), in the order
# their kinds are checked; an omitted field takes the record's default.  Every
# document may also carry "schema".  A field of kind None is read by its
# handler: a datum's "type" before the datum, a Hopf "matrix" after it.
_DOCUMENTS = {
    HOPF: (
        ("n", "integer", False), ("n1", "integer", False), ("n2", "integer", False), ("b", "integer", False),
        ("alpha_label", "label", True), ("type", None, True), ("matrix", None, True),
    ),
    ELLIPTIC_RULED: (
        ("e", "integer", False), ("w", "integer", False), ("translation", "boolean", False),
        ("j_label", "label", True), ("type", None, True),
    ),
    RATIONAL: (
        ("horizontal_labels", "label pair", True), ("e", "integer", False), ("w", "integer", False),
        ("untwisted", "boolean", False), ("type", None, True),
    ),
    "graph": (("white", "vertex ids", False), ("black", "vertex ids", False), ("edges", "edges", False)),
    "gluing": (("components", "six integers", False), ("nodes", "six integers", False)),
}
# Each document's known field names, "schema" included, and its required ones.
_NAMES = {doc: ({"schema", *(n for n, _, _ in fs)}, {n for n, _, o in fs if not o}) for doc, fs in _DOCUMENTS.items()}


def _value(name: str, kind: str, value):
    test, wording, convert = _KINDS[kind]
    if not test(value):
        raise MalformedInput(f"field {name!r} must be {wording}")
    return convert(value)


def _read(data: dict, document: str) -> dict:
    """The fields of ``data`` that have a kind in ``document``, checked and converted, by name.

    Checks unknown fields, then missing ones, the schema and the kind of each
    field present in the document's order; the first failure raises
    MalformedInput."""
    known, required = _NAMES[document]
    unknown = data.keys() - known
    if unknown:
        raise MalformedInput(f"unknown fields: {sorted(unknown)}")
    missing = required - data.keys()
    if missing:
        raise MalformedInput(f"missing fields: {sorted(missing)}")
    if data.get("schema", SCHEMA) != SCHEMA:
        raise MalformedInput(f"unsupported schema {data['schema']!r}; expected {SCHEMA!r}")
    return {name: _value(name, kind, data[name]) for name, kind, _ in _DOCUMENTS[document] if kind and name in data}


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
    datum = TYPES[surface_type].datum(**_read(data, surface_type))
    matrix = _value("matrix", "matrix", data["matrix"]) if "matrix" in data else None
    emit(surface_class_payload(classify(datum, matrix)))
    return 0


def _cmd_fan(args) -> int:
    fam = build_family(args.family, e=args.e, w=args.w, window=args.window)
    emit(family_payload(fam) if args.full else window_payload(fam.fan))
    return 0


def _cmd_verify(args) -> int:
    report = verify_family(build_family(args.family, e=args.e, w=args.w, window=args.window))
    emit(report_payload(report))
    return 0 if report.all_pass else 1


def _read_record(record, text: str, document: str):
    """Build a graph or gluing record from its document, whose fields are in the record's order."""
    return record(*_read(_load_json(text), document).values())


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
    if args.betti is not None:
        graph = _read_record(BicolouredGraph, args.betti, "graph")
        emit({"betti1": betti1(graph), "components": graph.component_count()})
        return 0
    if args.gluing is not None:
        emit(_gluing_result_payload(_read_record(PolygonGluing, args.gluing, "gluing")))
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
    top, limit = args.degree * args.max_warp, sys.get_int_max_str_digits()  # the largest degree; 0 is no limit
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:  # top < 8**limit < 10**limit prints
        raise ValueError(f"--degree times --max-warp, the largest degree listed, must have at most {limit} digits")
    if args.format == "dot":
        components = enumerate_components(args.degree, args.max_warp)
        sys.stdout.write(render_dot(components, adjacency_edges(components)))
        return 0
    emit(boundary_payload(args.degree, args.max_warp))
    return 0


def _cmd_selftest(args) -> int:
    from . import selfcheck  # here, so no other request compiles or runs the criteria

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
    parser.commands = sub.choices  # each command's own parser, by name, for ``main``
    add_parser = functools.partial(sub.add_parser, formatter_class=formatter)

    p = add_parser("classify", help="classify a surface datum (JSON via --data, --file, or stdin)")
    p.add_argument("--type", choices=list(TYPE_NAMES))
    p.add_argument("--data", help="datum as a JSON string")
    p.add_argument("--file", help="path to a datum JSON file")
    p.set_defaults(handler=_cmd_classify)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, choices=FAMILY_NAMES)
    family.add_argument("--e", type=int, help="degree (hopf/rational/elliptic)")
    family.add_argument("--w", type=int, help="warp dividing the degree (default 1)")
    family.add_argument("--window", type=int, default=16, help="fan indices with |m|,|n| <= window (default 16)")

    p = add_parser("fan", parents=[family], help="emit a fan window (or the full family with --full)")
    p.add_argument("--full", action="store_true", help="emit generators and quotient data too")
    p.set_defaults(handler=_cmd_fan)

    p = add_parser("verify", parents=[family], help="run the verification battery; exit 0 iff all checks pass")
    p.set_defaults(handler=_cmd_verify)

    p = add_parser("graph", help="graph cohomology and 6-gon gluing classification")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--betti", help="bicoloured graph JSON; prints its first Betti number")
    mode.add_argument("--gluing", help="polygon gluing JSON; prints class and pullback rank")
    mode.add_argument("--enumerate", action="store_true", help="stream every candidate gluing as JSON lines")
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


def _read_argv(command: argparse.ArgumentParser, argv) -> argparse.Namespace | None:
    """The namespace ``command`` parses from a well-formed ``argv``, read from its action tables, or
    None for argparse to answer (help, abbreviations, "--opt=value", "--", repeats, "-1", errors)."""
    given, tokens = {}, iter(argv)
    try:
        for token in tokens:
            action = command._option_string_actions.get(token)
            if type(action) is argparse._StoreTrueAction and action not in given:
                given[action] = action.const
                continue
            value = next(tokens, "-")  # a missing value is declined as a "-" one is
            if type(action) is not argparse._StoreAction or action.nargs or action in given or value.startswith("-"):
                return None
            given[action] = value = action.type(value) if action.type else value
            if action.choices is not None and value not in action.choices:
                return None
        for group in command._mutually_exclusive_groups:  # argparse counts only values not the default
            chosen = [given[a] is not a.default for a in group._group_actions if a in given]
            if len(chosen) > 1 or group.required and not any(chosen):
                return None
        if any(a.required and a not in given for a in command._actions):
            return None
        # As argparse fills it: parser defaults, then action defaults (a dest's first; str ones typed), then given.
        args = {a.dest: a.type(a.default) if a.type and isinstance(a.default, str) else a.default
                for a in command._actions[::-1] if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
        vars(namespace := argparse.Namespace()).update(command._defaults | args | {a.dest: v for a, v in given.items()})
        return namespace
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _read_argv(parser.commands[argv[0]], argv[1:]) if argv and argv[0] in parser.commands else None
        if args is None:
            args = parser.parse_args(argv)
            command = parser.commands[args.command]
            # CPython 3.11 hands an option joined to "--" ("--window=--") an empty list, neither converted nor checked.
            if joined := [a for a in command._actions if isinstance(vars(args).get(a.dest), list)]:
                command.error(f"argument {'/'.join(joined[0].option_strings)}: expected one argument")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise
    except (KdlError, ValueError, OSError) as exc:
        # An OSError that is not also a ValueError is reported as "OSError",
        # whichever subclass it is.
        name = type(exc).__name__ if isinstance(exc, (KdlError, ValueError)) else "OSError"
        print(json.dumps({"schema": SCHEMA, "error": name, "message": str(exc)}), file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: exit as SIGPIPE would, with fd 1 on /dev/null for the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
