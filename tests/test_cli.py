import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kdl import cli, selfcheck
from kdl.classify import classify
from kdl.cli import build_parser, main


def run_cli(argv):
    # stdin is empty, so a request that falls back to reading it is answered
    # the same way in every run.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch("sys.stdin", io.StringIO("")):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestClassifyCommand:
    def test_hopf_example(self):
        code, out, err = run_cli(
            ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}']
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["schema"] == "kdl/1"
        assert payload["verdict"] == "KodairaSurface(1)"
        assert payload["degree"] == 2 and payload["warp"] == 2

    def test_type_can_come_from_datum(self):
        code, out, _ = run_cli(
            ["classify", "--data", '{"type":"rational","e":3,"w":2,"untwisted":true}']
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NoSmoothing"
        assert payload["admissible"] is True and payload["d_semistable"] is False

    def test_file_input(self, tmp_path):
        path = tmp_path / "datum.json"
        path.write_text('{"e":0,"w":1,"translation":true}', encoding="utf-8")
        code, out, _ = run_cli(["classify", "--type", "elliptic", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["verdict"] == "ComplexTorus"

    def test_unknown_field_rejected(self):
        code, out, err = run_cli(
            ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2,"x":1}']
        )
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "MalformedInput"
        assert "x" in error["message"]

    def test_missing_field_rejected(self):
        code, _, err = run_cli(["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3}'])
        assert code == 2
        assert "missing" in json.loads(err)["message"]

    def test_invalid_json_rejected(self):
        code, _, err = run_cli(["classify", "--type", "hopf", "--data", "{oops"])
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_non_unit_residue_rejected(self):
        code, out, err = run_cli(
            ["classify", "--type", "hopf", "--data", '{"n":4,"n1":2,"n2":1,"b":0}']
        )
        assert (code, out, err) == (2, "", error_line("n1 and n2 must be units modulo n", "ValueError"))

    def test_out_of_range_residues_rejected_at_n_1(self):
        code, out, err = run_cli(["classify", "--type", "hopf", "--data", '{"n":1,"n1":5,"n2":-7,"b":-3}'])
        assert (code, out, err) == (2, "", error_line("n1, n2, b must be residues in [0, n)", "ValueError"))

    def test_type_conflict_rejected(self):
        code, _, err = run_cli(
            ["classify", "--type", "hopf", "--data", '{"type":"rational","e":1,"w":1,"untwisted":true}']
        )
        assert code == 2

    def test_bool_typing_is_strict(self):
        code, _, err = run_cli(
            ["classify", "--type", "rational", "--data", '{"e":1,"w":1,"untwisted":1}']
        )
        assert code == 2
        assert "boolean" in json.loads(err)["message"]

    def test_schema_field_checked(self):
        code, _, err = run_cli(
            ["classify", "--type", "rational", "--data", '{"schema":"kdl/2","e":1,"w":1,"untwisted":true}']
        )
        assert code == 2

    def test_explicit_matrix(self):
        code, out, _ = run_cli(
            [
                "classify",
                "--type",
                "hopf",
                "--data",
                '{"n":4,"n1":1,"n2":3,"b":2,"matrix":[0,-1,1,0]}',
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is False
        assert payload["verdict"] == "NoSmoothing"


def error_line(message, error="MalformedInput"):
    return json.dumps({"schema": "kdl/1", "error": error, "message": message}) + "\n"


class TestClosedStdout:
    # A reader that closes the pipe early is not bad input: the process exits
    # as SIGPIPE would, and says nothing.  Window 2 fails at the flush on
    # exit, window 2000 inside the handler's print.
    @pytest.mark.parametrize("window", ["2", "2000"])
    def test_exit_141_and_empty_stderr(self, window):
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = [sys.executable, "-m", "kdl.cli", "fan", "--family", "hopf", "--e", "2", "--window", window]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        try:
            child = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (141, b"")


class TestUnreadableFile:
    # Every OSError subclass is reported under the name "OSError".
    def test_missing_path(self, tmp_path):
        path = str(tmp_path / "missing.json")
        message = f"[Errno 2] No such file or directory: '{path}'"
        assert run_cli(["classify", "--file", path]) == (2, "", error_line(message, "OSError"))

    def test_directory(self, tmp_path):
        message = f"[Errno 21] Is a directory: '{tmp_path}'"
        assert run_cli(["classify", "--file", str(tmp_path)]) == (2, "", error_line(message, "OSError"))


HOPF_FIELDS = {"n": 4, "n1": 1, "n2": 3, "b": 2}
ELLIPTIC_FIELDS = {"e": 4, "w": 2, "translation": True}
RATIONAL_FIELDS = {"e": 3, "w": 2, "untwisted": True}
GRAPH_FIELDS = {"white": ["a"], "black": ["p"], "edges": [["a", "p"]]}
GLUING_FIELDS = {"components": [0, 1, 2, 0, 1, 2], "nodes": [0, 1, 0, 1, 0, 1]}
DOCUMENTS = {
    "hopf": (["classify", "--type", "hopf", "--data"], HOPF_FIELDS),
    "elliptic": (["classify", "--type", "elliptic", "--data"], ELLIPTIC_FIELDS),
    "rational": (["classify", "--type", "rational", "--data"], RATIONAL_FIELDS),
    "graph": (["graph", "--betti"], GRAPH_FIELDS),
    "gluing": (["graph", "--gluing"], GLUING_FIELDS),
}
# One value of the wrong kind per field.  The labels alpha_label and j_label
# take any JSON value, so they have none.
WRONG_KINDS = [
    ("hopf", "n", "4", "field 'n' must be an integer"),
    ("hopf", "n1", True, "field 'n1' must be an integer"),
    ("hopf", "n2", 3.0, "field 'n2' must be an integer"),
    ("hopf", "b", None, "field 'b' must be an integer"),
    ("hopf", "matrix", [0, -1, 1], "field 'matrix' must be a list [a, b, c, d] of four integers"),
    ("hopf", "type", 1, "unknown surface type 1"),
    ("elliptic", "e", "4", "field 'e' must be an integer"),
    ("elliptic", "w", [2], "field 'w' must be an integer"),
    ("elliptic", "translation", 1, "field 'translation' must be a boolean"),
    ("rational", "e", 1.5, "field 'e' must be an integer"),
    ("rational", "w", {}, "field 'w' must be an integer"),
    ("rational", "untwisted", "true", "field 'untwisted' must be a boolean"),
    ("rational", "horizontal_labels", ["h1"], "field 'horizontal_labels' must be a list of two strings"),
    ("graph", "white", "a", "field 'white' must be a list of vertex ids"),
    ("graph", "black", [1], "field 'black' must be a list of vertex ids"),
    ("graph", "edges", [["a", "p", "p"]], "field 'edges' must be a list of [white, black] pairs"),
    ("gluing", "components", [0, 1, 2, 0, 1], "field 'components' must be a list of six integers"),
    ("gluing", "nodes", [0, 1, 0, 1, 0, False], "field 'nodes' must be a list of six integers"),
] + [(document, "schema", 1, "unsupported schema 1; expected 'kdl/1'") for document in DOCUMENTS]


class TestDocumentFields:
    @pytest.mark.parametrize(
        "document, field, value, message", WRONG_KINDS, ids=[f"{d}-{f}" for d, f, _, _ in WRONG_KINDS]
    )
    def test_wrong_kind_error_line(self, document, field, value, message):
        prefix, fields = DOCUMENTS[document]
        data = json.dumps({**fields, field: value})
        assert run_cli([*prefix, data]) == (2, "", error_line(message))

    @pytest.mark.parametrize(
        "document, field, default",
        [("hopf", "alpha_label", "alpha"), ("elliptic", "j_label", "j"), ("rational", "horizontal_labels", ["h1", "h2"])],
    )
    def test_omitted_label_takes_the_record_default(self, monkeypatch, document, field, default):
        prefix, fields = DOCUMENTS[document]
        datums = []

        def recording_classify(datum, matrix=None):
            datums.append(datum)
            return classify(datum, matrix)

        monkeypatch.setattr(cli, "classify", recording_classify)
        omitted = run_cli([*prefix, json.dumps(fields)])
        assert omitted[0] == 0
        assert run_cli([*prefix, json.dumps({**fields, field: default})]) == omitted
        assert datums[0] == datums[1]


ELLIPTIC_DATUM = '"e":4,"w":2,"translation":true'


class TestTypeNames:
    # The datum's "type" field and --type resolve through the same name map.
    @pytest.mark.parametrize("name", ["elliptic", "elliptic_ruled"])
    def test_datum_type_takes_every_type_option_name(self, name):
        by_option = run_cli(["classify", "--type", "elliptic", "--data", "{" + ELLIPTIC_DATUM + "}"])
        assert by_option[0] == 0 and json.loads(by_option[1])["type"] == "elliptic_ruled"
        datum = '{"type":"%s",%s}' % (name, ELLIPTIC_DATUM)
        assert run_cli(["classify", "--data", datum]) == by_option
        for option in ("elliptic", "elliptic_ruled"):
            assert run_cli(["classify", "--type", option, "--data", datum]) == by_option

    def test_contradiction_names_the_datum_type_as_written(self):
        argv = ["classify", "--type", "rational", "--data", '{"type":"elliptic",%s}' % ELLIPTIC_DATUM]
        assert run_cli(argv) == (2, "", error_line("--type rational contradicts datum type 'elliptic'"))

    @pytest.mark.parametrize("option", [[], ["--type", "hopf"]], ids=["no-option", "type-hopf"])
    @pytest.mark.parametrize(
        "declared, message",
        [(["hopf"], "unknown surface type ['hopf']"), ({"a": 1}, "unknown surface type {'a': 1}")],
        ids=["list", "object"],
    )
    def test_non_string_type_is_unknown(self, option, declared, message):
        data = json.dumps({"type": declared, "n": 4, "n1": 1, "n2": 3, "b": 2})
        assert run_cli(["classify", *option, "--data", data]) == (2, "", error_line(message))


CLASSIFY_USAGE = (
    "usage: kdl classify [-h] [--type {hopf,elliptic,elliptic_ruled,rational}]\n"
    "                    [--data DATA] [--file FILE]\n"
)


class TestClassifyHelpBytes:
    # Pinned at COLUMNS=80, the width argparse would otherwise take from the terminal.
    @pytest.fixture(autouse=True)
    def eighty_columns(self):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            yield

    def test_help(self):
        assert run_cli(["classify", "--help"]) == (
            0,
            CLASSIFY_USAGE
            + "\n"
            + "options:\n"
            + "  -h, --help            show this help message and exit\n"
            + "  --type {hopf,elliptic,elliptic_ruled,rational}\n"
            + "  --data DATA           datum as a JSON string\n"
            + "  --file FILE           path to a datum JSON file\n",
            "",
        )

    def test_unknown_type_usage_error(self):
        assert run_cli(["classify", "--type", "k3"]) == (
            2,
            "",
            CLASSIFY_USAGE
            + "kdl classify: error: argument --type: invalid choice: 'k3' "
            + "(choose from 'hopf', 'elliptic', 'elliptic_ruled', 'rational')\n",
        )

    @pytest.mark.parametrize("columns", [None, "40", "80", "200"])
    def test_bytes_do_not_depend_on_columns(self, columns):
        pinned = [run_cli(["classify", "--help"]), run_cli(["classify", "--type", "k3"])]
        with mock.patch.dict(os.environ):
            os.environ.pop("COLUMNS")
            if columns is not None:
                os.environ["COLUMNS"] = columns
            assert [run_cli(["classify", "--help"]), run_cli(["classify", "--type", "k3"])] == pinned


FAMILY_USAGE = "--family {mumford,hopf,elliptic,rational}"
FAMILY_OPTIONS = (
    "  -h, --help            show this help message and exit\n"
    f"  {FAMILY_USAGE}\n"
    "  --e E                 degree (hopf/rational/elliptic)\n"
    "  --w W                 warp dividing the degree (default 1)\n"
    "  --window WINDOW       fan indices with |m|,|n| <= window (default 16)\n"
)
GRAPH_USAGE = (
    "usage: kdl graph [-h] (--betti BETTI | --gluing GLUING | --enumerate)\n"
    "                 [--up-to-symmetry]\n"
)


class TestHelpBytes:
    # fan and verify share their family options; graph takes exactly one mode.
    @pytest.mark.parametrize(
        "command, text",
        [
            (
                "fan",
                f"usage: kdl fan [-h] {FAMILY_USAGE} [--e E] [--w W]\n"
                "               [--window WINDOW] [--full]\n\noptions:\n"
                + FAMILY_OPTIONS
                + "  --full                emit generators and quotient data too\n",
            ),
            (
                "verify",
                f"usage: kdl verify [-h] {FAMILY_USAGE} [--e E]\n"
                "                  [--w W] [--window WINDOW]\n\noptions:\n" + FAMILY_OPTIONS,
            ),
            (
                "graph",
                GRAPH_USAGE
                + "\noptions:\n"
                + "  -h, --help        show this help message and exit\n"
                + "  --betti BETTI     bicoloured graph JSON; prints its first Betti number\n"
                + "  --gluing GLUING   polygon gluing JSON; prints class and pullback rank\n"
                + "  --enumerate       stream every candidate gluing as JSON lines\n"
                + "  --up-to-symmetry  one gluing per dihedral orbit\n",
            ),
        ],
        ids=["fan", "verify", "graph"],
    )
    def test_help(self, command, text):
        assert run_cli([command, "--help"]) == (0, text, "")


class TestFanCommand:
    def test_window_document(self):
        code, out, _ = run_cli(["fan", "--family", "hopf", "--e", "3", "--window", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hopf_smoothing"
        assert payload["params"] == {"e": 3}
        assert [c["index"] for c in payload["cones"]] == [-2, -1, 0, 1, 2]
        assert payload["cones"][1]["rays"] == [[-1, 3, 1], [0, 0, 1]]

    def test_full_family_document(self):
        code, out, _ = run_cli(["fan", "--family", "elliptic", "--e", "4", "--w", "2", "--window", "2", "--full"])
        assert code == 0
        payload = json.loads(out)
        assert [g["name"] for g in payload["generators"]] == ["polygon_shift", "base_twist"]
        assert payload["quotient"] == {"galois_order": 2, "generic_fiber_degree": 2}

    def test_mumford_rejects_degree(self):
        code, _, err = run_cli(["fan", "--family", "mumford", "--e", "1"])
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"

    def test_missing_degree_rejected(self):
        code, _, _ = run_cli(["fan", "--family", "rational"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fan", "--family", "mumford", "--w", "1"], "the mumford family takes no degree or warp"),
            (["fan", "--family", "elliptic"], "the elliptic family needs a degree e"),
            (["fan", "--family", "hopf"], "the hopf family needs a degree e"),
            (["verify", "--family", "rational", "--w", "1"], "the rational family needs a degree e"),
            (["verify", "--family", "hopf", "--e", "0"], "the hopf family needs degree e >= 1"),
        ],
        ids=["mumford-warp", "elliptic-no-degree", "hopf-no-degree", "rational-no-degree", "hopf-degree-zero"],
    )
    def test_family_rule_errors(self, argv, message):
        # The family rules are build_family's, reported under its exception name.
        assert run_cli(argv) == (2, "", error_line(message, "ValueError"))

    @pytest.mark.parametrize("command", ["fan", "verify"])
    def test_warp_defaults_to_one(self, command):
        argv = [command, "--family", "hopf", "--e", "2", "--window", "3"]
        omitted = run_cli(argv)
        assert omitted[0] == 0
        assert run_cli([*argv, "--w", "1"]) == omitted


class TestVerifyCommand:
    def test_passing_family_exits_zero(self):
        code, out, _ = run_cli(["verify", "--family", "hopf", "--e", "2", "--w", "2", "--window", "8"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_rational_small_window(self):
        code, out, _ = run_cli(["verify", "--family", "rational", "--e", "1", "--w", "1", "--window", "3"])
        assert code == 0
        payload = json.loads(out)
        names = {c["name"] for c in payload["checks"]}
        assert {"shift_m", "shift_n", "deflection_m", "deflection_n"} <= names

    def test_a_window_of_any_size(self):
        # A certified family's verification does the same work for every
        # window: W = 10**6 lists none of the rational window's 4*10**12 cones.
        code, out, _ = run_cli(["verify", "--family", "rational", "--e", "1", "--window", "1000000"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_nondivisible_warp_rejected(self):
        code, _, err = run_cli(["verify", "--family", "hopf", "--e", "3", "--w", "2"])
        assert code == 2
        assert json.loads(err)["error"] == "NotDivisible"

    def test_mumford_verifies(self):
        code, out, _ = run_cli(["verify", "--family", "mumford", "--window", "6"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True


class TestSelftestCommand:
    # One line per criterion, then the summary; exit 1 unless every criterion passes.
    PASS = selfcheck.CriterionResult(1, "passing", True, "fine", 0.0)
    FAIL = selfcheck.CriterionResult(2, "failing", False, "broken", 0.0)

    @pytest.mark.parametrize("results, code, summary", [
        ([PASS, FAIL], 1, "passed 1/2 criteria"),
        ([PASS, PASS], 0, "passed 2/2 criteria"),
    ])
    def test_exit_code_and_summary(self, monkeypatch, results, code, summary):
        monkeypatch.setattr(selfcheck, "run_all", lambda: results)
        lines = [r.line() for r in results] + [summary]
        assert run_cli(["selftest"]) == (code, "\n".join(lines) + "\n", "")

    def test_only_selftest_imports_the_criteria(self):
        # The criteria module is imported by the selftest handler alone, so no other request compiles or runs it.
        code = "import sys, kdl.cli; print('kdl.selfcheck' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class TestGraphCommand:
    def test_betti(self):
        doc = '{"white":["a"],"black":["p"],"edges":[["a","p"],["a","p"]]}'
        code, out, _ = run_cli(["graph", "--betti", doc])
        assert code == 0
        assert json.loads(out) == {"schema": "kdl/1", "betti1": 1, "components": 1}

    def test_gluing_classification(self):
        doc = '{"components":[0,1,2,0,1,2],"nodes":[0,1,0,1,0,1]}'
        code, out, _ = run_cli(["graph", "--gluing", doc])
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "Untwisted"
        assert payload["pullback_rank"] == 0

    def test_invalid_gluing_has_null_rank(self):
        doc = '{"components":[0,0,1,1,2,2],"nodes":[0,1,0,1,0,1]}'
        code, out, _ = run_cli(["graph", "--gluing", doc])
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "Invalid"
        assert payload["pullback_rank"] is None

    def test_enumerate_streams_json_lines(self):
        code, out, _ = run_cli(["graph", "--enumerate", "--up-to-symmetry"])
        assert code == 0
        lines = out.strip().split("\n")
        summary = json.loads(lines[-1])["summary"]
        assert summary["total"] == 5760
        assert summary["untwisted"] == 12 and summary["twisted"] == 36
        assert summary["dihedral_orbits"] == {"Untwisted": 1, "Twisted": 3, "Invalid": 516}
        assert len(lines) - 1 == sum(summary["dihedral_orbits"].values())
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["classification"] in ("Untwisted", "Twisted", "Invalid")

    def test_component_out_of_range_keeps_its_error_name(self):
        doc = '{"components":[0,1,2,0,1,5],"nodes":[0,1,0,1,0,1]}'
        message = "component_targets must be six values in 0..2"
        assert run_cli(["graph", "--gluing", doc]) == (2, "", error_line(message, "ValueError"))

    def test_exactly_one_mode_required(self):
        # Zero or two modes is argparse's usage error, not a JSON error object.
        for argv, error in [
            (["graph"], "one of the arguments --betti --gluing --enumerate is required"),
            (["graph", "--enumerate", "--betti", "{}"], "argument --betti: not allowed with argument --enumerate"),
        ]:
            assert run_cli(argv) == (2, "", GRAPH_USAGE + f"kdl graph: error: {error}\n")


class TestBoundaryCommand:
    def test_json_counts(self):
        code, out, _ = run_cli(["boundary", "--degree", "1", "--max-warp", "2"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["components"]) == 6
        assert len(payload["edges"]) == 3

    def test_dot_format(self):
        code, out, _ = run_cli(["boundary", "--degree", "2", "--max-warp", "1", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph moduli_boundary {")

    def test_bad_degree(self):
        code, _, err = run_cli(["boundary", "--degree", "0", "--max-warp", "1"])
        assert code == 2

    def test_value_error_prints_nothing_on_stdout(self):
        # Degrees d*w for w >= 10 have more digits than Python's int-to-str limit.
        code, out, err = run_cli(["boundary", "--degree", str(10**4299), "--max-warp", "20"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_an_unprintable_largest_degree_is_refused_by_name(self, fmt):
        # d * w_max = 10**limit has one digit more than the interpreter prints:
        # one JSON error naming both options on stderr, nothing on stdout.
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(["boundary", "--degree", str(10 ** (limit - 1)), "--max-warp", "10", "--format", fmt])
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err) == {
            "schema": "kdl/1",
            "error": "ValueError",
            "message": f"--degree times --max-warp, the largest degree listed, must have at most {limit} digits",
        }

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_the_digit_limit_is_read_at_each_request(self, monkeypatch, fmt):
        # Under a limit of 3 digits, 333 * 3 = 999 is served and 500 * 2 = 1000
        # is refused; a limit of 0 refuses nothing.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3)
        assert run_cli(["boundary", "--degree", "333", "--max-warp", "3", "--format", fmt])[0] == 0
        code, out, err = run_cli(["boundary", "--degree", "500", "--max-warp", "2", "--format", fmt])
        assert (code, out) == (2, "") and "at most 3 digits" in json.loads(err)["message"]
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert run_cli(["boundary", "--degree", "500", "--max-warp", "2", "--format", fmt])[0] == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--type", "hopf", "--data", '{"n":9,"n1":1,"n2":4,"b":3}'],
            ["fan", "--family", "rational", "--e", "2", "--window", "2"],
            ["boundary", "--degree", "3", "--max-warp", "4"],
            ["graph", "--gluing", '{"components":[0,1,2,0,2,1],"nodes":[0,1,0,1,0,1]}'],
        ],
    )
    def test_byte_identical_reruns(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second

    def test_usage_error_exit_code(self):
        code, _, _ = run_cli(["classify", "--no-such-flag"])
        assert code == 2

    @pytest.mark.parametrize("argv", [["fan", "--family", "k3"], ["verify"], ["no-such-command"]])
    def test_usage_errors_print_argparse_usage(self, argv):
        # Usage errors are argparse's own: plain usage text on stderr, not a
        # JSON error object.
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: kdl")


# Per command, a request that is valid once any one of its value options below
# is given a value.
JOINABLE = {
    "classify": ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}'],
    "fan": ["fan", "--family", "hopf", "--e", "2", "--w", "1", "--window", "1"],
    "verify": ["verify", "--family", "hopf", "--e", "2", "--w", "1", "--window", "1"],
    "graph": ["graph"],
    "boundary": ["boundary", "--degree", "1", "--max-warp", "1", "--format", "json"],
}
VALUE_OPTIONS = [
    (command, action.option_strings[0])
    for command, parser in build_parser().commands.items()
    for action in parser._actions
    if action.option_strings and action.nargs is None
]


class TestOptionJoinedToSeparator:
    def test_every_command_with_a_value_option_has_a_request(self):
        assert {command for command, _ in VALUE_OPTIONS} == set(JOINABLE) and len(VALUE_OPTIONS) == 16

    @pytest.mark.parametrize("command, option", VALUE_OPTIONS)
    def test_is_the_usage_error_of_a_missing_value(self, command, option):
        # CPython 3.11's argparse hands an option joined to "--" an empty list,
        # neither converted nor checked; kdl answers it as argparse answers the
        # option with no value.  "--format=--" used to print a JSON document
        # and "--family=--" to report ValueError "unknown family []".
        argv = list(JOINABLE[command])
        if option in argv:
            del argv[argv.index(option) : argv.index(option) + 2]
        code, out, err = run_cli(argv + [f"{option}=--"])
        assert (code, out, err) == (2, "", run_cli(argv + [option])[2])
        assert err.endswith(f"\nkdl {command}: error: argument {option}: expected one argument\n")


NESTED_ERROR = json.dumps({"schema": "kdl/1", "error": "MalformedInput", "message": "input is nested too deeply"}) + "\n"


class TestNestedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--type", "hopf", "--data", "[" * 100_000],
            ["graph", "--betti", "[" * 100_000],
            ["graph", "--gluing", "[" * 100_000],
            ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2,"alpha_label":' + "[" * 100_000 + "}"],
        ],
        ids=["classify", "graph-betti", "graph-gluing", "alpha-label"],
    )
    def test_deep_nesting_is_malformed_input(self, argv):
        # The JSON decoder gives up with a RecursionError; the CLI answers it
        # like any other malformed document.
        assert run_cli(argv) == (2, "", NESTED_ERROR)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reuse_leaves_help_and_usage_bytes_alone(self):
        with mock.patch.object(cli, "_PARSER", None):
            help_first = run_cli(["--help"])
            usage_first = run_cli(["fan", "--family", "k3"])
            parser = build_parser()
            run_cli(["verify"])
            run_cli(["classify", "--type", "hopf", "--data", "{oops"])
            run_cli(["fan", "--help"])
            assert run_cli(["--help"]) == help_first
            assert run_cli(["fan", "--family", "k3"]) == usage_first
            assert build_parser() is parser
        assert help_first[0] == 0 and help_first[1].startswith("usage: kdl") and help_first[2] == ""
        assert usage_first[:2] == (2, "") and usage_first[2].startswith("usage: kdl")


def emitted(payload):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.emit(payload)
    return out.getvalue()


# Strings with every kind of character the encoder must escape or keep.
STRINGS = st.one_of(
    st.text(st.characters(blacklist_categories=())),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "/", "é", "∞", "\U0001f600", "\ud800", "\udfff", "a\n\tb"]),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | STRINGS,
    lambda values: st.lists(values) | st.lists(values).map(tuple) | st.dictionaries(STRINGS, values),
    max_leaves=40,
)


class IntSubclass(int):
    pass


class TestEmit:
    @given(JSON_VALUES)
    @example([[], {}, (), [[]], {"a": {}}, -(2**64) - 1, 2**64, True, None, ""])
    def test_matches_indented_json_dumps(self, value):
        payload = {"value": value}
        assert emitted(payload) == json.dumps({"schema": "kdl/1", **payload}, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value", [1.5, IntSubclass(3), {1: 2}, [{"a": [0.0]}]], ids=["float", "int subclass", "int key", "nested"]
    )
    def test_other_types_raise_and_print_nothing(self, value, capsys):
        with pytest.raises(TypeError):
            cli.emit({"value": value})
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "value",
        [
            {'[{"a": 1}, "b"]': "x, y: [z]", "}\n{": ['"', "\\", "a\nb", "[]", "{}", ",", ":"]},
            functools.reduce(lambda inner, i: [inner] if i % 2 else {str(i): inner}, range(150), 7),
            [True, 1, False, 0, None, [1, True], (True, 1)],
            {"tuple": (1, (2, [3])), "list": [(), []], "mixed": [(1,), [1]]},
        ],
        ids=["punctuation in strings and keys", "150 levels", "bools beside ints", "tuples beside lists"],
    )
    def test_edge_cases_match_indented_json_dumps(self, value):
        payload = {"value": value}
        assert emitted(payload) == json.dumps({"schema": "kdl/1", **payload}, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value, error",
        [([1, {"a": [2, 3.5]}], TypeError), ([0, 10**4300], ValueError)],
        ids=["type error three levels down", "int past the str limit"],
    )
    def test_error_partway_prints_nothing(self, value, error, capsys):
        with pytest.raises(error):
            cli.emit({"before": [1, 2], "value": value, "after": "x"})
        assert capsys.readouterr().out == ""


# Requests for the contract test.  Every one finishes in milliseconds: no
# selftest, no --enumerate, and small windows.
VALID_REQUESTS = [
    ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}'],
    ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2,"matrix":[0,-1,1,0]}'],
    ["classify", "--data", '{"type":"rational","e":3,"w":2,"untwisted":true}'],
    ["classify", "--type", "elliptic", "--data", '{"e":4,"w":2,"translation":true}'],
    ["fan", "--family", "hopf", "--e", "3", "--window", "2"],
    ["fan", "--family", "elliptic", "--e", "4", "--w", "2", "--window", "1", "--full"],
    ["verify", "--family", "mumford", "--window", "2"],
    ["verify", "--family", "rational", "--e", "1", "--w", "1", "--window", "1"],
    ["graph", "--betti", '{"white":["a"],"black":["p"],"edges":[["a","p"],["a","p"]]}'],
    ["graph", "--gluing", '{"components":[0,1,2,0,1,2],"nodes":[0,1,0,1,0,1]}'],
    ["boundary", "--degree", "2", "--max-warp", "2"],
    ["boundary", "--degree", "1", "--max-warp", "2", "--format", "dot"],
]
JSON_REQUESTS = [argv for argv in VALID_REQUESTS if argv[-1].startswith("{")]
NESTING_ENTRIES = [
    ("classify", "--type", "hopf", "--data"),
    ("graph", "--betti"),
    ("graph", "--gluing"),
]
USAGE_ERRORS = [
    [],
    ["fan"],
    ["fan", "--family", "k3"],
    ["verify"],
    ["no-such-command"],
    ["classify", "--no-such-flag"],
    ["classify", "--type", "k3", "--data", "{}"],
    ["fan", "--family", "hopf", "--window", "abc"],
    ["boundary", "--degree", "1"],
    ["boundary", "--degree", "1", "--max-warp", "1", "--format", "svg"],
    ["graph", "--betti"],
    ["graph"],
    ["graph", "--enumerate", "--betti", "{}"],
]
HELP_REQUESTS = [["--help"], ["-h"]] + [[name, "--help"] for name in ("classify", "fan", "verify", "graph", "boundary", "selftest")]
ARGV_TOKENS = ["--help", "--window", "-1", "0", "abc", "--e", "--w", "--full", "--format", "dot", "k3", "{}", "--file", "--data"]


@st.composite
def mutated_json(draw):
    argv = list(draw(st.sampled_from(JSON_REQUESTS)))
    text = argv[-1]
    at = draw(st.integers(0, len(text)))
    piece = draw(st.sampled_from(["", "{", "}", "[", "]", ",", ":", '"', "0", "-1", "true", "null", ' "x":1,']))
    cut = draw(st.integers(0, 3))
    argv[-1] = text[:at] + piece + text[at + cut :]
    return argv


@st.composite
def nested_json(draw):
    depth = draw(st.one_of(st.integers(0, 1200), st.sampled_from([5_000, 100_000])))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    body = opener * depth + ("0" + closer * depth if draw(st.booleans()) else "")
    if draw(st.booleans()):
        return ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2,"alpha_label":' + (body or "0") + "}"]
    return [*draw(st.sampled_from(NESTING_ENTRIES)), body]


@st.composite
def out_of_range(draw):
    small = st.integers(-3, 12).map(str)
    kind = draw(st.sampled_from(["fan", "verify", "boundary", "hopf", "elliptic", "rational"]))
    if kind in ("fan", "verify"):
        argv = [kind, "--family", draw(st.sampled_from(["mumford", "hopf", "elliptic", "rational"]))]
        argv += ["--window", draw(st.integers(-2, 3).map(str))]
        for flag in ("--e", "--w"):
            if draw(st.booleans()):
                argv += [flag, draw(small)]
        return argv
    if kind == "boundary":
        return ["boundary", "--degree", draw(st.integers(-2, 4).map(str)), "--max-warp", draw(st.integers(-2, 4).map(str))]
    ints = st.integers(-3, 9)
    if kind == "hopf":
        datum = {k: draw(ints) for k in ("n", "n1", "n2", "b")}
    else:
        flag = "translation" if kind == "elliptic" else "untwisted"
        datum = {"e": draw(ints), "w": draw(ints), flag: draw(st.booleans())}
    return ["classify", "--type", kind, "--data", json.dumps(datum)]


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(VALID_REQUESTS)))
    at = draw(st.integers(0, len(argv) - 1))
    token = draw(st.sampled_from(ARGV_TOKENS))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "replace":
        argv[at] = token
    elif edit == "insert":
        argv.insert(at, token)
    else:
        del argv[at]
    return argv


REQUESTS = st.one_of(
    st.sampled_from(VALID_REQUESTS),
    mutated_json(),
    nested_json(),
    out_of_range(),
    st.sampled_from(USAGE_ERRORS),
    mutated_argv(),
    st.sampled_from(HELP_REQUESTS),
)


def assert_one_of_three_outcomes(argv, code, out, err):
    if code == 0:
        assert err == ""
        if out.startswith("usage: kdl"):
            assert "--help" in argv or "-h" in argv
        elif out.startswith("graph moduli_boundary {"):
            assert argv[0] == "boundary" and "dot" in argv
        else:
            assert json.loads(out)["schema"] == "kdl/1"
    elif code == 1:
        assert err == "" and json.loads(out)["all_pass"] is False
    else:
        assert code == 2 and out == ""
        if not err.startswith("usage: kdl"):
            assert err.endswith("\n") and err.count("\n") == 1
            error = json.loads(err)
            assert set(error) == {"schema", "error", "message"} and error["schema"] == "kdl/1"


class TestContract:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(REQUESTS, min_size=1, max_size=6))
    @example(VALID_REQUESTS + HELP_REQUESTS + USAGE_ERRORS)
    def test_every_request_ends_in_one_of_three_outcomes(self, requests):
        # One process serves the whole sequence on its one parser; each answer
        # must equal the answer of a freshly built parser, so no request leaves
        # state behind in the reused one.
        reused = build_parser()
        for argv in requests:
            result = run_cli(argv)
            assert_one_of_three_outcomes(argv, *result)
            with mock.patch.object(cli, "_PARSER", None):
                assert run_cli(argv) == result
                assert build_parser() is not reused
            assert build_parser() is reused


# The request dump: the valid, help and usage-error requests above, a few
# hand-picked shapes, then seeded mutants of the valid requests, each with one
# to three edits.  No request runs selftest, --enumerate or --file, so every
# answer takes milliseconds and none depends on the working directory.
DUMP_SIZE = 5000
DUMP_SEED = 21
DUMP_SHAPES = [
    ["fan", "--fam", "hopf", "--e", "3", "--win", "2"],
    ["verify", "--fam", "mumford", "--win", "2"],
    ["boundary", "--deg", "2", "--max", "2"],
    ["boundary", "--degree=2", "--max-warp=2", "--format=dot"],
    ["fan", "--family=hopf", "--e=3", "--window=2", "--full"],
    ["fan", "--family", "hopf", "--family", "elliptic", "--e", "3", "--e", "4", "--window", "1"],
    ["verify", "--family", "mumford", "--", "--window", "2"],
    ["classify", "--data", "{}", "extra"],
    ["classify", "--type", "hopf", "--data", '{"n":4,"n1":1,"n2":3,"b":2}', "--", "extra"],
    ["graph", "--gluing", '{"components":[0,1,2,0,1,2],"nodes":[0,1,0,1,0,1]}', "extra"],
    ["boundary", "--degree", "1", "--max-warp", "1", "-h"],
    [""],
    ["--"],
    ["--", "fan", "--family", "mumford"],
    ["-x", "fan"],
]
DUMP_COMMANDS = ["", "no-such-command", "Classify", "fa", "verify2", "-x", "--", "-h"]
DUMP_LEFTOVERS = ["extra", "{}", "-1", "--bogus", "x=1", "--", "-h"]
DUMP_TOKENS = [token for token in ARGV_TOKENS if token != "--file"]


def _options(argv):
    return [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 2]


def _abbreviate(rng, argv):
    at = _options(argv)
    if at:
        i = rng.choice(at)
        argv[i] = argv[i][: rng.randint(3, len(argv[i]))]


def _join_value(rng, argv):
    at = [i for i in _options(argv) if i + 1 < len(argv)]
    if at:
        i = rng.choice(at)
        argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]


def _repeat(rng, argv):
    at = _options(argv)
    if at:
        i = rng.choice(at)
        argv[rng.randint(1, len(argv)) : 0] = argv[i : i + rng.randint(1, 2)]


def _separate(rng, argv):
    argv.insert(rng.randint(0, len(argv)), "--")


def _leave_over(rng, argv):
    argv.insert(rng.randint(1, len(argv)), rng.choice(DUMP_LEFTOVERS))


def _ask_help(rng, argv):
    argv.insert(rng.randint(0, len(argv)), rng.choice(["-h", "--help"]))


def _rename_command(rng, argv):
    if rng.random() < 0.1:
        argv.clear()
    else:
        argv[0] = rng.choice(DUMP_COMMANDS)


def _edit_token(rng, argv):
    at = rng.randrange(len(argv))
    edit = rng.choice(["replace", "insert", "delete"])
    if edit == "replace":
        argv[at] = rng.choice(DUMP_TOKENS)
    elif edit == "insert":
        argv.insert(at, rng.choice(DUMP_TOKENS))
    else:
        del argv[at]


DUMP_EDITS = [_abbreviate, _join_value, _repeat, _separate, _leave_over, _ask_help, _rename_command, _edit_token]


def _dump_safe(argv):
    # An option is written out, abbreviated or joined to its value; each of
    # these would run --enumerate in graph or read a --file in classify.  An
    # option joined to "--" ended in a traceback when the digest was pinned, so
    # the dump leaves it out; TestOptionJoinedToSeparator pins its usage error.
    slow = {"graph": "--enumerate", "classify": "--file"}
    names = [token.split("=", 1)[0] for token in argv]
    return "selftest" not in argv and not any(token.endswith("=--") for token in argv) and not any(
        command in argv and len(name) > 2 and option.startswith(name)
        for command, option in slow.items()
        for name in names
    )


def dump_requests():
    rng = random.Random(DUMP_SEED)
    requests = [list(argv) for argv in VALID_REQUESTS + HELP_REQUESTS + USAGE_ERRORS + DUMP_SHAPES]
    while len(requests) < DUMP_SIZE:
        argv = list(rng.choice(VALID_REQUESTS))
        for _ in range(rng.randint(1, 3)):
            if argv:
                rng.choice(DUMP_EDITS)(rng, argv)
        if _dump_safe(argv):
            requests.append(argv)
    return requests


# sha256 of the dump's (argv, exit code, stdout, stderr), pinned where every
# request went through the full parser and json.dumps(indent=2).
DUMP_DIGEST = "9b22082efa86db24a459ee306235563de9a2132c1efad38181c5f838f7ddb384"


class TestRequestDump:
    def test_dump_is_byte_identical(self):
        digest = hashlib.sha256()
        for argv in dump_requests():
            code, out, err = run_cli(argv)
            digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        assert digest.hexdigest() == DUMP_DIGEST


# The reader: each command's well-formed argv is read from its parser's action
# tables, and argparse parses only what the reader declines.
COMMANDS = build_parser().commands
# Values of every kind the reader must take or decline as argparse would.
ODD_VALUES = ["", "abc", "k3", "x=1", "a b", "{", "{oops", "=", "-", "-1", "--x", "1.5", " 2 "]


def option_value(draw, action):
    # Mostly a value of the option's own kind, else one of the odd values.
    if not draw(st.integers(0, 4)):
        return draw(st.sampled_from(ODD_VALUES))
    if action.choices is not None:
        return draw(st.sampled_from(list(action.choices)))
    if action.type is int:
        return str(draw(st.integers(-3, 9)))
    return draw(st.sampled_from([argv[-1] for argv in JSON_REQUESTS]))


@st.composite
def well_formed_argv(draw):
    # Any subset of a command's options, each written whole and once, in any
    # order; mostly the required ones are among them.
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = [a for a in COMMANDS[command]._actions if a.option_strings and a.nargs in (None, 0)]
    chosen = draw(st.lists(st.sampled_from(options), unique=True)) if options else []
    if draw(st.integers(0, 3)):
        chosen += [a for a in options if a.required and a not in chosen]
    argv = [command]
    for action in draw(st.permutations(chosen)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs is None:
            argv.append(option_value(draw, action))
    return argv


def read(argv):
    command = build_parser().commands.get(argv[0]) if argv else None
    return cli._read_argv(command, argv[1:]) if command else None


def assert_reader_agrees_with_argparse(argv):
    # A namespace the reader gives must be a fresh parser's, and answer the same bytes.
    namespace = read(argv)
    if namespace is None:
        return False
    with mock.patch.object(cli, "_PARSER", None):
        parsed = vars(build_parser().parse_args(argv))
    assert {dest: value for dest, value in parsed.items() if dest != "command"} == vars(namespace)
    with mock.patch.object(cli, "_read_argv", return_value=None):
        by_argparse = run_cli(argv)
    assert run_cli(argv) == by_argparse
    return True


class TestReader:
    @pytest.fixture(autouse=True)
    def quick_handlers(self):
        # selftest answers no criteria and the gluing survey is made once per mode, so
        # each request takes milliseconds; both paths run the same handlers.
        survey = functools.cache(cli.enumerate_gluings)
        with mock.patch.object(selfcheck, "run_all", return_value=[]):
            with mock.patch.object(cli, "enumerate_gluings", survey):
                yield

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture]
    )
    @given(well_formed_argv())
    @example(["graph", "--enumerate", "--up-to-symmetry"])
    @example(["selftest"])
    def test_a_read_namespace_is_argparse_s(self, argv):
        assert_reader_agrees_with_argparse(argv)

    def test_every_dumped_request_read_is_argparse_s(self):
        assert sum(assert_reader_agrees_with_argparse(argv) for argv in dump_requests()) > len(VALID_REQUESTS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fan", "--help"],
            ["fan", "--fam", "hopf"],
            ["fan", "--family=hopf"],
            ["verify", "--family", "mumford", "--", "--window", "2"],
            ["fan", "--family", "hopf", "--family", "hopf"],
            ["fan", "--family", "mumford", "--window", "-1"],
            ["classify", "--data", "{}", "extra"],
            ["fan", "--family", "k3"],
            ["fan", "--family", "hopf", "--window", "abc"],
            ["fan", "--window", "1"],
            ["graph"],
            ["graph", "--betti", "{}", "--gluing", "{}"],
            ["fan", "--family"],
        ],
        ids=["help", "abbreviation", "joined", "separator", "repeat", "negative", "leftover", "choice", "type",
             "required", "no-mode", "two-modes", "no-value"],
    )
    def test_declines_what_argparse_must_answer(self, argv):
        assert read(argv) is None


# Every well-formed shape of request, the valid requests and the orders the
# benchmark's request pools write.
FAST_PATH_REQUESTS = VALID_REQUESTS + [
    ["fan", "--family", "hopf", "--window", "4", "--e", "6", "--w", "3", "--full"],
    ["verify", "--family", "elliptic", "--window", "4", "--e", "2", "--w", "1"],
    ["boundary", "--degree", "3", "--max-warp", "2", "--format", "json"],
]


class ArgparsePass(Exception):
    pass


class TestFastPath:
    def test_every_well_formed_shape_is_pinned(self):
        shapes = {(argv[0], *sorted(t for t in argv if t.startswith("--"))) for argv in FAST_PATH_REQUESTS}
        assert {
            ("classify", "--data"),
            ("fan", "--e", "--family", "--full", "--w", "--window"),
            ("verify", "--e", "--family", "--w", "--window"),
            ("graph", "--gluing"),
            ("graph", "--betti"),
            ("boundary", "--degree", "--format", "--max-warp"),
        } <= shapes

    def test_well_formed_requests_take_no_argparse_pass(self):
        # A later change must not turn the reader into dead code while the outputs stay right.
        passes = []

        def refuse(parser, args=None, namespace=None):
            passes.append(args)
            raise ArgparsePass

        with mock.patch.object(argparse.ArgumentParser, "parse_known_args", refuse):
            for argv in FAST_PATH_REQUESTS:
                with contextlib.suppress(ArgparsePass):
                    run_cli(argv)
        assert len(passes) == 0, passes


def declines_or_agrees(parser, argv):
    namespace = cli._read_argv(parser, argv)
    return namespace is None or namespace == parser.parse_args(argv)


class TestReaderOnHandBuiltParsers:
    def test_a_str_default_goes_through_its_type(self):
        parser = argparse.ArgumentParser(prog="p")
        parser.add_argument("--window", type=int, default="16")
        parser.add_argument("--label", default="x")
        parser.set_defaults(handler=len)
        assert all(declines_or_agrees(parser, argv) for argv in ([], ["--label", "y"], ["--window", "3"]))
        assert cli._read_argv(parser, []).window == 16

    def test_a_suppressed_default_sets_nothing(self):
        parser = argparse.ArgumentParser(prog="p")
        parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
        assert vars(cli._read_argv(parser, [])) == vars(parser.parse_args([])) == {}
        assert declines_or_agrees(parser, ["--quiet"])

    def test_a_required_group_value_that_is_its_default_is_argparse_s(self):
        # argparse counts a group's action as given only when its value is not
        # the very default object; 1 is, so it answers "one of ... is required".
        parser = argparse.ArgumentParser(prog="p")
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=int, default=1)
        group.add_argument("--m")
        assert cli._read_argv(parser, ["--n", "1"]) is None
        assert cli._read_argv(parser, ["--n", "2"]) == parser.parse_args(["--n", "2"])

    def test_a_shared_dest_takes_its_first_action_s_default(self):
        parser = argparse.ArgumentParser(prog="p")
        parser.add_argument("--a", dest="x", default=1)
        parser.add_argument("--b", dest="x", default=2)
        assert cli._read_argv(parser, []) == parser.parse_args([]) == argparse.Namespace(x=1)
        assert all(declines_or_agrees(parser, argv) for argv in (["--a", "3"], ["--b", "4"]))

    @pytest.mark.parametrize("nargs", ["?", "*", "+", 1, 2])
    def test_an_option_of_other_arity_is_argparse_s(self, nargs):
        parser = argparse.ArgumentParser(prog="p")
        parser.add_argument("--xs", nargs=nargs)
        assert declines_or_agrees(parser, ["--xs", "a", "b"][: 3 if nargs == 2 else 2])
