import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kdl.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
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
        code, _, err = run_cli(
            ["classify", "--type", "hopf", "--data", '{"n":4,"n1":2,"n2":1,"b":0}']
        )
        assert code == 2
        assert "unit" in json.loads(err)["message"]

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
        assert json.loads(err)["error"] == "MalformedInput"

    def test_missing_degree_rejected(self):
        code, _, _ = run_cli(["fan", "--family", "rational"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fan", "--family", "mumford", "--w", "1"], "the mumford family takes no --e or --w"),
            (["fan", "--family", "elliptic"], "the elliptic family needs --e (0 is allowed)"),
            (["fan", "--family", "hopf"], "the hopf family needs --e"),
            (["verify", "--family", "rational", "--w", "1"], "the rational family needs --e"),
            (["verify", "--family", "hopf", "--e", "2"], "the hopf family needs --w here"),
        ],
    )
    def test_family_rule_errors(self, argv, message):
        # The family rules come from each family's minimum degree.
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err == json.dumps({"schema": "kdl/1", "error": "MalformedInput", "message": message}) + "\n"


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

    def test_nondivisible_warp_rejected(self):
        code, _, err = run_cli(["verify", "--family", "hopf", "--e", "3", "--w", "2"])
        assert code == 2
        assert json.loads(err)["error"] == "NotDivisible"

    def test_mumford_verifies(self):
        code, out, _ = run_cli(["verify", "--family", "mumford", "--window", "6"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True


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

    def test_exactly_one_mode_required(self):
        code, _, _ = run_cli(["graph"])
        assert code == 2


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
