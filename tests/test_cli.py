import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from corpus import cographic, complete_graph
from hkit import arrangement, cli, intmat, localmodel
from hkit.arrangement import Kind, build_discriminant, group_hyperplanes
from hkit.cli import main
from hkit.errors import UnsupportedDimension
from hkit.intmat import IntMatrix, is_unimodular
from hkit.plot import plot_arrangement

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# K_8 with one edge swapped for a row that makes a maximal minor -2
K8_HOLE_ROWS = complete_graph(8).row_list()[:-1] + [[1, 1, 1, 0, 0, 0, 0]]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def report_of(out):
    return json.loads(out)


class TestCommands:
    def test_gale_identity(self, capsys):
        code, out = run_cli(
            ["gale", "--in", '{"rows": [[1, 0], [0, 1]]}'], capsys
        )
        assert code == 0
        rep = report_of(out)
        assert rep["schema_version"] == 2
        assert rep["result"]["A"] == {"rows": [], "cols": 2}
        assert "N = n" in rep["notes"]

    def test_gale_reduces_transpose_once(self, capsys, monkeypatch):
        # one HNF of B^T gives A and both verdicts; one more reduces A's rows
        calls = []
        hermite = intmat._hermite

        def counted(H, n):
            calls.append(n)
            return hermite(H, n)

        monkeypatch.setattr(intmat, "_hermite", counted)
        code, out = run_cli(["gale", "--in", '{"rows": [[1, 0], [0, 1], [1, 1]]}'], capsys)
        assert code == 0
        assert report_of(out)["result"]["unimodular_B"] is True
        assert len(calls) == 2

    def test_gale_of_matrix_without_columns(self, capsys):
        # n = 0: A = I_2 is unimodular, as is_unimodular says, while B has no
        # maximal minors and keeps its verdict
        code, out = run_cli(["gale", "--in", '{"rows": [[], []], "cols": 0}'], capsys)
        assert code == 0
        result = report_of(out)["result"]
        assert result["A"] == {"rows": [[1, 0], [0, 1]], "cols": 2}
        assert is_unimodular(IntMatrix.identity(2))
        assert result["unimodular_A"] is True
        assert result["unimodular_B"] is False

    def test_gale_domain_error(self, capsys):
        code, out = run_cli(["gale", "--in", '{"rows": [[1, 0], [1, 0]]}'], capsys)
        assert code == 1
        rep = report_of(out)
        assert rep["error"]["code"] == "not_injective"

    def test_parse_error_exit_2(self, capsys):
        code = main(["gale", "--in", "{broken"])
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code = main(["gale", "--in", "/nonexistent/B.json"])
        assert code == 2

    @pytest.mark.parametrize(
        "command, shape",
        [
            ("check", "matrix JSON must be"),
            ("reconstruct", "divisor JSON must be"),
            ("local-model", "local-model input must be"),
        ],
    )
    def test_inline_json_list_is_read_inline(self, capsys, command, shape):
        # a list is inline JSON, not a file name: the shape error, exit 2
        code = main([command, "--in", " [1]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert shape in captured.err
        assert "No such file" not in captured.err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("gale", '{"rows": [[1.9, 0], [0, 1], [1, 1]]}'),
            ("gale", '{"rows": [[true, 0], [0, 1], [1, 1]]}'),
            ("gale", '{"rows": 5}'),
            ("gale", '{"rows": [1, 2]}'),
            ("gale", '{"rows": [[1, 0], [0, 1]], "cols": 2.0}'),
            ("build", '{"rows": [], "cols": -1}'),
            ("local-model", '{"m": 2.7, "n": 2}'),
            ("local-model", '{"m": 2, "n": true}'),
            ("local-model", '{"m": 2}'),
            ("round-trip", '{"n": 1, "walls": [{"normal": [1], "mult": 2.5}]}'),
            ("round-trip", '{"n": 1, "walls": [{"normal": [true], "mult": 2}]}'),
            ("round-trip", '{"n": 1.0, "walls": [{"normal": [1], "mult": 2}]}'),
            ("round-trip", '{"n": 1, "walls": 5}'),
            ("round-trip", '{"n": 1, "walls": [[1]]}'),
        ],
    )
    def test_non_integer_input_exit_2(self, capsys, command, payload):
        # rejected, not truncated to an int: no report, exit 2
        code = main([command, "--in", payload])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")

    def test_discriminant_triple(self, capsys):
        code, out = run_cli(["discriminant", "--in", '{"rows": [[1], [1], [1]]}'], capsys)
        assert code == 0
        rep = report_of(out)
        comps = rep["result"]["components"]
        assert comps == [
            {"normal": [1], "offset": 0, "multiplicity": 3, "kind": "first"}
        ]
        assert rep["result"]["leaves"][0]["singularity"] == "A2"

    def test_check(self, capsys):
        code, out = run_cli(["check", "--in", '{"rows": [[1, 0], [0, 1], [1, 1]]}'], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["unimodular"] is True
        assert rep["result"]["case"]["case"] == "hypertoric"

    @staticmethod
    def counted_check(rows, capsys, monkeypatch):
        """The result of one `hkit check` on rows and its `_hermite` calls."""
        calls = []
        hermite = intmat._hermite

        def counted(H, n):
            calls.append(n)
            return hermite(H, n)

        monkeypatch.setattr(intmat, "_hermite", counted)
        code, out = run_cli(["check", "--in", json.dumps({"rows": rows})], capsys)
        assert code == 0
        return report_of(out)["result"], len(calls)

    def test_check_reduces_transpose_once(self, capsys, monkeypatch):
        # the HNF of B^T has unit pivots: it gives the rank, the invariant
        # factors, the case and the unimodularity verdict, with no Smith form
        result, calls = self.counted_check([[1, 0], [0, 1], [1, 1]], capsys, monkeypatch)
        assert result["unimodular"] is True
        assert result["unimodularity_method"] == "minors"
        assert result["invariant_factors"] == [1, 1]
        assert calls == 1

    @pytest.mark.parametrize("rows", [[[1, 0]], [[1, 0, 1], [0, 1, 1]]])
    def test_check_reduces_wide_matrix_once(self, rows, capsys, monkeypatch):
        # a wide B is decided on its tall transpose: one HNF, of B, gives the
        # rank, the invariant factors, the rejected case and the verdict
        result, calls = self.counted_check(rows, capsys, monkeypatch)
        assert result["unimodular"] is True
        assert result["invariant_factors"] == [1] * len(rows)
        assert result["case"]["case"] == "rejected"
        assert calls == 1

    def test_check_smith_form_off_the_unit_path(self, capsys, monkeypatch):
        # B^T's HNF has a pivot 2 and B's HNF decides the torsion-free
        # cokernel; the Smith form starts from that HNF, so the invariant
        # factors take one column HNF
        result, calls = self.counted_check([[1, 1], [1, -1], [0, 1]], capsys, monkeypatch)
        assert result["invariant_factors"] == [1, 1]
        assert result["coker_torsion_free"] is True
        assert result["unimodular"] is False
        assert result["case"]["coker_torsion_free"] is True
        assert calls == 3

    def test_check_wide_matrix(self, capsys):
        # rank below n: the case is rejected, but [[1, 0]] is unimodular
        code, out = run_cli(["check", "--in", '{"rows": [[1, 0]]}'], capsys)
        assert code == 0
        result = report_of(out)["result"]
        assert result["unimodular"] is True
        assert result["case"]["case"] == "rejected"

    @pytest.mark.parametrize(
        "rows, expected",
        [
            (
                [[2, 0], [0, 1], [1, 1]],
                {"N": 3, "n": 2, "rank": 2, "injective": True, "invariant_factors": [1, 1],
                 "coker_torsion_free": True, "unimodular": False},
            ),
            (
                [[2, 0, 2]],
                {"N": 1, "n": 3, "rank": 1, "injective": False, "invariant_factors": [2],
                 "coker_torsion_free": False, "unimodular": False},
            ),
        ],
        ids=["tall", "wide"],
    )
    def test_check_rows_not_primitive(self, rows, expected, capsys):
        # no case is classified, but rank, factors and the verdict still are
        code, out = run_cli(["check", "--in", json.dumps({"rows": rows})], capsys)
        assert code == 0
        result = report_of(out)["result"]
        assert result == {
            **expected,
            "rows_primitive": False,
            "non_primitive_rows": [0],
            "unimodularity_method": "minors",
        }

    def test_build_a1(self, capsys):
        code, out = run_cli(["build", "--in", '{"rows": [[1], [1]]}'], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["dimension"] == 2
        assert len(rep["result"]["hilbert_basis"]) == 4
        reduced = rep["result"]["presentation"]["reduced"]
        assert len(reduced["s_classes"]) == 1
        assert len(reduced["relations"]) == 1

    def test_reconstruct(self, capsys):
        code, out = run_cli(
            ["reconstruct", "--in", '{"n": 1, "walls": [{"normal": [1], "mult": 2}]}'],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["B"] == {"rows": [[1], [1]], "cols": 1}
        assert rep["result"]["case"]["case"] == "hypertoric"

    def test_round_trip_equal(self, capsys):
        code, out = run_cli(
            ["round-trip", "--in", '{"n": 1, "walls": [{"normal": [1], "mult": 2}]}'],
            capsys,
        )
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["equal"] is True
        assert rep["result"]["unimodular_B"] is True

    def test_round_trip_rejected(self, capsys):
        code, out = run_cli(
            ["round-trip", "--in", '{"n": 2, "walls": [{"normal": [1, 0], "mult": 3}]}'],
            capsys,
        )
        assert code == 1
        rep = report_of(out)
        assert rep["error"]["code"] == "case_rejected"

    def test_round_trip_negative_n_exit_2(self, capsys):
        # refused where n is read, with a message that names n
        code = main(["round-trip", "--in", '{"n": -1, "walls": []}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: n must be a nonnegative int, got -1")

    def test_deform(self, capsys):
        code, out = run_cli(["deform", "--in", '{"rows": [[1], [1]]}'], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["line"]["offsets"] == [0, 1]
        assert rep["result"]["genericity"]["all_pass"] is True
        assert rep["result"]["slices"]["t0"][0]["multiplicity"] == 2
        assert [c["multiplicity"] for c in rep["result"]["slices"]["t1"]] == [1, 1]

    def test_deform_reads_validated_basis_rows(self, capsys, monkeypatch):
        # validation reduces B^T and the kernel rows; the line reads its
        # basis rows from validation and (a) from the Gale dual, and the
        # t = 1 slice of [[1], [1], [1]] has no intersections to reduce
        calls = []
        hermite = intmat._hermite

        def counted(H, n):
            calls.append(n)
            return hermite(H, n)

        monkeypatch.setattr(intmat, "_hermite", counted)
        code, out = run_cli(["deform", "--in", '{"rows": [[1], [1], [1]]}'], capsys)
        assert code == 0
        result = report_of(out)["result"]
        assert result["line"]["basis_rows"] == [0]
        assert result["genericity"]["all_pass"] is True
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "B, elementary",
        [(complete_graph(4), 1), (complete_graph(5), 1), (cographic(4), 1), (cographic(5), 2)],
        ids=["K4", "K5", "K4*", "K5*"],
    )
    def test_build_reads_validated_circuits(self, capsys, monkeypatch, B, elementary):
        # validation reduces B^T and A's rows once each, and the invariant
        # ring reads the circuits it stored; K_5* (n > N - n) was validated
        # on the dependency side, so its circuits are enumerated once more
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(intmat, "_hermite", counted("hermite", intmat._hermite))
        monkeypatch.setattr(intmat, "_elementary", counted("elementary", intmat._elementary))
        code, _ = run_cli(["build", "--in", json.dumps({"rows": B.row_list()})], capsys)
        assert code == 0
        assert calls == {"hermite": 2, "elementary": elementary}

    def test_deform_reports_t1_simplicity(self, capsys):
        code, out = run_cli(
            ["deform", "--in", '{"rows": [[1, 0], [0, 1], [1, 1]]}'], capsys
        )
        assert code == 0
        rep = report_of(out)
        simp = rep["result"]["t1_simplicity"]
        assert simp["no_excess_intersections"] is True
        assert simp["normals_extend_to_basis"] is True
        # schema 2 keeps the two lists, always empty
        assert simp["violations_a"] == [] and simp["violations_b"] == []

    @pytest.mark.parametrize("m", [5, 7, 8])
    def test_deform_certifies_t1_slice(self, m, capsys, monkeypatch):
        # the default line's t = 1 slice is simple by construction, so no flat
        # walk runs, (b) needs no second discriminant, and the report builds
        # each slice once; validation is exact at every size, so K_8 is
        # certified too
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name, home in (
            ("check_simplicity", arrangement),
            ("build_discriminant", arrangement),
            ("family_slice", localmodel),
        ):
            wrapper = counted(name, getattr(home, name))
            for module in (arrangement, localmodel, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)

        B = complete_graph(m)
        args = ["deform", "--in", json.dumps({"rows": B.row_list()})]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert calls == {"family_slice": 2}
        simplicity = report_of(out)["result"]["t1_simplicity"]
        assert simplicity["no_excess_intersections"] and simplicity["normals_extend_to_basis"]

    def test_check_k8_and_k8_hole(self, capsys):
        # both are past 10^6 maximal minors; the verdicts are exact
        for rows, verdict in ((complete_graph(8).row_list(), True), (K8_HOLE_ROWS, False)):
            code, out = run_cli(["check", "--in", json.dumps({"rows": rows})], capsys)
            assert code == 0
            result = report_of(out)["result"]
            assert result["unimodular"] is verdict
            assert result["unimodularity_method"] == "minors"
            assert result["case"]["unimodular"] is verdict

    def test_build_rejects_k8_hole(self, capsys):
        code, out = run_cli(["build", "--in", json.dumps({"rows": K8_HOLE_ROWS})], capsys)
        assert code == 1
        assert report_of(out)["error"]["code"] == "not_unimodular"

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("HKIT_BUDGET", "0")
        code, out = run_cli(["build", "--in", '{"rows": [[1], [1]]}'], capsys)
        assert code == 1
        assert report_of(out)["error"]["code"] == "budget_exceeded"

    def test_malformed_budget_env_var_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("HKIT_BUDGET", "abc")
        code = main(["build", "--in", '{"rows": [[1], [1]]}'])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: HKIT_BUDGET")

    @pytest.mark.parametrize(
        "args, env",
        [(["--budget", "-1"], None), ([], "-1")],
        ids=["flag", "env"],
    )
    def test_negative_budget_exit_2(self, capsys, monkeypatch, args, env):
        # an argument error, not budget_exceeded; a budget of 0 stays legal
        if env is not None:
            monkeypatch.setenv("HKIT_BUDGET", env)
        code = main(["build", "--in", '{"rows": [[1], [1]]}', *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")

    def test_budget_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HKIT_BUDGET", "0")
        code, out = run_cli(
            ["build", "--in", '{"rows": [[1], [1]]}', "--budget", "100000"], capsys
        )
        assert code == 0

    def test_degree_cap_flag_is_rejected(self, capsys):
        # the Hilbert basis has no degree cap, so the flag is an argparse error
        with pytest.raises(SystemExit) as err:
            main(["build", "--in", '{"rows": [[1], [1]]}', "--degree-cap", "20"])
        assert err.value.code == 2

    def test_deform_basis_rows_flag(self, capsys):
        code, out = run_cli(
            ["deform", "--in", '{"rows": [[1], [1]]}', "--basis-rows", "1"], capsys
        )
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["line"]["basis_rows"] == [1]
        assert rep["result"]["line"]["offsets"] == [1, 0]

    def test_local_model_with_shifts(self, capsys):
        code, out = run_cli(
            ["local-model", "--in", '{"m": 2, "n": 2}', "--shifts", "0,1"], capsys
        )
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["model"]["equation"] == "x1*x2 = x3^2"
        assert rep["result"]["deformed"]["coefficients"] == [1, 1, 0]

    def test_local_model_duplicate_shift(self, capsys):
        # the repeated shifts are named as exact values, not as Fraction reprs
        for shifts, listed in (("1,1", "[1, 1]"), ("1/2,2/4", "[1/2, 1/2]")):
            code, out = run_cli(
                ["local-model", "--in", '{"m": 2, "n": 2}', "--shifts", shifts], capsys
            )
            assert code == 1
            rep = report_of(out)
            assert rep["error"]["code"] == "duplicate_shift"
            assert rep["error"]["message"] == f"shift constants must be pairwise distinct: {listed}"

    @pytest.mark.parametrize(
        "args",
        [
            ["local-model", "--in", '{"m": 2, "n": 2}', "--shifts", "1/0,2"],
            ["discriminant", "--in", '{"rows": [[1, 0], [0, 1]]}', "--format", "svg",
             "--window", "0,1/0,0,1"],
        ],
        ids=["shifts", "window"],
    )
    def test_zero_denominator_exit_2(self, args, capsys):
        # an argument error, not a traceback with the exit 1 of domain errors
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero denominator in '1/0'" in captured.err

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["gale", "--in", '{"rows": [[1], [1]]}', "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["result"]["A"] == {"rows": [[1, -1]], "cols": 2}

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_unwritable_output_exit_2(self, fmt, tmp_path, capsys):
        # an I/O problem, not a traceback with the exit 1 of domain errors
        out_path = tmp_path / "missing" / "report.out"
        payload = '{"rows": [[1, 0], [0, 1], [1, 1]]}'
        code = main(["discriminant", "--in", payload, "--format", fmt, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("output error:")
        assert not out_path.parent.exists()

    def test_console_entry_point(self):
        # the subprocess needs src on its path as much as the test run does
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hkit.cli", "gale", "--in", '{"rows": [[1], [1]]}'],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["A"]["rows"] == [[1, -1]]


class TestWire:
    def test_integral_fraction_is_an_int(self):
        value = cli._wire(Fraction(4, 2))
        assert value == 2 and type(value) is int

    def test_fraction_is_num_over_den(self):
        assert cli._wire(Fraction(-1, 3)) == {"num": -1, "den": 3}

    def test_empty_matrix_keeps_its_width(self):
        text = json.dumps(IntMatrix([], cols=3), default=cli._wire)
        assert json.loads(text) == {"rows": [], "cols": 3}

    @pytest.mark.parametrize(
        "value", [object(), 0.5, {1, 2}, 1j, Kind.FIRST_KIND, b"1"],
        ids=["object", "float", "set", "complex", "enum", "bytes"],
    )
    def test_other_values_raise(self, value):
        with pytest.raises(TypeError):
            cli._wire(value)


OPTIONS = [
    "--in", "{}", "--out", "r.json", "--format", "svg", "--budget", "7",
    "--basis-rows", "0,2", "--shifts", "1/2,-3", "--window", "0,1,-1/2,1",
]


class TestParser:
    @pytest.mark.parametrize("command", list(cli._HANDLERS))
    def test_options_before_or_after_the_command(self, command):
        parser = cli.build_parser()
        after = vars(parser.parse_args([command, *OPTIONS]))
        before = vars(parser.parse_args([*OPTIONS, command]))
        assert after == before == {
            "command": command,
            "input_source": "{}",
            "output_path": "r.json",
            "fmt": "svg",
            "budget": 7,
            "basis_rows": (0, 2),
            "shifts": (Fraction(1, 2), Fraction(-3)),
            "window": (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1)),
        }

    def test_options_before_the_command_run_it(self, capsys):
        payload = '{"rows": [[1], [1]]}'
        code, first = run_cli(["--in", payload, "gale"], capsys)
        assert code == 0
        code, second = run_cli(["gale", "--in", payload], capsys)
        assert code == 0
        assert report_of(first)["result"] == report_of(second)["result"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gale"],
            ["--budget", "3", "deform"],
            ["frobnicate", "--in", "{}"],
            ["--in", "{}"],
            [],
            ["discriminant", "--in", '{"rows": [[1, 0], [0, 1]]}', "--format", "svg",
             "--window", "0,1,2"],
        ],
        ids=["missing-in", "missing-in-before", "unknown-command", "no-command", "empty",
             "window-of-three"],
    )
    def test_argument_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_values_need_the_equals_form(self):
        # a separate word that starts with "-" reads as an option
        parser = cli.build_parser()
        args = parser.parse_args(["local-model", "--in", "{}", "--shifts=-1,2",
                                  "--window=-5,5,-5,5"])
        assert args.shifts == (Fraction(-1), Fraction(2))
        assert args.window == (Fraction(-5), Fraction(5), Fraction(-5), Fraction(5))

    def test_help_lists_each_option_once(self):
        text = cli.build_parser().format_help()
        listed = [line.split()[0] for line in text.splitlines() if line.startswith("  --")]
        assert sorted(listed) == sorted(OPTIONS[::2])


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, capsys):
        outs = []
        for _ in range(2):
            code, out = run_cli(
                ["round-trip", "--in", '{"n": 1, "walls": [{"normal": [1], "mult": 2}]}'],
                capsys,
            )
            assert code == 0
            rep = json.loads(out)
            del rep["timing_ms"]
            outs.append(json.dumps(rep, indent=2, sort_keys=True))
        assert outs[0] == outs[1]

    def test_report_reparses(self, capsys):
        code, out = run_cli(["discriminant", "--in", '{"rows": [[1, 0], [0, 1]]}'], capsys)
        assert code == 0
        rep = report_of(out)
        assert {"schema_version", "command", "input", "result", "notes", "error", "timing_ms"} <= set(rep)


class TestSvg:
    def test_two_axes(self, capsys):
        code, out = run_cli(
            ["discriminant", "--in", '{"rows": [[1, 0], [0, 1]]}', "--format", "svg"],
            capsys,
        )
        assert code == 0
        assert out.startswith("<svg")
        assert out.count("<line") == 2
        assert 'stroke-width="1"' in out

    def test_double_wall_width(self, capsys):
        code, out = run_cli(
            [
                "discriminant",
                "--in",
                '{"rows": [[1, 0], [1, 0], [0, 1], [1, 1]]}',
                "--format",
                "svg",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("<line") == 3
        assert 'stroke-width="2"' in out

    def test_unsupported_dimension(self, capsys):
        code, out = run_cli(
            ["discriminant", "--in", '{"rows": [[1, 0, 0]]}', "--format", "svg"],
            capsys,
        )
        assert code == 1
        rep = report_of(out)
        assert rep["error"]["code"] == "unsupported_dimension"

    def test_svg_only_for_discriminant(self, capsys):
        code, out = run_cli(
            ["check", "--in", '{"rows": [[1, 0], [0, 1]]}', "--format", "svg"], capsys
        )
        assert code == 1
        assert report_of(out)["error"]["code"] == "unsupported_dimension"

    def test_plot_deterministic_bytes(self):
        arr = build_discriminant(IntMatrix([[1, 0], [1, 0], [0, 1], [1, 1]]))
        assert plot_arrangement(arr) == plot_arrangement(arr)

    def test_plot_rejects_an_empty_window(self):
        arr = build_discriminant(IntMatrix([[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="^window must be a nonempty box$"):
            plot_arrangement(arr, (1, 1, 0, 1))

    def test_plot_rejects_n3_direct(self):
        arr = build_discriminant(IntMatrix([[1, 0, 0]]))
        with pytest.raises(UnsupportedDimension):
            plot_arrangement(arr)

    def test_offset_line_clipping(self):
        arr = group_hyperplanes(2, [((1, 1), 20)])
        svg = plot_arrangement(arr)
        assert "<line" not in svg  # line misses the default window entirely
