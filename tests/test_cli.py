import json
import subprocess
import sys

import pytest

from hkit.arrangement import build_discriminant, group_hyperplanes
from hkit.cli import main
from hkit.errors import UnsupportedDimension
from hkit.intmat import IntMatrix
from hkit.plot import plot_arrangement


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

    def test_deform(self, capsys):
        code, out = run_cli(["deform", "--in", '{"rows": [[1], [1]]}'], capsys)
        assert code == 0
        rep = report_of(out)
        assert rep["result"]["line"]["offsets"] == [0, 1]
        assert rep["result"]["genericity"]["all_pass"] is True
        assert rep["result"]["slices"]["t0"][0]["multiplicity"] == 2
        assert [c["multiplicity"] for c in rep["result"]["slices"]["t1"]] == [1, 1]

    def test_deform_reports_t1_simplicity(self, capsys):
        code, out = run_cli(
            ["deform", "--in", '{"rows": [[1, 0], [0, 1], [1, 1]]}'], capsys
        )
        assert code == 0
        rep = report_of(out)
        simp = rep["result"]["t1_simplicity"]
        assert simp["no_excess_intersections"] is True
        assert simp["normals_extend_to_basis"] is True

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("HKIT_BUDGET", "0")
        code, out = run_cli(["build", "--in", '{"rows": [[1], [1]]}'], capsys)
        assert code == 1
        assert report_of(out)["error"]["code"] == "budget_exceeded"

    def test_budget_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HKIT_BUDGET", "0")
        code, out = run_cli(
            ["build", "--in", '{"rows": [[1], [1]]}', "--budget", "100000"], capsys
        )
        assert code == 0

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
        code, out = run_cli(
            ["local-model", "--in", '{"m": 2, "n": 2}', "--shifts", "1,1"], capsys
        )
        assert code == 1
        rep = report_of(out)
        assert rep["error"]["code"] == "duplicate_shift"

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["gale", "--in", '{"rows": [[1], [1]]}', "--out", str(out_path)])
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["result"]["A"] == {"rows": [[1, -1]], "cols": 2}

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hkit.cli", "gale", "--in", '{"rows": [[1], [1]]}'],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["A"]["rows"] == [[1, -1]]


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

    def test_plot_deterministic_bytes(self):
        arr = build_discriminant(IntMatrix([[1, 0], [1, 0], [0, 1], [1, 1]]))
        assert plot_arrangement(arr) == plot_arrangement(arr)

    def test_plot_rejects_n3_direct(self):
        arr = build_discriminant(IntMatrix([[1, 0, 0]]))
        with pytest.raises(UnsupportedDimension):
            plot_arrangement(arr)

    def test_offset_line_clipping(self):
        arr = group_hyperplanes(2, [((1, 1), 20)])
        svg = plot_arrangement(arr)
        assert "<line" not in svg  # line misses the default window entirely
