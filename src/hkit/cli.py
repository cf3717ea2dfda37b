"""Command-line front end: JSON in, JSON (or SVG) report out.

Subcommands wrap the pipeline stages one-to-one: gale, check, discriminant,
build, reconstruct, deform, local-model, round-trip. One parser reads the
subcommand as a positional argument and the options once for all of them,
so an option may come before or after the subcommand. Reports are canonical
JSON (sorted keys) with a schema_version, the echoed input, the result,
provenance notes, and a timing field; domain errors exit 1 with a
machine-readable error code, parse/I-O problems exit 2. Handlers put exact
values in a report as they are, and `_wire` gives each its JSON form.
"""

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import localmodel
from .arrangement import build_discriminant, f_locus
from .characterization import DivisorData, _classify, classify_case, reconstruct_B, round_trip
from .errors import HkitError, UnsupportedDimension
from .hypertoric import (
    DEFAULT_CANDIDATE_BUDGET,
    HypertoricData,
    coordinate_dimension,
    leaf_classification,
    leaf_descriptors,
    presentation,
)
from .intmat import IntMatrix, _gale, _oriented, non_primitive_rows
from .plot import plot_arrangement

SCHEMA_VERSION = 2


# -- JSON codecs -----------------------------------------------------------------


def _wire(value):
    """The JSON form of an exact value that json does not know: an integral
    Fraction as an int, another as {"num": p, "den": q}, and an IntMatrix as
    {"rows": ..., "cols": ...}."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, IntMatrix):
        return {"rows": value.data, "cols": value.cols}
    raise TypeError(f"{type(value).__name__} has no JSON form")


def _int(x, what):
    """x itself when it is a JSON integer; booleans and floats are rejected,
    not truncated."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _int_list(v, what):
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a list of integers, got {v!r}")
    return [_int(x, what) for x in v]


def _parse_matrix(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
        raise ValueError('matrix JSON must be {"rows": [[int, ...], ...]}')
    rows = [_int_list(row, "matrix row") for row in obj["rows"]]
    cols = obj.get("cols")
    return IntMatrix(rows, cols=None if cols is None else _int(cols, "cols"))


def _parse_divisor(obj):
    if not isinstance(obj, dict) or "n" not in obj or not isinstance(obj.get("walls"), list):
        raise ValueError('divisor JSON must be {"n": int, "walls": [...]}')
    walls = []
    for w in obj["walls"]:
        if not isinstance(w, dict):
            raise ValueError(f'wall must be {{"normal": [int, ...], "mult": int}}, got {w!r}')
        walls.append((tuple(_int_list(w["normal"], "wall normal")), _int(w["mult"], "mult")))
    return DivisorData.make(_int(obj["n"], "n"), walls)


def _arrangement(arr):
    return [
        {
            "normal": c.hyperplane.normal,
            "offset": c.hyperplane.offset,
            "multiplicity": c.multiplicity,
            "kind": c.kind.value,
        }
        for c in arr.components
    ]


def _monomial(g):
    return {
        "u": g.u,
        "v": g.v,
        "degree": g.degree,
        "monomial": str(g),
    }


def _flats(arr):
    return {
        "flats": [
            {
                "members": f.sorted_members(),
                "codimension": f.codimension,
                "point": f.point,
                "direction": f.direction,
            }
            for f in f_locus(arr)
        ],
    }


# -- command handlers --------------------------------------------------------------


def _cmd_gale(payload, job, notes):
    B = _parse_matrix(payload)
    forms = _gale(B)
    A = forms.kernel
    if A.rows == 0:
        notes.append("N = n")
    return {
        "A": A,
        "N": B.rows,
        "n": B.cols,
        "unimodular_B": forms.unimodular,
        "unimodular_A": forms.dual_unimodular(),
    }


def _cmd_check(payload, job, notes):
    B = _parse_matrix(payload)
    bad_rows = non_primitive_rows(B)
    result = {
        "N": B.rows,
        "n": B.cols,
        "rows_primitive": not bad_rows,
        "non_primitive_rows": bad_rows,
    }
    if bad_rows:
        forms = _oriented(B)
    else:
        tag, forms = _classify(B)
        result["case"] = tag._asdict()
    factors = forms.invariant_factors
    result.update(
        rank=forms.rank,
        injective=forms.rank == B.cols,
        invariant_factors=factors,
        coker_torsion_free=set(factors) <= {1},
        unimodular=forms.unimodular,
        unimodularity_method="minors",
    )
    return result


def _cmd_discriminant(payload, job, notes):
    B = _parse_matrix(payload)
    arr = build_discriminant(B)
    notes.append("normals canonicalized: primitive, first nonzero coordinate positive")
    leaves = leaf_descriptors((c.hyperplane.normal, c.multiplicity) for c in arr.components)
    return {
        "n": arr.n,
        "components": _arrangement(arr),
        "leaves": [leaf._asdict() for leaf in leaves],
        "f_locus": _flats(arr),
    }


def _cmd_build(payload, job, notes):
    B = _parse_matrix(payload)
    H = HypertoricData.from_matrix(B)
    pres = presentation(H, candidate_budget=job.budget)
    basis = pres.generators
    notes.append("relation set truncated at twice the maximal generator degree")
    return {
        "N": H.N,
        "n": H.n,
        "A": H.A,
        "dimension": coordinate_dimension(H),
        "moment_map": "sum_i a_i z_i w_i over the columns a_i of A",
        "hilbert_basis": [_monomial(g) for g in basis],
        "presentation": {
            "generator_count": len(pres.generators),
            "binomial_relations": [
                {"left": left, "right": right} for left, right in pres.binomial_relations
            ],
            "moment_rows": pres.moment_rows,
            "relation_degree_cap": pres.relation_degree_cap,
            "reduced": {
                "pure_generators": [_monomial(g) for g in pres.reduced.pure_generators],
                "s_classes": [c._asdict() for c in pres.reduced.s_classes],
                "relations": [
                    {"left": left, "right": right, "sign": sign}
                    for left, right, sign in pres.reduced.relations
                ],
            },
        },
        "leaves": [leaf._asdict() for leaf in leaf_classification(H)],
    }


def _cmd_reconstruct(payload, job, notes):
    d = _parse_divisor(payload)
    B = reconstruct_B(d)
    notes.append("walls sorted canonically, repeats adjacent")
    return {"B": B, "N": B.rows, "n": B.cols, "case": classify_case(B)._asdict()}


def _cmd_deform(payload, job, notes):
    B = _parse_matrix(payload)
    H = HypertoricData.from_matrix(B)
    line = localmodel.choose_deformation_line(H, basis_rows=job.basis_rows)
    if line.adjusted:
        notes.append("offsets 0 on the basis rows and 2^k on the k-th other row")
    report = localmodel.verify_genericity(H, line)
    slice0 = localmodel.family_slice(H, line, 0)
    slice1 = localmodel.family_slice(H, line, 1)
    simplicity = localmodel.t1_simplicity(H, line, slice1)
    return {
        "line": line._asdict(),
        "genericity": {**report._asdict(), "all_pass": report.all_pass},
        "slices": {"t0": _arrangement(slice0), "t1": _arrangement(slice1)},
        # every line built here passes simple_by_construction, so schema 2's
        # violation lists were always empty
        "t1_simplicity": {**simplicity._asdict(), "violations_a": [], "violations_b": []},
        "family_f_locus_codimension": localmodel.family_f_locus_codimension(H),
    }


def _cmd_local_model(payload, job, notes):
    if not isinstance(payload, dict) or "m" not in payload or "n" not in payload:
        raise ValueError('local-model input must be {"m": int, "n": int}')
    model = localmodel.local_model(_int(payload["m"], "m"), _int(payload["n"], "n"))
    result = {
        "model": {
            "m": model.m,
            "n": model.n,
            "equation": model.equation,
            "moment_formula": model.moment_formula,
            "symplectic_form": model.symplectic_form,
            "rhs_coefficients": model.rhs_coefficients,
        },
        "deformed": None,
    }
    if job.shifts is not None:
        deformed = localmodel.deform_local_model(model, job.shifts)
        result["deformed"] = {
            "equation": deformed.equation,
            "shifts": deformed.shifts,
            "coefficients": deformed.coefficients,
            "discriminant_points_at_t1": deformed.discriminant_points(1),
        }
    return result


def _cmd_round_trip(payload, job, notes):
    d = _parse_divisor(payload)
    rep = round_trip(d)
    notes.extend(rep.warnings)
    return {
        "B": rep.B,
        "A": rep.A,
        "case": rep.case._asdict(),
        "unimodular_B": rep.unimodular_B,
        "unimodular_A": rep.unimodular_A,
        "discriminant": _arrangement(rep.discriminant),
        "equal": rep.equal,
        "warnings": rep.warnings,
    }


_HANDLERS = {
    "gale": _cmd_gale,
    "check": _cmd_check,
    "discriminant": _cmd_discriminant,
    "build": _cmd_build,
    "reconstruct": _cmd_reconstruct,
    "deform": _cmd_deform,
    "local-model": _cmd_local_model,
    "round-trip": _cmd_round_trip,
}


# -- runner ------------------------------------------------------------------------


def _load_input(source):
    text = source
    if not source.lstrip().startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _emit(text, output_path):
    """Write text to output_path, or to stdout; the exit status 2 when that
    fails, else 0."""
    try:
        if output_path:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as err:
        sys.stderr.write(f"output error: {err}\n")
        return 2
    return 0


def _report_text(report):
    return json.dumps(report, indent=2, sort_keys=True, default=_wire) + "\n"


def run(job: argparse.Namespace) -> int:
    """Execute one job, the arguments that build_parser parsed, and write its
    report; returns the exit status."""
    started = time.perf_counter()
    try:
        payload = _load_input(job.input_source)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": job.command,
        "input": payload,
        "result": None,
        "notes": [],
        "error": None,
    }
    status = 0
    try:
        if job.fmt == "svg":
            if job.command != "discriminant":
                raise UnsupportedDimension("svg output is only available for discriminant")
            arr = build_discriminant(_parse_matrix(payload))
            return _emit(plot_arrangement(arr, job.window), job.output_path)
        report["result"] = _HANDLERS[job.command](payload, job, report["notes"])
    except HkitError as err:
        report["error"] = {"code": err.code, "message": str(err)}
        status = 1
    except (ValueError, KeyError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2

    report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return _emit(_report_text(report), job.output_path) or status


def _parse_int_list(text):
    return tuple(int(x) for x in text.split(",") if x != "")


def _fraction(text):
    """Fraction(text), with a zero denominator an argument error (exit 2)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _parse_frac_list(text):
    return tuple(_fraction(x) for x in text.split(",") if x != "")


def _parse_window(text):
    parts = tuple(_fraction(x) for x in text.split(","))
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be xmin,xmax,ymin,ymax")
    return parts


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hkit",
        description="Exact toolkit for hypertoric data: Gale duality, "
        "discriminant arrangements, invariant rings, and divisor round trips.",
    )
    parser.add_argument("command", choices=_HANDLERS, help="the pipeline stage to run")
    parser.add_argument("--in", dest="input_source", required=True,
                        help="input file path or inline JSON")
    parser.add_argument("--out", dest="output_path", default=None)
    parser.add_argument("--format", dest="fmt", choices=("json", "svg"), default="json")
    parser.add_argument("--budget", type=int, default=None,
                        help="presentation search budget (default HKIT_BUDGET or "
                        f"{DEFAULT_CANDIDATE_BUDGET})")
    parser.add_argument("--basis-rows", type=_parse_int_list, default=None,
                        help="comma-separated zero-based row indices (deform)")
    parser.add_argument("--shifts", type=_parse_frac_list, default=None,
                        help="comma-separated shift constants (local-model); "
                        "a list that starts with '-' needs the = form: --shifts=-1,2")
    parser.add_argument("--window", type=_parse_window, default=None,
                        help="xmin,xmax,ymin,ymax for svg output; a window that "
                        "starts with '-' needs the = form: --window=-5,5,-5,5")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget is None:
        try:
            args.budget = int(os.environ.get("HKIT_BUDGET", DEFAULT_CANDIDATE_BUDGET))
        except ValueError as err:
            sys.stderr.write(f"input error: HKIT_BUDGET: {err}\n")
            return 2
    if args.budget < 0:
        sys.stderr.write(f"input error: budget must be nonnegative, got {args.budget}\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
