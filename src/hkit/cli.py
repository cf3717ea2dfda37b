"""Command-line front end: JSON in, JSON (or SVG) report out.

Subcommands wrap the pipeline stages one-to-one: gale, check, discriminant,
build, reconstruct, deform, local-model, round-trip. Reports are canonical
JSON (sorted keys) with a schema_version, the echoed input, the result,
provenance notes, and a timing field; domain errors exit 1 with a
machine-readable error code, parse/I-O problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import localmodel
from .arrangement import build_discriminant, check_simplicity, f_locus
from .characterization import DivisorData, classify_case, reconstruct_B, round_trip
from .errors import HkitError, UnsupportedDimension
from .hypertoric import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_DEGREE_LIMIT,
    HypertoricData,
    coordinate_dimension,
    hilbert_basis,
    leaf_classification,
    presentation,
)
from .intmat import (
    IntMatrix,
    is_primitive,
    rank,
    smith_normal_form,
    unimodularity_report,
)
from .plot import plot_arrangement

SCHEMA_VERSION = 2

COMMANDS = (
    "gale",
    "check",
    "discriminant",
    "build",
    "reconstruct",
    "deform",
    "local-model",
    "round-trip",
)


@dataclass
class JobSpec:
    command: str
    input_source: str
    output_path: str = None
    fmt: str = "json"
    degree_cap: int = DEFAULT_DEGREE_LIMIT
    budget: int = DEFAULT_CANDIDATE_BUDGET
    basis_rows: tuple = None
    shifts: tuple = None
    window: tuple = None


# -- JSON codecs -----------------------------------------------------------------


def _frac(f):
    f = Fraction(f)
    if f.denominator == 1:
        return int(f)
    return {"num": f.numerator, "den": f.denominator}


def _parse_frac(obj):
    if isinstance(obj, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        return Fraction(int(obj["num"]), int(obj["den"]))
    if isinstance(obj, str):
        return Fraction(obj)
    raise ValueError(f"cannot parse rational from {obj!r}")


def _matrix(M: IntMatrix):
    return {"rows": M.row_list(), "cols": M.cols}


def _parse_matrix(obj):
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError('matrix JSON must be {"rows": [[int, ...], ...]}')
    rows = obj["rows"]
    return IntMatrix(rows, cols=obj.get("cols"))


def _parse_divisor(obj):
    if not isinstance(obj, dict) or "n" not in obj or "walls" not in obj:
        raise ValueError('divisor JSON must be {"n": int, "walls": [...]}')
    walls = [(tuple(w["normal"]), int(w["mult"])) for w in obj["walls"]]
    return DivisorData.make(int(obj["n"]), walls)


def _arrangement(arr):
    return [
        {
            "normal": list(c.hyperplane.normal),
            "offset": _frac(c.hyperplane.offset),
            "multiplicity": c.multiplicity,
            "kind": c.kind.value,
        }
        for c in arr.components
    ]


def _monomial(g):
    return {
        "u": list(g.u),
        "v": list(g.v),
        "degree": g.degree,
        "monomial": str(g),
    }


def _leaves(leaves):
    return [
        {
            "normal": list(leaf.normal),
            "multiplicity": leaf.multiplicity,
            "singularity": leaf.singularity,
            "kind": leaf.kind,
        }
        for leaf in leaves
    ]


def _case(tag):
    return {
        "case": tag.case,
        "reason": tag.reason,
        "condition_star": tag.condition_star,
        "unimodular": tag.unimodular,
        "coker_torsion_free": tag.coker_torsion_free,
    }


def _flats(arr):
    return {
        "flats": [
            {
                "members": list(f.sorted_members()),
                "codimension": f.codimension,
                "point": [_frac(x) for x in f.point],
                "direction": _matrix(f.direction),
            }
            for f in f_locus(arr)
        ],
    }


# -- command handlers --------------------------------------------------------------


def _cmd_gale(payload, job, notes):
    from .intmat import gale_dual

    B = _parse_matrix(payload)
    A = gale_dual(B)
    if A.rows == 0:
        notes.append("N = n")
    ub, mb = unimodularity_report(B)
    ua, ma = unimodularity_report(A) if A.rows else (B.rows == B.cols, "minors")
    if mb != "minors" or ma != "minors":
        notes.append("unimodularity checked via SNF fallback (minor budget hit)")
    return {
        "A": _matrix(A),
        "N": B.rows,
        "n": B.cols,
        "unimodular_B": ub,
        "unimodular_A": ua,
    }


def _cmd_check(payload, job, notes):
    B = _parse_matrix(payload)
    bad_rows = [i for i in range(B.rows) if not is_primitive(B.row(i))]
    r = rank(B)
    snf = smith_normal_form(B)
    result = {
        "N": B.rows,
        "n": B.cols,
        "rows_primitive": not bad_rows,
        "non_primitive_rows": bad_rows,
        "rank": r,
        "injective": r == B.cols,
        "invariant_factors": list(snf.invariant_factors),
        "coker_torsion_free": snf.torsion_free,
    }
    verdict, method = unimodularity_report(B)
    result["unimodular"] = verdict
    result["unimodularity_method"] = method
    if not bad_rows:
        result["case"] = _case(classify_case(B))
    return result


def _cmd_discriminant(payload, job, notes):
    B = _parse_matrix(payload)
    arr = build_discriminant(B)
    notes.append("normals canonicalized: primitive, first nonzero coordinate positive")
    result = {
        "n": arr.n,
        "components": _arrangement(arr),
        "leaves": [
            {
                "normal": list(c.hyperplane.normal),
                "multiplicity": c.multiplicity,
                "singularity": f"A{c.multiplicity - 1}" if c.multiplicity >= 2 else None,
                "kind": c.kind.value,
            }
            for c in arr.components
        ],
        "f_locus": _flats(arr),
    }
    return result


def _cmd_build(payload, job, notes):
    B = _parse_matrix(payload)
    H = HypertoricData.from_matrix(B)
    basis = hilbert_basis(H, candidate_budget=job.budget, degree_limit=job.degree_cap)
    pres = presentation(H, candidate_budget=job.budget, degree_limit=job.degree_cap)
    notes.append("relation set truncated at twice the maximal generator degree")
    return {
        "N": H.N,
        "n": H.n,
        "A": _matrix(H.A),
        "dimension": coordinate_dimension(H, basis),
        "moment_map": "sum_i a_i z_i w_i over the columns a_i of A",
        "hilbert_basis": [_monomial(g) for g in basis],
        "presentation": {
            "generator_count": len(pres.generators),
            "binomial_relations": [
                {"left": list(left), "right": list(right)}
                for left, right in pres.binomial_relations
            ],
            "moment_rows": _matrix(pres.moment_rows),
            "relation_degree_cap": pres.relation_degree_cap,
            "reduced": {
                "pure_generators": [_monomial(g) for g in pres.reduced.pure_generators],
                "s_classes": [
                    {
                        "normal": list(c.normal),
                        "members": list(c.members),
                        "signs": list(c.signs),
                    }
                    for c in pres.reduced.s_classes
                ],
                "relations": [
                    {
                        "left": [list(s) for s in left],
                        "right": [list(s) for s in right],
                        "sign": sign,
                    }
                    for left, right, sign in pres.reduced.relations
                ],
            },
        },
        "leaves": _leaves(leaf_classification(H)),
    }


def _cmd_reconstruct(payload, job, notes):
    d = _parse_divisor(payload)
    B = reconstruct_B(d)
    notes.append("walls sorted canonically, repeats adjacent")
    return {"B": _matrix(B), "N": B.rows, "n": B.cols, "case": _case(classify_case(B))}


def _cmd_deform(payload, job, notes):
    B = _parse_matrix(payload)
    H = HypertoricData.from_matrix(B)
    line = localmodel.choose_deformation_line(H, basis_rows=job.basis_rows)
    if line.adjusted:
        notes.append("offsets adjusted by the deterministic genericity repair")
    report = localmodel.verify_genericity(H, line)
    slice0 = localmodel.family_slice(H, line, 0)
    slice1 = localmodel.family_slice(H, line, 1)
    simplicity = check_simplicity(slice1)
    return {
        "line": {
            "basis_rows": list(line.basis_rows),
            "offsets": [_frac(x) for x in line.offsets],
            "direction": [_frac(x) for x in line.direction],
            "adjusted": line.adjusted,
        },
        "genericity": {
            "common_intersection_empty": report.common_intersection_empty,
            "central_slice_matches": report.central_slice_matches,
            "offsets_not_all_zero": report.offsets_not_all_zero,
            "all_pass": report.all_pass,
        },
        "slices": {"t0": _arrangement(slice0), "t1": _arrangement(slice1)},
        "t1_simplicity": {
            "no_excess_intersections": simplicity.no_excess_intersections,
            "normals_extend_to_basis": simplicity.normals_extend_to_basis,
            "violations_a": [list(v) for v in simplicity.violations_a],
            "violations_b": [list(v) for v in simplicity.violations_b],
        },
        "family_f_locus_codimension": localmodel.family_f_locus_codimension(H),
    }


def _cmd_local_model(payload, job, notes):
    if not isinstance(payload, dict) or "m" not in payload or "n" not in payload:
        raise ValueError('local-model input must be {"m": int, "n": int}')
    model = localmodel.local_model(int(payload["m"]), int(payload["n"]))
    result = {
        "model": {
            "m": model.m,
            "n": model.n,
            "equation": model.equation,
            "moment_formula": list(model.moment_formula),
            "symplectic_form": model.symplectic_form,
            "rhs_coefficients": [_frac(c) for c in model.rhs_coefficients],
        },
        "deformed": None,
    }
    if job.shifts is not None:
        deformed = localmodel.deform_local_model(model, job.shifts)
        result["deformed"] = {
            "equation": deformed.equation,
            "shifts": [_frac(a) for a in deformed.shifts],
            "coefficients": [_frac(c) for c in deformed.coefficients],
            "discriminant_points_at_t1": [
                _frac(x) for x in deformed.discriminant_points(1)
            ],
        }
    return result


def _cmd_round_trip(payload, job, notes):
    d = _parse_divisor(payload)
    rep = round_trip(d)
    notes.extend(rep.warnings)
    return {
        "B": _matrix(rep.B),
        "A": _matrix(rep.A),
        "case": _case(rep.case),
        "unimodular_B": rep.unimodular_B,
        "unimodular_A": rep.unimodular_A,
        "discriminant": _arrangement(rep.discriminant),
        "equal": rep.equal,
        "warnings": list(rep.warnings),
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
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _emit(text, output_path):
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_text(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run(job: JobSpec) -> int:
    """Execute one job and write its report; returns the exit status."""
    started = time.perf_counter()
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": job.command,
        "input": None,
        "result": None,
        "notes": [],
        "error": None,
    }
    try:
        payload = _load_input(job.input_source)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2

    report["input"] = payload
    notes = report["notes"]
    try:
        if job.fmt == "svg":
            if job.command != "discriminant":
                raise UnsupportedDimension("svg output is only available for discriminant")
            arr = build_discriminant(_parse_matrix(payload))
            _emit(plot_arrangement(arr, job.window), job.output_path)
            return 0
        result = _HANDLERS[job.command](payload, job, notes)
    except HkitError as err:
        report["error"] = {"code": err.code, "message": str(err)}
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
        _emit(_report_text(report), job.output_path)
        return 1
    except (ValueError, KeyError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2

    report["result"] = result
    report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _emit(_report_text(report), job.output_path)
    return 0


def _parse_int_list(text):
    return tuple(int(x) for x in text.split(",") if x != "")


def _parse_frac_list(text):
    return tuple(Fraction(x) for x in text.split(",") if x != "")


def _parse_window(text):
    parts = tuple(Fraction(x) for x in text.split(","))
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be xmin,xmax,ymin,ymax")
    return parts


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hkit",
        description="Exact toolkit for hypertoric data: Gale duality, "
        "discriminant arrangements, invariant rings, and divisor round trips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="input_source", required=True,
                       help="input file path or inline JSON")
        p.add_argument("--out", dest="output_path", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "svg"), default="json")
        p.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_LIMIT)
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration budget (default HKIT_BUDGET or "
                       f"{DEFAULT_CANDIDATE_BUDGET})")
        p.add_argument("--basis-rows", type=_parse_int_list, default=None,
                       help="comma-separated zero-based row indices (deform)")
        p.add_argument("--shifts", type=_parse_frac_list, default=None,
                       help="comma-separated shift constants (local-model)")
        p.add_argument("--window", type=_parse_window, default=None,
                       help="xmin,xmax,ymin,ymax for svg output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budget = args.budget
    if budget is None:
        budget = int(os.environ.get("HKIT_BUDGET", DEFAULT_CANDIDATE_BUDGET))
    job = JobSpec(
        command=args.command,
        input_source=args.input_source,
        output_path=args.output_path,
        fmt=args.fmt,
        degree_cap=args.degree_cap,
        budget=budget,
        basis_rows=args.basis_rows,
        shifts=args.shifts,
        window=args.window,
    )
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
