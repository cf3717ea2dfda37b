"""Digests of hkit's JSON reports over the test corpus, one sha256 per
subcommand.

Calls `hkit.cli.main` in process: `check` and `gale` on every corpus matrix
(tests/corpus.py), `build`, `discriminant` and `deform` on the ones that pass
validation, `build` again (`build-refused`) on the ones that validation
refuses, whose reports carry the refusal's code and message, and
`reconstruct` and `round-trip` on the divisor of every corpus matrix whose
rows are primitive (parallel rows merged into one wall with their count as
multiplicity). The corpus has n <= 3, so three digests run on
the complete-graph matrices K_m: `build-km` is `build` on K_3..K_5 (the
corpus has no presentation with more than a few dozen relations, K_5's has
425 on 40 generators), `discriminant-km` is `discriminant` on K_3..K_8
(deep central lattices; K_8 has 4111 flats, and the report reads every
direction, which `f_locus` defers to first read) and `deform-km` is `deform` on
K_3..K_7 (affine slices with up to 21 walls; the default line's t = 1 slice
is simple by construction, and `deform` reads that off the offsets instead
of walking the slice's flats; schema 2's violation lists in its report are
always empty).
`discriminant-regular` is `discriminant` on the non-graphic regular
matroids K_4*, K_5*, K_6* (the cographic matrices of K_4..K_6; K_6* has
13651 flats) and R10, reading every deferred direction too. `local-model`
takes no matrix: it runs on m = 1..4
and n = 1..3, each without shifts and with integral, fractional and
negative shifts (`local_model_jobs`). `slices` is not a report: it hashes
the repr of `family_slice` at t = 0 and t = 1 on the default line of every
valid corpus matrix, so the walls, offsets (with their type),
multiplicities, kinds and order of every slice stay the same.
Each report is hashed with its exit status, after dropping every line that
contains "timing_ms", so a digest changes exactly when some report changes
apart from its timing. Run it on two
checkouts, for example a parent commit and a change on top of it, and compare
the printed lines:

    python3 tools/report_digest.py

Standard library only; it imports hkit from the checkout's src/ and the
corpus from its tests/.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from corpus import (  # noqa: E402
    cographic,
    complete_graph,
    corpus_matrices,
    divisor_of,
    r10,
    valid_hypertoric,
)
from hkit import cli, localmodel  # noqa: E402
from hkit.errors import HkitError  # noqa: E402
from hkit.hypertoric import HypertoricData  # noqa: E402

ALL_MATRICES = ("check", "gale")
VALID_MATRICES = ("build", "discriminant", "deform")
DIVISORS = ("reconstruct", "round-trip")
KM = {"build": (3, 4, 5), "discriminant": (3, 4, 5, 6, 7, 8), "deform": (3, 4, 5, 6, 7)}


def regular_matrices():
    """K_4*, K_5*, K_6* and R10."""
    return [cographic(m) for m in (4, 5, 6)] + [r10()]


def refusals(matrices):
    """(B, error code) of each matrix that validation refuses, in order."""
    refused = []
    for B in matrices:
        try:
            HypertoricData.from_matrix(B)
        except HkitError as err:
            refused.append((B, err.code))
    return refused


def local_model_jobs():
    """(payload, options) of `hkit local-model` on m = 1..4 and n = 1..3:
    no shifts, then the shifts 0..m-1, k/(k+1) and -k/(1 + k % 2) for
    k = 1..m."""
    jobs = []
    for m in range(1, 5):
        ks = range(1, m + 1)
        for n in range(1, 4):
            payload = {"m": m, "n": n}
            jobs.append((payload, ()))
            for shifts in (
                [k - 1 for k in ks],
                [f"{k}/{k + 1}" for k in ks],
                [f"-{k}/{1 + k % 2}" for k in ks],
            ):
                jobs.append((payload, ("--shifts=" + ",".join(map(str, shifts)),)))
    return jobs


def report(command, payload, *options):
    """Exit status and report text of `hkit <command> --in <payload>
    <options>`, timing dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([command, "--in", json.dumps(payload), *options])
    kept = [line for line in out.getvalue().splitlines() if "timing_ms" not in line]
    return f"{status}\n" + "\n".join(kept) + "\n"


def digest(command, payloads, options=None):
    """sha256 of the reports on payloads; options[k], when given, are the
    extra arguments that go with payloads[k]."""
    h = hashlib.sha256()
    for payload, extra in zip(payloads, options or [()] * len(payloads)):
        h.update(report(command, payload, *extra).encode())
    return h.hexdigest()


def slices_digest(hypertorics):
    """sha256 of the repr of the t = 0 and t = 1 slices of each bundle's
    default deformation line."""
    h = hashlib.sha256()
    for H in hypertorics:
        line = localmodel.choose_deformation_line(H)
        for t in (0, 1):
            h.update(f"{localmodel.family_slice(H, line, t)!r}\n".encode())
    return h.hexdigest()


def matrix_json(B):
    return {"rows": B.row_list(), "cols": B.cols}


def divisor_json(d):
    return {"n": d.n, "walls": [{"normal": list(v), "mult": m} for v, m in d.entries]}


def main():
    matrices = list(corpus_matrices())
    valid = list(valid_hypertoric(matrices))
    groups = (
        (ALL_MATRICES, [matrix_json(B) for B in matrices]),
        (VALID_MATRICES, [matrix_json(H.B) for H in valid]),
        (DIVISORS, [divisor_json(d) for d in map(divisor_of, matrices) if d is not None]),
    )
    for commands, payloads in groups:
        for command in commands:
            print(f"{command} {len(payloads)} {digest(command, payloads)}")
    refused = [matrix_json(B) for B, _ in refusals(matrices)]
    print(f"build-refused {len(refused)} {digest('build', refused)}")
    for command, ms in KM.items():
        km = [matrix_json(complete_graph(m)) for m in ms]
        print(f"{command}-km {len(km)} {digest(command, km)}")
    regular = [matrix_json(B) for B in regular_matrices()]
    print(f"discriminant-regular {len(regular)} {digest('discriminant', regular)}")
    payloads, options = zip(*local_model_jobs())
    print(f"local-model {len(payloads)} {digest('local-model', payloads, options)}")
    print(f"slices {len(valid)} {slices_digest(valid)}")


if __name__ == "__main__":
    main()
