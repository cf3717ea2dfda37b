"""Digests of hkit's JSON reports over the test corpus, one sha256 per
subcommand.

Calls `hkit.cli.main` in process: `check` and `gale` on every corpus matrix
(tests/corpus.py), `build`, `discriminant` and `deform` on the ones that pass
validation, and `reconstruct` and `round-trip` on the divisor of every corpus
matrix whose rows are primitive (parallel rows merged into one wall with
their count as multiplicity). `build-km` is `build` on the complete-graph
matrices K_3, K_4 and K_5: the corpus has no presentation with more than a
few dozen relations, K_5's has 425 on 40 generators. Each report is hashed with its exit status,
after dropping every line that contains "timing_ms", so a digest changes
exactly when some report changes apart from its timing. Run it on two
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

from corpus import complete_graph, corpus_matrices, divisor_of, valid_hypertoric  # noqa: E402
from hkit import cli  # noqa: E402

ALL_MATRICES = ("check", "gale")
VALID_MATRICES = ("build", "discriminant", "deform")
DIVISORS = ("reconstruct", "round-trip")
KM = (3, 4, 5)


def report(command, payload):
    """Exit status and report text of `hkit <command>` on the JSON payload,
    timing dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([command, "--in", json.dumps(payload)])
    kept = [line for line in out.getvalue().splitlines() if "timing_ms" not in line]
    return f"{status}\n" + "\n".join(kept) + "\n"


def digest(command, payloads):
    h = hashlib.sha256()
    for payload in payloads:
        h.update(report(command, payload).encode())
    return h.hexdigest()


def matrix_json(B):
    return {"rows": B.row_list(), "cols": B.cols}


def divisor_json(d):
    return {"n": d.n, "walls": [{"normal": list(v), "mult": m} for v, m in d.entries]}


def main():
    matrices = list(corpus_matrices())
    groups = (
        (ALL_MATRICES, [matrix_json(B) for B in matrices]),
        (VALID_MATRICES, [matrix_json(H.B) for H in valid_hypertoric(matrices)]),
        (DIVISORS, [divisor_json(d) for d in map(divisor_of, matrices) if d is not None]),
    )
    for commands, payloads in groups:
        for command in commands:
            print(f"{command} {len(payloads)} {digest(command, payloads)}")
    km = [matrix_json(complete_graph(m)) for m in KM]
    print(f"build-km {len(km)} {digest('build', km)}")


if __name__ == "__main__":
    main()
