"""Digests of hkit's JSON reports over the test corpus, one sha256 per
subcommand.

Calls `hkit.cli.main` in process: `check` and `gale` on every corpus matrix
(tests/corpus.py), and `build`, `discriminant` and `deform` on the ones that
pass validation. Each report is hashed with its exit status, after dropping
every line that contains "timing_ms", so a digest changes exactly when some
report changes apart from its timing. Run it on two checkouts, for example a
parent commit and a change on top of it, and compare the printed lines:

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

from corpus import corpus_matrices, valid_hypertoric  # noqa: E402
from hkit import cli  # noqa: E402

ALL_MATRICES = ("check", "gale")
VALID_MATRICES = ("build", "discriminant", "deform")


def report(command, B):
    """Exit status and report text of `hkit <command>` on B, timing dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([command, "--in", json.dumps({"rows": B.row_list(), "cols": B.cols})])
    kept = [line for line in out.getvalue().splitlines() if "timing_ms" not in line]
    return f"{status}\n" + "\n".join(kept) + "\n"


def digest(command, matrices):
    h = hashlib.sha256()
    for B in matrices:
        h.update(report(command, B).encode())
    return h.hexdigest()


def main():
    matrices = list(corpus_matrices())
    valid = [H.B for H in valid_hypertoric(matrices)]
    for command in ALL_MATRICES:
        print(f"{command} {len(matrices)} {digest(command, matrices)}")
    for command in VALID_MATRICES:
        print(f"{command} {len(valid)} {digest(command, valid)}")


if __name__ == "__main__":
    main()
