"""Digests of tools/report_digest.py, pinned: every `hkit deform` report on
the valid corpus matrices and on K_3..K_7, and every `hkit check` and `hkit
gale` report on the whole corpus, stays byte-identical apart from timing. A
deliberate change to those reports (a schema bump, a new field) updates
these values in the same change."""

import importlib.util
import os

from corpus import complete_graph, corpus_matrices, valid_hypertoric

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "report_digest.py")
spec = importlib.util.spec_from_file_location("report_digest", TOOL)
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)


def test_deform_digests():
    valid = [report_digest.matrix_json(H.B) for H in valid_hypertoric(corpus_matrices())]
    km = [report_digest.matrix_json(complete_graph(m)) for m in report_digest.KM["deform"]]
    assert (len(valid), len(km)) == (1104, 5)
    assert report_digest.digest("deform", valid) == (
        "00755c4b38323d8a4c8908e0d27cc6b62bab6bfa941c72728e3cec8b6ca2d60e"
    )
    assert report_digest.digest("deform", km) == (
        "8532bc7e247c58db596f89ac4b8bb1dd5495c5f0d91649fc76c117ef596f6935"
    )


def test_validation_digests():
    # both reports come out of validation: rank, torsion, the Gale dual and
    # the unimodularity verdict with its method
    matrices = [report_digest.matrix_json(B) for B in corpus_matrices()]
    assert len(matrices) == 5687
    assert report_digest.digest("check", matrices) == (
        "8d501a50903d6aa30b1fc8150834e2ff385bb77b22446fa01a393e227fd1a356"
    )
    assert report_digest.digest("gale", matrices) == (
        "f6324de5b47ce31a95ba27331c71c679a082de0c4384447b83c60fb201b42517"
    )
