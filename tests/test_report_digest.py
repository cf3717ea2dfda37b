"""Digests of tools/report_digest.py, pinned: every `hkit deform`, `hkit
build` and `hkit discriminant` report on the valid corpus matrices, `deform`
on K_3..K_7, `build` on K_3..K_5 and `discriminant` on K_3..K_8, K_4*..K_6*
and R10, every `hkit check` and `hkit gale` report on the whole corpus,
every `hkit build` report on the corpus matrices that validation refuses,
every `hkit reconstruct` and `hkit round-trip` report on its divisors and
every `hkit local-model` report of `report_digest.local_model_jobs` stays
byte-identical apart from timing, and so does the repr of every valid
corpus matrix's t = 0 and t = 1 slices. A deliberate change to those reports (a
schema bump, a new field) updates these values in the same change."""

import importlib.util
import os
from collections import Counter

from corpus import complete_graph, corpus_matrices, divisor_of, valid_hypertoric

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


def test_refusal_digest():
    # the only reports that hold a not_unimodular message; refusals word
    # their messages when read, so this pins those words
    refused = report_digest.refusals(corpus_matrices())
    assert Counter(code for _, code in refused) == {
        "not_injective": 738, "torsion_cokernel": 859, "not_unimodular": 2986,
    }
    payloads = [report_digest.matrix_json(B) for B, _ in refused]
    assert report_digest.digest("build", payloads) == (
        "281648a838bcaa4e67382117266f87ac7c91076ceeacc5e080a2684b9ac6d1d3"
    )


def test_circuit_digests():
    # the Hilbert basis reads the circuits, and the round trip decides
    # unimodularity with the same enumerator
    matrices = list(corpus_matrices())
    valid = [report_digest.matrix_json(H.B) for H in valid_hypertoric(matrices)]
    km = [report_digest.matrix_json(complete_graph(m)) for m in report_digest.KM["build"]]
    divisors = [report_digest.divisor_json(d) for d in map(divisor_of, matrices) if d is not None]
    assert (len(valid), len(km), len(divisors)) == (1104, 3, 5687)
    assert report_digest.digest("build", valid) == (
        "5c01dac64dba6c3c6685156a23359922cd34c40003a9d1b0e4f97e5214750aff"
    )
    assert report_digest.digest("build", km) == (
        "68c79251cfe9a2e985bf0dadc305aceaf8c5dd9c490d74bd2f4d90dc79c138d6"
    )
    assert report_digest.digest("round-trip", divisors) == (
        "4509ca3b54c22bdbb7912e7ad4f1b766efefc2e56d03033cc4741888e9887482"
    )


def test_discriminant_digests():
    # the only report that serializes f_locus's points and directions
    valid = [report_digest.matrix_json(H.B) for H in valid_hypertoric(corpus_matrices())]
    km = [report_digest.matrix_json(complete_graph(m)) for m in report_digest.KM["discriminant"]]
    regular = [report_digest.matrix_json(B) for B in report_digest.regular_matrices()]
    assert (len(valid), len(km), len(regular)) == (1104, 6, 4)
    assert report_digest.digest("discriminant", valid) == (
        "6e3fced05824461c92dead5407969be470201c4b360c4254d60b9c92dddddfb9"
    )
    assert report_digest.digest("discriminant", km) == (
        "bda933a91026f65684e0ee2945fe5b2625b89a5d1b65cb7d9e3bea86adcb2272"
    )
    assert report_digest.digest("discriminant", regular) == (
        "7241d984fdfaaf0eaf462e727ce20c8d53bfd97a38c49659fb931c3bc7e3f281"
    )


def test_slices_digest():
    # the repr of family_slice at t = 0 and t = 1 on every valid corpus
    # matrix's default line: walls, offsets with their type, multiplicities,
    # kinds and order
    valid = list(valid_hypertoric(corpus_matrices()))
    assert len(valid) == 1104
    assert report_digest.slices_digest(valid) == (
        "a0cbab5448d075c08d8853cacc5748c5334d6ec5bef6f748a8ea133c16510995"
    )


def test_reconstruct_digest():
    found = map(divisor_of, corpus_matrices())
    divisors = [report_digest.divisor_json(d) for d in found if d is not None]
    assert len(divisors) == 5687
    assert report_digest.digest("reconstruct", divisors) == (
        "d9e98a8e7170100ebb9d81d0ecb44bd792bbe8adb5b2ee04356e71b72e9b08a5"
    )


def test_local_model_digest():
    # the one report whose exact values are all Fractions: integral ones go
    # out as ints and the others as {"num", "den"}
    payloads, options = zip(*report_digest.local_model_jobs())
    assert len(payloads) == 48
    assert report_digest.digest("local-model", payloads, options) == (
        "379465ca9be7bfefa791d43ab4fe3db520f4786cdb05835f20ce45b26865b829"
    )
