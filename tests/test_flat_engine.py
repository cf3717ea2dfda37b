"""The intersection-lattice engine against the subset-scan oracles.

`f_locus` and `check_simplicity` must agree field for field with the
exhaustive scans in oracles.py on the corpus discriminants, on the t = 0 and
t = 1 slices of every deformable corpus family, and on the t = 1 slices of
the complete-graph matrices K_3..K_5.
"""

from math import comb

import pytest

from corpus import complete_graph, corpus_matrices, valid_hypertoric
from hkit.arrangement import build_discriminant, check_simplicity, f_locus
from hkit.hypertoric import HypertoricData
from hkit.localmodel import choose_deformation_line, family_f_locus_codimension, family_slice
from oracles import check_simplicity_scan, f_locus_scan


def bell(m):
    """Number of set partitions of m elements (Bell triangle)."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


@pytest.fixture(scope="module")
def corpus_discriminants():
    """One discriminant per distinct wall set of the corpus."""
    out = {}
    for B in corpus_matrices():
        arr = build_discriminant(B)
        out.setdefault(tuple(c.hyperplane for c in arr.components), arr)
    return list(out.values())


@pytest.fixture(scope="module")
def corpus_slices():
    slices = []
    for H in valid_hypertoric(corpus_matrices()):
        if H.N > H.n:
            line = choose_deformation_line(H)
            slices += [family_slice(H, line, 0), family_slice(H, line, 1)]
    return slices


@pytest.fixture(scope="module")
def km_slices():
    out = []
    for m in (3, 4, 5):
        H = HypertoricData.from_matrix(complete_graph(m))
        out.append(family_slice(H, choose_deformation_line(H), 1))
    return out


def test_f_locus_matches_scan_on_corpus_discriminants(corpus_discriminants):
    assert len(corpus_discriminants) == 1639
    for arr in corpus_discriminants:
        assert list(f_locus(arr)) == f_locus_scan(arr), arr


def test_engine_matches_scans_on_corpus_slices(corpus_slices):
    for arr in corpus_slices:
        assert list(f_locus(arr)) == f_locus_scan(arr), arr
        assert check_simplicity(arr) == check_simplicity_scan(arr), arr


def test_engine_matches_scans_on_complete_graph_slices(km_slices):
    for arr in km_slices:
        assert list(f_locus(arr)) == f_locus_scan(arr), arr
        assert check_simplicity(arr) == check_simplicity_scan(arr), arr


def test_family_codimension_matches_scan():
    seen = {}
    for H in valid_hypertoric(corpus_matrices()):
        arr = build_discriminant(H.B)
        key = tuple(c.hyperplane for c in arr.components)
        if key not in seen:
            flats = f_locus_scan(arr)
            seen[key] = min(f.codimension for f in flats) + 1 if flats else None
        assert family_f_locus_codimension(H) == seen[key], H.B


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_complete_graph_flats_are_set_partitions(m):
    # flats of K_m <-> set partitions of its m vertices; the whole space and
    # the C(m, 2) single walls are not in the F-locus
    flats = f_locus(build_discriminant(complete_graph(m)))
    assert len(flats) == bell(m) - 1 - comb(m, 2)
    assert not flats.truncated
