"""The intersection-lattice engine against the subset-scan oracles and the
closure by levels.

`f_locus` and `check_simplicity` must agree field for field with the
exhaustive scans in oracles.py on the corpus discriminants, on the t = 0 and
t = 1 slices of every deformable corpus family, and on the t = 1 slices of
the complete-graph matrices K_3..K_5. The t = 1 slices come from the default
line, whose slice is simple, and from offsets 1, 2, 3, ... off the same
basis rows, whose slice is not always simple, so the comparison still meets
violations. The depth-first search must yield each flat exactly once, with
the member set and echelon basis of the closure by levels, and with the
direction `kernel_basis` gives its member normals. `f_locus` must make no
direction until one is read, and then one `kernel_basis` call per flat, so
that a refusal of `check_simplicity` makes none; the circuits that
`_Forms(B).circuits` enumerates must be the vectors B x for x spanning the
lines of that closure, up to sign. `check_simplicity` must decide every
slice from its circuits, at any rank of the normals, walk `_flats` only for
a slice that is not simple, give the flags of the scan, and decide (a) as
the rule it replaced, `no_excess_by_f_locus`, does. It lists no
violations; the walk it used to list them with, flat by flat over
`_flats`, must list what the scan lists. A central arrangement closed from its lines (`_lines`)
must give the F-locus that `_flats` walks, field for field, and take that
walk wherever `_lines` declines. The h-vector read off the flats of a
simple t = 1 slice must have h_0 = 1, h_1 = N - n, no negative entry and
sum det(B^T B).
"""

import gc
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from corpus import (
    cographic,
    complete_graph,
    corpus_matrices,
    graphic_rows,
    one_sum,
    r10,
    two_sum,
    valid_hypertoric,
)
from hkit import arrangement
from hkit.arrangement import (
    ArrangementComponent,
    ArrangementSpec,
    Hyperplane,
    Kind,
    _flats,
    build_discriminant,
    check_simplicity,
    f_locus,
    group_hyperplanes,
)
from hkit.hypertoric import HypertoricData
from hkit.intmat import (
    IntMatrix,
    _Forms,
    canonical_sign,
    det,
    is_primitive,
    kernel_basis,
    rank,
)
from hkit.localmodel import (
    DeformationLine,
    _line_direction,
    choose_deformation_line,
    family_f_locus_codimension,
    family_slice,
)
from oracles import (
    _solve_affine,
    check_simplicity_by_walk,
    check_simplicity_scan,
    f_locus_scan,
    flat_lattice_by_levels,
    no_excess_by_f_locus,
)


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


def lines(H):
    """The default line, and the line with offsets 1, 2, 3, ... off the same
    basis rows where that differs (N - n >= 3). The default line's t = 1
    slice is always simple; the other one's is not on 24 corpus families,
    K_5 and K_6, so the engine still meets violations."""
    line = choose_deformation_line(H)
    rest = [i for i in range(H.N) if i not in line.basis_rows]
    offsets = [Fraction(0)] * H.N
    for k, i in enumerate(rest):
        offsets[i] = Fraction(k + 1)
    if tuple(offsets) == line.offsets:
        return [line]
    consecutive = DeformationLine(
        basis_rows=line.basis_rows,
        offsets=tuple(offsets),
        direction=_line_direction(H, offsets),
    )
    return [line, consecutive]


@pytest.fixture(scope="module")
def corpus_slices():
    slices = []
    for H in valid_hypertoric(corpus_matrices()):
        if H.N > H.n:
            found = lines(H)
            slices.append(family_slice(H, found[0], 0))
            slices += [family_slice(H, line, 1) for line in found]
    return slices


@pytest.fixture(scope="module")
def km_slices():
    return complete_graph_slices((3, 4, 5))


def complete_graph_slices(ms):
    out = []
    for m in ms:
        H = HypertoricData.from_matrix(complete_graph(m))
        out += [family_slice(H, line, 1) for line in lines(H)]
    return out


def affine(arr):
    return any(c.hyperplane.offset for c in arr.components)


def test_f_locus_matches_scan_on_corpus_discriminants(corpus_discriminants):
    assert len(corpus_discriminants) == 1639
    for arr in corpus_discriminants:
        assert list(f_locus(arr)) == f_locus_scan(arr), arr


def test_engine_matches_scans_on_corpus_slices(corpus_slices):
    not_simple = 0
    for arr in corpus_slices:
        assert list(f_locus(arr)) == f_locus_scan(arr), arr
        report = check_simplicity(arr)
        assert report == check_simplicity_scan(arr).flags, arr
        not_simple += affine(arr) and not report.simple
    assert not_simple == 24


def test_engine_matches_scans_on_complete_graph_slices(km_slices):
    violations = []
    for arr in km_slices:
        assert list(f_locus(arr)) == f_locus_scan(arr), arr
        scan = check_simplicity_scan(arr)
        assert check_simplicity(arr) == scan.flags, arr
        assert check_simplicity_by_walk(arr) == scan, arr
        violations.append(len(scan.violations_b))
    assert violations == [0, 0, 0, 0, 6]


def test_family_codimension_matches_scan():
    seen = {}
    for H in valid_hypertoric(corpus_matrices()):
        arr = build_discriminant(H.B)
        key = tuple(c.hyperplane for c in arr.components)
        if key not in seen:
            flats = f_locus_scan(arr)
            seen[key] = min(f.codimension for f in flats) + 1 if flats else None
        assert family_f_locus_codimension(H) == seen[key], H.B


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 9])
def test_complete_graph_flats_are_set_partitions(m):
    # flats of K_m <-> set partitions of its m vertices; the whole space and
    # the C(m, 2) single walls are not in the F-locus. Its lines <-> the
    # partitions into two blocks, one circuit each up to sign
    B = complete_graph(m)
    flats = f_locus(build_discriminant(B))
    assert len(flats) == bell(m) - 1 - comb(m, 2)
    assert not flats.truncated
    assert len(_Forms(B).circuits) == 2 ** (m - 1) - 1


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_cographic_circuits_are_cycles(m):
    # the circuits of K_m* <-> the cycles of K_m, C(m, k) (k - 1)! / 2 of
    # length k: 7, 37, 197 and 1172
    cycles = sum(comb(m, k) * factorial(k - 1) // 2 for k in range(3, m + 1))
    assert len(_Forms(cographic(m)).circuits) == cycles


@pytest.mark.parametrize(
    "B, bases",
    [
        (complete_graph(4), 16),
        (complete_graph(5), 125),
        (cographic(4), 16),
        (cographic(5), 125),
        (r10(), 162),
    ],
    ids=["K4", "K5", "K4*", "K5*", "R10"],
)
def test_simple_slice_has_a_vertex_per_basis(B, bases):
    # Cauchy-Binet: a unimodular B has det(B^T B) bases, and in the simple
    # t = 1 slice of the default line each basis meets in one vertex, a flat
    # of codimension n
    assert det(B.transpose() @ B) == bases
    H = HypertoricData.from_matrix(B)
    slice1 = family_slice(H, choose_deformation_line(H), 1)
    assert check_simplicity(slice1).simple
    assert sum(f.codimension == H.n for f in f_locus(slice1)) == bases


def h_vector(arr):
    """The h-vector of a simple slice's flats, whose codimension-k flats are
    its independent k-sets of walls: f_0 = 1, f_1 the walls, f_k the flats
    of codimension k, and h_k = sum_i (-1)^(k - i) C(n - i, k - i) f_i."""
    n = arr.n
    f = [1, len(arr.components)] + [0] * (n - 1)
    for flat in f_locus(arr):
        f[flat.codimension] += 1
    h = [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1)) for k in range(n + 1)]
    return tuple(f), tuple(h)


def default_t1_slice(H):
    return family_slice(H, choose_deformation_line(H), 1)


class TestHVector:
    """The h-vector of the independence complex of B's rows, read off the
    flats of the simple default t = 1 slice, gives the even Betti numbers of
    Y(A, alpha) (Hausel and Sturmfels, Doc. Math. 2002): h_0 = 1,
    h_1 = N - n, every h_k >= 0, and sum h = det(B^T B), the number of
    bases (Cauchy-Binet)."""

    @staticmethod
    def assert_identities(H):
        arr = default_t1_slice(H)
        assert check_simplicity(arr).simple
        f, h = h_vector(arr)
        assert f[1] == H.N
        assert h[0] == 1 and h[1] == H.N - H.n, (H.B, h)
        assert min(h) >= 0, (H.B, h)
        assert sum(h) == det(H.B.transpose() @ H.B), (H.B, h)
        return f, h

    def test_corpus(self):
        families = list(valid_hypertoric(corpus_matrices()))
        assert len(families) == 1104
        for H in families:
            self.assert_identities(H)

    @pytest.mark.parametrize(
        "B, h",
        [
            (complete_graph(3), (1, 1, 1)),
            (complete_graph(4), (1, 3, 6, 6)),
            (complete_graph(5), (1, 6, 21, 46, 51)),
            (complete_graph(6), (1, 10, 55, 200, 470, 560)),
            (complete_graph(7), (1, 15, 120, 645, 2430, 6021, 7575)),
            (cographic(4), (1, 3, 6, 6)),
            (cographic(5), (1, 4, 10, 20, 30, 36, 24)),
            (cographic(6), (1, 5, 15, 35, 70, 120, 180, 240, 270, 240, 120)),
            (r10(), (1, 5, 15, 35, 55, 51)),
            (two_sum(complete_graph(4), r10()), (1, 7, 28, 82, 186, 326, 400, 266)),
        ],
        ids=["K3", "K4", "K5", "K6", "K7", "K4*", "K5*", "K6*", "R10", "K4+2R10"],
    )
    def test_regular_matroids(self, B, h):
        assert self.assert_identities(HypertoricData.from_matrix(B))[1] == h

    def test_one_sum_convolves(self):
        # the independence complex of a 1-sum is the join of its parts', so
        # its h-vector is the convolution of theirs
        K4, R10 = complete_graph(4), r10()
        a, b = (self.assert_identities(HypertoricData.from_matrix(B))[1] for B in (K4, R10))
        _, h = self.assert_identities(HypertoricData.from_matrix(one_sum(K4, R10)))
        convolution = tuple(
            sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)
        )
        assert h == convolution == (1, 8, 36, 116, 280, 516, 693, 636, 306)

    @pytest.mark.parametrize(
        "B",
        [
            complete_graph(4),
            complete_graph(5),
            complete_graph(7),
            cographic(4),
            cographic(5),
            cographic(6),
            r10(),
            two_sum(complete_graph(4), r10()),
        ],
        ids=["K4", "K5", "K7", "K4*", "K5*", "K6*", "R10", "K4+2R10"],
    )
    def test_f_counts_independent_rows(self, B):
        # brute force: the k-subsets of B's rows of rank k
        f, _ = h_vector(default_t1_slice(HypertoricData.from_matrix(B)))
        independent = [0] * (B.cols + 1)
        for k in range(B.cols + 1):
            for s in combinations(B.data, k):
                independent[k] += rank(IntMatrix(s, cols=B.cols)) == k
        assert f == tuple(independent)


# pivots 2, 3, 4, ... and nonzero offsets
NON_UNIT_PIVOT_WALLS = [((2, 3, 0), 1), ((3, -5, 0), 2), ((4, 1, 2), 3), ((0, 3, 4), 5), ((5, 0, 2), 7)]


def non_unit_pivot_arrangement():
    return group_hyperplanes(3, NON_UNIT_PIVOT_WALLS)


def test_points_with_non_unit_pivots():
    # the integer back-substitution needs a common denominator other than 1
    arr = non_unit_pivot_arrangement()
    flats = f_locus(arr)
    assert any(x.denominator > 1 for f in flats for x in f.point)
    for f in flats:
        walls = [arr.components[i].hyperplane for i in f.sorted_members()]
        consistent, point, rank = _solve_affine(
            [h.normal for h in walls], [h.offset for h in walls], arr.n
        )
        assert consistent and rank == f.codimension, f
        assert f.point == point, f
        assert all(isinstance(x, Fraction) for x in f.point)


def flats_walked(arr, monkeypatch):
    """f_locus(arr) with `_lines` turned off, so that `_flats` walks."""
    with monkeypatch.context() as patch:
        patch.setattr(arrangement, "_lines", lambda arr: None)
        return f_locus(arr)


def central(n, normals):
    """The central arrangement of normals taken as they are."""
    return ArrangementSpec(n, tuple(
        ArrangementComponent(Hyperplane(b, Fraction(0)), 1, Kind.SECOND_KIND) for b in normals
    ))


class TestLineClosure:
    """A central arrangement whose normals have {0, +-1} circuits is closed
    from its lines, and its F-locus equals the one `_flats` walks, field
    for field; where `_lines` declines, `_flats` walks anyway."""

    @staticmethod
    def assert_same_f_locus(arr, monkeypatch):
        """Whether the line walk ran, after checking f_locus against the
        F-locus that `_flats` walks."""
        assert list(f_locus(arr)) == list(flats_walked(arr, monkeypatch)), arr
        return arrangement._lines(arr) is not None

    def test_corpus_discriminants(self, corpus_discriminants, monkeypatch):
        # most corpus matrices are not unimodular, and their walls fall back
        lined = [self.assert_same_f_locus(arr, monkeypatch) for arr in corpus_discriminants]
        assert (lined.count(True), lined.count(False)) == (480, 1159)

    @pytest.mark.parametrize(
        "B",
        [complete_graph(m) for m in range(3, 10)] + [cographic(m) for m in (4, 5, 6)] + [r10()],
        ids=[f"K{m}" for m in range(3, 10)] + [f"K{m}*" for m in (4, 5, 6)] + ["R10"],
    )
    def test_regular_matroids(self, B, monkeypatch):
        assert self.assert_same_f_locus(build_discriminant(B), monkeypatch)

    def test_seeded_graphs(self, monkeypatch):
        # multigraphs on v <= 10 vertices with 2(v - 1) edges: parallel
        # edges merge into one wall of multiplicity >= 2
        rng = random.Random(23)
        for v in range(2, 11):
            for _ in range(3):
                B = IntMatrix(graphic_rows(rng, v, v - 1), cols=v - 1)
                assert self.assert_same_f_locus(build_discriminant(B), monkeypatch)

    @pytest.mark.parametrize(
        "build, lined",
        [
            (lambda: group_hyperplanes(3, [(b, 0) for b, _ in NON_UNIT_PIVOT_WALLS]), False),
            (lambda: central(2, [(1, 0), (0, 1), (1, 2)]), False),
            (lambda: central(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]), True),
            (lambda: central(2, []), True),
            (lambda: central(2, [(1, 1)]), True),
            # parallel walls are refused before either walk sees them
            (lambda: central(2, [(1, 0), (-1, 0), (0, 1)]), ValueError),
            (
                lambda: central(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 1, 0), (0, 0, 1)]),
                ValueError,
            ),
        ],
        ids=[
            "non-unit-pivots",
            "not-unimodular",
            "rank-deficient",
            "no-wall",
            "one-wall",
            "parallel",
            "parallel-rank-3",
        ],
    )
    def test_edge_cases(self, build, lined, monkeypatch):
        if lined is ValueError:
            pytest.raises(ValueError, build)
        else:
            assert self.assert_same_f_locus(build(), monkeypatch) is lined

    @pytest.mark.parametrize("B", [complete_graph(5), r10()], ids=["K5", "R10"])
    def test_directions_without_the_cut(self, B, monkeypatch):
        # every direction is kernel_basis of the rows on its path: the line
        # walk's normals and the residual walk's rows give the rows of
        # kernel_basis of the member normals
        arr = build_discriminant(B)
        want = flats_walked(arr, monkeypatch)
        got = f_locus(arr)
        assert got == want
        normals = [c.hyperplane.normal for c in arr.components]
        for f in got:
            M = IntMatrix([normals[k] for k in f.sorted_members()], cols=arr.n)
            assert f.direction.data == kernel_basis(M).data

    def test_regular_input_takes_the_line_walk(self, monkeypatch):
        arr = build_discriminant(complete_graph(6))
        want = flats_walked(arr, monkeypatch)

        def walk(*args):
            raise AssertionError("_flats ran")

        monkeypatch.setattr(arrangement, "_flats", walk)
        assert f_locus(arr) == want
        assert len(want) == bell(6) - 1 - comb(6, 2)


def member_set(mask):
    """The wall indices of one of `_flats`'s member bitmasks."""
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


class TestDirections:
    """Every flat's direction from the engine, `kernel_basis` of the rows
    that cut out the flats on its path, equals `kernel_basis` of its member
    normals, single walls included. There is one rule and no fallback: each
    direction read makes one `kernel_basis` call."""

    @staticmethod
    def counts(arr, monkeypatch):
        """(flats, kernel_basis calls) of the walk on arr, every direction
        read in the order the walk yields them and checked."""
        calls = []
        real = arrangement.kernel_basis
        monkeypatch.setattr(arrangement, "kernel_basis", lambda M: calls.append(M) or real(M))
        flats = [(mask, basis, direction.data) for mask, basis, direction in _flats(arr)]
        monkeypatch.undo()
        normals = [c.hyperplane.normal for c in arr.components]
        for mask, basis, direction in flats:
            members = sorted(member_set(mask))
            want = kernel_basis(IntMatrix([normals[k] for k in members], cols=arr.n))
            assert direction == want.data, (arr, members)
        return len(flats), len(calls)

    @pytest.mark.parametrize(
        "B",
        [complete_graph(m) for m in range(3, 9)] + [cographic(m) for m in (4, 5, 6)] + [r10()],
        ids=[f"K{m}" for m in range(3, 9)] + [f"K{m}*" for m in (4, 5, 6)] + ["R10"],
    )
    def test_regular_matroids_take_no_fallback(self, B, monkeypatch):
        flats, calls = self.counts(build_discriminant(B), monkeypatch)
        assert flats > 0 and calls == flats

    def test_corpus_discriminants(self, corpus_discriminants, monkeypatch):
        total = [self.counts(arr, monkeypatch) for arr in corpus_discriminants]
        assert all(calls == flats for flats, calls in total)
        assert sum(flats for flats, _ in total) > 0

    def test_corpus_slices(self, corpus_slices, monkeypatch):
        total = [self.counts(arr, monkeypatch) for arr in corpus_slices]
        assert all(calls == flats for flats, calls in total)
        assert sum(flats for flats, _ in total) > 0

    def test_non_unit_pivots(self, monkeypatch):
        flats, calls = self.counts(non_unit_pivot_arrangement(), monkeypatch)
        assert 0 < calls == flats

    def test_seeded_arrangements(self, monkeypatch):
        # six affine walls in Z^4 with entries in [-3, 3], whose directions
        # have pivots other than 1 and children below them
        total = []
        for seed in range(50):
            rng = random.Random(seed)
            pairs = []
            while len(pairs) < 6:
                normal = tuple(rng.randint(-3, 3) for _ in range(4))
                if is_primitive(normal):
                    pairs.append((normal, rng.randint(-2, 2)))
            total.append(self.counts(group_hyperplanes(4, pairs), monkeypatch))
        assert all(calls == flats for flats, calls in total)
        assert sum(flats for flats, _ in total) > 0


class TestDeferredDirections:
    """The walk makes no direction's rows: a direction makes them on first
    read, by one `kernel_basis` call, so a caller that reads only members,
    such as a refusal of `check_simplicity`, makes none."""

    @staticmethod
    def counted(monkeypatch, names=("kernel_basis",)):
        """The list to which each call of a function of `arrangement` named
        in names appends its name."""
        calls = []
        for name in names:
            real = getattr(arrangement, name)
            monkeypatch.setattr(
                arrangement, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        return calls

    def test_k7_directions_made_on_first_read(self, monkeypatch):
        # one kernel_basis call per flat on the first read and none on a
        # second, and the directions are `kernel_basis` of the member normals
        arr = build_discriminant(complete_graph(7))
        calls = self.counted(monkeypatch)
        flats = f_locus(arr)
        assert calls == []
        directions = [f.direction.data for f in flats]
        assert len(calls) == len(flats)
        assert [f.direction.data for f in flats] == directions and len(calls) == len(flats)
        monkeypatch.undo()
        normals = [c.hyperplane.normal for c in arr.components]
        for f, D in zip(flats, directions):
            M = IntMatrix([normals[k] for k in f.sorted_members()], cols=arr.n)
            assert D == kernel_basis(M).data and f.direction.shape == (arr.n - f.codimension, arr.n)
        assert len(flats) == bell(7) - 1 - comb(7, 2)

    def test_k7_refusal_reads_no_direction(self, monkeypatch):
        # (a) is read off member bitmasks: no direction, point or f_locus
        arr = unit_offset_slice(7)
        calls = self.counted(monkeypatch, ("kernel_basis", "f_locus", "_point_of"))
        assert check_simplicity(arr) == (False, False)
        assert calls == []

    def test_flats_hold_no_reference_cycle(self):
        # read or unread, the flats are freed by reference counts alone
        arr = build_discriminant(complete_graph(6))
        gc.collect()
        gc.disable()
        try:
            flats = f_locus(arr)
            [f.direction.data for f in flats[::2]]
            del flats
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_concurrent_first_reads_agree(self):
        # more threads than cores read the same unread directions in their
        # own orders, with a short switch interval: every thread sees the
        # rows that one reader sees
        arr = build_discriminant(complete_graph(7))
        want = [f.direction.data for f in f_locus(arr)]
        flats = f_locus(arr)
        got = [None] * 6

        def read(k):
            order = list(range(len(flats)))
            random.Random(k).shuffle(order)
            seen = {i: flats[i].direction.data for i in order}
            got[k] = [seen[i] for i in range(len(flats))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(len(got))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * len(got)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unread_k5_flats_pickle(self, protocol, monkeypatch):
        # an unread direction pickles as its rows, a plain IntMatrix; the
        # center's has no rows
        arr = build_discriminant(complete_graph(5))
        calls = self.counted(monkeypatch)
        flats = list(f_locus(arr))
        assert calls == []
        copies = pickle.loads(pickle.dumps(flats, protocol))
        assert calls
        assert copies == flats and {type(f.direction) for f in copies} == {IntMatrix}
        assert [f.direction.data for f in copies] == [f.direction.data for f in flats]
        center = max(copies, key=lambda f: f.codimension)
        assert center.codimension == arr.n and center.direction.shape == (0, arr.n)


class TestFlatsAgainstLevels:
    """The depth-first search against the closure by levels in oracles.py."""

    @staticmethod
    def assert_same_flats(arr):
        """The engine's member bitmasks become sets, and its central rows,
        which leave out the offset column, get that column's 0 back. Each
        direction is `kernel_basis` of the basis normals."""
        n = arr.n
        want = {}
        for level in flat_lattice_by_levels(arr):
            want.update(level)
        got = {}
        for mask, basis, direction in _flats(arr):
            members = member_set(mask)
            assert members not in got, (arr, members)
            assert direction.data == kernel_basis(IntMatrix([r[:n] for _, r in basis], cols=n)).data
            got[members] = [(p, r + (0,) * (arr.n + 1 - len(r))) for p, r in basis]
        assert got == want, arr

    @staticmethod
    def assert_same_circuits(B):
        """One circuit per sign pair, the same pairs as the lines."""
        n = B.cols
        lines = list(flat_lattice_by_levels(build_discriminant(B)))[n - 2]
        want = {
            B.mat_vec(kernel_basis(IntMatrix([r[:n] for _, r in basis], cols=n)).row(0))
            for basis in lines.values()
        }
        got = [canonical_sign(c) for c in _Forms(B).circuits]
        assert len(set(got)) == len(got), B
        assert set(got) == {canonical_sign(c) for c in want}, B

    def test_corpus_discriminants(self, corpus_discriminants):
        for arr in corpus_discriminants:
            self.assert_same_flats(arr)

    def test_corpus_slices(self, corpus_slices):
        assert len(corpus_slices) == 2106
        for arr in corpus_slices:
            self.assert_same_flats(arr)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_complete_graph_discriminants(self, m):
        self.assert_same_flats(build_discriminant(complete_graph(m)))

    def test_complete_graph_slices(self):
        for arr in complete_graph_slices((3, 4, 5, 6)):
            self.assert_same_flats(arr)

    def test_circuits_on_corpus(self):
        for H in valid_hypertoric(corpus_matrices()):
            if H.n > 1:
                self.assert_same_circuits(H.B)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_circuits_on_complete_graphs(self, m):
        self.assert_same_circuits(complete_graph(m))

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_circuits_on_cographic(self, m):
        self.assert_same_circuits(cographic(m))

    def test_circuits_on_r10(self):
        self.assert_same_circuits(r10())


class TestSimplicityCertificate:
    """`check_simplicity` decides every slice from the circuits of its
    normals' dependencies, at any rank of the normals, and walks the flats
    only to decide (a) for a slice that is not simple. Where the
    certificate refuses (a wall of multiplicity >= 2, a pivot other than 1,
    a circuit entry outside {0, +-1}), the scan finds a violation of (b)."""

    @staticmethod
    def walks(arr, monkeypatch):
        """(check_simplicity(arr), whether it walked `_flats`)."""
        entered = []
        real = arrangement._flats
        monkeypatch.setattr(arrangement, "_flats", lambda *a: entered.append(1) or real(*a))
        report = check_simplicity(arr)
        monkeypatch.undo()
        return report, bool(entered)

    @staticmethod
    def refused(arr):
        """Whether the certificate's hypotheses fail on arr."""
        forms = _Forms(IntMatrix([c.hyperplane.normal for c in arr.components], cols=arr.n))
        return (
            any(c.multiplicity > 1 for c in arr.components)
            or not forms.unit
            or forms.dependency_circuits() is None
        )

    def assert_decided(self, arr, monkeypatch):
        """check_simplicity(arr), checked against the scan's flags: it walks
        exactly when arr is not simple, and a refused certificate leaves a
        violation of (b). The walk lists what the scan lists. Returns
        (report, whether the certificate refused)."""
        report, walked = self.walks(arr, monkeypatch)
        scan = check_simplicity_scan(arr)
        assert report == scan.flags, arr
        assert check_simplicity_by_walk(arr) == scan, arr
        assert walked is not report.simple, arr
        refused = self.refused(arr)
        assert scan.violations_b or not refused, arr
        return report, refused

    @staticmethod
    def no_walk(monkeypatch):
        def walk(*args):
            raise AssertionError("_flats ran")

        monkeypatch.setattr(arrangement, "_flats", walk)

    def test_simple_corpus_slices_are_certified(self, corpus_slices, monkeypatch):
        slices = [arr for arr in corpus_slices if affine(arr)]
        verdicts = [check_simplicity(arr).simple for arr in slices]
        self.no_walk(monkeypatch)
        for arr, simple in zip(slices, verdicts):
            if simple:
                assert check_simplicity(arr) == (True, True), arr
            else:
                with pytest.raises(AssertionError, match="_flats ran"):
                    check_simplicity(arr)
                assert check_simplicity_scan(arr).violations_b or not self.refused(arr), arr
        assert verdicts.count(False) == 24 and len(slices) == 1161

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_complete_graph_slices_are_certified(self, m, monkeypatch):
        H = HypertoricData.from_matrix(complete_graph(m))
        arr = family_slice(H, choose_deformation_line(H), 1)
        self.no_walk(monkeypatch)
        assert check_simplicity(arr) == (True, True)

    @pytest.mark.parametrize(
        "arr",
        [
            # rows 2 and 3 of [[1, 0], [0, 1], [1, 1], [1, 1]] with equal
            # offsets: one wall of multiplicity 2, in a slice that is
            # otherwise simple
            group_hyperplanes(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((1, 1), 1)]),
            non_unit_pivot_arrangement(),
            build_discriminant(complete_graph(4)),
            group_hyperplanes(3, [((1, 1, 0), 0), ((1, -1, 0), 1), ((0, 0, 1), 2)]),
        ],
        ids=["multiplicity-2", "non-unit-pivots", "central-K4", "index-2-pair"],
    )
    def test_walks_where_the_certificate_does_not_apply(self, arr, monkeypatch):
        report, _ = self.assert_decided(arr, monkeypatch)
        assert not report.simple

    def test_seeded_offsets_on_corpus(self, monkeypatch):
        seen = set()
        for arr in seeded_offset_slices():
            report, refused = self.assert_decided(arr, monkeypatch)
            seen.add((report.simple, refused, max(c.multiplicity for c in arr.components) > 1))
        assert {(True, False, False), (False, False, False), (False, True, True)} <= seen

    def test_rank_deficient_slices(self, monkeypatch):
        # normals of rank below n: every valid corpus matrix with a zero
        # column appended, under seeded offsets, and x = 0, y = 0, x + y = 1
        # in n = 3, which is simple
        arr = group_hyperplanes(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 1)])
        assert self.assert_decided(arr, monkeypatch) == ((True, True), False)
        rng = random.Random(97)
        seen = set()
        for H in valid_hypertoric(corpus_matrices()):
            offsets = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(H.N)]
            arr = group_hyperplanes(H.n + 1, [(b + (0,), c) for b, c in zip(H.B.data, offsets)])
            report, refused = self.assert_decided(arr, monkeypatch)
            seen.add((report.simple, refused))
        assert seen == {(True, False), (False, False), (False, True)}

    def test_excess_matches_the_f_locus_rule(self, corpus_slices):
        # (a) read off the member bitmasks of `_flats`, stopping at the first
        # flat of n + 1 walls, against the rule it replaced, on refusals
        # where (a) fails and where it holds
        slices = corpus_slices + list(seeded_offset_slices())
        for m in (5, 6, 7):
            unit, duplicated = unit_offset_slice(m), duplicated_row_slice(m)
            assert check_simplicity(unit) == (False, False)
            assert check_simplicity(duplicated) == (True, False)
            slices += [unit, duplicated]
        refused = excess = 0
        for arr in slices:
            report = check_simplicity(arr)
            assert report.no_excess_intersections == no_excess_by_f_locus(arr), arr
            refused += not report.simple
            excess += not report.no_excess_intersections
        assert (len(slices), refused, excess) == (3057, 1188, 399)

    def test_k7_unit_offsets_refused(self):
        # the certificate refuses, so (b) fails; (a) fails too, witnessed by
        # n + 1 walls of one flat that the Fraction elimination solves
        arr = unit_offset_slice(7)
        assert check_simplicity(arr) == (False, False)
        n = arr.n
        flat = next(f for f in f_locus(arr) if len(f.members) > n)
        walls = [arr.components[i].hyperplane for i in flat.sorted_members()[: n + 1]]
        consistent, _, _ = _solve_affine([h.normal for h in walls], [h.offset for h in walls], n)
        assert consistent

    @pytest.mark.parametrize("normals", [[(1, 0), (-1, 0), (0, 1)], [(1, 0), (2, 0), (0, 1)]])
    def test_normals_that_are_not_canonical(self, normals):
        # a normal led by a negative entry, or one that is not primitive, is
        # refused by the constructor, so neither walk meets parallel walls
        comps = tuple(
            ArrangementComponent(Hyperplane(b, Fraction(0)), 1, Kind.SECOND_KIND) for b in normals
        )
        with pytest.raises(ValueError):
            ArrangementSpec(2, comps)


def seeded_offset_slices():
    """The t = 1 slice of every valid corpus family with N > n under seeded
    integer and fractional offsets: equal offsets on parallel rows make
    walls of multiplicity 2, and small offsets make circuits with
    <c, lambda> = 0."""
    rng = random.Random(89)
    for H in valid_hypertoric(corpus_matrices()):
        if H.N > H.n:
            offsets = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(H.N)]
            yield family_slice(H, DeformationLine(H.basis_rows, tuple(offsets), ()), 1)


def duplicated_row_slice(m):
    """K_m's default t = 1 slice, which is simple, with a copy of one
    non-basis row at the same offset: a wall of multiplicity 2, so the
    slice fails (b) and keeps (a)."""
    arr = default_t1_slice(HypertoricData.from_matrix(complete_graph(m)))
    walls = [tuple(c.hyperplane) for c in arr.components]
    return group_hyperplanes(arr.n, walls + [next(w for w in walls if w[1])])


def unit_offset_slice(m):
    """K_m's t = 1 slice with offset 0 on the basis rows and 1 on every
    other row: not simple, as many circuits have <c, lambda> = 0."""
    H = HypertoricData.from_matrix(complete_graph(m))
    offsets = tuple(Fraction(0 if i in H.basis_rows else 1) for i in range(H.N))
    return family_slice(H, DeformationLine(H.basis_rows, offsets, ()), 1)


class TestListingAgainstWalk:
    """The oracles' listings against each other: the walk flat by flat over
    `_flats` (`oracles.check_simplicity_by_walk`) lists what the subset scan
    lists, where the scan fits, and its flags are `check_simplicity`'s.
    Seeded-offset and rank-deficient corpus slices are compared in
    `TestSimplicityCertificate`."""

    def test_corpus_slices(self, corpus_slices):
        for arr in corpus_slices:
            walk = check_simplicity_by_walk(arr)
            assert check_simplicity(arr) == walk.flags, arr
            assert walk == check_simplicity_scan(arr), arr

    def test_pencil_of_thirteen_lines(self):
        arr = group_hyperplanes(2, [((1, k), 0) for k in range(13)])
        walk = check_simplicity_by_walk(arr)
        assert walk == check_simplicity_scan(arr)
        assert check_simplicity(arr) == walk.flags == (False, False)
        assert (len(walk.violations_a), len(walk.violations_b)) == (286, 8166)

    @pytest.mark.parametrize("m, violations", [(5, (40, 55)), (6, (783, 1356))], ids=["K5", "K6"])
    def test_complete_graph_slices(self, m, violations):
        # the scan over K_6's 2^15 subsets of walls takes seconds, so only
        # K_5's walk is compared with it
        arr = unit_offset_slice(m)
        walk = check_simplicity_by_walk(arr)
        if m == 5:
            assert walk == check_simplicity_scan(arr)
        assert check_simplicity(arr) == walk.flags == (False, False)
        assert (len(walk.violations_a), len(walk.violations_b)) == violations
