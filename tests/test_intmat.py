import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from corpus import (
    cographic, complete_graph, corpus_matrices, divisor_of, graphic_rows, is_valid_matrix, r10,
)
from hkit import intmat
from hkit.characterization import DivisorData, classify_case, round_trip
from hkit.errors import HkitError, NotInjective, NotUnimodular, TorsionCokernel
from hkit.hypertoric import HypertoricData
from hkit.intmat import (
    IntMatrix,
    _Forms,
    _oriented,
    canonical_primitive,
    canonical_sign,
    det,
    gale_dual,
    hermite_normal_form,
    is_primitive,
    is_unimodular,
    kernel_basis,
    primitive_part,
    rank,
    smith_normal_form,
    unimodularity_report,
)
from oracles import (
    _free_block,
    classify_case_by_normal_forms,
    from_matrix_by_normal_forms,
    gale_dual_by_normal_forms,
    hermite_normal_form_by_closures,
    iter_max_minors,
    kernel_basis_by_transform,
    max_minor_count,
    rank_by_hnf,
    round_trip_by_normal_forms,
    smith_normal_form_by_closures,
    unimodular_by_minors,
    unimodular_by_scan,
)


def snf_factors_by_minor_gcds(M):
    """Classical oracle: d_k = gcd of all k x k minors, factor_k = d_k / d_{k-1}.

    Independent of any elimination path.
    """
    m = min(M.rows, M.cols)
    factors = []
    prev = 1
    for k in range(1, m + 1):
        g = 0
        for rows in itertools.combinations(range(M.rows), k):
            for cols in itertools.combinations(range(M.cols), k):
                sub = IntMatrix([[M[i, j] for j in cols] for i in rows])
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class TestConstruction:
    @pytest.mark.parametrize("entry", [1.9, 2.0, True, False, "1", None, Fraction(1)])
    def test_rejects_entries_that_are_not_int(self, entry):
        # truncating 1.9 or reading True as 1 would change the matrix silently
        with pytest.raises(ValueError):
            IntMatrix([[entry, 0], [0, 1]])
        with pytest.raises(ValueError):
            IntMatrix([[1, 0], [0, entry]])

    @pytest.mark.parametrize("cols", [2.5, 2.0, True, -1])
    def test_rejects_cols_that_are_not_int(self, cols):
        with pytest.raises(ValueError):
            IntMatrix([], cols=cols)

    @pytest.mark.parametrize(
        "rows, cols", [([[1, 2], [3]], None), ([[1, 2]], 3)], ids=["ragged", "cols"]
    )
    def test_rejects_rows_of_the_wrong_width(self, rows, cols):
        with pytest.raises(ValueError):
            IntMatrix(rows, cols=cols)

    def test_rejects_shapes_that_do_not_fit(self):
        M = IntMatrix([[1, 2]])
        with pytest.raises(ValueError, match="^shape mismatch"):
            M @ M
        with pytest.raises(ValueError, match="^shape mismatch"):
            M.mat_vec((1,))
        with pytest.raises(ValueError, match="non-square"):
            det(M)

    def test_accepts_any_iterable_rows(self):
        M = IntMatrix(iter([(1, 0), [0, 1], range(2)]))
        assert M.row_list() == [[1, 0], [0, 1], [0, 1]]
        assert IntMatrix([], cols=3).shape == (0, 3)

    def test_equal_matrices_hash_equal(self):
        M, same = IntMatrix([[1, 2], [3, 4]]), IntMatrix(iter([(1, 2), range(3, 5)]))
        assert M == same and hash(M) == hash(same)
        assert {M: "m"}[same] == "m" and len({M, same, M.transpose()}) == 2
        # the shape is part of the value: empty matrices of different widths differ
        assert IntMatrix([], cols=2) != IntMatrix([], cols=3)
        assert len({IntMatrix([], cols=2), IntMatrix([], cols=3), IntMatrix([], cols=2)}) == 2

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize(
        "M", [IntMatrix([[1, -2], [0, 3]]), IntMatrix([], cols=3)], ids=["2x2", "0x3"]
    )
    def test_pickles_at_every_protocol(self, M, protocol):
        copy = pickle.loads(pickle.dumps(M, protocol))
        assert type(copy) is IntMatrix and copy == M and copy.shape == M.shape

    def test_forms_descriptor_read_from_the_class(self):
        # `_on_first_use` gives itself when read from the class, with the
        # method's docstring, and the value when read from an instance
        descriptor = intmat._Forms.kernel
        assert isinstance(descriptor, intmat._on_first_use)
        assert descriptor.__doc__ == descriptor.method.__doc__
        assert descriptor.__doc__.startswith("kernel_basis(B^T) at any rank")
        forms = intmat._Forms(IntMatrix([[1], [1]]))
        assert forms.kernel == forms.__dict__["kernel"]


class TestVectors:
    def test_is_primitive(self):
        assert is_primitive((1, 0))
        assert not is_primitive((2, 4))
        assert is_primitive((3, 5))
        assert not is_primitive((0, 0))

    def test_canonical_sign(self):
        assert canonical_sign((-1, 2)) == (1, -2)
        assert canonical_sign((0, -3)) == (0, 3)
        assert canonical_sign((2, -1)) == (2, -1)
        assert canonical_sign((0, 0)) == (0, 0)

    def test_canonical_primitive(self):
        assert canonical_primitive((-2, 4)) == (1, -2)

    def test_is_primitive_matches_nonzero_and_gcd_one(self):
        # one gcd call: the gcd of a zero or empty vector is 0, not 1
        vectors = [(), *((x,) for x in range(-3, 4)), *itertools.product(range(-3, 4), repeat=3)]
        for v in vectors:
            assert is_primitive(v) == (any(x != 0 for x in v) and gcd(*v) == 1), v

    def test_canonical_primitive_matches_two_passes(self):
        vectors = [*itertools.product(range(-4, 5), repeat=3), *itertools.product(range(-2, 3), repeat=4)]
        assert (0, 0, 0) in vectors and (0, 0, 0, 0) in vectors
        for v in vectors:
            expected = canonical_sign(primitive_part(v))
            assert canonical_primitive(v) == expected, v
            assert canonical_primitive(list(v)) == expected, v


class TestHermite:
    def test_identity_is_fixed(self):
        M = IntMatrix.identity(2)
        H, U = hermite_normal_form(M)
        assert H == M
        assert U == IntMatrix.identity(2)

    def test_single_column_elimination(self):
        M = IntMatrix([[1], [1]])
        H, U = hermite_normal_form(M)
        assert H == IntMatrix([[1], [0]])
        assert U == IntMatrix([[1, 0], [-1, 1]])

    def test_diagonal(self):
        M = IntMatrix([[2, 0], [0, 3]])
        H, U = hermite_normal_form(M)
        assert H == M
        assert U @ M == H  # independent multiply

    def test_transform_property_random(self):
        rng = random.Random(7)
        for _ in range(200):
            M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            H, U = hermite_normal_form(M)
            assert U @ M == H
            assert abs(det(U)) == 1
            # pivots positive, entries above pivots reduced into [0, pivot)
            r = 0
            last_pivot_col = -1
            for i in range(H.rows):
                row = H.row(i)
                nz = next((j for j, x in enumerate(row) if x != 0), None)
                if nz is None:
                    # all later rows must be zero too
                    assert all(
                        all(x == 0 for x in H.row(k)) for k in range(i, H.rows)
                    )
                    break
                assert nz > last_pivot_col
                last_pivot_col = nz
                assert row[nz] > 0
                for k in range(i):
                    assert 0 <= H[k, nz] < row[nz]
                r += 1

    def test_idempotence(self):
        rng = random.Random(11)
        for _ in range(100):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            H, _ = hermite_normal_form(M)
            H2, U2 = hermite_normal_form(H)
            assert H2 == H
            assert U2 == IntMatrix.identity(H.rows)


class TestSmith:
    def test_identity(self):
        res = smith_normal_form(IntMatrix.identity(3))
        assert res.S == IntMatrix.identity(3)
        assert res.invariant_factors == (1, 1, 1)

    def test_classic_diagonal(self):
        # Oracle: d1 = gcd of entries = 1, d1*d2 = gcd of 2x2 minors = det = 6.
        M = IntMatrix([[2, 0], [0, 3]])
        assert snf_factors_by_minor_gcds(M) == (1, 6)
        res = smith_normal_form(M)
        assert res.invariant_factors == (1, 6)
        assert res.U @ M @ res.V == res.S

    def test_primitive_column(self):
        res = smith_normal_form(IntMatrix([[1], [1]]))
        assert res.invariant_factors == (1,)

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(13)
        for _ in range(150):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            res = smith_normal_form(M)
            assert res.invariant_factors == snf_factors_by_minor_gcds(M)
            assert res.U @ M @ res.V == res.S
            assert abs(det(res.U)) == 1
            assert abs(det(res.V)) == 1
            # divisibility chain
            f = res.invariant_factors
            assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))

    def test_square_det_is_factor_product(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n)
            prod = 1
            factors = smith_normal_form(M).invariant_factors
            for x in factors:
                prod *= x
            if len(factors) < n:
                prod = 0
            assert prod == abs(det(M))


class TestUnitPivotFactors:
    """`hkit check` reports (1,) * rank as the invariant factors when the HNF
    of B^T has unit pivots: it holds an identity minor of size rank. The
    Smith normal form is the oracle."""

    def test_corpus(self):
        unit = 0
        for B in corpus_matrices():
            forms = _Forms(B)
            if forms.unit:
                unit += 1
                assert smith_normal_form(B).invariant_factors == (1,) * forms.rank, B
        assert unit == 3912


class TestFactorsFromPlainHermite:
    """_Forms reads the torsion test off the pivots of one HNF of B's rows
    with no transform, and the invariant factors off its nonzero rows with
    no U and no V. The closure-based Smith normal form is the oracle, on
    M and M^T, at every rank."""

    @staticmethod
    def outcome(M):
        """(full column rank, unit pivots of B^T, torsion-free) of
        _oriented(M), after checking it against the oracle."""
        forms = _oriented(M)
        factors = smith_normal_form_by_closures(M).invariant_factors
        assert forms.invariant_factors == factors, M
        free = set(factors) <= {1}
        full = forms.rank == forms.B.cols
        if full:
            assert forms.torsion_free == free, M
        return full, forms.unit, free

    def test_corpus_and_transposes(self):
        seen = Counter(self.outcome(M) for B in corpus_matrices() for M in (B, B.transpose()))
        assert seen == {
            (True, True, True): 6626, (True, False, True): 1734, (True, False, False): 1736,
            (False, True, True): 1176, (False, False, True): 12, (False, False, False): 90,
        }

    def test_random_matrices(self):
        # every third matrix repeats a column, so rank-deficient ones come often
        rng = random.Random(47)
        seen = Counter()
        for i in range(3000):
            rows, cols = rng.randint(1, 6), rng.randint(1, 5)
            data = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            if i % 3 == 0 and cols > 1:
                j = rng.randrange(cols - 1)
                for row in data:
                    row[j + 1] = row[j]
            M = IntMatrix(data)
            seen.update((self.outcome(M), self.outcome(M.transpose())))
        assert seen == {
            (True, True, True): 530, (True, False, True): 2394, (True, False, False): 2094,
            (False, True, True): 187, (False, False, True): 495, (False, False, False): 300,
        }

    @pytest.mark.parametrize(
        "B, error",
        [
            (IntMatrix([[1, 1], [1, -1], [0, 1]]), NotUnimodular),
            (IntMatrix([[1, -1], [1, 1], [1, 1]]), TorsionCokernel),
        ],
    )
    def test_refusals_build_no_transform(self, B, error, monkeypatch):
        calls, widths = [], []
        for name in ("_with_transform", "smith_normal_form"):
            original = getattr(intmat, name)
            monkeypatch.setattr(intmat, name, lambda M, f=original: calls.append(M) or f(M))
        hermite = intmat._hermite

        def counted(H, n):
            widths.append((n, {len(row) for row in H}))
            return hermite(H, n)

        monkeypatch.setattr(intmat, "_hermite", counted)
        with pytest.raises(error):
            HypertoricData.from_matrix(B)
        assert not calls
        assert all(found <= {n} for n, found in widths), widths

    def test_gale_dual_of_a_non_unit_b_builds_one_transform(self, monkeypatch):
        calls = []
        with_transform = intmat._with_transform

        def counted(M):
            calls.append(M)
            return with_transform(M)

        monkeypatch.setattr(intmat, "_with_transform", counted)
        B = IntMatrix([[1, 1], [1, -1], [0, 1]])
        assert gale_dual(B) == IntMatrix([[1, -1, -2]])
        assert calls == [B]


class TestSmithAgainstClosures:
    """The Smith normal form by alternating row and column HNFs against the
    closure-based one it replaced: the same S and invariant factors, and
    unimodular U, V with U M V = S."""

    @staticmethod
    def assert_agrees(M):
        res, oracle = smith_normal_form(M), smith_normal_form_by_closures(M)
        assert (res.S, res.invariant_factors) == (oracle.S, oracle.invariant_factors), M
        assert _Forms(M).invariant_factors == res.invariant_factors, M
        assert res.U @ M @ res.V == res.S, M
        assert abs(det(res.U)) == abs(det(res.V)) == 1, M

    def test_corpus_and_transposes(self):
        for B in corpus_matrices():
            self.assert_agrees(B)
            self.assert_agrees(B.transpose())

    def test_random_matrices(self):
        rng = random.Random(43)
        for _ in range(3000):
            self.assert_agrees(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))

    @pytest.mark.parametrize("m", range(3, 9))
    def test_complete_graph(self, m):
        self.assert_agrees(complete_graph(m))

    @pytest.mark.parametrize("k", range(4))
    def test_empty(self, k):
        self.assert_agrees(IntMatrix([], cols=k))
        self.assert_agrees(IntMatrix([[]] * k, cols=0))

    def test_divisibility_by_a_column(self):
        # The diagonal reaches (1, 3, 1). Adding row 2 into row 1 is undone
        # by the next row HNF, so that loop never ends; adding column 2 into
        # column 1 puts gcd(3, 1) on the diagonal.
        M = IntMatrix([[-2, 0, 1], [1, 0, -2], [3, 0, 2], [0, 3, -2]])
        assert smith_normal_form(M).invariant_factors == snf_factors_by_minor_gcds(M)
        self.assert_agrees(M)


class TestUnimodular:
    def test_identity(self):
        assert is_unimodular(IntMatrix.identity(4))

    def test_column_cases(self):
        assert is_unimodular(IntMatrix([[1], [1]]))
        assert not is_unimodular(IntMatrix([[1], [2]]))

    def test_zero_matrix(self):
        assert not is_unimodular(IntMatrix([[0, 0], [0, 0]]))

    def test_square_agrees_with_snf(self):
        # For square matrices |det| = product of invariant factors, so the
        # minor criterion and the SNF criterion coincide.
        rng = random.Random(19)
        for _ in range(1000):
            n = rng.randint(1, 5)
            M = random_matrix(rng, n, n, lo=-2, hi=2)
            res = smith_normal_form(M)
            snf_verdict = res.torsion_free and len(res.invariant_factors) == n
            assert is_unimodular(M) == snf_verdict

    def test_minor_enumeration_matches_brute(self):
        M = IntMatrix([[1, 0], [0, 1], [1, 1], [1, -1]])
        minors = sorted(iter_max_minors(M))
        assert minors == sorted(
            det(IntMatrix([M.row(i), M.row(j)]))
            for i, j in itertools.combinations(range(4), 2)
        )


def graphic_with_planted_row(rng, vertices, extra):
    """graphic_rows plus one planted row e_a + e_p with a, p nonzero, at a
    random position. Unimodular or not depending on the graph."""
    rows = graphic_rows(rng, vertices, extra)
    a, p = rng.sample(range(1, vertices), 2)
    planted = [0] * (vertices - 1)
    planted[a - 1] = planted[p - 1] = 1
    rows.insert(rng.randrange(len(rows) + 1), planted)
    return IntMatrix(rows, cols=vertices - 1)


def k8_hole():
    """K_8 with its last row replaced by (1, 1, 1, 0, 0, 0, 0): rows 0, 3-6
    and 13 form the path 0-1 and 2-3 plus the star on 4..7, and swapping
    edge (1, 2) of a spanning tree for the new row gives a minor of -2."""
    K8 = complete_graph(8)
    return IntMatrix(K8.data[:-1] + ((1, 1, 1, 0, 0, 0, 0),), cols=7)


class TestUnimodularityAgainstMinors:
    """The circuit enumerator against the minor enumeration and the scan of
    R's square minors, verdict for verdict; the method is always "minors"."""

    @staticmethod
    def assert_agrees(M, minors=True):
        """The verdict, checked against the scan and, when minors is set,
        against every maximal minor."""
        verdict = unimodularity_report(M)
        assert verdict == (unimodular_by_scan(M), "minors"), M
        forms = _oriented(M)
        assert forms.B == (M if M.rows >= M.cols else M.transpose()), M
        assert forms.unimodular == verdict[0], M
        if minors:
            assert verdict == (unimodular_by_minors(M), "minors"), M
        return verdict[0]

    def test_corpus_and_gale_duals(self):
        verdicts = set()
        for B in corpus_matrices():
            self.assert_agrees(B)
            if is_valid_matrix(B):
                A = gale_dual(B)
                if A.rows:
                    self.assert_agrees(A)
                    verdicts.add(unimodular_by_minors(A))
        assert verdicts == {True, False}

    def test_random_matrices(self):
        rng = random.Random(31)
        verdicts = set()
        for _ in range(3000):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            M = IntMatrix([[rng.choice((-1, 0, 1, 2)) for _ in range(cols)] for _ in range(rows)])
            self.assert_agrees(M)
            verdicts.add(unimodular_by_minors(M))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("m", range(3, 8))
    def test_complete_graph_and_gale_dual(self, m):
        B = complete_graph(m)
        self.assert_agrees(B)
        self.assert_agrees(gale_dual(B))
        assert is_unimodular(B)

    def test_graphic_multigraphs_with_planted_row(self):
        rng = random.Random(37)
        verdicts = set()
        for idx in range(60):
            M = graphic_with_planted_row(rng, 5 + idx % 3, 1 + idx % 3)
            self.assert_agrees(M)
            verdicts.add(unimodular_by_minors(M))
        assert verdicts == {True, False}

    def test_graphic_multigraphs_and_planted_variants(self):
        # 7-10 vertices and 2-4 extra edges: N - n < n, so the kernel rows
        # decide; each graph is totally unimodular, and its variant with a
        # planted row e_a + e_p is unimodular or not depending on the graph
        rng = random.Random(43)
        verdicts = set()
        for idx in range(48):
            vertices, extra = 7 + idx % 4, 2 + idx % 3
            graph = graphic_rows(rng, vertices, extra)
            assert self.assert_agrees(IntMatrix(graph, cols=vertices - 1))
            a, p = rng.sample(range(vertices - 1), 2)
            planted = [int(k in (a, p)) for k in range(vertices - 1)]
            graph.insert(rng.randrange(len(graph) + 1), planted)
            verdicts.add(self.assert_agrees(IntMatrix(graph, cols=vertices - 1)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("m", range(4, 8))
    def test_cographic(self, m):
        # K_7* has 54264 maximal minors of size 15, too slow to enumerate here
        assert self.assert_agrees(cographic(m), minors=m < 7)

    def test_r10(self):
        # regular, but neither graphic nor cographic
        assert self.assert_agrees(r10())

    def test_k8_and_k8_hole(self):
        # K_8 has 1184040 maximal minors, too many to enumerate here; their
        # enumeration stops at the hole's first minor of -2
        assert self.assert_agrees(complete_graph(8), minors=False)
        assert not self.assert_agrees(k8_hole())


def outcome(fn, arg):
    """fn(arg) as ("ok", value), or ("error", class name, message)."""
    try:
        return "ok", fn(arg)
    except HkitError as err:
        return "error", type(err).__name__, str(err)


class TestEchelonAgainstNormalForms:
    """Validation, the Gale dual, kernels and the round trip read off one
    reduced echelon form of B^T, against the normal-form path they replaced,
    field for field (values, error classes and messages)."""

    PAIRS = (
        (gale_dual, gale_dual_by_normal_forms),
        (kernel_basis, kernel_basis_by_transform),
        (lambda M: kernel_basis(M.transpose()), lambda M: kernel_basis_by_transform(M.transpose())),
        (rank, rank_by_hnf),
        (hermite_normal_form, hermite_normal_form_by_closures),
        (HypertoricData.from_matrix, from_matrix_by_normal_forms),
        (classify_case, classify_case_by_normal_forms),
    )

    @classmethod
    def assert_agrees(cls, B):
        """(whether the HNF of B^T has unit pivots, "ok" or gale_dual's
        error class), for coverage."""
        for fn, oracle in cls.PAIRS:
            assert outcome(fn, B) == outcome(oracle, B), (fn, B)
        d = divisor_of(B)
        if d is not None:
            assert outcome(round_trip, d) == outcome(round_trip_by_normal_forms, d), B
        gale = outcome(gale_dual, B)
        return _Forms(B).unit, gale[0] if gale[0] == "ok" else gale[1]

    def test_corpus(self):
        seen = {self.assert_agrees(B) for B in corpus_matrices()}
        # every way out of gale_dual, on both paths where it can occur
        assert seen == {
            (True, "ok"),
            (True, "NotInjective"),
            (False, "ok"),
            (False, "NotInjective"),
            (False, "TorsionCokernel"),
        }

    def test_random_matrices(self):
        rng = random.Random(41)
        for _ in range(3000):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            self.assert_agrees(
                IntMatrix([[rng.choice((-1, 0, 1, 2)) for _ in range(cols)] for _ in range(rows)])
            )

    @pytest.mark.parametrize("m", range(3, 8))
    def test_complete_graph(self, m):
        assert self.assert_agrees(complete_graph(m)) == (True, "ok")

    def test_graphic_multigraphs_with_planted_row(self):
        rng = random.Random(37)
        for idx in range(60):
            self.assert_agrees(graphic_with_planted_row(rng, 5 + idx % 3, 1 + idx % 3))

    def test_non_unit_pivot_torsion_free(self):
        # B^T = [[1, 1, 0], [1, -1, 1]] reduces to a pivot of 2, yet the
        # 2 x 2 minors -2, 1, 1 have gcd 1: a Gale dual, but not unimodular.
        B = IntMatrix([[1, 1], [1, -1], [0, 1]])
        assert not _Forms(B).unit
        assert gale_dual(B) == IntMatrix([[1, -1, -2]])
        with pytest.raises(NotUnimodular):
            HypertoricData.from_matrix(B)
        self.assert_agrees(B)

    def test_torsion_cokernel(self):
        B = IntMatrix([[1, -1], [1, 1], [1, 1]])
        assert not _Forms(B).unit
        with pytest.raises(TorsionCokernel):
            gale_dual(B)
        assert not classify_case(B).coker_torsion_free
        self.assert_agrees(B)

    def test_round_trip_with_torsion_scans_A(self):
        # B = [[1, -1], [1, 1], [1, 1]] has the minor 2 and torsion Z/2;
        # A = [[0, 1, -1]] is unimodular all the same.
        d = DivisorData.make(2, [((1, 1), 2), ((1, -1), 1)])
        rt = round_trip(d)
        assert not rt.case.coker_torsion_free
        assert rt.A == IntMatrix([[0, 1, -1]])
        assert (rt.unimodular_B, rt.unimodular_A) == (False, True)
        assert rt == round_trip_by_normal_forms(d)


class TestUnimodularityExits:
    """Each way out of _Forms.unimodular, read off the forms of M."""

    def test_rank_deficient(self):
        M = IntMatrix([[1, 1], [2, 2]])
        assert _Forms(M).rank == 1
        assert _Forms(M).unimodular is False
        assert unimodularity_report(M) == (False, "minors")

    def test_pivot_of_two(self):
        M = IntMatrix([[1, 1], [1, -1]])
        assert _Forms(M).rank == 2 and not _Forms(M).unit
        assert unimodularity_report(M) == (False, "minors")

    def test_entry_of_two_in_block(self):
        M = IntMatrix([[1, 0], [0, 1], [1, 2]])
        forms = _Forms(M)
        assert forms.unit and _free_block(forms.echelon, forms.pivots) == [[1], [2]]
        assert unimodularity_report(M) == (False, "minors")

    def test_two_by_two_minor_of_block(self):
        # every entry of R is in {0, +-1}, but det R = -2
        M = IntMatrix([[1, 0], [0, 1], [1, 1], [1, -1]])
        forms = _Forms(M)
        assert forms.unit and _free_block(forms.echelon, forms.pivots) == [[1, 1], [1, -1]]
        assert unimodularity_report(M) == (False, "minors")

    def test_wide_matrix_is_oriented_tall(self):
        # [[1, 0]] has rank 1 < 2 as a 1 x 2 B, but its one maximal minor is 1
        M = IntMatrix([[1, 0]])
        forms = _oriented(M)
        assert forms.B == M.transpose()
        assert (forms.rank, forms.invariant_factors) == (1, (1,))
        assert forms.unimodular is True
        assert unimodularity_report(M) == (True, "minors")

    @pytest.mark.parametrize(
        "B, bundle, reductions",
        [
            # B^T and the kernel rows: the circuits take no reduction
            (complete_graph(8), "valid", 2),
            # B^T, then B for the torsion test without a transform; not
            # unimodular, so no kernel
            (IntMatrix([[1, 1], [1, -1], [0, 1]]), None, 2),
            # B^T only: R = [[1], [2]] has an entry 2, so no kernel
            (IntMatrix([[1, 0], [0, 1], [1, 2]]), None, 1),
            # B^T, then B for the torsion test without a transform
            (IntMatrix([[1, -1], [1, 1], [1, 1]]), TorsionCokernel, 2),
        ],
    )
    def test_validation_reduces_transpose_once(self, B, bundle, reductions, monkeypatch):
        calls = []
        hermite = intmat._hermite

        def counted(H, n):
            calls.append(n)
            return hermite(H, n)

        monkeypatch.setattr(intmat, "_hermite", counted)
        if bundle == "valid":
            HypertoricData.from_matrix(B)
            assert len(calls) == reductions
            return
        with pytest.raises(bundle or NotUnimodular) as err:
            HypertoricData.from_matrix(B)
        assert len(calls) == reductions
        str(err.value)
        # Reading the torsion message takes one column HNF of B's nonzero
        # HNF rows [[1, 1], [0, 2]] for the invariant factors (1, 2); the
        # other message is B's repr.
        assert len(calls) == reductions + (bundle is TorsionCokernel)

    # The budget in the names below is the 10^6 maximal minors up to which
    # the scan of R's square minors used to decide; the circuits decide
    # exactly on both sides of it.

    def test_k8_minus_one_edge_under_budget(self):
        K8 = complete_graph(8)
        M = IntMatrix(K8.data[:-1], cols=K8.cols)
        assert max_minor_count(M) == 888030
        assert unimodularity_report(M) == (True, "minors")

    def test_k8_and_k8_hole_past_budget(self):
        K8, hole = complete_graph(8), k8_hole()
        for M in (K8, hole):
            assert max_minor_count(M) == 1184040
        assert unimodularity_report(K8) == (True, "minors")
        assert unimodularity_report(hole) == (False, "minors")
        assert HypertoricData.from_matrix(K8).A.rows == 21
        with pytest.raises(NotUnimodular) as err:
            HypertoricData.from_matrix(hole)
        assert err.value.code == "not_unimodular"
        assert not classify_case(hole).unimodular

    def test_non_unit_pivot_past_budget(self):
        # Rows 0 and 1 with K_8's unit rows -e_3 .. -e_7 have a maximal
        # minor of +-2, so the HNF of B^T has a pivot 2: an exact "no"
        # before any circuit is built.
        K8 = complete_graph(8)
        B = IntMatrix(((1, 1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0)) + K8.data, cols=7)
        assert max_minor_count(B) == 2035800
        assert unimodularity_report(B) == (False, "minors")
        assert not is_unimodular(B)
        with pytest.raises(NotUnimodular) as err:
            HypertoricData.from_matrix(B)
        assert err.value.code == "not_unimodular"
        assert not classify_case(B).unimodular


class TestRefusals:
    """Validation's refusals as objects: the class, the code and the message
    read the same on every read and after a pickle round trip. The messages
    of TorsionCokernel and NotUnimodular are worded when read, from the
    values they keep."""

    @pytest.mark.parametrize(
        "B, code, message",
        [
            (IntMatrix([[1, 0], [1, 0]]), "not_injective", "matrix of shape (2, 2) has rank below 2"),
            (
                IntMatrix([[1, -1], [1, 1], [1, 1]]),
                "torsion_cokernel",
                "invariant factors [1, 2] contain an entry > 1",
            ),
            (
                IntMatrix([[1, 0], [0, 1], [1, 2]]),
                "not_unimodular",
                "matrix IntMatrix([[1, 0], [0, 1], [1, 2]]) has a maximal minor outside -1, 0, 1",
            ),
        ],
        ids=["not_injective", "torsion_cokernel", "not_unimodular"],
    )
    def test_reads_alike_and_pickles(self, B, code, message):
        with pytest.raises(HkitError) as caught:
            HypertoricData.from_matrix(B)
        err = caught.value
        copies = [pickle.loads(pickle.dumps(err, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for read in [err, err] + copies + copies:
            assert (type(read), read.code, str(read)) == (type(err), code, message)

    def test_torsion_message_reduces_once(self, monkeypatch):
        # B^T's HNF and the plain HNF of B's rows on the raise, one more
        # reduction for the invariant factors on the first read, none after
        calls = []
        real = intmat._hermite
        monkeypatch.setattr(intmat, "_hermite", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(TorsionCokernel) as caught:
            HypertoricData.from_matrix(IntMatrix([[1, -1], [1, 1], [1, 1]]))
        assert len(calls) == 2
        assert str(caught.value) == "invariant factors [1, 2] contain an entry > 1"
        assert len(calls) == 3
        assert str(caught.value) == "invariant factors [1, 2] contain an entry > 1"
        assert len(calls) == 3


class TestGaleDual:
    def test_two_equal_rows(self):
        A = gale_dual(IntMatrix([[1], [1]]))
        assert A == IntMatrix([[1, -1]])
        assert (A @ IntMatrix([[1], [1]])).is_zero()

    def test_identity_gives_empty(self):
        A = gale_dual(IntMatrix.identity(3))
        assert A.shape == (0, 3)

    def test_three_rows(self):
        B = IntMatrix([[1, 0], [0, 1], [1, 1]])
        A = gale_dual(B)
        assert (A @ B).is_zero()
        assert A == IntMatrix([[1, 1, -1]])

    def test_ones_column(self):
        B = IntMatrix([[1], [1], [1]])
        A = gale_dual(B)
        # HNF-canonical basis of the saturated orthogonal lattice.
        assert A == IntMatrix([[1, 0, -1], [0, 1, -1]])
        assert (A @ B).is_zero()
        assert rank(A) == 2

    def test_not_injective(self):
        with pytest.raises(NotInjective):
            gale_dual(IntMatrix([[1, 0], [1, 0]]))

    def test_torsion_cokernel(self):
        with pytest.raises(TorsionCokernel):
            gale_dual(IntMatrix([[1, 1], [1, -1]]))

    def test_exactness_and_rank_random(self):
        rng = random.Random(23)
        produced = 0
        while produced < 100:
            n = rng.randint(1, 3)
            N = rng.randint(n, 6)
            B = random_matrix(rng, N, n)
            if rank(B) < n or not smith_normal_form(B).torsion_free:
                continue
            produced += 1
            A = gale_dual(B)
            assert (A @ B).is_zero()
            assert A.shape == (N - n, N)
            assert rank(A) == N - n
            # rows of A span a saturated lattice
            if A.rows:
                assert smith_normal_form(A).invariant_factors == (1,) * (N - n)

    def test_unimodularity_transfer_both_directions(self):
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 3)
            N = rng.randint(n + 1, 6)
            B = random_matrix(rng, N, n, lo=-2, hi=2)
            if rank(B) < n or not smith_normal_form(B).torsion_free:
                continue
            if not is_unimodular(B):
                continue
            A = gale_dual(B)
            assert is_unimodular(A)
            # and back: the kernel of A is spanned by a unimodular matrix
            Bback = kernel_basis(A).transpose()
            assert is_unimodular(Bback)
            assert (A @ Bback).is_zero()
            checked += 1


class TestKernel:
    def test_kernel_is_saturated(self):
        # kernel of [2, -2] is generated by (1, 1), not (2, 2)
        K = kernel_basis(IntMatrix([[2, -2]]))
        assert K == IntMatrix([[1, 1]])

    def test_full_rank_kernel_empty(self):
        K = kernel_basis(IntMatrix.identity(2))
        assert K.shape == (0, 2)
