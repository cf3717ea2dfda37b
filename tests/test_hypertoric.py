import gc
import itertools
import random
from fractions import Fraction

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
from hkit import intmat
from hkit.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NonPrimitiveRow,
    NotInjective,
    NotUnimodular,
)
from hkit.hypertoric import (
    DEFAULT_CANDIDATE_BUDGET,
    HypertoricData,
    MonomialGen,
    coordinate_dimension,
    hilbert_basis,
    leaf_classification,
    moment_map_eval,
    _generators,
    _multiset_count,
    presentation,
)
from hkit.intmat import IntMatrix, _Forms, det
from oracles import (
    _multisets_by_total,
    _s_index,
    brute_force_invariants,
    coordinate_dimension_by_rank,
    decompose_over_basis,
    graver_basis,
    hilbert_basis_by_splits,
    hilbert_basis_completion,
    monoid_counts,
    over_one_minus_t2,
    quotient_dims,
    reduce_presentation_by_maps,
    relations_by_fibers,
    theta_series,
)


def H(rows, cols=None):
    return HypertoricData.from_matrix(IntMatrix(rows, cols=cols))


def ones(m):
    return H([[1]] * m)


def graphic(v, seed):
    """G_v: a seeded connected multigraph on v vertices with 2(v - 1) edges."""
    return IntMatrix(graphic_rows(random.Random(seed), v, v - 1), cols=v - 1)


def mono(u, v):
    return MonomialGen(u=tuple(u), v=tuple(v))


def brute_graver(B, bound):
    """Sign-minimal lattice elements of im(B) up to 1-norm `bound`, by plain
    enumeration. Minimality inside the box is global minimality."""
    n = B.cols
    elements = set()
    for x in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(v == 0 for v in x):
            continue
        w = tuple(
            sum(B[i, j] * x[j] for j in range(n)) for i in range(B.rows)
        )
        if any(w) and sum(abs(c) for c in w) <= bound:
            elements.add(w)
    minimal = set()
    for w in elements:
        if not any(
            h != w and all(hi * wi >= 0 and abs(hi) <= abs(wi) for hi, wi in zip(h, w))
            for h in elements
        ):
            minimal.add(w)
    return minimal


class TestHypertoricData:
    def test_valid(self):
        data = H([[1, 0], [0, 1], [1, 1]])
        assert data.N == 3 and data.n == 2
        assert (data.A @ data.B).is_zero()
        assert data.groups == (((0, 1), (1,)), ((1, 0), (0,)), ((1, 1), (2,)))

    def test_groups_merge_signs(self):
        data = H([[1], [-1], [1]])
        assert data.groups == (((1,), (0, 1, 2)),)

    def test_rejects_non_primitive(self):
        with pytest.raises(NonPrimitiveRow):
            H([[2], [1]])

    def test_rejects_rank_deficient(self):
        with pytest.raises(NotInjective):
            H([[1, 0], [1, 0]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            H([[1, 0], [0, 1], [1, 2]])

    def test_forms_compare_hash_and_print_as_b(self):
        B = complete_graph(4)
        first, second = HypertoricData.from_matrix(B), HypertoricData.from_matrix(B)
        assert first.forms is not second.forms
        assert first == second and hash(first) == hash(second)
        assert first.forms == _Forms(B) and hash(first.forms) == hash(B)
        assert first.forms != B
        assert repr(first.forms) == f"_Forms({B!r})"
        assert " at 0x" not in repr(first)

    @pytest.mark.parametrize(
        "B, elementary",
        [(complete_graph(4), 0), (cographic(4), 0), (IntMatrix([[1, 0], [0, 1], [1, 1]]), 1),
         (cographic(5), 1)],
        ids=["K4", "K4*", "A2", "K5*"],
    )
    def test_invariant_ring_reads_validated_circuits(self, monkeypatch, B, elementary):
        # validation enumerated B's side when n <= N - n and the dependency
        # side otherwise; then the first reader enumerates B's side, once
        data = HypertoricData.from_matrix(B)
        calls = []
        enumerate_ = intmat._elementary

        def counted(rows, unit_cols):
            calls.append(len(rows))
            return enumerate_(rows, unit_cols)

        monkeypatch.setattr(intmat, "_elementary", counted)
        hilbert_basis(data)
        presentation(data)
        assert calls == [data.n] * elementary


class TestMomentMap:
    def test_balanced(self):
        A = IntMatrix([[1, -1]])
        assert moment_map_eval(A, (1, 1), (1, 1)) == (Fraction(0),)

    def test_zero_input(self):
        A = IntMatrix([[1, 1, -1]])
        assert moment_map_eval(A, (0, 0, 0), (5, 7, 9)) == (Fraction(0),)

    def test_three_columns(self):
        A = IntMatrix([[1, 1, -1]])
        assert moment_map_eval(A, (1, 2, 3), (1, 1, 1)) == (Fraction(0),)

    def test_nonzero_value_and_rationals(self):
        A = IntMatrix([[1, -1]])
        out = moment_map_eval(A, (Fraction(1, 2), 1), (1, Fraction(1, 3)))
        assert out == (Fraction(1, 2) - Fraction(1, 3),)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            moment_map_eval(IntMatrix([[1, -1]]), (1,), (1, 1))

    @pytest.mark.parametrize(
        "z, w", [((0.1, 1), (1, 1)), ((1, 1), (1, 0.5)), ((True, 1), (1, 1))], ids=["z", "w", "bool"]
    )
    def test_refuses_inexact_coordinates(self, z, w):
        # 0.1 would enter as its binary fraction, True as 1
        with pytest.raises(ValueError, match="^[zw] must"):
            moment_map_eval(IntMatrix([[1, -1]]), z, w)


class TestBruteForceInvariants:
    def test_free_case_degree_one(self):
        data = H([[1, 0], [0, 1]])
        got = brute_force_invariants(data, 1)
        assert set(got) == {
            mono((1, 0), (0, 0)),
            mono((0, 1), (0, 0)),
            mono((0, 0), (1, 0)),
            mono((0, 0), (0, 1)),
        }

    def test_a1_degree_two(self):
        data = ones(2)
        got = brute_force_invariants(data, 2)
        assert set(got) == {
            mono((1, 1), (0, 0)),
            mono((0, 0), (1, 1)),
            mono((1, 0), (1, 0)),
            mono((0, 1), (0, 1)),
        }

    def test_a1_degree_one_empty(self):
        assert brute_force_invariants(ones(2), 1) == []

    def test_sorted_graded_lex(self):
        got = brute_force_invariants(ones(2), 4)
        keys = [g.sort_key() for g in got]
        assert keys == sorted(keys)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            brute_force_invariants(ones(2), 9)


class TestGraver:
    def test_diagonal_lattice(self):
        got = set(graver_basis(IntMatrix([[1], [1]])))
        assert got == {(1, 1), (-1, -1)}

    def test_identity(self):
        got = set(graver_basis(IntMatrix.identity(2)))
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_against_enumeration(self):
        rng = random.Random(53)
        cases = 0
        while cases < 40:
            n = rng.randint(1, 2)
            N = rng.randint(n, 4)
            B = IntMatrix(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(N)]
            )
            if all(x == 0 for j in range(n) for x in B.column(j)):
                continue
            cases += 1
            got = set(graver_basis(B))
            bound = max(sum(abs(x) for x in g) for g in got) + 2
            assert got == brute_graver(B, bound)


class TestHilbertBasis:
    def test_free_plane(self):
        got = hilbert_basis(H([[1]]))
        assert set(got) == {mono((1,), (0,)), mono((0,), (1,))}

    def test_a1(self):
        got = hilbert_basis(ones(2))
        assert set(got) == {
            mono((1, 1), (0, 0)),
            mono((0, 0), (1, 1)),
            mono((1, 0), (1, 0)),
            mono((0, 1), (0, 1)),
        }

    def test_a2(self):
        got = hilbert_basis(ones(3))
        assert set(got) == {
            mono((1, 1, 1), (0, 0, 0)),
            mono((0, 0, 0), (1, 1, 1)),
            mono((1, 0, 0), (1, 0, 0)),
            mono((0, 1, 0), (0, 1, 0)),
            mono((0, 0, 1), (0, 0, 1)),
        }

    def test_completeness_small(self):
        for rows in ([[1]], [[1], [1]], [[1], [1], [1]], [[1, 0], [0, 1], [1, 1]]):
            data = H(rows)
            basis = hilbert_basis(data)
            for target in brute_force_invariants(data, 6):
                assert decompose_over_basis(target, basis) is not None, (rows, target)

    def test_minimality_small(self):
        for rows in ([[1]], [[1], [1], [1]], [[1, 0], [0, 1], [1, 1]]):
            basis = hilbert_basis(H(rows))
            for i, g in enumerate(basis):
                others = basis[:i] + basis[i + 1 :]
                assert decompose_over_basis(g, others) is None, (rows, g)

    def test_decomposition_search_freed_on_return(self):
        # the search's seen set must not wait in a reference cycle for the
        # cyclic garbage collector (criterion 4 runs ~5 * 10^5 searches)
        basis = hilbert_basis(H(complete_graph(4).row_list()))
        g = basis[-1]
        pair = MonomialGen(
            u=tuple(a + b for a, b in zip(basis[0].u, g.u)),
            v=tuple(a + b for a, b in zip(basis[0].v, g.v)),
        )
        gc.collect()
        gc.disable()
        try:
            assert decompose_over_basis(pair, basis) is not None
            assert gc.collect() == 0
            assert decompose_over_basis(g, basis[:-1]) is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invariance_exact(self):
        data = H([[1, 0], [0, 1], [1, 1], [0, 1]])
        for g in hilbert_basis(data):
            w = tuple(a - b for a, b in zip(g.u, g.v))
            assert all(x == 0 for x in data.A.mat_vec(w))

    def test_canonical_order(self):
        basis = hilbert_basis(ones(3))
        keys = [g.sort_key() for g in basis]
        assert keys == sorted(keys)

    def test_dimension(self):
        for rows in ([[1]], [[1], [1]], [[1], [1], [1]], [[1, 0], [0, 1], [1, 1]]):
            data = H(rows)
            assert coordinate_dimension(data) == 2 * data.n

    def test_theta_graph(self):
        # three parallel classes of 11 rows: the three circuits have degree 22,
        # and every z_i w_i is a generator
        data = H([[1, 0]] * 11 + [[0, 1]] * 11 + [[1, 1]] * 11)
        basis = hilbert_basis(data)
        assert len(basis) == 39
        assert max(g.degree for g in basis) == 22


class TestHilbertBasisAgainstCompletion:
    def test_corpus(self):
        matrices = 0
        for data in valid_hypertoric(corpus_matrices()):
            matrices += 1
            assert hilbert_basis(data) == hilbert_basis_completion(data), data.B
        assert matrices == 1104

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_complete_graphs(self, m):
        data = HypertoricData.from_matrix(complete_graph(m))
        assert hilbert_basis(data) == hilbert_basis_completion(data)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_complete_graph_count(self, m):
        # the circuits of K_m are its 2^(m-1) - 1 bonds, with both signs, and
        # every edge lies on a cycle, so each z_i w_i joins
        data = HypertoricData.from_matrix(complete_graph(m))
        assert len(hilbert_basis(data)) == 2 * (2 ** (m - 1) - 1) + m * (m - 1) // 2


class TestHilbertBasisAgainstSplits:
    """The one-pass generators and the closed-form dimension against the
    per-sign splits and the rank they replaced."""

    @staticmethod
    def assert_agrees(data):
        gens, degrees, s_rows = _generators(data)
        want = hilbert_basis_by_splits(data)
        assert gens == want, data.B
        assert all(type(x) is int for g in gens for x in g.u + g.v), data.B
        assert degrees == [g.degree for g in want], data.B
        assert s_rows == [_s_index(g) for g in want], data.B
        assert all(a <= b for a, b in zip(degrees, degrees[1:])), data.B
        assert hilbert_basis(data) == want, data.B
        assert coordinate_dimension_by_rank(data, want) == 2 * data.n == coordinate_dimension(data)

    def test_corpus(self):
        matrices = 0
        for data in valid_hypertoric(corpus_matrices()):
            matrices += 1
            self.assert_agrees(data)
        assert matrices == 1104

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_complete_graphs(self, m):
        self.assert_agrees(HypertoricData.from_matrix(complete_graph(m)))

    @pytest.mark.parametrize("B", [cographic(4), cographic(5), r10()], ids=["K4*", "K5*", "R10"])
    def test_regular_matroids(self, B):
        self.assert_agrees(HypertoricData.from_matrix(B))

    @pytest.mark.parametrize("v", [5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_graphic(self, v, seed):
        self.assert_agrees(HypertoricData.from_matrix(graphic(v, seed)))


def test_two_sum_of_k4_and_r10():
    # K_4 has 7 cocircuits, 4 through each element; R10 has 30, 15 through
    # each. The 2-sum's circuits (B's cocircuits) are those of each part
    # that avoid the base point, plus a product of one through it from each
    B = two_sum(complete_graph(4), r10())
    assert B.shape == (14, 7)
    data = HypertoricData.from_matrix(B)
    assert len(data.forms.circuits) == 78 == 3 + 15 + 4 * 15
    assert det(B.transpose() @ B) == 1296
    assert hilbert_basis(data) == hilbert_basis_by_splits(data)
    # a planted -1 in M's zero block: rows 7 and 9 of B are columns 0 and
    # 2 of M, and the minor on them and the unit rows but 1 and 3 is 2
    rows = B.row_list()
    rows[7][3] = -1
    planted = IntMatrix(rows)
    assert abs(det(IntMatrix([rows[i] for i in (0, 2, 4, 5, 6, 7, 9)]))) == 2
    with pytest.raises(NotUnimodular) as err:
        HypertoricData.from_matrix(planted)
    assert err.value.code == "not_unimodular"


def test_one_sum_of_k4_and_r10():
    # a 1-sum's circuits are each part's, its bases are pairs of bases, and
    # its Hilbert basis is each part's: 2 * 7 + 6 for K_4, 2 * 30 + 10 for
    # R10
    B = one_sum(complete_graph(4), r10())
    assert B.shape == (16, 8)
    data = HypertoricData.from_matrix(B)
    assert len(data.forms.circuits) == 37 == 7 + 30
    assert det(B.transpose() @ B) == 2592 == 16 * 162
    assert len(hilbert_basis(data)) == 90 == 20 + 70
    assert hilbert_basis(data) == hilbert_basis_by_splits(data)
    # a planted -1 in R10's block: row 6 is R10's first unit row, and the
    # minor on it, K_4's first three rows and R10's rows 9, 13, 14, 15 is 2
    rows = B.row_list()
    rows[6][4] = -1
    planted = IntMatrix(rows)
    assert abs(det(IntMatrix([rows[i] for i in (0, 1, 2, 6, 9, 13, 14, 15)]))) == 2
    with pytest.raises(NotUnimodular) as err:
        HypertoricData.from_matrix(planted)
    assert err.value.code == "not_unimodular"


class TestThetaSeries:
    """The invariant monoid M = {(u, v) in N^2N : u - v in im B} has, for
    each x = By, exactly one family (x_+ + k, x_- + k) with k in N^N, so its
    degree-d count is [t^d] Theta_B(t) / (1 - t^2)^N, with
    Theta_B(t) = sum over y of t^||By||_1. Two counts that share no code
    with `_generators` must match it up to degree D: the brute-force monoid,
    and the distinct totals of Hilbert-basis multisets, which means the
    Hilbert basis generates M in those degrees. Taking the moment map's
    components mu_k = sum_i a_ki z_i w_i out of C[M] leaves
    Theta_B(t) / (1 - t^2)^n, which the quotient's dimensions by rank
    (`oracles.quotient_dims`) must match. D is 6 on the corpus and 4 to 8
    on the larger inputs, which keeps the class near 10 s."""

    @staticmethod
    def assert_counts(data, D):
        theta = theta_series(data.B, D)
        counts = monoid_counts(data, D)
        assert counts == over_one_minus_t2(theta, data.N), (data.B, theta, counts)
        totals = [1] + [0] * D
        for u, v in _multisets_by_total(hilbert_basis(data), D, float("inf")):
            totals[sum(u) + sum(v)] += 1
        assert tuple(totals) == counts, (data.B, totals, counts)
        return theta, counts

    def test_corpus(self):
        families = list(valid_hypertoric(corpus_matrices()))
        assert len(families) == 1104
        for data in families:
            theta, _ = self.assert_counts(data, 6)
            assert quotient_dims(data, 6) == over_one_minus_t2(theta, data.n), data.B

    @pytest.mark.parametrize(
        "B, D",
        [(complete_graph(5), 8), (cographic(4), 6), (r10(), 8)],
        ids=["K5", "K4*", "R10"],
    )
    def test_regular_matroids(self, B, D):
        self.assert_counts(HypertoricData.from_matrix(B), D)

    def test_k3_is_the_minimal_orbit_of_sl3(self):
        # Y(A, 0) for A = (1, 1, 1): Theta / (1 - t^2)^n is (k + 1)^3 in
        # degree 2k
        data = HypertoricData.from_matrix(complete_graph(3))
        theta, counts = self.assert_counts(data, 8)
        assert theta == (1, 0, 6, 0, 12, 0, 18, 0, 24)
        assert counts == (1, 0, 9, 0, 36, 0, 100, 0, 225)
        assert over_one_minus_t2(theta, data.n)[::2] == (1, 8, 27, 64, 125)

    def test_k4(self):
        # the 4 circuits of support 3, with both signs, in degree 3, and the
        # 6 s_i in degree 2
        data = HypertoricData.from_matrix(complete_graph(4))
        theta, counts = self.assert_counts(data, 6)
        assert theta == (1, 0, 0, 8, 6, 0, 20)
        assert counts == (1, 0, 6, 8, 27, 48, 112)

    @pytest.mark.parametrize(
        "B, D, dims",
        [
            (complete_graph(3), 8, (1, 0, 8, 0, 27, 0, 64, 0, 125)),
            (complete_graph(4), 6, (1, 0, 3, 8, 12, 24, 48)),
            (cographic(4), 6, (1, 0, 3, 8, 12, 24, 48)),
            (complete_graph(5), 6, (1, 0, 4, 0, 20, 0, 80)),
            (complete_graph(6), 6, (1, 0, 5, 0, 15, 12, 35)),
            (cographic(5), 6, (1, 0, 6, 20, 51, 144, 376)),
            (r10(), 6, (1, 0, 5, 0, 45, 0, 215)),
            (two_sum(complete_graph(4), r10()), 4, (1, 0, 7, 4, 48)),
        ],
        ids=["K3", "K4", "K4*", "K5", "K6", "K5*", "R10", "K4+R10"],
    )
    def test_quotient_by_moment_map(self, B, D, dims):
        # dim (C[M]/(mu))_d, by rank, is [t^d] Theta_B(t) / (1 - t^2)^n
        data = HypertoricData.from_matrix(B)
        assert quotient_dims(data, D) == dims
        assert over_one_minus_t2(theta_series(B, D), data.n) == dims


class TestPresentation:
    def test_a1_relation(self):
        pres = presentation(ones(2))
        gens = list(pres.generators)
        p = gens.index(mono((1, 1), (0, 0)))
        q = gens.index(mono((0, 0), (1, 1)))
        s1 = gens.index(mono((1, 0), (1, 0)))
        s2 = gens.index(mono((0, 1), (0, 1)))
        expected = tuple(sorted([tuple(sorted((p, q))), tuple(sorted((s1, s2)))]))
        assert pres.binomial_relations == (expected,)
        assert pres.moment_rows == IntMatrix([[1, -1]])

    def test_identity_free(self):
        pres = presentation(H([[1, 0], [0, 1]]))
        assert pres.binomial_relations == ()
        assert pres.reduced.relations == ()
        assert len(pres.generators) == 4
        assert pres.moment_rows.shape == (0, 2)

    def test_klein_forms(self):
        for m in (2, 3, 4):
            pres = presentation(ones(m))
            red = pres.reduced
            assert red.generator_count == 3
            assert len(red.pure_generators) == 2
            assert len(red.s_classes) == 1
            assert len(red.relations) == 1
            (left, right, sign) = red.relations[0]
            assert sign == 1
            assert sorted((left, right)) == sorted(
                (
                    (("g", 0), ("g", 1)),
                    (("s", 0),) * m,
                )
            )

    def test_opposite_rows_reduce_with_sign(self):
        pres = presentation(H([[1], [-1]]))
        red = pres.reduced
        assert len(red.s_classes) == 1
        assert red.s_classes[0].signs == (1, -1)
        assert len(red.relations) == 1
        (_, _, sign) = red.relations[0]
        assert sign == -1

    def test_multiset_table_freed_on_return(self):
        # the relation search's table must not wait in a reference cycle for
        # the cyclic garbage collector (K_5's holds over 10^5 objects); the
        # search runs on an explicit stack, so no closure exists to form one
        data = HypertoricData.from_matrix(complete_graph(5))
        gc.collect()
        gc.disable()
        try:
            presentation(data)
            assert gc.collect() < 1000
        finally:
            gc.enable()

    def test_relations_balance_exactly(self):
        for rows in ([[1], [1]], [[1], [1], [1]], [[1, 0], [0, 1], [1, 1]]):
            pres = presentation(H(rows))
            for left, right in pres.binomial_relations:
                total = lambda idxs: (
                    tuple(
                        sum(pres.generators[i].u[k] for i in idxs)
                        for k in range(len(pres.generators[0].u))
                    ),
                    tuple(
                        sum(pres.generators[i].v[k] for i in idxs)
                        for k in range(len(pres.generators[0].v))
                    ),
                )
                assert total(left) == total(right)
                assert set(left).isdisjoint(right)
                assert left < right
                for side in (left, right):
                    degree = sum(pres.generators[i].degree for i in side)
                    assert degree <= pres.relation_degree_cap


class TestRelationsAgainstFibers:
    """The relation search and its reduced view against the fiber
    enumeration and the three-map reduction they replaced."""

    @staticmethod
    def oracle(data, budget=DEFAULT_CANDIDATE_BUDGET):
        gens = hilbert_basis(data)
        cap = 2 * max((g.degree for g in gens), default=0)
        relations = relations_by_fibers(gens, cap, budget)
        return tuple(relations), reduce_presentation_by_maps(data, gens, relations)

    def assert_agrees(self, data, budget=DEFAULT_CANDIDATE_BUDGET):
        pres = presentation(data, candidate_budget=budget)
        assert (pres.binomial_relations, pres.reduced) == self.oracle(data, budget), data.B

    def test_corpus(self):
        matrices = 0
        for data in valid_hypertoric(corpus_matrices()):
            matrices += 1
            self.assert_agrees(data)
        assert matrices == 1104

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_complete_graphs(self, m):
        self.assert_agrees(HypertoricData.from_matrix(complete_graph(m)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_ones(self, m):
        self.assert_agrees(ones(m))

    @pytest.mark.parametrize(
        "B", [cographic(4), cographic(5), r10(), graphic(5, seed=0)],
        ids=["K4*", "K5*", "R10", "G5"],
    )
    def test_regular_matroids(self, B):
        # every s_i present (K_m*, R10) and parallel rows (G5 seed 0)
        self.assert_agrees(HypertoricData.from_matrix(B))

    @pytest.mark.parametrize("B", [complete_graph(7), graphic(6, seed=0)], ids=["K7", "G6"])
    def test_over_default_budget(self, B):
        # the count raises before the search; the oracle raises in its walk
        data = HypertoricData.from_matrix(B)
        with pytest.raises(BudgetExceeded) as ours:
            presentation(data)
        with pytest.raises(BudgetExceeded) as theirs:
            self.oracle(data)
        assert str(ours.value) == str(theirs.value)

    @staticmethod
    def small_inputs():
        inputs = list(valid_hypertoric(corpus_matrices()))
        inputs += [HypertoricData.from_matrix(complete_graph(m)) for m in (3, 4, 5)]
        inputs += [ones(m) for m in (2, 3, 4, 5, 6)]
        assert len(inputs) == 1104 + 3 + 5
        return inputs

    def test_budget_counts_the_oracle_multisets(self):
        for data in self.small_inputs():
            gens = hilbert_basis(data)
            cap = 2 * max(g.degree for g in gens)
            table = _multisets_by_total(gens, cap, DEFAULT_CANDIDATE_BUDGET)
            built = sum(map(len, table.values()))
            assert _multiset_count([g.degree for g in gens], cap) == built, data.B

    def test_oracle_walk_refuses_generators_out_of_degree_order(self):
        # the walk stops at the first generator too heavy for the cap, which
        # skips only heavier ones when the degrees ascend
        gens = hilbert_basis(ones(3))
        with pytest.raises(ValueError, match="ordered by degree"):
            _multisets_by_total(gens[::-1], 6, DEFAULT_CANDIDATE_BUDGET)

    def test_no_reduced_relation_has_equal_sides(self):
        # _reduce_presentation keeps no branch for a relation that reduces
        # to equal sides; its comment says why none can
        for data in self.small_inputs():
            for left, right, _ in presentation(data).reduced.relations:
                assert left != right, data.B

    def test_budget_boundary(self):
        # K_5 has 29997 generator multisets of degree <= 12
        data = HypertoricData.from_matrix(complete_graph(5))
        with pytest.raises(BudgetExceeded, match="exceeded 29996 multisets"):
            presentation(data, candidate_budget=29996)
        with pytest.raises(BudgetExceeded, match="exceeded 29996 multisets"):
            self.oracle(data, 29996)
        self.assert_agrees(data, budget=29997)

    def test_k6_exceeds_default_budget(self):
        data = HypertoricData.from_matrix(complete_graph(6))
        with pytest.raises(BudgetExceeded) as ours:
            presentation(data)
        with pytest.raises(BudgetExceeded) as theirs:
            self.oracle(data)
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value) == f"relation search exceeded {DEFAULT_CANDIDATE_BUDGET} multisets"


class TestMomentRelations:
    def test_quadratic_invariants_have_zero_weight(self):
        data = H([[1, 0], [0, 1], [1, 1]])
        for i in range(data.N):
            e = tuple(1 if k == i else 0 for k in range(data.N))
            w = tuple(a - b for a, b in zip(e, e))
            assert all(x == 0 for x in data.A.mat_vec(w))


class TestLeaves:
    def test_a2_leaf(self):
        leaves = leaf_classification(ones(3))
        assert len(leaves) == 1
        leaf = leaves[0]
        assert leaf.normal == (1,)
        assert leaf.multiplicity == 3
        assert leaf.singularity == "A2"
        assert leaf.kind == "first"

    def test_identity_no_singular_leaves(self):
        leaves = leaf_classification(H([[1, 0], [0, 1]]))
        assert all(not leaf.is_singular for leaf in leaves)
        assert all(leaf.kind == "second" for leaf in leaves)
        assert all(leaf.singularity is None for leaf in leaves)

    def test_mixed(self):
        leaves = leaf_classification(H([[1, 0], [1, 0], [0, 1], [1, 1]]))
        by_normal = {leaf.normal: leaf for leaf in leaves}
        assert by_normal[(1, 0)].multiplicity == 2
        assert by_normal[(1, 0)].singularity == "A1"
        assert by_normal[(0, 1)].multiplicity == 1
        assert by_normal[(1, 1)].multiplicity == 1
        assert sum(1 for leaf in leaves if leaf.is_singular) == 1
