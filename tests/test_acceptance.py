"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (tolerance zero); the stated runtime bounds are asserted
with wall-clock measurements.
"""

import json
import random
import time
from fractions import Fraction
from operator import add, ge, sub

from corpus import (
    corpus_matrices,
    primitive_vectors,
    probe_matches,
    valid_hypertoric,
)
from hkit.arrangement import Kind, build_discriminant
from hkit.characterization import (
    REJECTED,
    SMOOTH,
    DivisorData,
    classify_case,
    reconstruct_B,
    round_trip,
)
from hkit.cli import main
from hkit.hypertoric import MonomialGen, hilbert_basis, presentation
from hkit.intmat import (
    IntMatrix,
    gale_dual,
    is_primitive,
    is_unimodular,
    primitive_part,
    rank,
    smith_normal_form,
)
from hkit.localmodel import (
    DeformationLine,
    choose_deformation_line,
    family_slice,
    verify_genericity,
)
from oracles import brute_force_invariants, decompose_over_basis


def report(number, title, failures, elapsed, budget, detail=""):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(
        f"ACCEPTANCE {number} {title}: {status}"
        f" ({elapsed:.1f}s < {budget}s{extra})"
    )
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def random_valid_B(rng, max_n=4, max_N=8, lo=-3, hi=3):
    while True:
        n = rng.randint(1, max_n)
        N = rng.randint(n, max_N)
        rows = []
        ok = True
        for _ in range(N):
            v = tuple(rng.randint(lo, hi) for _ in range(n))
            if not any(v):
                ok = False
                break
            rows.append(primitive_part(v))
        if not ok:
            continue
        B = IntMatrix(rows, cols=n)
        if rank(B) < n or not smith_normal_form(B).torsion_free:
            continue
        return B


def test_criterion_1_gale_exactness():
    rng = random.Random(101)
    started = time.perf_counter()
    failures = []
    transferred = 0
    for _ in range(500):
        B = random_valid_B(rng)
        N, n = B.rows, B.cols
        A = gale_dual(B)
        if not (A @ B).is_zero():
            failures.append(("A@B != 0", B))
        if rank(A) != N - n:
            failures.append(("rank(A)", B))
        if is_unimodular(B):
            transferred += 1
            if not (is_unimodular(A) if A.rows else N == n):
                failures.append(("unimodularity transfer", B))
    elapsed = time.perf_counter() - started
    report(1, "Gale exactness suite", failures, elapsed, 10,
           detail=f"500 matrices, {transferred} unimodular transfers")


def test_criterion_2_discriminant_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    count = 0
    for B in corpus_matrices():
        count += 1
        try:
            if not probe_matches(B):
                failures.append(B)
        except AssertionError as err:
            failures.append((B, str(err)))
    elapsed = time.perf_counter() - started
    report(2, "discriminant probing-oracle equivalence", failures, elapsed, 30,
           detail=f"{count} matrices, 0 mismatches" if not failures else "")


def test_criterion_3_klein_forms():
    started = time.perf_counter()
    failures = []
    for m in (2, 3, 4):
        from hkit.hypertoric import HypertoricData

        H = HypertoricData.from_matrix(IntMatrix([[1]] * m))
        red = presentation(H).reduced
        if red.generator_count != 3 or len(red.pure_generators) != 2:
            failures.append((m, "generators"))
            continue
        if len(red.s_classes) != 1 or len(red.relations) != 1:
            failures.append((m, "relations"))
            continue
        left, right, sign = red.relations[0]
        expected = sorted(((("g", 0), ("g", 1)), (("s", 0),) * m))
        if sorted((left, right)) != expected or sign != 1:
            failures.append((m, "relation shape"))
    elapsed = time.perf_counter() - started
    report(3, "Klein-form reproduction (m = 2, 3, 4)", failures, elapsed, 5)


def _decomposable(invariants, basis):
    """{u + v: whether it is a sum of basis elements} over the invariants,
    which come in degree order: t is one iff some basis element b <= t
    leaves t - b zero or decomposable, and t - b, an invariant of lower
    degree, is already in the table."""
    keys = [b.u + b.v for b in basis]
    table = {}
    for t in invariants:
        x = t.u + t.v
        table[x] = any(
            not any(rest) or table[rest]
            for k in keys
            if all(map(ge, x, k))
            for rest in [tuple(map(sub, x, k))]
        )
    return table


def _reducible(g, basis, table):
    """Whether basis element g is h + (a decomposable invariant) for some
    other basis element h <= g; g - h has lower degree than g, so its
    decomposition cannot use g."""
    x = g.u + g.v
    return any(
        table[tuple(map(sub, x, h.u + h.v))]
        for h in basis
        if h != g and all(map(ge, x, h.u + h.v))
    )


def test_criterion_4_hilbert_basis_oracle():
    started = time.perf_counter()
    failures = []
    matrices = 0
    invariants = 0
    for H in valid_hypertoric(corpus_matrices(max_N=5)):
        matrices += 1
        basis = hilbert_basis(H)
        # every g - h of _reducible is then an invariant of degree <= 6
        assert all(g.degree <= 6 for g in basis)
        targets = brute_force_invariants(H, 6)
        invariants += len(targets)
        table = _decomposable(targets, basis)
        failures += [(H.B, t, "no decomposition") for t in targets if not table[t.u + t.v]]
        failures += [
            (H.B, g, "reducible basis element") for g in basis if _reducible(g, basis, table)
        ]
        if matrices <= 20:
            # the verdicts against the exhaustive search, on the basis, on it
            # without one element and with the sum of its two lowest added
            a, b = sorted(basis, key=MonomialGen.sort_key)[:2]
            extra = MonomialGen(tuple(map(add, a.u, b.u)), tuple(map(add, a.v, b.v)))
            assert extra.degree <= 6
            for gens in (basis, basis[1:], basis + [extra]):
                table = _decomposable(targets, gens)
                for t in targets:
                    assert table[t.u + t.v] == (decompose_over_basis(t, gens) is not None)
                for i, g in enumerate(gens):
                    others = gens[:i] + gens[i + 1:]
                    assert _reducible(g, gens, table) == (
                        decompose_over_basis(g, others) is not None
                    )
    elapsed = time.perf_counter() - started
    report(4, "Hilbert-basis completeness and minimality", failures, elapsed, 60,
           detail=f"{matrices} matrices, {invariants} invariants")


def test_criterion_5_round_trip_identity():
    rng = random.Random(103)
    started = time.perf_counter()
    failures = []
    full_reports = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        pool = primitive_vectors(n, 2)
        wall_count = rng.randint(1, min(5, len(pool)))
        normals = rng.sample(pool, wall_count)
        d = DivisorData.make(n, [(v, rng.randint(1, 4)) for v in normals])
        B = reconstruct_B(d)
        if build_discriminant(B).wall_multiset() != d.wall_multiset():
            failures.append(d)
        if classify_case(B).case != REJECTED:
            full_reports += 1
            if not round_trip(d).equal:
                failures.append((d, "round_trip.equal"))
    elapsed = time.perf_counter() - started
    report(5, "divisor round-trip identity", failures, elapsed, 30,
           detail=f"200 divisors, {full_reports} full pipelines")


def _deformable_corpus():
    for H in valid_hypertoric(corpus_matrices()):
        if H.N > H.n:
            yield H


def test_criterion_6_genericity_suite():
    started = time.perf_counter()
    failures = []
    count = 0
    for H in _deformable_corpus():
        count += 1
        line = choose_deformation_line(H)
        rep = verify_genericity(H, line)
        if not (
            rep.common_intersection_empty
            and rep.central_slice_matches
            and rep.offsets_not_all_zero
        ):
            failures.append((H.B, "deterministic line", rep))
        zero_line = DeformationLine(
            basis_rows=line.basis_rows,
            offsets=(Fraction(0),) * H.N,
            direction=(Fraction(0),) * (H.N - H.n),
        )
        zero_rep = verify_genericity(H, zero_line)
        if zero_rep.common_intersection_empty:
            failures.append((H.B, "zero offsets should fail (a)", zero_rep))
    elapsed = time.perf_counter() - started
    report(6, "deformation-line genericity", failures, elapsed, 60,
           detail=f"{count} families")


def test_criterion_7_degeneration():
    started = time.perf_counter()
    failures = []
    count = 0
    for H in _deformable_corpus():
        count += 1
        line = choose_deformation_line(H)
        central = build_discriminant(H.B)
        if family_slice(H, line, 0) != central:
            failures.append((H.B, "t=0 slice"))
        slice1 = family_slice(H, line, 1)
        if any(c.multiplicity != 1 for c in slice1.components):
            failures.append((H.B, "t=1 multiplicities"))
        if sum(c.multiplicity for c in slice1.components) != H.N:
            failures.append((H.B, "t=1 wall count"))
    elapsed = time.perf_counter() - started
    report(7, "family degeneration (t = 0 vs t = 1)", failures, elapsed, 60,
           detail=f"{count} families")


def test_criterion_8_trichotomy_soundness():
    started = time.perf_counter()
    failures = []
    pool = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            v = (a, b)
            if any(v) and is_primitive(v):
                pool.append(v)
    count = 0
    import itertools

    for N in (2, 3):
        for rows in itertools.product(pool, repeat=N):
            count += 1
            B = IntMatrix(rows, cols=2)
            tag = classify_case(B)
            smooth_expected = N == 2 and is_unimodular(B)
            rejected_expected = rank(B) < 2
            if (tag.case == SMOOTH) != smooth_expected:
                failures.append((B, "smooth iff square unimodular"))
            if (tag.case == REJECTED) != rejected_expected:
                failures.append((B, "rejected iff rank-deficient"))
    elapsed = time.perf_counter() - started
    report(8, "case-split soundness (exhaustive scan)", failures, elapsed, 60,
           detail=f"{count} matrices")


def _strip_timing(text):
    return "\n".join(
        line for line in text.splitlines() if '"timing_ms"' not in line
    )


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    failures = []

    b_triple = tmp_path / "B_triple.json"
    b_triple.write_text('{"rows": [[1], [1], [1]]}')
    b_identity = tmp_path / "B_id.json"
    b_identity.write_text('{"rows": [[1, 0], [0, 1]]}')
    divisor = tmp_path / "divisor.json"
    divisor.write_text('{"n": 1, "walls": [{"normal": [1], "mult": 2}]}')

    examples = [
        ("discriminant", b_triple),
        ("gale", b_identity),
        ("round-trip", divisor),
    ]
    for command, path in examples:
        outputs = []
        for run_idx in range(2):
            out_file = tmp_path / f"{command}-{run_idx}.json"
            code = main([command, "--in", str(path), "--out", str(out_file)])
            if code != 0:
                failures.append((command, "exit", code))
                break
            outputs.append(out_file.read_text())
        if len(outputs) == 2 and _strip_timing(outputs[0]) != _strip_timing(outputs[1]):
            failures.append((command, "bytes differ"))

    # spot-check the example payloads
    rep = json.loads((tmp_path / "discriminant-0.json").read_text())
    comp = rep["result"]["components"]
    if not (len(comp) == 1 and comp[0]["multiplicity"] == 3):
        failures.append(("discriminant", "content"))
    if rep["result"]["leaves"][0]["singularity"] != "A2":
        failures.append(("discriminant", "leaf label"))
    rep = json.loads((tmp_path / "gale-0.json").read_text())
    if rep["result"]["A"]["rows"] != [] or "N = n" not in rep["notes"]:
        failures.append(("gale", "content"))
    rep = json.loads((tmp_path / "round-trip-0.json").read_text())
    if rep["result"]["equal"] is not True:
        failures.append(("round-trip", "content"))

    elapsed = time.perf_counter() - started
    report(9, "CLI determinism (golden files)", failures, elapsed, 30)
