"""Frozen, seeded inputs for the benchmark workloads.

Inputs are plain int rows; hkit only ever sees the matrices built from them.
Each matrix carries its expected verdict, taken from its construction
(graphic matrices are totally unimodular; planted rows carry a witness minor)
or, for the corpus, from the benchmark's own minors in exact.py.
"""

import itertools
import random
from dataclasses import dataclass, field

from exact import canonical_sign, content, det, expected_verdict

# The test corpus as defined in tests/corpus.py when this benchmark was
# written. It is mirrored, not imported, so that growing the test corpus does
# not move the baseline.
CORPUS_SAMPLE_SEED = 2024
CORPUS_SAMPLES_PER_SIZE = 150
CORPUS_SIZE = 5687
CORPUS_VERDICTS = {
    None: 1104,
    "not_injective": 738,
    "torsion_cokernel": 859,
    "not_unimodular": 2986,
}

# K_8 with its last row replaced by (1, 1, 1, 0, 0, 0, 0). Rows 0, 3-6 and 13
# form the path 0-1 and 2-3 plus the star on 4..7; swapping edge (1, 2) of a
# spanning tree for the new row gives this minor of -2.
HOLE_ROW = (1, 1, 1, 0, 0, 0, 0)
HOLE_WITNESS = (0, 3, 4, 5, 6, 13, 27)

# Stages left out of kladder, with their unscaled cost at the seed (single
# runs on a shared 2-core Xeon virtual machine). A kladder pass has to repeat
# three times in a run, so it keeps only the stages that fit in about 6 s.
KLADDER_SKIPS = {
    6: {"presentation": "4.3 s, then budget_exceeded", "slice": "3.2 s"},
    7: {
        "presentation": "13.6 s, then budget_exceeded",
        "slice": "about 124 s",
        "round_trip": "13.3 s",
    },
    8: {"hilbert": "8-10 s", "presentation": "33 s, then budget_exceeded", "slice": "not run"},
}

# wide: (vertices, extra edges beyond a spanning tree) cycled by input index,
# so every seed draws the same sizes and only the graph structure varies.
WIDE_SIZES = tuple(itertools.product((7, 8, 9, 10), (2, 3, 4)))
WIDE_GRAPHS = 240


@dataclass
class MatrixInput:
    id: str
    rows: tuple
    n: int
    verdict: str = None  # expected hkit error code, None when valid
    witness: tuple = ()  # row indices of a maximal minor outside -1..1
    stages: frozenset = frozenset()
    km: int = None  # m for the complete-graph matrix K_m
    matrix: object = None  # hkit IntMatrix, attached after import
    expected: dict = field(default_factory=dict)  # lazily computed checks


LIBRARY_STAGES = frozenset(
    {"discriminant", "f_locus", "hilbert", "presentation", "deform", "slice", "round_trip"}
)
WIDE_STAGES = frozenset({"discriminant", "round_trip"})


# -- corpus ---------------------------------------------------------------------


def primitive_vectors(n, bound):
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(v) and content(v) == 1:
            out.add(canonical_sign(v))
    return sorted(out)


def corpus_rows():
    """The corpus matrices (max_n = 3, max_N = 6) in the test suite's order."""
    for N in range(1, 7):
        yield ((1,),) * N, 1
    pool = primitive_vectors(2, 2)
    for N in range(1, 7):
        for rows in itertools.combinations_with_replacement(pool, N):
            yield rows, 2
    small_pool = primitive_vectors(3, 1)
    for N in range(1, 5):
        for rows in itertools.combinations_with_replacement(small_pool, N):
            yield rows, 3
    full_pool = primitive_vectors(3, 2)
    rng = random.Random(CORPUS_SAMPLE_SEED)
    for N in range(5, 7):
        seen = set()
        while len(seen) < CORPUS_SAMPLES_PER_SIZE:
            seen.add(tuple(sorted(rng.choice(full_pool) for _ in range(N))))
        for rows in sorted(seen):
            yield rows, 3


def corpus_inputs(seed):
    inputs = []
    counts = dict.fromkeys(CORPUS_VERDICTS, 0)
    for idx, (rows, n) in enumerate(corpus_rows()):
        verdict = expected_verdict(rows, n)
        counts[verdict] += 1
        stages = LIBRARY_STAGES if verdict is None else frozenset()
        inputs.append(MatrixInput(f"corpus-{idx}", rows, n, verdict, stages=stages))
    if len(inputs) != CORPUS_SIZE or counts != CORPUS_VERDICTS:
        raise RuntimeError(f"corpus mirror drifted: {len(inputs)} matrices, {counts}")
    random.Random(seed).shuffle(inputs)
    return inputs


# -- complete graphs ----------------------------------------------------------------


def graph_rows(vertices, edges):
    """One row e_a - e_b per edge (a < b), vertex 0's coordinate dropped."""
    rows = []
    for a, b in edges:
        row = [0] * vertices
        row[a], row[b] = 1, -1
        rows.append(tuple(row[1:]))
    return tuple(rows)


def km_rows(m):
    return graph_rows(m, itertools.combinations(range(m), 2))


def kladder_inputs(seed):
    inputs = []
    for m in range(3, 9):
        stages = LIBRARY_STAGES - set(KLADDER_SKIPS.get(m, ()))
        inputs.append(MatrixInput(f"K{m}", km_rows(m), m - 1, stages=stages, km=m))
    hole = km_rows(8)[:-1] + (HOLE_ROW,)
    inputs.append(MatrixInput("K8-hole", hole, 7, "not_unimodular", witness=HOLE_WITNESS))
    return inputs


# -- seeded graphic multigraphs -----------------------------------------------------


def random_graph(rng, vertices, extra):
    """A connected multigraph: a random spanning tree with at least one vertex
    at depth 2, plus `extra` random edges (parallel edges allowed).

    Returns (edges, the tree as {vertex: parent}, a vertex whose parent is
    not the root 0)."""
    order = list(range(1, vertices))
    rng.shuffle(order)
    parent = {order[0]: 0, order[1]: order[0]}
    for i in range(2, len(order)):
        parent[order[i]] = rng.choice([0] + order[:i])
    edges = [tuple(sorted((v, p))) for v, p in parent.items()]
    for _ in range(extra):
        edges.append(tuple(sorted(rng.sample(range(vertices), 2))))
    rng.shuffle(edges)
    deep = sorted(v for v, p in parent.items() if p != 0)
    a = rng.choice(deep)
    return edges, parent, a


def wide_inputs(seed):
    rng = random.Random(seed)
    inputs = []
    for idx in range(WIDE_GRAPHS):
        vertices, extra = WIDE_SIZES[idx % len(WIDE_SIZES)]
        edges, parent, a = random_graph(rng, vertices, extra)
        rows = graph_rows(vertices, edges)
        inputs.append(MatrixInput(f"wide-{idx}", rows, vertices - 1, stages=WIDE_STAGES))
        # Every other graph gets a planted variant. With half the inputs
        # rejected early, the median operation would sit on the gap between
        # the two kinds and move with the seed.
        if idx % 2:
            continue
        # e_a + e_p with p = parent(a) != 0: on the tree path from p to the
        # root every edge has coefficient 2, so swapping the first one for the
        # planted row gives a maximal minor of +-2.
        p = parent[a]
        planted = [0] * vertices
        planted[a] = planted[p] = 1
        tree_rows = [edges.index(tuple(sorted((v, q)))) for v, q in parent.items() if v != p]
        pos = rng.randrange(len(rows) + 1)
        new_rows = rows[:pos] + (tuple(planted[1:]),) + rows[pos:]
        shifted = [i + (i >= pos) for i in tree_rows]
        inputs.append(
            MatrixInput(
                f"wide-{idx}-planted",
                new_rows,
                vertices - 1,
                "not_unimodular",
                witness=tuple(sorted(shifted + [pos])),
            )
        )
    return inputs


def witness_minor(inp):
    return det([inp.rows[i] for i in inp.witness])


# -- cli jobs -------------------------------------------------------------------------


@dataclass
class CliJob:
    id: str
    argv: tuple
    exit_code: int
    error_code: str = None
    data: dict = field(default_factory=dict)


def _mat(rows):
    return '{"rows": %s}' % [list(r) for r in rows]


def _divisor(n, walls):
    body = ", ".join('{"normal": %s, "mult": %d}' % (list(w), m) for w, m in walls)
    return '{"n": %d, "walls": [%s]}' % (n, body)


def cli_jobs(seed):
    """One call per subcommand on small inputs, an SVG plot, a domain error
    (exit 1) and a parse error (exit 2), in a seeded order."""
    k3, k4 = km_rows(3), km_rows(4)
    planar = ((1, 0), (1, 0), (0, 1), (1, 1))
    walls = (((1, 0), 2), ((0, 1), 1), ((1, 1), 1))
    not_unimodular = ((1, 0), (0, 1), (1, 2))
    jobs = [
        CliJob("gale", ("gale", "--in", _mat(k4)), 0, data={"rows": k4}),
        CliJob("check", ("check", "--in", _mat(planar)), 0, data={"rows": planar}),
        CliJob("discriminant", ("discriminant", "--in", _mat(planar)), 0, data={"rows": planar}),
        CliJob("svg", ("discriminant", "--in", _mat(planar), "--format", "svg"), 0),
        CliJob("build", ("build", "--in", _mat(k3)), 0, data={"rows": k3, "km": 3}),
        CliJob("reconstruct", ("reconstruct", "--in", _divisor(2, walls)), 0, data={"walls": walls}),
        CliJob("deform", ("deform", "--in", _mat(k4)), 0, data={"rows": k4}),
        CliJob(
            "local-model",
            ("local-model", "--in", '{"m": 3, "n": 2}', "--shifts", "0,1,3"),
            0,
            data={"shifts": (0, 1, 3)},
        ),
        CliJob("round-trip", ("round-trip", "--in", _divisor(2, walls)), 0, data={"walls": walls}),
        CliJob("domain-error", ("build", "--in", _mat(not_unimodular)), 1, "not_unimodular"),
        CliJob("parse-error", ("check", "--in", '{"rows": [[1, 0], [0'), 2),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs
