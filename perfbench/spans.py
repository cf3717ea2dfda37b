"""Spans around calls into hkit's public functions, recorded from the
benchmark process only.

Each listed function is wrapped and the wrapper is bound to that name in
every loaded hkit module that imported it, so nested calls inside hkit (for
example `hypertoric.is_unimodular` -> `intmat.unimodularity_report` ->
`intmat.det`) become child spans. Spans stay in memory until the pass ends.
"""

import json
import sys
import time
from collections import Counter

LAYERS = {
    "intmat": (
        "hermite_normal_form",
        "smith_normal_form",
        "rank",
        "det",
        "unimodularity_report",
        "kernel_basis",
        "gale_dual",
    ),
    "arrangement": ("build_discriminant", "f_locus", "check_simplicity"),
    "hypertoric": (
        "HypertoricData.from_matrix",
        "hilbert_basis",
        "presentation",
        "leaf_classification",
        "coordinate_dimension",
    ),
    "localmodel": (
        "choose_deformation_line",
        "verify_genericity",
        "family_slice",
        "family_f_locus_codimension",
    ),
    "characterization": ("round_trip", "classify_case"),
}


def span_name(module, qualname):
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


FUNCTIONS = [span_name(m, q) for m, names in LAYERS.items() for q in names]
LISTED = frozenset(FUNCTIONS)

# Work counts taken from return values at the same boundaries.
COUNTERS = {
    "intmat.unimodularity_report": lambda c, r: c.update(
        {"intmat.unimodularity_report.snf_fallback": r[1] == "snf_fallback"}
    ),
    "hypertoric.hilbert_basis": lambda c, r: c.update({"hypertoric.hilbert_basis.generators": len(r)}),
    "hypertoric.presentation": lambda c, r: c.update(
        {"hypertoric.presentation.relations": len(r.binomial_relations)}
    ),
    "arrangement.f_locus": lambda c, r: c.update(
        {"arrangement.f_locus.flats": len(r), "arrangement.f_locus.truncated": bool(r.truncated)}
    ),
    "localmodel.choose_deformation_line": lambda c, r: c.update(
        {"localmodel.choose_deformation_line.adjusted": bool(r.adjusted)}
    ),
    "arrangement.check_simplicity": lambda c, r: c.update({"slices_simple": bool(r.simple)}),
}
COUNT_NAMES = (
    "intmat.unimodularity_report.snf_fallback",
    "hypertoric.hilbert_basis.generators",
    "hypertoric.presentation.relations",
    "arrangement.f_locus.flats",
    "arrangement.f_locus.truncated",
    "localmodel.choose_deformation_line.adjusted",
)

NAME, PARENT, INPUT, START, END, FAILED = range(6)


class Tracer:
    """Records spans [name, parent index, input id, start ns, end ns, failed]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.input_id = None
        self._patches = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.input_id, clock(), 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lib):
        """Bind a traced wrapper to every name under which hkit holds a listed
        function, in every loaded hkit module."""
        modules = [m for k, m in sys.modules.items() if k == "hkit" or k.startswith("hkit.")]
        for module, names in LAYERS.items():
            home = getattr(lib, module)
            for qualname in names:
                name = span_name(module, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    wrapped = self.wrap(name, original.__func__)
                    self._patch(cls, attr, original, classmethod(wrapped))
                    continue
                original = getattr(home, qualname)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """Self time of each span in ns: its duration minus its children's."""
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self, scale=1.0):
        """Per-function self_ms (times scale), calls and failed, plus the work
        counts."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.self_ms"] = 0.0
            out[f"{name}.calls"] = 0
            out[f"{name}.failed"] = 0
        for span, own in zip(self.spans, self.self_times()):
            name = span[NAME]
            if name not in LISTED:
                continue  # cli.process spans only go to the trace file
            out[f"{name}.self_ms"] += own / 1e6 * scale
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += span[FAILED]
        for name in COUNT_NAMES:
            out[name] = int(self.counts[name])
        checked = out["arrangement.check_simplicity.calls"]
        out["localmodel.t1_simple_ratio"] = self.counts["slices_simple"] / checked if checked else 0.0
        return out

    def dump(self, path, meta):
        """Write the spans and a per-input summary (self and inclusive ms per
        function) as JSON."""
        per_input = {}
        for span, own in zip(self.spans, self.self_times()):
            row = per_input.setdefault(span[INPUT], {}).setdefault(span[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own / 1e6
            row[2] += (span[END] - span[START]) / 1e6
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(
                    meta,
                    span_fields=["name", "parent", "input", "start_ns", "end_ns", "failed"],
                    per_input_fields=["calls", "self_ms", "inclusive_ms"],
                    per_input=per_input,
                    spans=self.spans,
                ),
                fh,
                separators=(",", ":"),
            )
