"""Outside-in spans around the public functions of each ``toricff`` layer.

``install`` replaces every binding of a traced function (the defining module,
every ``from ... import`` copy in another ``toricff`` module, and values held
in module-level dicts such as ``cli.CHECKS``) with a wrapper that records a
span: name, start, end, parent, and a few size counters read from the
arguments and the result. Spans stay in memory until ``Tracer.spans`` is
written out. ``Poly`` and ``TruncatedSeries`` operators are not wrapped; their
cost lands in the calling span's self time.
"""

from __future__ import annotations

import functools
import sys
import time


def _ideal_piece_attrs(args, piece):
    rows = piece.pivots.values()
    return {
        "columns": len(piece.monomials),
        "generators": len(piece.generators),
        "rank": piece.rank,
        "row_nnz": sum(len(row) for row, _ in rows),
        "witness_nnz": sum(len(wit) for _, wit in rows),
    }


def _reduce_attrs(args, result):
    return {"witness_terms": len(result.witness.terms)}


def _check_attrs(args, report):
    return {"cases": report.cases}


class _PieceCacheProbe:
    """Counts cache hits of enumerate_graded_piece by result identity.

    The function returns the cached list object itself on a hit, so a result
    already seen is a hit; a new one was enumerated.
    """

    def __init__(self):
        self.seen = {}

    def __call__(self, args, out):
        if id(out) in self.seen:
            return {"hit": 1}
        self.seen[id(out)] = out  # keep alive so the id stays unique
        return {"hit": 0, "monomials": len(out)}


def _report_attrs(args, result):
    code, text = result
    return {"report_bytes": len(text.encode())}


# (module, function, counters taken from (args, result)); the span of a
# target is named "module.function"
TARGETS = (
    ("cli", "cmd_unfold", _report_attrs),
    ("cli", "cmd_basis", _report_attrs),
    ("jacobired", "ideal_piece", _ideal_piece_attrs),
    ("jacobired", "jacobian_basis", None),
    ("jacobired", "reduce_with_witness", _reduce_attrs),
    ("toricring", "build_cayley_ring", None),
    ("toricring", "enumerate_graded_piece", _PieceCacheProbe),
    ("intlattice", "smith_normal_form", None),
    ("intlattice", "enumerate_lattice_points", None),
    ("unfolding", "run", None),
    ("unfolding", "step", None),
    ("unfolding", "structure_series", None),
    ("unfolding", "gamma_series", None),
    ("unfolding", "gamma_partial", None),
    ("unfolding", "lambda_series", None),
    ("supercomplex", "q_f", None),
    ("supercomplex", "q_s", None),
    ("supercomplex", "delta", None),
    ("ffverify", "check_fqm2", _check_attrs),
    ("ffverify", "check_flat_f_axioms", _check_attrs),
    ("ffverify", "check_weight_homogeneity", _check_attrs),
    ("ffverify", "check_euler_identity", _check_attrs),
)

SPAN_NAMES = tuple(f"{module}.{func}" for module, func, _ in TARGETS)

# metric prefix -> the spans it aggregates
GROUPS = {
    "cli": ("cli.cmd_unfold", "cli.cmd_basis"),
    "unfolding.series": (
        "unfolding.structure_series",
        "unfolding.gamma_series",
        "unfolding.gamma_partial",
        "unfolding.lambda_series",
    ),
    "ffverify.fqm2": ("ffverify.check_fqm2",),
    "ffverify.flat-f-axioms": ("ffverify.check_flat_f_axioms",),
    "ffverify.weight-homogeneity": ("ffverify.check_weight_homogeneity",),
    "ffverify.euler-identity": ("ffverify.check_euler_identity",),
}


class Tracer:
    """In-memory span store; spans are (name, start, end, parent, attrs)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, attrs_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if attrs_of is not None:
                spans[index] = (name, start, end, parent, attrs_of(args, result))
            return result

        return traced


def _binding_sites(modules, fn):
    """Every (namespace, key) in the given modules whose value is fn."""
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is fn:
                yield namespace, key
            elif isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    if inner is fn:
                        yield value, inner_key


def toricff_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "toricff" or name.startswith("toricff.")
    ]


def install(tracer):
    """Wrap every binding of every target; return the originals by target."""
    import toricff.cli  # noqa: F401  loads every layer and the CHECKS table

    modules = toricff_modules()
    originals = {}
    for module_name, func, attrs in TARGETS:
        module = sys.modules[f"toricff.{module_name}"]
        fn = getattr(module, func)
        attrs_of = attrs() if isinstance(attrs, type) else attrs
        wrapper = tracer.wrap(fn, f"{module_name}.{func}", attrs_of)
        sites = list(_binding_sites(modules, fn))
        for namespace, key in sites:
            namespace[key] = wrapper
        originals[(module_name, func)] = (fn, len(sites))
    return originals


def self_times(spans):
    """Per span, its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]


def layer_metrics(spans):
    """Aggregate spans into the per-layer metrics named in BENCHMARK.json."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    selfs = dict.fromkeys(SPAN_NAMES, 0.0)
    sums = {}
    max_columns = 0
    for (name, start, end, _, attrs), own in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        selfs[name] += own
        for key, value in (attrs or {}).items():
            sums[(name, key)] = sums.get((name, key), 0) + value
        if name == "jacobired.ideal_piece":
            max_columns = max(max_columns, attrs["columns"])

    def grouped(table, prefix):
        return sum(table[name] for name in GROUPS.get(prefix, (prefix,)))

    def counter(prefix, key):
        return sum(sums.get((name, key), 0) for name in GROUPS.get(prefix, (prefix,)))

    out = {}
    piece = "jacobired.ideal_piece"
    out[f"{piece}.calls"] = calls[piece]
    out[f"{piece}.self_s"] = selfs[piece]
    out[f"{piece}.max_columns"] = max_columns
    for key in ("columns", "generators", "rank", "row_nnz", "witness_nnz"):
        out[f"{piece}.{key}"] = counter(piece, key)
    out["jacobired.jacobian_basis.s"] = total["jacobired.jacobian_basis"]
    reduce = "jacobired.reduce_with_witness"
    out[f"{reduce}.calls"] = calls[reduce]
    out[f"{reduce}.self_s"] = selfs[reduce]
    out[f"{reduce}.witness_terms"] = counter(reduce, "witness_terms")
    out["toricring.build_cayley_ring.s"] = total["toricring.build_cayley_ring"]
    enum = "toricring.enumerate_graded_piece"
    out[f"{enum}.calls"] = calls[enum]
    out[f"{enum}.self_s"] = selfs[enum]
    out[f"{enum}.hit_ratio"] = counter(enum, "hit") / calls[enum] if calls[enum] else 0.0
    out[f"{enum}.monomials"] = counter(enum, "monomials")
    for name in ("intlattice.smith_normal_form", "intlattice.enumerate_lattice_points"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    out["unfolding.run.s"] = total["unfolding.run"]
    for prefix in (
        "unfolding.step",
        "unfolding.series",
        "supercomplex.q_f",
        "supercomplex.q_s",
        "supercomplex.delta",
    ):
        out[f"{prefix}.calls"] = grouped(calls, prefix)
        out[f"{prefix}.self_s"] = grouped(selfs, prefix)
    for check in ("fqm2", "flat-f-axioms", "weight-homogeneity", "euler-identity"):
        prefix = f"ffverify.{check}"
        out[f"{prefix}.s"] = grouped(total, prefix)
        out[f"{prefix}.self_s"] = grouped(selfs, prefix)
        out[f"{prefix}.cases"] = counter(prefix, "cases")
    out["cli.self_s"] = grouped(selfs, "cli")
    out["cli.report_bytes"] = counter("cli", "report_bytes")
    return out
