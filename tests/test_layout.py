"""Every module-level function, class and method of the engine is used by the
engine, and the engine checks its invariants without `assert`.

A definition that only tests call is a second way to do a job, or dead code.
The allowlist holds the few names that are public on purpose although no
other engine code calls them. An `assert` vanishes under `python -O`, so an
invariant raises an explicit exception instead. Every function the benchmark
tracer wraps is defined where the tracer looks for it, a module that calls
one by name binds that very function, and the tracer's counters read real
pieces. Only unfolding.check_series calls the series functions, so every
check reads the series of one build. Only cli.ingest_report calls
unfolding.check_complete, since step checks by reading. Only
polyalg.shared_packing builds a GrevlexPacking, so every key is at one
packing. Every name a module lists in `__all__` is bound there. Every
engine, test and tool file parses at the Python floor that pyproject.toml
declares.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from conftest import reference_partial

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toricff"

ALLOWED = {
    "ingest_report": "documented read-back of a report into an unfolding state",
    "k_s": "twisted Laplacian, which the acceptance gate compares with twisted_d",
    "mu": "form-side calculus checked by the acceptance gate",
    "mu_inverse": "form-side calculus checked by the acceptance gate",
    "epsilon_w_s": "form-side calculus checked by the acceptance gate",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield node


def _methods(tree):
    """(class, method) for every method of a module-level class but dunders."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in _definitions(cls):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield cls, node


def _outside(tree, skip):
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    return (node for node in ast.walk(tree) if id(node) not in skipped)


def _references(tree, skip):
    """Names loaded, attributes read and names imported, outside `skip`."""
    for node in _outside(tree, skip):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_referenced_in_the_engine():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            used = any(
                node.name in _references(other, node if other is tree else None)
                for other in trees.values()
            )
            if not used and node.name not in ALLOWED:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def test_every_method_is_read_in_the_engine():
    """A method counts as used where its name appears as an attribute anywhere
    else in the engine, an assignment target included."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for path, tree in trees.items():
        for cls, node in _methods(tree):
            used = any(
                isinstance(ref, ast.Attribute) and ref.attr == node.name
                for other in trees.values()
                for ref in _outside(other, node if other is tree else None)
            )
            if not used and node.name not in ALLOWED:
                unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert unused == []


def test_allowlist_names_existing_definitions():
    defined = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in _definitions(tree)}
        defined |= {node.name for _, node in _methods(tree)}
    assert set(ALLOWED) <= defined


def _bound_names(tree):
    """Names a module binds at top level: definitions, assignments, imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_export_is_defined_in_its_module():
    """A name in a module's __all__ that the module no longer binds breaks
    `from toricff.<module> import *`; a removed function leaves one behind."""
    stale = []
    exporting = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exports = _exports(tree)
        if exports is None:
            continue
        exporting += 1
        bound = set(_bound_names(tree))
        stale += [f"{path.name} {name}" for name in exports if name not in bound]
    assert exporting  # the package and toricring declare __all__
    assert stale == []


def test_engine_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_sources_parse_at_the_declared_python_floor():
    """3.11 syntax such as except* would break every run on 3.10."""
    floor = (3, 10)
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    group = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(group, feature_version=floor)
    paths = [
        path
        for folder in (SRC, ROOT / "tests", ROOT / "tools")
        for path in sorted(folder.rglob("*.py"))
    ]
    for expected in ("src/toricff/cli.py", "tests/conftest.py", "tools/bench_pairs.py"):
        assert ROOT / expected in paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def _bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_are_defined():
    """A renamed or moved target would crash tracer.install on every run."""
    tracer = _bench_tracer()
    missing = []
    for module, func, _ in tracer.TARGETS:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        if func not in {node.name for node in _definitions(tree)}:
            missing.append(f"{module}.{func}")
    assert missing == []


def test_tracer_counts_real_pieces(cubic_ring, cy33_ring):
    """The tracer's ideal_piece counters read a piece's monomials,
    generators, rank and pivots, so a piece layout they cannot read breaks
    every traced benchmark run. On the cubic at weight 1 and the (3,3)
    intersection at weight 2 they equal a direct count."""
    from toricff.jacobired import ideal_piece
    from toricff.toricring import enumerate_graded_piece

    tracer = _bench_tracer()
    for ring, weight in ((cubic_ring, 1), (cy33_ring, 2)):
        piece = ideal_piece(ring, ring.c_B, weight)
        attrs = tracer._ideal_piece_attrs((ring, ring.c_B, weight), piece)
        generators = 0
        for i in range(ring.nvars):
            part = reference_partial(ring.S, i)
            if not part:
                continue
            charge, pweight = ring.degree_of_monomial(next(iter(part)))
            mult_charge = tuple(a - b for a, b in zip(ring.c_B, charge))
            generators += len(enumerate_graded_piece(ring, (mult_charge, weight - pweight)))
        standard = len(piece.standard_monomials)
        assert attrs == {
            "columns": len(enumerate_graded_piece(ring, (ring.c_B, weight))),
            "generators": generators,
            "rank": len(piece.monomials) - standard,
            "row_nnz": sum(len(row) for row, _ in piece.pivots.values()),
            "witness_nnz": sum(len(wit) for _, wit in piece.pivots.values()),
        }
        assert generators > attrs["rank"] > standard > 0


def _called_names(tree):
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_tracer_targets_stay_bound_where_they_are_called():
    """tracer.install wraps a target at every binding of the function, so a
    module that calls a target by name must bind that very function, not a
    copy or a wrapper of its own; otherwise a benchmark span goes empty. The
    unfolding step and check_fqm2 add Q_f in place through supercomplex.q_f,
    whose span the benchmark reads on ci22-deep."""
    tracer = _bench_tracer()
    called = {
        path.stem: _called_names(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    unbound = []
    for module, func, _ in tracer.TARGETS:
        target = getattr(importlib.import_module(f"toricff.{module}"), func)
        for stem, names in called.items():
            caller = importlib.import_module(f"toricff.{stem}")
            if func in names and vars(caller).get(func) is not target:
                unbound.append(f"{stem} calls {module}.{func}")
    assert unbound == []
    from toricff import ffverify, supercomplex, unfolding

    for caller in (unfolding, ffverify):
        assert caller.q_f is supercomplex.q_f
        assert "q_f" in called[caller.__name__.rsplit(".", 1)[1]]


SERIES_FUNCTIONS = {"gamma_series", "gamma_partial", "structure_series", "lambda_series"}


def _calls(node, names, owner=None):
    """(innermost enclosing function or None, function) for every call of a
    function in names under node, by name or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names:
                yield owner, called
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from _calls(child, names, inner)


def _engine_calls(names):
    """(module file, enclosing function, function) for every engine call of
    a function in names."""
    return [
        (path.name, owner, called)
        for path in sorted(SRC.glob("*.py"))
        for owner, called in _calls(ast.parse(path.read_text()), names)
    ]


def test_only_check_series_calls_the_series_functions():
    """Every check reads the one bundle that unfolding.check_series builds,
    so no other engine code calls a series function, and it calls each once."""
    assert sorted(_engine_calls(SERIES_FUNCTIONS)) == sorted(
        ("unfolding.py", "check_series", name) for name in SERIES_FUNCTIONS
    )


def test_only_ingest_report_checks_table_completeness():
    """run fills every table and step raises on a missing entry it reads,
    so the one completeness pass checks only the tables a report brings."""
    assert _engine_calls({"check_complete"}) == [
        ("cli.py", "ingest_report", "check_complete")
    ]


def test_only_shared_packing_builds_a_packing():
    """Every monomial key in the engine is at the one packing per variable
    count that polyalg.shared_packing caches, so no other engine code
    constructs a GrevlexPacking: a second one would be a second key format."""
    assert _engine_calls({"GrevlexPacking"}) == [
        ("polyalg.py", "shared_packing", "GrevlexPacking")
    ]
