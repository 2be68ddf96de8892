"""Problem-file parsing, subcommands, report stability, and re-ingestion."""

import hashlib
import importlib.util
import inspect
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from toricff.cli import (
    CHECK_LABELS,
    CHECKS,
    ProblemFile,
    ProblemFormatError,
    cmd_basis,
    cmd_unfold,
    ingest_report,
    main,
    parse_problem,
    render_problem,
)
from toricff.ffverify import Failure, VerificationReport
from toricff.jacobired import jacobian_basis
from toricff.toricring import build_cayley_ring
from toricff.unfolding import check_series, run

CUBIC_PROBLEM = """\
rays = (1,0) (0,1) (-1,-1)
hypersurface = 1 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)
order = 4
"""

# a Hesse-type cubic whose partials have non-integer coefficients
RATIONAL_HESSE_PROBLEM = """\
rays = (1,0) (0,1) (-1,-1)
hypersurface = 1/2 (3,0,0) + 2/3 (0,3,0) + 5/7 (0,0,3) + 3/4 (1,1,1)
order = 6
"""

# the Fermat quartic K3 plus x1*x2*x3*x4, at order 2
DWORK_K3_PROBLEM = """\
rays = (1,0,0) (0,1,0) (0,0,1) (-1,-1,-1)
hypersurface = 1 (4,0,0,0) + 1 (0,4,0,0) + 1 (0,0,4,0) + 1 (0,0,0,4) + 1 (1,1,1,1)
order = 2
"""

# the Fermat sextic K3 in P(1,1,1,3), at order 2
SEXTIC_K3_PROBLEM = """\
rays = (1,0,0) (0,1,0) (-1,-1,-3) (0,0,1)
hypersurface = 1 (6,0,0,0) + 1 (0,6,0,0) + 1 (0,0,6,0) + 1 (0,0,0,2)
order = 2
"""

CI22_PROBLEM = """\
rays = (1,0,0) (0,1,0) (0,0,1) (-1,-1,-1)
hypersurface = 1 (2,0,0,0) + 1 (0,2,0,0) + 1 (0,0,2,0) + 1 (0,0,0,2)
hypersurface = 1 (2,0,0,0) + 2 (0,2,0,0) + 3 (0,0,2,0) + 4 (0,0,0,2)
order = 3
"""

QUINTIC_PROBLEM = """\
rays = (1,0,0,0) (0,1,0,0) (0,0,1,0) (0,0,0,1) (-1,-1,-1,-1)
hypersurface = 1 (5,0,0,0,0) + 1 (0,5,0,0,0) + 1 (0,0,5,0,0) + 1 (0,0,0,5,0) + 1 (0,0,0,0,5)
order = 1
"""

QUADRIC_PROBLEM = """\
rays = (1,0) (0,1) (-1,-1)
hypersurface = 1 (2,0,0) + 1 (0,2,0) + 1 (0,0,2)
order = 2
"""

QUARTIC_PROBLEM = """\
rays = (1,0) (0,1) (-1,-1)
hypersurface = 1 (4,0,0) + 1 (0,4,0) + 1 (0,0,4)
order = 2
"""


def problem_path(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_round_trip():
    for text in (CUBIC_PROBLEM, CI22_PROBLEM, QUINTIC_PROBLEM):
        problem = parse_problem(text)
        assert parse_problem(render_problem(problem)) == problem


def test_parse_fields():
    problem = parse_problem(CI22_PROBLEM)
    assert problem.rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    assert len(problem.hypersurfaces) == 2
    assert problem.hypersurfaces[1][3] == (Fraction(4), (0, 0, 0, 2))
    assert problem.order == 3
    assert problem.monomial_order == "grevlex"
    assert problem.checks == "all"
    assert problem.retain_intermediates is False


def test_parse_accepts_comments_and_rationals():
    text = (
        "# cubic with a scaled term\n"
        "rays = (1,0) (0,1) (-1,-1)\n"
        "\n"
        "hypersurface = -1/2 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)\n"
        "order = 2\n"
        "checks = fqm2\n"
        "retain-intermediates = yes\n"
    )
    problem = parse_problem(text)
    assert problem.hypersurfaces[0][0] == (Fraction(-1, 2), (3, 0, 0))
    assert problem.checks == "fqm2"
    assert problem.retain_intermediates is True


def test_parse_error_names_hypersurface_and_line():
    text = (
        "rays = (1,0) (0,1) (-1,-1)\n"
        "hypersurface = 1 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)\n"
        "hypersurface = 1 (3,0) + 1 (0,3,0) + 1 (0,0,3)\n"
        "order = 2\n"
    )
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(text)
    assert "hypersurface 2" in str(info.value)
    assert "line 3" in str(info.value)


CUBIC_RAYS = "rays = (1,0) (0,1) (-1,-1)\n"
CUBIC_SURFACE = "hypersurface = 1 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)\n"


def _with_line(key, value):
    """The cubic problem with its key line replaced, or a new line appended."""
    lines = CUBIC_PROBLEM.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(key + " ="):
            lines[i] = f"{key} = {value}\n"
            return "".join(lines)
    return CUBIC_PROBLEM + f"{key} = {value}\n"


# (id, problem text, line number, message) of every parse error
PARSE_ERRORS = [
    ("rays-not-a-tuple", _with_line("rays", "1,0 (0,1) (-1,-1)"), 1,
     "rays: expected a (…) tuple, got '1,0'"),
    ("rays-empty-tuple", _with_line("rays", "() (0,1) (-1,-1)"), 1,
     "rays: empty tuple"),
    ("rays-bad-integer", _with_line("rays", "(1,a) (0,1) (-1,-1)"), 1,
     "rays: bad integer tuple '(1,a)'"),
    ("rays-none", _with_line("rays", ""), 1, "rays: no tuples given"),
    ("rays-mixed", _with_line("rays", "(1,0) (0,1,0)"), 1, "rays: mixed dimensions"),
    ("rays-duplicate", CUBIC_PROBLEM + CUBIC_RAYS, 4, "duplicate rays line"),
    ("hypersurface-before-rays", CUBIC_SURFACE + CUBIC_RAYS + "order = 2\n", 1,
     "hypersurface given before rays"),
    ("hypersurface-term", _with_line("hypersurface", "1 (3,0,0) + x"), 2,
     "hypersurface 1: expected 'coeff (exponents)', got 'x'"),
    ("hypersurface-zero-denominator", CUBIC_PROBLEM + "hypersurface = 1/0 (3,0,0)\n", 4,
     "hypersurface 2: zero denominator in '1/0 (3,0,0)'"),
    ("hypersurface-exponent-count", _with_line("hypersurface", "1 (3,0)"), 2,
     "hypersurface 1: expected 3 exponents, got 2"),
    ("hypersurface-negative-exponent", _with_line("hypersurface", "1 (3,0,-1)"), 2,
     "hypersurface 1: negative exponent in '1 (3,0,-1)'"),
    ("hypersurface-empty-tuple", _with_line("hypersurface", "1 ()"), 2,
     "hypersurface 1: empty tuple"),
    ("hypersurface-bad-integer", _with_line("hypersurface", "1 (3,a,0)"), 2,
     "hypersurface 1: bad integer tuple '(3,a,0)'"),
    ("order-not-integer", _with_line("order", "two"), 3,
     "order: not an integer: 'two'"),
    ("order-zero", _with_line("order", "0"), 3, "order must be at least 1"),
    ("order-duplicate", CUBIC_PROBLEM + "order = 4\n", 4, "duplicate order line"),
    ("monomial-order-value", _with_line("monomial-order", "lex"), 4,
     "monomial-order: expected one of grevlex, got 'lex'"),
    ("monomial-order-duplicate",
     _with_line("monomial-order", "grevlex") + "monomial-order = grevlex\n", 5,
     "duplicate monomial-order line"),
    ("checks-value", _with_line("checks", "everything"), 4,
     "checks: expected one of all, fqm2, axioms, weights, euler, got 'everything'"),
    ("checks-duplicate", _with_line("checks", "all") + "checks = fqm2\n", 5,
     "duplicate checks line"),
    ("retain-intermediates-value", _with_line("retain-intermediates", "maybe"), 4,
     "retain-intermediates: expected one of yes, no, got 'maybe'"),
    ("retain-intermediates-duplicate",
     _with_line("retain-intermediates", "no") + "retain-intermediates = yes\n", 5,
     "duplicate retain-intermediates line"),
    ("no-equals", CUBIC_PROBLEM + "rays\n", 4, "expected 'key = value', got 'rays'"),
    ("unknown-key", CUBIC_PROBLEM + "mystery = 1\n", 4, "unknown key 'mystery'"),
    ("missing-rays", "# empty\norder = 2\n", 3, "missing rays line"),
    ("missing-hypersurface", CUBIC_RAYS + "order = 2\n", 3,
     "missing hypersurface lines"),
    ("missing-order", CUBIC_RAYS + CUBIC_SURFACE, 3, "missing order line"),
]


@pytest.mark.parametrize(
    "text, lineno, message",
    [pytest.param(*case, id=name) for name, *case in PARSE_ERRORS],
)
def test_parse_errors_name_their_line(tmp_path, capsys, text, lineno, message):
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(text)
    assert info.value.lineno == lineno
    assert str(info.value) == f"line {lineno}: {message}"
    assert main(["unfold", problem_path(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: ProblemFormatError: line {lineno}: {message}\n"
    assert captured.out == ""


def test_grading_cubic(tmp_path, capsys):
    code = main(["grading", problem_path(tmp_path, CUBIC_PROBLEM)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rank = 1" in out
    assert "deg.y1 = (-3 | 1)" in out
    assert "deg.x1 = (1 | 0)" in out
    assert "c_B = (0)" in out
    assert "calabi-yau = yes" in out


def test_grading_quadric(tmp_path, capsys):
    code = main(["grading", problem_path(tmp_path, QUADRIC_PROBLEM)])
    out = capsys.readouterr().out
    assert code == 0
    assert "c_B = (-1)" in out
    assert "calabi-yau = no" in out


def test_grading_torsion(tmp_path, capsys):
    text = (
        "rays = (2,0) (0,1) (-2,-1)\n"
        "hypersurface = 1 (1,1,0)\n"
        "order = 1\n"
    )
    code = main(["grading", problem_path(tmp_path, text)])
    err = capsys.readouterr().err
    assert code == 2
    assert "TorsionClassGroup" in err


def test_grading_rejects_incomplete_fan(tmp_path, capsys):
    text = (
        "rays = (1,0) (0,1) (1,1)\n"
        "hypersurface = 1 (1,0,0) + 1 (0,1,0)\n"
        "order = 1\n"
    )
    code = main(["grading", problem_path(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: InvalidInput: rays do not positively span R^2, "
        "so the fan is not complete\n"
    )
    assert captured.out == ""


def test_basis_cubic(tmp_path, capsys):
    code = main(["basis", problem_path(tmp_path, CUBIC_PROBLEM)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dims = 1 1" in out
    assert "basis.1 = y1*x1*x2*x3" in out
    assert "basis.1.weight = 1" in out
    assert "basis.1.t-weight = 0" in out


def test_basis_quintic(tmp_path, capsys):
    code = main(["basis", problem_path(tmp_path, QUINTIC_PROBLEM)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dims = 1 101 101 1" in out


def test_basis_ci22(tmp_path, capsys):
    code = main(["basis", problem_path(tmp_path, CI22_PROBLEM)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dims = 1 1" in out


def test_basis_non_cy_guard(tmp_path, capsys):
    path = problem_path(tmp_path, QUARTIC_PROBLEM)
    code = main(["basis", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "NotCalabiYau" in captured.err
    code = main(["basis", path, "--allow-non-cy"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dims = 3 3" in out


# two linear hypersurfaces on P1: more hypersurfaces than dimensions
TOO_MANY_HYPERSURFACES_PROBLEM = """\
rays = (1) (-1)
hypersurface = 1 (1,0) + 1 (0,1)
hypersurface = 1 (1,0) + 2 (0,1)
order = 2
"""


@pytest.mark.parametrize(
    "command, code", [("grading", 0), ("basis", 2), ("unfold", 2)]
)
def test_more_hypersurfaces_than_dimensions(tmp_path, capsys, command, code):
    """k > n leaves no quotient weight: the grading is still defined, but
    basis and unfold reject the input instead of failing inside the engine."""
    path = problem_path(tmp_path, TOO_MANY_HYPERSURFACES_PROBLEM)
    assert main([command, path]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err == (
            "error: InvalidInput: 2 hypersurfaces in dimension 1: "
            "at most one per dimension\n"
        )
        assert captured.out == ""
    else:
        assert "calabi-yau = yes" in captured.out
        assert captured.err == ""


def test_unfold_cubic_report(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main(
        [
            "unfold",
            problem_path(tmp_path, CUBIC_PROBLEM),
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    text = out_file.read_text()
    assert "version = " in text
    assert "convention.monomial-order = grevlex" in text
    assert "convention.witness-rule = rref-canonical" in text
    assert "a.t0^2.0 = 1" in text
    assert "u.t0*t1 = 0" in text
    assert "check.fqm2 = pass" in text
    assert "check.flat-f-axioms = pass" in text
    assert "check.weight-homogeneity = pass" in text
    assert "check.euler-identity = pass" in text
    assert text.rstrip().endswith("status = pass")
    assert capsys.readouterr().out == ""


def test_unfold_checks_flag(tmp_path, capsys):
    code = main(
        [
            "unfold",
            problem_path(tmp_path, CUBIC_PROBLEM),
            "--checks",
            "weights",
            "--order",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "check.weight-homogeneity = pass" in out
    assert "check.fqm2" not in out


def test_unfold_order_one_skips(tmp_path, capsys):
    code = main(
        ["unfold", problem_path(tmp_path, CUBIC_PROBLEM), "--order", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "check.fqm2 = skipped (needs order >= 2)" in out
    assert "check.weight-homogeneity = pass" in out
    assert "status = pass" in out


def test_unfold_rejects_non_cy(tmp_path, capsys):
    code = main(["unfold", problem_path(tmp_path, QUADRIC_PROBLEM)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NotCalabiYau" in err


def test_unfold_reports_check_failure(tmp_path, capsys, monkeypatch):
    import toricff.cli as cli

    def broken(state, series):
        return VerificationReport(
            "fqm2",
            False,
            state.order - 2,
            1,
            Failure("pair (0,0)", (0, 0), None, "1"),
        )

    monkeypatch.setitem(cli.CHECKS, "fqm2", broken)
    code = main(
        [
            "unfold",
            problem_path(tmp_path, CUBIC_PROBLEM),
            "--checks",
            "fqm2",
            "--order",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "check.fqm2 = fail" in out
    assert "check.fqm2.failure.site = pair (0,0)" in out
    assert "status = fail" in out


@pytest.mark.parametrize(
    "problem, argv, message",
    [
        (
            CUBIC_PROBLEM.replace(
                "hypersurface = 1 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)",
                "hypersurface = 1 (3,0,0) + -1 (3,0,0)",
            ),
            [],
            "InvalidInput: hypersurface 0 is zero",
        ),
        (CUBIC_PROBLEM, ["--order", "0"], "InvalidInput: --order must be at least 1"),
        (
            CUBIC_PROBLEM.replace("1 (3,0,0)", "1/0 (3,0,0)"),
            [],
            "ProblemFormatError: line 2: hypersurface 1: "
            "zero denominator in '1/0 (3,0,0)'",
        ),
        (
            "rays = (1,0) (0,1)\nhypersurface = 1 (1,0) + 1 (0,1)\norder = 1\n",
            [],
            "InvalidInput: rays do not positively span R^2, so the fan is not complete",
        ),
        (
            "rays = (1,0) (0,1) (1,1)\n"
            "hypersurface = 1 (1,0,0) + 1 (0,1,0)\norder = 1\n",
            [],
            "InvalidInput: rays do not positively span R^2, so the fan is not complete",
        ),
    ],
)
def test_unfold_input_errors_exit_two(tmp_path, capsys, problem, argv, message):
    code = main(["unfold", problem_path(tmp_path, problem)] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "content, reason",
    [(None, "No such file"), (b"\xff\xfe", "can't decode byte 0xff")],
)
def test_unreadable_problem_file_exits_two(tmp_path, capsys, content, reason):
    path = tmp_path / "problem.txt"
    if content is not None:
        path.write_bytes(content)
    code = main(["unfold", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert reason in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unwritable_out_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    code = main(["unfold", problem_path(tmp_path, CUBIC_PROBLEM), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


# weighted P(1,32768): x1^32769 has an exponent past 32,767, the largest a
# packed monomial key holds
OVERFLOW_PROBLEM = (
    "rays = (32768) (-1)\nhypersurface = 1 (32769,0) + 1 (1,1)\norder = 1\n"
)


@pytest.mark.parametrize("command", ["grading", "basis", "unfold"])
def test_exponent_past_the_packing_limit_exits_two(tmp_path, capsys, command):
    code = main([command, problem_path(tmp_path, OVERFLOW_PROBLEM)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ExponentOverflow: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "error",
    [
        ValueError("check_fqm2 needs an order >= 2 state"),
        ArithmeticError("reduction identity failed to close"),
    ],
)
def test_unfold_internal_errors_exit_three(tmp_path, capsys, monkeypatch, error):
    import toricff.cli as cli

    def broken(state, series):
        raise error

    monkeypatch.setitem(cli.CHECKS, "fqm2", broken)
    code = main(
        ["unfold", problem_path(tmp_path, CUBIC_PROBLEM), "--checks", "fqm2"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" in captured.err
    assert f"{type(error).__name__}: {error}" in captured.err
    assert captured.out == ""


def test_check_labels_match_the_checks(cubic_ring, cubic_basis):
    # CHECK_LABELS restates each check's report label and its order guard;
    # exactly the guarded checks take the series as a second argument
    order_two = run(cubic_ring, cubic_basis, 2)
    order_one = run(cubic_ring, cubic_basis, 1)
    assert CHECK_LABELS.keys() == CHECKS.keys()
    refused, take_series = set(), set()
    for key, check in CHECKS.items():
        takes_series = len(inspect.signature(check).parameters) == 2
        if takes_series:
            take_series.add(key)

        def call(state):
            return check(state, check_series(state)) if takes_series else check(state)

        assert call(order_two).check == CHECK_LABELS[key][0]
        try:
            call(order_one)
        except ValueError:
            refused.add(key)
    flagged = {key for key, (_, needs_two) in CHECK_LABELS.items() if needs_two}
    assert refused == flagged
    assert take_series == flagged


def test_unfold_builds_each_series_once(monkeypatch):
    # every binding of a series function in the package counts, imported copies too
    import toricff.unfolding as unfolding

    calls = {}
    modules = [m for key, m in sys.modules.items() if key.startswith("toricff")]
    for name in ("gamma_series", "gamma_partial", "structure_series", "lambda_series"):
        build = getattr(unfolding, name)

        def counted(*args, _fn=build, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        for module in modules:
            if getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counted)
    problem = replace(parse_problem(CUBIC_PROBLEM), order=4)
    assert cmd_unfold(problem)[0] == 0
    assert calls == {
        "gamma_series": 1,
        "gamma_partial": 1,
        "structure_series": 1,
        "lambda_series": 1,
    }
    calls.clear()
    assert cmd_unfold(replace(problem, checks="weights"))[0] == 0
    assert calls == {}


def test_reports_byte_stable(tmp_path):
    path = problem_path(tmp_path, CUBIC_PROBLEM)
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert main(["unfold", path, "--out", str(first)]) == 0
    assert main(["unfold", path, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_report_reingestion(tmp_path):
    path = problem_path(tmp_path, CUBIC_PROBLEM)
    out_file = tmp_path / "report.txt"
    assert main(["unfold", path, "--out", str(out_file)]) == 0
    rebuilt = ingest_report(out_file.read_text())
    problem = parse_problem(CUBIC_PROBLEM)
    ring = build_cayley_ring(
        problem.rays,
        [dict(((e, c) for c, e in h)) for h in problem.hypersurfaces],
    )
    fresh = run(ring, jacobian_basis(ring), problem.order)
    assert rebuilt.order == fresh.order
    assert rebuilt.t_weights == fresh.t_weights
    assert rebuilt.u_table == fresh.u_table
    assert rebuilt.a_table == fresh.a_table
    assert rebuilt.lam_table == fresh.lam_table


@pytest.mark.parametrize(
    "line, reason",
    [
        ("a.t1^2.7 = 5", "a index outside 0..1"),
        ("u.t9^2 = 0", "direction outside t0..t1"),
        ("a.t1*t0.1 = 0", "repeated table key"),
        ("u.t1^0 = y1", "bad t-monomial 't1\\^0'"),
        ("lambda.t1^2 = y1*eta2*eta1", r"eta factors eta2\*eta1 not distinct"),
        ("lambda.t1^2 = y1*eta1^2", r"eta factors eta1\*eta1 not distinct"),
        ("a.t0^2.1 = 1/0", r"Fraction\(1, 0\)"),
        ("u.t1^3 = y1", "multiset beyond order 2"),
        ("a.t1.0 = 1", "a keys have at least 2 directions"),
        ("lambda.t0 = 0", "lambda keys have at least 2 directions"),
        ("lambda.t1 = y1*eta1", "lambda keys have at least 2 directions"),
        ("input.t1 = x1", "input keys have at least 2 directions"),
    ],
    ids=[
        "a-index",
        "direction",
        "repeated-key",
        "zero-exponent",
        "descending-etas",
        "repeated-eta",
        "zero-denominator",
        "beyond-order",
        "a-below-size",
        "lambda-zero-below-size",
        "lambda-below-size",
        "input-below-size",
    ],
)
def test_ingest_rejects_bad_table_line(line, reason):
    # the cubic has two directions and every key of size <= 2 at order 2; the
    # line replaces the line of the same key, if any, and goes last in [tables]
    _, report = cmd_unfold(replace(parse_problem(CUBIC_PROBLEM), order=2))
    key = line.partition(" = ")[0]
    kept = [row for row in report.splitlines(True) if not row.startswith(key + " = ")]
    text = "".join(kept).replace("[verification]\n", f"{line}\n[verification]\n")
    with pytest.raises(ValueError, match=reason) as info:
        ingest_report(text)
    assert repr(line) in str(info.value)


@pytest.mark.parametrize(
    "odd, key",
    [
        ("u.t1*t0", "u.t0*t1"),
        ("u.t1*t1", "u.t1^2"),
        ("u.t0^1", "u.t0"),
        ("u.t01", "u.t1"),
        ("a.t0*t1.01", "a.t0*t1.1"),
        ("a.t0*t1.+1", "a.t0*t1.1"),
        ("a.t0*t1. 1", "a.t0*t1.1"),
    ],
    ids=[
        "unsorted",
        "repeated-factor",
        "unit-exponent",
        "leading-zero",
        "rho-leading-zero",
        "rho-sign",
        "rho-space",
    ],
)
def test_ingest_accepts_one_spelling_per_table_key(odd, key):
    # the line of key is spelled odd instead, and nowhere else in the report
    _, report = cmd_unfold(replace(parse_problem(CUBIC_PROBLEM), order=2))
    assert f"\n{key} = " in report
    text = report.replace(f"\n{key} = ", f"\n{odd} = ")
    shown = f"table key {odd!r} is spelled {key!r} in '{odd} = "
    with pytest.raises(ValueError, match=re.escape(shown)):
        ingest_report(text)


@pytest.mark.parametrize(
    "dropped, reason",
    [
        ("u.t1^2 = ", r"u table lacks \(1, 1\)"),
        ("lambda.t1^2 = ", r"lambda table lacks \(1, 1\)"),
        ("a.t1^3.", r"a table lacks \(1, 1, 1\)"),
        ("u.t1 = ", r"u table lacks \(1,\)"),
        ("a.t0*t1.", r"a table lacks \(0, 1\)"),
    ],
    ids=["u-entry", "lambda-entry", "a-row", "u-smallest", "a-smallest"],
)
def test_ingest_rejects_incomplete_tables(dropped, reason):
    # every line of the cubic order-3 report that starts with dropped goes
    _, report = cmd_unfold(replace(parse_problem(CUBIC_PROBLEM), order=3))
    kept = [row for row in report.splitlines(True) if not row.startswith(dropped)]
    assert len(kept) < len(report.splitlines())
    with pytest.raises(ValueError, match=reason):
        ingest_report("".join(kept))


def test_ingest_rejects_order_below_one():
    _, report = cmd_unfold(replace(parse_problem(CUBIC_PROBLEM), order=2))
    text = report.replace("[tables]\norder = 2\n", "[tables]\norder = 0\n")
    assert text != report
    with pytest.raises(ValueError, match="order must be at least 1 in 'order = 0'"):
        ingest_report(text)


def test_ingest_rejects_entry_beyond_a_later_order_line():
    _, report = cmd_unfold(replace(parse_problem(CUBIC_PROBLEM), order=2))
    line = "lambda.t0*t1^2 = 0"
    text = report.replace("[tables]\n", f"[tables]\n{line}\n")
    tables = text.index("[tables]\n")
    assert text.index(line) < text.index("\norder = 2\n", tables)
    with pytest.raises(ValueError, match="multiset beyond order 2") as info:
        ingest_report(text)
    assert repr(line) in str(info.value)


def test_render_problem_is_canonical():
    problem = ProblemFile(
        rays=((1, 0), (0, 1), (-1, -1)),
        hypersurfaces=(
            ((Fraction(1), (3, 0, 0)), (Fraction(1), (0, 3, 0)), (Fraction(1), (0, 0, 3))),
        ),
        order=4,
        monomial_order="grevlex",
        checks="all",
        retain_intermediates=False,
    )
    text = render_problem(problem)
    assert text.splitlines()[0] == "rays = (1,0) (0,1) (-1,-1)"
    assert "hypersurface = 1 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)" in text
    assert "order = 4" in text


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_problems():
    """The benchmark's problem generator, bench/problems.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_problems", BENCH / "problems.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, changes, expected",
    [
        pytest.param("k3-verify", {}, None, id="k3-verify"),
        pytest.param(
            "k3-verify",
            {"retain_intermediates": True},
            "bf0806373d76ea1eabe2b6f7cb9585cb46b339924e8b4b0cf263bab0de707dd6",
            id="k3-order2-retained",
        ),
        pytest.param(
            "ci22-deep",
            {"order": 6, "retain_intermediates": True},
            "8ac2e8a9009682f1181d8511713538eac5ce61f5117632f8d0613a1659fd5b39",
            id="ci22-order6-retained",
        ),
        pytest.param("ci22-deep", {}, None, id="ci22-deep"),
        pytest.param("cy33-basis", {}, None, id="cy33-basis"),
        pytest.param(
            "rational-hesse",
            {"retain_intermediates": True},
            "88a8b07fc17da69fe50277428f63e4df72d79540d979339c672934c8d2b81d13",
            id="rational-hesse-order6-retained",
        ),
        pytest.param(
            "dwork-k3",
            {},
            "83dc20cfdbaf9f234cc738b2d1f0057aa1d872291953848c3455ac9233af6205",
            id="dwork-k3-order2",
        ),
        pytest.param(
            "sextic-k3",
            {},
            "67faeda7fb84cb574a0c327173a7590c60990c7eb2fb33105eaaa813a361b614",
            id="sextic-k3-order2",
        ),
    ],
)
def test_report_golden_digests(name, changes, expected):
    # seed-0 bench problems, the rational Hesse cubic and two non-diagonal or
    # weighted K3 surfaces; retain-intermediates = yes also prints every step
    # input
    problems = _bench_problems()
    workload = problems.WORKLOADS.get(name)
    if workload is None:
        command = cmd_unfold
        text = {
            "rational-hesse": RATIONAL_HESSE_PROBLEM,
            "dwork-k3": DWORK_K3_PROBLEM,
            "sextic-k3": SEXTIC_K3_PROBLEM,
        }[name]
    else:
        command = {"basis": cmd_basis, "unfold": cmd_unfold}[workload.command]
        text = problems.problem_text(workload, 0)
    if expected is None:  # the benchmark's own pin
        pins = json.loads((BENCH / "expected.json").read_text())
        expected = pins[name]["seed0_sha256"]
    code, report = command(replace(parse_problem(text), **changes))
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == expected
