"""Command line driver.

Problem files are plain ``key = value`` text: one ``rays`` line, one
``hypersurface`` line per equation (terms ``coeff (exponents)`` joined by
``+``, exponents over the x-variables only), an ``order`` line, and optional
``monomial-order`` / ``checks`` / ``retain-intermediates`` lines. Reports use
the same key/value shape so their tables can be re-ingested bit-exactly.

Exit codes: 0 when every requested check passes, 1 when a check fails, 2 for
input errors (unreadable, undecodable or unparsable files, torsion class
groups, rays that do not span or do not positively span, refused non-Calabi-Yau
input, an exponent past 32,767, the largest a packed monomial key holds
(polyalg.ExponentOverflow), an unwritable ``--out``, and the like), 3 for an
internal error: any other exception from the engine, whose traceback is
printed.
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, groupby
from pathlib import Path

from . import __version__
from .ffverify import (
    check_euler_identity,
    check_flat_f_axioms,
    check_fqm2,
    check_weight_homogeneity,
)
from .intlattice import TorsionClassGroup
from .jacobired import BasisIncomplete, jacobian_basis
from .polyalg import ExponentOverflow, Poly, parse_poly, render_poly
from .supercomplex import parse_super, render_super
from .toricring import (
    InhomogeneousHypersurface,
    InvalidInput,
    NotCalabiYau,
    RaysDoNotSpan,
    build_cayley_ring,
    is_calabi_yau,
)
from .unfolding import TABLES, UnfoldingState, check_complete, check_series, run

CHECKS = {
    "fqm2": check_fqm2,
    "axioms": check_flat_f_axioms,
    "weights": check_weight_homogeneity,
    "euler": check_euler_identity,
}
# report label of each check, and whether it needs an order >= 2 state (and
# then takes the report's one check_series)
CHECK_LABELS = {
    "fqm2": ("fqm2", True),
    "axioms": ("flat-f-axioms", True),
    "weights": ("weight-homogeneity", False),
    "euler": ("euler-identity", True),
}
CHECK_CHOICES = ("all",) + tuple(CHECKS)


class ProblemFormatError(ValueError):
    """Problem file rejected; message carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_INPUT_ERRORS = (
    ProblemFormatError,
    InvalidInput,
    TorsionClassGroup,
    RaysDoNotSpan,
    NotCalabiYau,
    InhomogeneousHypersurface,
    BasisIncomplete,
    ExponentOverflow,
)


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem: ray data, hypersurface terms, and run options."""

    rays: tuple
    hypersurfaces: tuple  # per hypersurface, a tuple of (Fraction, exponents)
    order: int
    monomial_order: str = "grevlex"
    checks: str = "all"
    retain_intermediates: bool = False


_TERM = re.compile(r"(-?\d+(?:/\d+)?)\s*\(([^()]*)\)")
_T_FACTOR = re.compile(r"t(\d+)(?:\^([1-9]\d*))?")


def _parse_ivec(token, what):
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise ValueError(f"{what}: expected a (…) tuple, got {token!r}")
    body = token[1:-1].replace(" ", "")
    if not body:
        raise ValueError(f"{what}: empty tuple")
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError:
        raise ValueError(f"{what}: bad integer tuple {token!r}") from None


def _parse_hypersurface(value, index, r):
    what = f"hypersurface {index}"
    terms = []
    for chunk in value.split("+"):
        chunk = chunk.strip()
        match = _TERM.fullmatch(chunk)
        if not match:
            raise ValueError(f"{what}: expected 'coeff (exponents)', got {chunk!r}")
        try:
            coeff = Fraction(match.group(1))
        except ZeroDivisionError:
            raise ValueError(f"{what}: zero denominator in {chunk!r}") from None
        exps = _parse_ivec("(" + match.group(2) + ")", what)
        if len(exps) != r:
            raise ValueError(f"{what}: expected {r} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"{what}: negative exponent in {chunk!r}")
        terms.append((coeff, exps))
    return tuple(terms)


def _parse_rays(value):
    rays = tuple(_parse_ivec(token, "rays") for token in value.split())
    if not rays:
        raise ValueError("rays: no tuples given")
    if len({len(ray) for ray in rays}) > 1:
        raise ValueError("rays: mixed dimensions")
    return rays


def _parse_order(value):
    try:
        order = int(value)
    except ValueError:
        raise ValueError(f"order: not an integer: {value!r}") from None
    if order < 1:
        raise ValueError("order must be at least 1")
    return order


def _one_of(key, values):
    """Parser of a value that must be a key of values; returns its entry."""

    def parse(value):
        if value not in values:
            raise ValueError(
                f"{key}: expected one of {', '.join(values)}, got {value!r}"
            )
        return values[value]

    return parse


# single-valued problem keys: ProblemFile field and value parser; the one
# repeatable key, hypersurface, is parsed on its own
_KEYS = {
    "rays": ("rays", _parse_rays),
    "order": ("order", _parse_order),
    "monomial-order": (
        "monomial_order",
        _one_of("monomial-order", {"grevlex": "grevlex"}),
    ),
    "checks": ("checks", _one_of("checks", {c: c for c in CHECK_CHOICES})),
    "retain-intermediates": (
        "retain_intermediates",
        _one_of("retain-intermediates", {"yes": True, "no": False}),
    ),
}


def parse_problem(text):
    """Parse problem text; raise ProblemFormatError with a line number."""
    fields = {}
    hypersurfaces = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if not sep:
                raise ValueError(f"expected 'key = value', got {line!r}")
            if key == "hypersurface":
                if "rays" not in fields:
                    raise ValueError("hypersurface given before rays")
                hypersurfaces.append(
                    _parse_hypersurface(
                        value, len(hypersurfaces) + 1, len(fields["rays"])
                    )
                )
            elif key in _KEYS:
                field, parse = _KEYS[key]
                if field in fields:
                    raise ValueError(f"duplicate {key} line")
                fields[field] = parse(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ProblemFormatError(lineno, str(exc)) from None
    last = len(lines) + 1
    if "rays" not in fields:
        raise ProblemFormatError(last, "missing rays line")
    if not hypersurfaces:
        raise ProblemFormatError(last, "missing hypersurface lines")
    if "order" not in fields:
        raise ProblemFormatError(last, "missing order line")
    return ProblemFile(hypersurfaces=tuple(hypersurfaces), **fields)


def _render_ivec(vec):
    return "(" + ",".join(str(v) for v in vec) + ")"


def render_problem(problem):
    """Canonical problem text; parse_problem(render_problem(p)) == p."""
    lines = ["rays = " + " ".join(_render_ivec(ray) for ray in problem.rays)]
    for terms in problem.hypersurfaces:
        lines.append(
            "hypersurface = "
            + " + ".join(f"{coeff} {_render_ivec(exps)}" for coeff, exps in terms)
        )
    lines.append(f"order = {problem.order}")
    lines.append(f"monomial-order = {problem.monomial_order}")
    lines.append(f"checks = {problem.checks}")
    lines.append(
        "retain-intermediates = "
        + ("yes" if problem.retain_intermediates else "no")
    )
    return "\n".join(lines) + "\n"


def _build_ring(problem):
    polys = []
    for terms in problem.hypersurfaces:
        acc = {}
        for coeff, exps in terms:
            acc[exps] = acc.get(exps, Fraction(0)) + coeff
        polys.append(Poly(acc))
    return build_cayley_ring(problem.rays, polys)


def _t_monomial(multi):
    parts = []
    for direction, block in groupby(multi):
        count = len(tuple(block))
        parts.append(f"t{direction}" if count == 1 else f"t{direction}^{count}")
    return "*".join(parts)


def _parse_t_monomial(text):
    out = []
    for token in text.split("*"):
        match = _T_FACTOR.fullmatch(token)
        if not match:
            raise ValueError(f"bad t-monomial {text!r}")
        out.extend([int(match.group(1))] * int(match.group(2) or 1))
    return tuple(sorted(out))


def _header_lines(kind):
    return [
        f"# toricff {kind} report",
        f"version = {__version__}",
        "convention.monomial-order = grevlex",
        "convention.witness-rule = rref-canonical",
        "convention.charge-basis = row-hermite",
    ]


def _problem_lines(problem):
    return ["[problem]"] + render_problem(problem).splitlines()


def _grading_lines(ring):
    lines = ["[grading]"]
    lines.append(f"n = {ring.n}")
    lines.append(f"r = {ring.r}")
    lines.append(f"k = {ring.k}")
    lines.append(f"rank = {ring.charge_rank}")
    for i, name in enumerate(ring.names):
        charge = ",".join(str(c) for c in ring.var_charges[i])
        lines.append(f"deg.{name} = ({charge} | {ring.var_weights[i]})")
    lines.append("c_B = (" + ",".join(str(c) for c in ring.c_B) + ")")
    lines.append("calabi-yau = " + ("yes" if is_calabi_yau(ring) else "no"))
    return lines


def _basis_lines(ring, basis):
    lines = ["[basis]"]
    lines.append("charge = (" + ",".join(str(c) for c in basis.charge) + ")")
    lines.append(f"max-weight = {basis.max_weight}")
    lines.append("dims = " + " ".join(str(d) for d in basis.dims))
    for i, mono in enumerate(basis.monomials):
        lines.append(f"basis.{i} = {render_poly(Poly.monomial(mono), ring.names)}")
        lines.append(f"basis.{i}.weight = {basis.weights[i]}")
        lines.append(f"basis.{i}.t-weight = {1 - basis.weights[i]}")
    return lines


def _table_lines(state):
    ring = state.ring
    dim = len(state.basis.monomials)
    sort_key = lambda multi: (len(multi), multi)
    # every multiset of a, lambda and the inputs keys u too: name each once
    names = {multi: _t_monomial(multi) for multi in state.u_table}
    lines = ["[tables]"]
    lines.append(f"order = {state.order}")
    for multi in sorted(state.u_table, key=sort_key):
        rendered = render_poly(state.u_table[multi], ring.names)
        lines.append(f"u.{names[multi]} = {rendered}")
    # a rows hold nonzero values only; the report format prints every rho,
    # the dim lines of a row as one string over a row of zeros
    zeros = [f"{rho} = 0" for rho in range(dim)]
    for multi in sorted(state.a_table, key=sort_key):
        cells = zeros.copy()
        for rho, value in state.a_table[multi].items():
            cells[rho] = f"{rho} = {value}"
        prefix = f"a.{names[multi]}."
        lines.append(prefix + ("\n" + prefix).join(cells))
    for multi in sorted(state.lam_table, key=sort_key):
        rendered = render_super(
            state.lam_table[multi], ring.names, ring.eta_names
        )
        lines.append(f"lambda.{names[multi]} = {rendered}")
    if state.inputs:
        for multi in sorted(state.inputs, key=sort_key):
            rendered = render_poly(state.inputs[multi], ring.names)
            lines.append(f"input.{names[multi]} = {rendered}")
    return lines


def _verification_lines(state, selection):
    """Run each selected check, or skip it below order 2; lines and status."""
    lines = ["[verification]"]
    passed = True
    series = None
    for key in CHECKS if selection == "all" else (selection,):
        label, needs_order_two = CHECK_LABELS[key]
        args = (state,)
        if needs_order_two:
            if state.order < 2:
                lines.append(f"check.{label} = skipped (needs order >= 2)")
                continue
            series = series or check_series(state)
            args = (state, series)
        report = CHECKS[key](*args)
        lines.append(f"check.{label} = " + ("pass" if report.passed else "fail"))
        lines.append(f"check.{label}.truncation = {report.truncation}")
        lines.append(f"check.{label}.cases = {report.cases}")
        if report.failure is not None:
            fail = report.failure
            lines.append(f"check.{label}.failure.site = {fail.site}")
            lines.append(
                f"check.{label}.failure.monomial = {_render_ivec(fail.monomial)}"
            )
            if fail.weight is not None:
                lines.append(f"check.{label}.failure.weight = {fail.weight}")
            lines.append(f"check.{label}.failure.residual = {fail.residual}")
        passed = passed and report.passed
    lines.append("status = " + ("pass" if passed else "fail"))
    return lines, passed


def _report(*sections):
    """The report text: every line of the sections, each ended by a newline,
    in one join, so the text is built once."""
    return "\n".join(chain(*sections, [""]))


def cmd_grading(problem):
    """Charge/weight summary of the ray data and hypersurface degrees."""
    ring = _build_ring(problem)
    return 0, _report(
        _header_lines("grading"), _problem_lines(problem), _grading_lines(ring)
    )


def cmd_basis(problem, allow_non_cy=False):
    """Graded quotient basis report with per-weight dimensions."""
    ring = _build_ring(problem)
    basis = jacobian_basis(ring, allow_non_cy=allow_non_cy)
    return 0, _report(
        _header_lines("basis"),
        _problem_lines(problem),
        _grading_lines(ring),
        _basis_lines(ring, basis),
    )


def cmd_unfold(problem):
    """Full unfolding run: tables to the requested order plus verification."""
    ring = _build_ring(problem)
    basis = jacobian_basis(ring)
    state = run(ring, basis, problem.order, debug=problem.retain_intermediates)
    check_lines, passed = _verification_lines(state, problem.checks)
    return (0 if passed else 1), _report(
        _header_lines("unfolding"),
        _problem_lines(problem),
        _grading_lines(ring),
        _basis_lines(ring, basis),
        _table_lines(state),
        check_lines,
    )


def _split_sections(text):
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections.setdefault(current, [])
        elif current is not None:
            sections[current].append(line)
    return sections


def ingest_report(text):
    """Rebuild the unfolding state from a report's tables, bit-exactly."""
    sections = _split_sections(text)
    if "problem" not in sections or "tables" not in sections:
        raise ValueError("report lacks [problem] or [tables] sections")
    problem = parse_problem("\n".join(sections["problem"]) + "\n")
    ring = _build_ring(problem)
    basis = jacobian_basis(ring, allow_non_cy=True)
    dim = len(basis.monomials)
    order = None
    tables = {"u": {}, "a": {}, "lambda": {}, "input": {}}
    seen = set()
    sizes = []  # (multiset size, line) of every table entry
    for line in sections["tables"]:
        try:
            key, sep, value = line.partition(" = ")
            if not sep:
                raise ValueError("expected 'key = value'")
            name, _, body = key.partition(".")
            if key != "order" and name not in tables:
                raise ValueError(f"unknown table key {key!r}")
            rho = None
            if name == "a":
                body, _, rho = body.rpartition(".")
                rho = int(rho)
                if rho not in range(dim):
                    raise ValueError(f"a index outside 0..{dim - 1}")
            multi = () if key == "order" else _parse_t_monomial(body)
            if any(j >= dim for j in multi):
                raise ValueError(f"direction outside t0..t{dim - 1}")
            if (name, multi, rho) in seen:
                raise ValueError("repeated table key")
            seen.add((name, multi, rho))
            spelled = f"{name}.{_t_monomial(multi)}"
            spelled += "" if rho is None else f".{rho}"
            if key not in ("order", spelled):
                raise ValueError(f"table key {key!r} is spelled {spelled!r}")
            sizes.append((len(multi), line))
            if name == "order":
                order = _parse_order(value)
            # the debug inputs are keyed, as a is, by the multisets step settles
            elif len(multi) < (smallest := TABLES.get(name, TABLES["a"])[1]):
                raise ValueError(f"{name} keys have at least {smallest} directions")
            elif name == "a":
                row = tables["a"].setdefault(multi, {})
                if coeff := Fraction(value):
                    row[rho] = coeff
            elif name == "lambda":
                tables[name][multi] = parse_super(value, ring.names, ring.eta_names)
            else:
                tables[name][multi] = parse_poly(value, ring.names)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{exc} in {line!r}") from None
    if order is None:
        raise ValueError("report tables lack an order line")
    for size, line in sizes:
        if size > order:
            raise ValueError(f"multiset beyond order {order} in {line!r}")
    state = UnfoldingState(
        ring=ring,
        basis=basis,
        order=order,
        t_weights=tuple(1 - w for w in basis.weights),
        u_table=tables["u"],
        a_table=tables["a"],
        lam_table=tables["lambda"],
        inputs=tables["input"] or None,
    )
    check_complete(state)
    return state


def _emit(text, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="toricff",
        description="Unfolding tables and flat F-manifold checks for "
        "hypersurfaces in toric varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_grading = sub.add_parser("grading", help="print the charge/weight summary")
    p_basis = sub.add_parser("basis", help="print the graded quotient basis")
    p_unfold = sub.add_parser("unfold", help="run the unfolding and its checks")
    for p in (p_grading, p_basis, p_unfold):
        p.add_argument("problem", help="path to a problem file")
        p.add_argument("--out", help="write the report here instead of stdout")
    p_basis.add_argument(
        "--allow-non-cy",
        action="store_true",
        help="take the basis at the anticanonical charge even when c_B != 0",
    )
    p_unfold.add_argument(
        "--order", type=int, help="override the truncation order"
    )
    p_unfold.add_argument(
        "--checks",
        choices=CHECK_CHOICES,
        help="override which verification checks run",
    )
    args = parser.parse_args(argv)
    try:
        text = Path(args.problem).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.problem}: {exc}", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
        if args.command == "grading":
            code, report = cmd_grading(problem)
        elif args.command == "basis":
            code, report = cmd_basis(problem, allow_non_cy=args.allow_non_cy)
        else:
            if args.order is not None:
                if args.order < 1:
                    raise InvalidInput("--order must be at least 1")
                problem = replace(problem, order=args.order)
            if args.checks is not None:
                problem = replace(problem, checks=args.checks)
            code, report = cmd_unfold(problem)
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    try:
        _emit(report, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
