"""Correctness gate for one ``toricff`` report.

A run passes when the exit code is 0, stderr holds no traceback, the report
says ``status = pass`` (unfold reports), the ``dims`` line and every
``check.*.cases`` count are as expected, and the sha256 of the report equals
the expected digest. For seed 0 the expected digest is the pinned one in
expected.json, taken from the report ``toricff`` produced when the benchmark
was defined; for other seeds it is the digest of the first run of the same
problem, so every repetition must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

_TERM_SEP = re.compile(r" [+-] ")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def _terms(rendered):
    return 0 if rendered == "0" else 1 + len(_TERM_SEP.findall(rendered))


def expected_cases(dims, order, table_terms):
    """Case counts of the four checks, derived from dims, order and tables.

    ``table_terms`` is the number of terms over all u and lambda entries;
    the weight-homogeneity check visits each one plus every direction.
    """
    dim = sum(dims)
    pairs = dim * (dim + 1) // 2
    multisets = comb(dim + order, order) - 1 - dim  # sizes 2..order
    axioms = dim * dim * (dim - 1) // 2 + dim * dim + dim * dim * pairs
    if order >= 3:
        axioms += dim * dim * dim * (dim - 1) // 2
    return {
        "fqm2": str(multisets + pairs),
        "flat-f-axioms": str(axioms),
        "weight-homogeneity": str(dim + table_terms),
        "euler-identity": str(2 * dim),
    }


def parse_report(text):
    """Key/value lines of a report; ``table_terms`` counts u/lambda terms."""
    values = {}
    table_terms = 0
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        values[key] = value
        if key.startswith(("u.", "lambda.")):
            table_terms += _terms(value)
    return values, table_terms


def check_run(workload, seed, code, stderr, report, reference=None):
    """Return the list of problems with one run; empty means it passed.

    ``reference`` is the digest an unpinned seed must reproduce.
    """
    spec = EXPECTED[workload.name]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if report is None:
        return problems + ["no report written"]
    values, table_terms = parse_report(report.decode())
    dims = values.get("dims")
    if dims != spec["dims"]:
        problems.append(f"dims {dims!r}, expected {spec['dims']!r}")
    if workload.command == "unfold":
        if values.get("status") != "pass":
            problems.append(f"status {values.get('status')!r}")
        if dims == spec["dims"]:
            wanted = expected_cases(
                [int(d) for d in dims.split()], workload.order, table_terms
            )
            for check, cases in wanted.items():
                got = values.get(f"check.{check}.cases")
                if got != cases:
                    problems.append(f"check.{check}.cases {got!r}, expected {cases}")
    want = spec["seed0_sha256"] if seed == 0 else reference
    if want is not None and digest(report) != want:
        problems.append("report digest differs from " + ("the pin" if seed == 0 else "run 1"))
    return problems
