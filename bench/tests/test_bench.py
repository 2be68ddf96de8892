"""Tests of the benchmark itself: problem generator, gate and tracer.

Run from the repository root with ``python3 -m pytest bench/tests``. The
traced-workload tests start real ``toricff`` children, one per workload, and
take about a minute.
"""

import importlib.util
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from toricff.cli import ProblemFile, parse_problem, render_problem  # noqa: E402

WORKLOADS = problems.WORKLOADS

# the workload on which each span must fire
SPAN_WORKLOAD = {
    "cli.cmd_unfold": "ci22-deep",
    "cli.cmd_basis": "cy33-basis",
    "jacobired.ideal_piece": "cy33-basis",
    "jacobired.jacobian_basis": "cy33-basis",
    "jacobired.reduce_with_witness": "ci22-deep",
    "toricring.build_cayley_ring": "cy33-basis",
    "toricring.enumerate_graded_piece": "cy33-basis",
    "intlattice.smith_normal_form": "cy33-basis",
    "intlattice.enumerate_lattice_points": "cy33-basis",
    "unfolding.run": "ci22-deep",
    "unfolding.step": "ci22-deep",
    "unfolding.structure_series": "k3-verify",
    "unfolding.gamma_series": "ci22-deep",
    "unfolding.gamma_partial": "k3-verify",
    "unfolding.lambda_series": "k3-verify",
    "supercomplex.q_f": "ci22-deep",
    "supercomplex.q_s": "ci22-deep",
    "supercomplex.delta": "ci22-deep",
    "ffverify.check_fqm2": "ci22-deep",
    "ffverify.check_flat_f_axioms": "k3-verify",
    "ffverify.check_weight_homogeneity": "ci22-deep",
    "ffverify.check_euler_identity": "ci22-deep",
}


def _fixtures():
    spec = importlib.util.spec_from_file_location("repo_fixtures", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problem(rays, polys, order):
    return ProblemFile(
        rays=tuple(rays),
        hypersurfaces=tuple(
            tuple((coeff, exps) for exps, coeff in poly.terms.items()) for poly in polys
        ),
        order=order,
    )


def test_seed_zero_reproduces_the_fixtures():
    fx = _fixtures()
    cy33 = [
        fx.xpoly(6, {tuple(3 * (i == j) for j in range(6)): c for i, c in enumerate(coeffs)})
        for coeffs in ((1,) * 6, (1, 2, 3, 4, 5, 6))
    ]
    expected = {
        "ci22-deep": _problem(fx.P3_RAYS, [fx.CI_Q1, fx.CI_Q2], 40),
        "k3-verify": _problem(fx.P3_RAYS, [fx.fermat(4, 4)], 2),
        "cy33-basis": _problem(problems.rays(5), cy33, 1),
    }
    for name, problem in expected.items():
        text = problems.problem_text(WORKLOADS[name], 0)
        assert text == render_problem(problem)
        assert parse_problem(text) == problem


def test_generated_coefficients_are_seeded_and_quasi_smooth():
    for workload in WORKLOADS.values():
        for seed in range(1, 200):
            coeffs = problems.coefficients(workload, seed)
            assert coeffs == problems.coefficients(workload, seed)
            assert len(coeffs) == len(workload.seed0)
            assert all(1 <= c <= 9 for eq in coeffs for c in eq)
            if len(coeffs) == 2:
                ratios = [Fraction(a, b) for a, b in zip(*coeffs)]
                assert len(set(ratios)) == len(ratios)
        assert len({problems.coefficients(workload, s) for s in range(1, 50)}) > 40


def test_self_times_subtract_direct_children():
    spans = [
        ("cli.cmd_unfold", 0.0, 10.0, -1, {"report_bytes": 5}),
        ("unfolding.run", 1.0, 7.0, 0, None),
        ("unfolding.step", 2.0, 4.0, 1, None),
        ("unfolding.step", 4.0, 5.0, 1, None),
        ("ffverify.check_fqm2", 7.0, 9.0, 0, {"cases": 3}),
    ]
    assert tracer.self_times(spans) == [2.0, 3.0, 2.0, 1.0, 2.0]
    metrics = tracer.layer_metrics(spans)
    assert metrics["unfolding.step.calls"] == 2
    assert metrics["unfolding.step.self_s"] == 3.0
    assert metrics["unfolding.run.s"] == 6.0
    assert metrics["ffverify.fqm2.cases"] == 3
    assert metrics["cli.self_s"] == 2.0
    assert metrics["cli.report_bytes"] == 5


BINDING_SCRIPT = """
import json, sys, tracer
originals = tracer.install(tracer.Tracer())
values = []
for name, module in sys.modules.items():
    if name.split(".")[0] == "toricff":
        for value in vars(module).values():
            values.extend(value.values() if isinstance(value, dict) else [value])
left = [".".join(key) for key, (fn, _) in originals.items() if any(v is fn for v in values)]
sites = {".".join(key): n for key, (_, n) in originals.items()}
print(json.dumps([left, sites]))
"""


def test_every_binding_site_is_wrapped():
    out = subprocess.run(
        [sys.executable, "-c", BINDING_SCRIPT],
        cwd=BENCH,
        env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}"},
        capture_output=True,
        text=True,
        check=True,
    )
    left, sites = json.loads(out.stdout)
    assert left == []
    assert set(sites) == set(tracer.SPAN_NAMES)
    assert all(n >= 1 for n in sites.values())
    # ffverify, its from-imports in cli and the package, and cli.CHECKS
    assert sites["ffverify.check_fqm2"] == 4
    assert sites["jacobired.reduce_with_witness"] == 3  # jacobired, unfolding, package


def _run(name, tmp_path_factory, workdir=None):
    workdir = workdir or tmp_path_factory.mktemp(name)
    bench_run = run.Run(WORKLOADS[name], 0, workdir, time.monotonic() + run.RUN_LIMIT_S)
    bench_run.problem.write_text(problems.problem_text(WORKLOADS[name], 0))
    return bench_run


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced seed-0 run of every workload, plus a plain ci22-deep run."""
    runs = {}
    for name in WORKLOADS:
        bench_run = _run(name, tmp_path_factory)
        if name == "ci22-deep":
            bench_run.spawn("run")
        bench_run.spawn("trace")
        runs[name] = bench_run
    return runs


def test_traced_runs_pass_the_gate_and_match_untraced(traced):
    for name, bench_run in traced.items():
        assert bench_run.failed == 0, bench_run.records
        trace = bench_run.records[-1]
        assert trace["sha256"] == gate.EXPECTED[name]["seed0_sha256"]
    ci22 = traced["ci22-deep"].records
    assert ci22[0]["sha256"] == ci22[1]["sha256"]


def test_every_span_fires_on_its_workload(traced):
    assert set(SPAN_WORKLOAD) == set(tracer.SPAN_NAMES)
    for span, name in SPAN_WORKLOAD.items():
        child = traced[name].children[-1]
        fired = [s for s in child.stamps["spans"] if s[0] == span]
        assert fired, f"{span} never fired on {name}"


def test_dominant_layers_take_their_share(traced):
    for name, metric in (
        ("cy33-basis", "jacobired.ideal_piece.self_s"),
        ("k3-verify", "ffverify.flat-f-axioms.self_s"),
    ):
        child = traced[name].children[-1]
        share = tracer.layer_metrics(child.stamps["spans"])[metric] / child.solve_s
        assert share >= 0.9, (name, metric, share)


@pytest.fixture(scope="module")
def ci22_report(traced):
    return (traced["ci22-deep"].workdir / "report.txt").read_bytes()


def test_pristine_report_passes(ci22_report):
    assert gate.check_run(WORKLOADS["ci22-deep"], 0, 0, "", ci22_report) == []


def test_flipped_table_byte_fails(ci22_report):
    at = ci22_report.index(b"\na.t0^2.0 = ") + len(b"\na.t0^2.0 = ")
    flipped = ci22_report[:at] + bytes([ci22_report[at] ^ 1]) + ci22_report[at + 1 :]
    assert flipped != ci22_report
    assert gate.check_run(WORKLOADS["ci22-deep"], 0, 0, "", flipped)
    # an unpinned seed is held to the digest of its first run
    reference = gate.digest(ci22_report)
    assert gate.check_run(WORKLOADS["ci22-deep"], 7, 0, "", flipped, reference)


def test_failing_status_fails(ci22_report):
    failing = ci22_report.replace(b"status = pass", b"status = fail")
    assert any("status" in p for p in gate.check_run(WORKLOADS["ci22-deep"], 0, 1, "", failing))


def test_wrong_exit_code_and_traceback_fail(ci22_report):
    assert gate.check_run(WORKLOADS["ci22-deep"], 0, 1, "", ci22_report)
    assert gate.check_run(WORKLOADS["ci22-deep"], 0, 0, "Traceback (most", ci22_report)
    assert gate.check_run(WORKLOADS["ci22-deep"], 0, 0, "", None)


FAKE_CLI = """
from pathlib import Path

def parse_problem(text):
    return text

def _emit(text, out_path):
    Path(out_path).write_bytes(text)

def main(argv):
    parse_problem(Path(argv[1]).read_text())
    _emit(Path(__file__).with_name("report.bin").read_bytes(), argv[3])
    return 0
"""


def test_corrupted_report_is_counted_as_failed(ci22_report, tmp_path, monkeypatch):
    fake = tmp_path / "src" / "toricff"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(FAKE_CLI)
    monkeypatch.setattr(run, "SRC", fake.parent)
    bench_run = _run("ci22-deep", tmp_path_factory=None, workdir=tmp_path)
    at = ci22_report.index(b"\nu.t1^3 = ") + len(b"\nu.t1^3 = ")
    for report, failed in (
        (ci22_report, 0),
        (ci22_report[:at] + b"7" + ci22_report[at + 1 :], 1),
        (ci22_report.replace(b"status = pass", b"status = fail"), 2),
    ):
        (fake / "report.bin").write_bytes(report)
        bench_run.spawn("run")
        assert bench_run.failed == failed, bench_run.records[-1]
