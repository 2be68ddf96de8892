"""The no-regression verdict of tools/bench_pairs.py on one metric."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# base runs with median 10 and quartiles 9.5 and 10.5: spread 0.1 of the median
BASE = [9.0, 9.5, 10.0, 10.5, 11.0]


@pytest.mark.parametrize(
    "old, new, bound, lower, expected",
    [
        (BASE, [11.0, 12.0, 12.5, 13.0, 14.0], 0.25, True, "no regression"),
        (BASE, [11.0, 12.0, 12.6, 13.0, 14.0], 0.25, True, "regression"),
        (BASE, [9.0, 9.0, 9.0, 9.0, 9.0], 0.25, True, "no regression"),
        (BASE, [10.0] * 5, 0.05, True, "unresolved"),
        # every change run better than every base run resolves a wide spread
        (BASE, [8.9] * 5, 0.05, True, "no regression"),
        (BASE, [9.0, 7.5, 8.0, 7.0, 7.5], 0.25, False, "no regression"),
        (BASE, [7.0, 7.4, 7.4, 7.5, 7.6], 0.25, False, "regression"),
    ],
    ids=[
        "at-the-bound",
        "past-the-bound",
        "better",
        "wide-spread",
        "wide-spread-every-run-better",
        "higher-at-the-bound",
        "higher-past-the-bound",
    ],
)
def test_verdict(old, new, bound, lower, expected):
    assert _bench_pairs().verdict(old, new, bound, lower) == expected
