"""The per-metric verdict, gain and median change of tools/bench_pairs.py."""

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


# ten paired base runs with median 10 and quartiles 9.5 and 10.5: IQR 1
BASE10 = [9.0, 9.5, 10.0, 10.5, 11.0] * 2


def _shifted(by, changed=()):
    """BASE10 less by, except that pair i of changed runs at BASE10[i] + d."""
    new = [v - by for v in BASE10]
    for i, d in changed:
        new[i] = BASE10[i] + d
    return new


@pytest.mark.parametrize(
    "new, lower, expected",
    [
        (_shifted(2), True, "gain"),
        (_shifted(2, [(9, 1.0)]), True, "gain"),
        (_shifted(2, [(8, 1.0), (9, 1.0)]), True, "no gain shown"),
        (_shifted(2, [(9, 0.0)]), True, "gain"),
        (_shifted(2, [(8, 0.0), (9, 0.0)]), True, "no gain shown"),
        (_shifted(0.9), True, "no gain shown"),
        (_shifted(1.0), True, "no gain shown"),
        (_shifted(-2), False, "gain"),
        (_shifted(2), False, "no gain shown"),
    ],
    ids=[
        "every-pair-better",
        "nine-of-ten",
        "eight-of-ten",
        "one-tie",
        "two-ties",
        "gain-below-the-iqr",
        "gain-at-the-iqr",
        "higher-better",
        "higher-worse",
    ],
)
def test_gain(new, lower, expected):
    assert _bench_pairs().gain(BASE10, new, lower) == expected


@pytest.mark.parametrize(
    "old, new, expected",
    [
        (BASE, [9.0, 9.0, 9.0, 9.0, 9.0], -0.1),
        (BASE, [11.0, 12.0, 12.5, 13.0, 14.0], 0.25),
        (BASE, list(reversed(BASE)), 0.0),
        ([0.0] * 3, [1.0] * 3, None),
    ],
    ids=["lower", "higher", "same-median", "zero-base"],
)
def test_median_change(old, new, expected):
    got = _bench_pairs().median_change(old, new)
    assert got == expected if expected is None else got == pytest.approx(expected)
