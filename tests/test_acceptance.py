"""Acceptance gate: every criterion runs at its pinned size and must pass.

Run with `pytest tests/test_acceptance.py -v` (or `fourcolor suite`); one
pass/fail line prints per criterion. The helpers the criteria rely on are
checked here too.
"""

import random

import pytest

from conftest import find_odd_hole_bruteforce, random_graph
from fourcolor import complement, cycle, find_induced, suite


def test_odd_hole_detector_matches_the_bruteforce_reference():
    for n in (5, 7, 9):
        assert suite._find_odd_hole(cycle(n)) == tuple(range(n))
    assert suite._find_odd_hole(cycle(6)) is None
    assert suite._find_odd_hole(complement(cycle(7))) is None
    rng = random.Random(2024)
    holes = 0
    for trial in range(300):
        g = random_graph(rng, 5 + trial % 5, 0.2 + 0.1 * (trial % 5))
        hole = suite._find_odd_hole(g)
        assert hole == find_odd_hole_bruteforce(g)
        # A10 relies on this: shortest first, so a 5-hole is an induced C5
        assert (hole is not None and len(hole) == 5) == (find_induced(g, "C5") is not None)
        holes += hole is not None
    assert holes >= 30


@pytest.mark.parametrize("cid", [c for c, _, _ in suite.CRITERIA])
def test_criterion(cid):
    result = suite.run_one(cid)
    print(result.line())
    assert result.passed, result.detail
