"""Acceptance gate: one test per paper criterion, every tolerance exact.

Each test delegates to the named check in :mod:`gch.verify` (the same code
that backs ``gch verify --suite paper``) so the command line and the test
suite agree on what acceptance means.  Stated runtime budgets are asserted
where the criteria fix them.  The property checks against
:mod:`gch.oracle` (relabeling, automorphism counts, signs, enumeration,
ranks) are the module tests of the layers they check.
"""

import re
import time
from pathlib import Path

import pytest

from gch import verify


def _must_pass(fn, budget_seconds=None):
    start = time.time()
    detail = fn()
    elapsed = time.time() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.1f}s"
    return detail


def test_criterion_01_boundary_squared_zero_everywhere():
    detail = _must_pass(verify.check_boundary_squared, budget_seconds=300)
    print(f"criterion 1: {detail}")


def test_criterion_02_vanishing_table():
    detail = _must_pass(verify.check_vanishing_table)
    print(f"criterion 2: {detail}")


def test_criterion_03_small_commutative_homology():
    start = time.time()
    detail = _must_pass(verify.check_small_commutative_homology)
    assert time.time() - start < 60, "genus-3 homology should take seconds"
    print(f"criterion 3: {detail}")


def test_criterion_04_genus2_cells_contractible():
    detail = _must_pass(verify.check_moduli_genus2_contractible)
    print(f"criterion 4: {detail}")


def test_criterion_05_relative_cells_match_commutative():
    detail = _must_pass(verify.check_relative_cells_match_commutative)
    print(f"criterion 5: {detail}")


def test_criterion_06_one_loop_window():
    detail = _must_pass(verify.check_one_loop_window)
    print(f"criterion 6: {detail}")


def test_criterion_07_forested_genus2():
    detail = _must_pass(verify.check_forested_genus2)
    print(f"criterion 7: {detail}")


def test_criterion_08_cubical_commutative_experiment():
    detail = _must_pass(verify.check_cubical_commutative_experiment)
    print(f"criterion 8: {detail}")


def test_criterion_09_moduli_dimensions():
    detail = _must_pass(verify.check_moduli_dimensions)
    print(f"criterion 9: {detail}")


def test_criterion_10_ribbon_surfaces():
    detail = _must_pass(verify.check_ribbon_surfaces)
    print(f"criterion 10: {detail}")


def test_paper_suite_is_the_criteria():
    """The paper suite is exactly the ten checks, and each check is run by
    one criterion test of this module."""
    called = re.findall(r"verify\.(check_\w+)", Path(__file__).read_text())
    assert len(verify.PAPER_CHECKS) == 10
    assert sorted(called) == sorted(fn.__name__ for _, fn in verify.PAPER_CHECKS)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("property")
