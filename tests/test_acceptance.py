"""Acceptance criteria: the registry of hypflow.selftest at full size.

Each test runs one criterion with its historic seed (criteria 1 and 5-8 draw
nothing), prints a [PASS]/[FAIL] line (see -s / -rA) and enforces its budget.
"""
import numpy as np

from hypflow.selftest import CRITERIA, run_criterion

# criterion number -> (seed, wall-clock budget in s)
_SEED_BUDGET = {
    1: (0, 1.0),
    2: (0xC0FFEE, 30.0),
    3: (0xBEEF, 60.0),
    4: (0xD15C, 10.0),
    5: (0, 120.0),
    6: (0, 30.0),
    7: (0, 120.0),
    8: (0, 5.0),
    9: (0x3A71, 120.0),
    10: (0xFADE, 10.0),
}


def _run(number: int) -> None:
    seed, budget_s = _SEED_BUDGET[number]
    try:
        result = run_criterion(number - 1, np.random.default_rng(seed))
    except BaseException:
        print(f"[FAIL] {CRITERIA[number - 1][0]}")
        raise
    status = "PASS" if result.passed and result.elapsed_s < budget_s else "FAIL"
    print(f"[{status}] {result.name}  ({result.elapsed_s:.2f}s / budget {budget_s:.0f}s)")
    assert result.passed, result.failures
    assert result.elapsed_s < budget_s, f"runtime budget exceeded: {result.elapsed_s:.2f}s >= {budget_s}s"


def test_criterion_1_sharp_constant_gaussian():
    _run(1)


def test_criterion_2_continuous_monotonicity():
    _run(2)


def test_criterion_3_three_evaluator_equivalence():
    _run(3)


def test_criterion_4_discrete_monotonicity():
    _run(4)


def test_criterion_5_convergence_rate():
    _run(5)


def test_criterion_6_beckner_expansion():
    _run(6)


def test_criterion_7_two_point_structure():
    _run(7)


def test_criterion_8_gaussian_flow_constancy():
    _run(8)


def test_criterion_9_exponential_family_pipeline():
    _run(9)


def test_criterion_10_infrastructure():
    _run(10)
