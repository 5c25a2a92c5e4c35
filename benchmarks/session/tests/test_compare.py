"""compare.py's verdicts follow the rule its docstring states."""

import pytest

from compare import spread, verdict

pytestmark = pytest.mark.bench

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def scaled(values, factor):
    return [value * factor for value in values]


def test_within_the_bound_is_the_same():
    assert verdict(STEADY, scaled(STEADY, 1.04), "lower", 0.05) == "same"


def test_identical_readings_are_the_same_whatever_their_spread():
    noisy = [80.0, 95.0, 100.0, 105.0, 120.0]  # one value per seed, say
    assert verdict(noisy, list(reversed(noisy)), "lower", 0.05) == "same"


def test_outside_the_bound_takes_the_metric_direction():
    assert verdict(STEADY, scaled(STEADY, 1.10), "lower", 0.05) == "worse"
    assert verdict(STEADY, scaled(STEADY, 0.90), "lower", 0.05) == "better"
    assert verdict(STEADY, scaled(STEADY, 0.90), "higher", 0.05) == "worse"
    assert verdict(STEADY, scaled(STEADY, 1.10), "higher", 0.05) == "better"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_separated():
    noisy = [80.0, 95.0, 100.0, 105.0, 120.0]
    assert spread(noisy) > 0.05
    assert verdict(noisy, scaled(noisy, 1.10), "lower", 0.05) == "unresolved"
    assert verdict(noisy, scaled(noisy, 2.0), "lower", 0.05) == "worse"
    assert verdict(noisy, scaled(noisy, 0.5), "lower", 0.05) == "better"


def test_a_single_run_per_side_has_no_spread():
    assert verdict([100.0], [120.0], "lower", 0.1) == "worse"
    assert verdict([100.0], [105.0], "lower", 0.1) == "same"
