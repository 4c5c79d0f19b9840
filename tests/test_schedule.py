import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tsdm.schedule import (
    Subsequence,
    VarianceSchedule,
    linear_schedule,
    make_subsequence,
)


# ------------------------------------------------------------ construction

def test_linear_schedule_default_terminal_is_near_noise():
    sched = linear_schedule(100)
    assert sched.alpha_bar_at(100) < 0.1


def test_linear_schedule_single_step():
    sched = linear_schedule(1, 0.02, 0.5)
    np.testing.assert_allclose(sched.beta, [0.02])
    np.testing.assert_allclose(sched.alpha_bar, [0.98])


def test_linear_schedule_endpoints_inclusive():
    sched = linear_schedule(7, 0.001, 0.3)
    assert sched.beta[0] == pytest.approx(0.001, abs=0)
    assert sched.beta[-1] == pytest.approx(0.3, abs=0)


@pytest.mark.parametrize(
    "n, start, end",
    [(0, 1e-4, 0.05), (10, 0.0, 0.05), (10, 1e-4, 1.0), (10, 0.05, 1e-4), (10, 0.05, 0.05)],
)
def test_linear_schedule_rejects_bad_ranges(n, start, end):
    with pytest.raises(ValueError):
        linear_schedule(n, start, end)


def test_schedule_rejects_nonincreasing_betas():
    with pytest.raises(ValueError):
        VarianceSchedule.from_betas(np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        VarianceSchedule.from_betas(np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        VarianceSchedule.from_betas(np.array([0.0, 0.1]))



def test_schedule_refuses_alpha_bar_that_underflows_or_stalls():
    with pytest.raises(ValueError) as err:
        linear_schedule(2000, 1e-4, 0.99)
    assert str(err.value) == "alpha_bar reaches 0 at step 1463 of 2000"
    # 1 - 1e-17 rounds to 1.0, so both steps give alpha_bar == 1.0
    with pytest.raises(ValueError) as err:
        VarianceSchedule.from_betas(np.array([1e-17, 2e-17]))
    assert str(err.value) == "alpha_bar stops decreasing at step 2 of 2"


def test_alpha_bar_product_identity_and_monotonicity():
    sched = linear_schedule(100)
    ab = sched.alpha_bar
    assert np.all((ab > 0) & (ab < 1))
    assert np.all(np.diff(ab) < 0)
    recur = np.concatenate([[1.0], ab[:-1]]) * (1.0 - sched.beta)
    np.testing.assert_allclose(ab, recur, rtol=1e-15)


def test_alpha_bar_zero_anchor_is_one():
    sched = linear_schedule(5)
    assert sched.alpha_bar_at(0) == 1.0
    assert sched.alpha_bar_at(1) == pytest.approx(1.0 - sched.beta[0], rel=1e-15)


def test_accessors_are_one_based_and_range_checked():
    sched = linear_schedule(10)
    assert sched.N == 10
    for bad in (-1, 11):
        with pytest.raises(ValueError):
            sched.alpha_bar_at(bad)


@pytest.mark.parametrize("n, first", [(-1, 0), (11, 0), (0, 1), (11, 1)])
def test_alpha_bar_at_refuses_steps_outside_first_to_n(n, first):
    with pytest.raises(ValueError) as err:
        linear_schedule(10).alpha_bar_at(n, first)
    assert str(err.value) == f"step {n} outside {first}..10"


def test_alpha_bar_at_first_bound_keeps_the_values_inside():
    sched = linear_schedule(10)
    assert sched.alpha_bar_at(0, 0) == 1.0
    for n in (1, 5, 10):
        assert (sched.alpha_bar_at(n, 1) == sched.alpha_bar_at(n)
                == sched.alpha_bar[n - 1])


# ---------------------------------------------------------- make_subsequence

def test_make_subsequence_ten_of_hundred():
    sub = make_subsequence(100, 10)
    np.testing.assert_array_equal(sub.tau, np.arange(10, 101, 10))
    assert sub.s == 10


def test_make_subsequence_identity_and_single_jump():
    np.testing.assert_array_equal(make_subsequence(7, 7).tau, np.arange(1, 8))
    np.testing.assert_array_equal(make_subsequence(100, 1).tau, [100])


def test_make_subsequence_non_divisible_ends_at_n():
    sub = make_subsequence(10, 3)
    assert sub.tau[-1] == 10
    assert np.all(np.diff(sub.tau) > 0)
    assert sub.tau[0] >= 1


def test_make_subsequence_rejects_bad_s():
    with pytest.raises(ValueError):
        make_subsequence(10, 11)
    with pytest.raises(ValueError):
        make_subsequence(10, 0)


def test_make_subsequence_quadratic_strategy():
    sub = make_subsequence(100, 10, strategy="quadratic")
    assert sub.tau[-1] == 100
    assert np.all(np.diff(sub.tau) > 0)
    # early steps cluster near 1, late steps stretch out
    assert sub.tau[0] < 10
    assert sub.tau[-1] - sub.tau[-2] > sub.tau[1] - sub.tau[0]
    with pytest.raises(ValueError):
        make_subsequence(10, 3, strategy="cosine")


def test_subsequence_type_validates():
    with pytest.raises(ValueError):
        Subsequence(np.array([3, 2, 10]), 10)
    with pytest.raises(ValueError):
        Subsequence(np.array([0, 5, 10]), 10)
    with pytest.raises(ValueError):
        Subsequence(np.array([1, 5, 9]), 10)


def test_subsequence_level_maps_a_position_to_its_step():
    sub = make_subsequence(100, 10)
    assert [sub.level(i) for i in range(1, 11)] == list(range(10, 101, 10))
    assert sub.level(2, 2) == 20 and sub.level(10, 2) == 100
    assert type(sub.level(1)) is int


@pytest.mark.parametrize("i, first", [(0, 1), (11, 1), (1, 2), (11, 2)])
def test_subsequence_level_refuses_positions_outside_first_to_s(i, first):
    with pytest.raises(ValueError) as err:
        make_subsequence(100, 10).level(i, first)
    assert str(err.value) == f"subsequence position {i} outside {first}..10"


# ------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    start=st.floats(1e-6, 0.4),
    spread=st.floats(1e-6, 0.5),
)
def test_property_every_schedule_satisfies_invariants(n, start, spread):
    sched = linear_schedule(n, start, start + spread)
    ab = sched.alpha_bar
    assert ab.shape == (n,)
    assert np.all((ab > 0) & (ab < 1))
    if n > 1:
        assert np.all(np.diff(sched.beta) > 0)
        assert np.all(np.diff(ab) < 0)
    recur = np.concatenate([[1.0], ab[:-1]]) * (1.0 - sched.beta)
    np.testing.assert_allclose(ab, recur, rtol=1e-14)
    # the DDPM posterior variance stays below the previous level's noise
    posterior = (1.0 - ab[:-1]) / (1.0 - ab[1:]) * sched.beta[1:]
    assert np.all(posterior <= 1.0 - ab[:-1] + 1e-15)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5000),
       ends=st.lists(st.floats(0.0, 0.999, exclude_min=True), min_size=2,
                     max_size=2, unique=True).map(sorted))
@example(n=2000, ends=[1e-4, 0.99])
@example(n=2, ends=[1e-17, 2e-17])
def test_property_schedule_constructs_or_names_the_first_bad_step(n, ends):
    start, end = ends
    betas = np.linspace(start, end, n)
    assume(np.all(np.diff(betas) > 0))
    ab = np.cumprod(1.0 - betas)
    try:
        sched = linear_schedule(n, start, end)
    except ValueError as e:
        m = re.fullmatch(r"alpha_bar (reaches 0|stops decreasing) "
                         r"at step (\d+) of (\d+)", str(e))
        assert m and int(m[3]) == n, str(e)
        k = int(m[2])
        assert np.all(ab[:k - 1] > 0) and np.all(np.diff(ab[:k - 1]) < 0)
        if m[1] == "reaches 0":
            assert ab[k - 1] == 0
        else:
            assert k >= 2 and 0 < ab[k - 2] <= ab[k - 1]
    else:
        assert np.all(sched.alpha_bar > 0)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        np.testing.assert_array_equal(sched.alpha_bar, ab)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 300))
def test_property_subsequences_are_valid(data, n):
    s = data.draw(st.integers(1, n))
    sub = make_subsequence(n, s)
    assert sub.s == s == len(sub.tau)
    assert sub.tau[-1] == n
    assert sub.tau[0] >= 1
    assert np.all(np.diff(sub.tau) > 0)
