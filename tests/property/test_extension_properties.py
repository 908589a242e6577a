"""Property-based tests for the extension components."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.detection import DefenseConfig, PongDefense
from repro.extensions.selfish import ProbeBudget


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),   # source
            st.integers(min_value=100, max_value=140),  # entry address
            st.sampled_from(["dead", "barren", "productive"]),
        ),
        max_size=150,
    )
)
@settings(max_examples=100)
def test_defense_blacklist_is_monotone(events):
    """Once blacklisted, a source never becomes trusted again."""
    defense = PongDefense(DefenseConfig(min_observations=3))
    ever_blacklisted = set()
    for source, entry, fate in events:
        defense.record_import(entry, source)
        if fate == "dead":
            defense.record_dead(entry)
        elif fate == "barren":
            defense.record_answer(entry, 0)
        else:
            defense.record_answer(entry, 1)
        for suspect in list(ever_blacklisted):
            assert defense.blocked(suspect)
        if defense.blocked(source):
            ever_blacklisted.add(source)


@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=50,
    ),
)
@settings(max_examples=100)
def test_probe_budget_never_negative_never_over_capacity(
    refill, capacity, operations
):
    """Credit stays within [0, capacity] under any spend/refill pattern."""
    budget = ProbeBudget(refill_rate=refill, capacity=capacity)
    now = 0.0
    for delay, probes in operations:
        now += delay
        available = budget.available(now)
        assert 0 <= available <= capacity
        budget.spend(now, probes)
        assert 0 <= budget.available(now) <= capacity


@given(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    st.floats(min_value=5.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=50)
def test_probe_budget_refill_rate_bounds_long_run_spending(refill, capacity):
    """Over a long horizon, admitted probes <= capacity + rate * time."""
    budget = ProbeBudget(refill_rate=refill, capacity=capacity)
    spent = 0
    horizon = 200.0
    step = 1.0
    now = 0.0
    while now < horizon:
        allowance = budget.available(now)
        budget.spend(now, allowance)
        spent += allowance
        now += step
    assert spent <= capacity + refill * horizon + 1
