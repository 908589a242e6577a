"""Property tests for the named-RNG-stream registry (repro.sim.rng).

The two guarantees the determinism contract leans on:

* **Stream independence** — drawing from stream A never perturbs stream
  B's sequence, however the draws are interleaved (so adding a new
  consumer of randomness cannot silently change existing results);
* **Replayability** — re-registering the same master seed replays every
  stream identically, in any instantiation order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, derive_seed

stream_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


@given(
    seed=seeds,
    name_a=stream_names,
    name_b=stream_names,
    interleave=st.lists(st.booleans(), min_size=1, max_size=30),
)
@settings(max_examples=80)
def test_drawing_from_one_stream_never_perturbs_another(
    seed, name_a, name_b, interleave
):
    if name_a == name_b:
        return
    # Reference: stream A drawn alone.
    alone = RngRegistry(seed)
    expected = [
        alone.stream(name_a).random() for flag in interleave if flag
    ]
    # Same draws from A, with draws from B interleaved arbitrarily.
    mixed = RngRegistry(seed)
    observed = []
    for flag in interleave:
        if flag:
            observed.append(mixed.stream(name_a).random())
        else:
            mixed.stream(name_b).random()
    assert observed == expected


@given(
    seed=seeds,
    names=st.lists(stream_names, min_size=1, max_size=6, unique=True),
    draws=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=80)
def test_same_master_seed_replays_all_streams(seed, names, draws):
    first = RngRegistry(seed)
    replay = RngRegistry(seed)
    # Instantiate in opposite orders: creation order must not matter.
    sequences = {
        name: [first.stream(name).random() for _ in range(draws)]
        for name in names
    }
    for name in reversed(names):
        assert [
            replay.stream(name).random() for _ in range(draws)
        ] == sequences[name]


@given(seed=seeds, name=stream_names)
@settings(max_examples=80)
def test_derive_seed_is_pure(seed, name):
    assert derive_seed(seed, name) == derive_seed(seed, name)
    assert 0 <= derive_seed(seed, name) < 2**64


@given(seed=seeds, name_a=stream_names, name_b=stream_names)
@settings(max_examples=80)
def test_distinct_names_get_distinct_seeds(seed, name_a, name_b):
    if name_a == name_b:
        return
    assert derive_seed(seed, name_a) != derive_seed(seed, name_b)
