"""Seed derivation: stability, injectivity on tagged parts, generator reuse."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plastiscan.rng import derive_seed, seeded_rng


def test_derive_seed_is_stable_across_calls() -> None:
    assert derive_seed(42, "tree", 7) == derive_seed(42, "tree", 7)


def test_derive_seed_output_is_64_bit() -> None:
    for parts in [(0,), ("x",), (2**70, "y", -3)]:
        seed = derive_seed(*parts)
        assert 0 <= seed < 2**64


def test_derive_seed_distinguishes_int_from_string() -> None:
    assert derive_seed(1) != derive_seed("1")


def test_derive_seed_distinguishes_concatenation() -> None:
    # Length prefixes prevent ("ab", "c") from colliding with ("a", "bc").
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(12, 3) != derive_seed(1, 23)


def test_derive_seed_rejects_bool_and_other_types() -> None:
    with pytest.raises(TypeError):
        derive_seed(True)
    with pytest.raises(TypeError):
        derive_seed(1.5)


def test_seeded_rng_streams_are_independent_and_reproducible() -> None:
    a1 = seeded_rng(0, "split").normal(size=8)
    a2 = seeded_rng(0, "split").normal(size=8)
    b = seeded_rng(0, "tune").normal(size=8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# 51 part tuples: the package's purposes at three seeds, and odd-sized parts.
STREAM_PARTS = [
    (seed, purpose, i)
    for seed in (0, 1, 987654)
    for purpose in ("tree", "split", "cv-folds", "permutation")
    for i in range(4)
] + [(0,), ("x",), (2**70, "y", -3)]


@pytest.mark.parametrize("parts", STREAM_PARTS)
def test_seeded_rng_is_the_philox_stream_keyed_by_derive_seed(parts) -> None:
    got = seeded_rng(*parts)
    want = np.random.Generator(np.random.Philox(key=derive_seed(*parts)))
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert got.random(1000).tobytes() == want.random(1000).tobytes()


@given(
    st.lists(
        st.one_of(st.integers(-(2**80), 2**80), st.text(max_size=20)),
        min_size=1,
        max_size=5,
    )
)
def test_derive_seed_deterministic_property(parts) -> None:
    assert derive_seed(*parts) == derive_seed(*parts)
