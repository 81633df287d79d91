"""Tests for deterministic seed derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import (
    derive_seed,
    make_rng,
    stable_hash,
    stable_unit,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "frame", 3) == derive_seed(42, "frame", 3)

    def test_differs_by_component(self):
        assert derive_seed(42, "frame", 3) != derive_seed(42, "frame", 4)

    def test_differs_by_base(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_differs_by_component_name(self):
        assert derive_seed(1, "frame", 0) != derive_seed(1, "draw", 0)

    def test_no_components(self):
        assert derive_seed(5) == derive_seed(5)

    def test_rejects_non_int_base(self):
        with pytest.raises(TypeError):
            derive_seed("nope")  # type: ignore[arg-type]

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_in_range(self, base, component):
        seed = derive_seed(base, component)
        assert 0 <= seed < 2**63 - 1

    def test_component_boundary_not_ambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7, "gen").random(5)
        b = make_rng(7, "gen").random(5)
        assert np.array_equal(a, b)

    def test_different_paths_different_streams(self):
        a = make_rng(7, "gen", 0).random(5)
        b = make_rng(7, "gen", 1).random(5)
        assert not np.array_equal(a, b)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_unit_in_range(self):
        for i in range(100):
            u = stable_unit("draw", i)
            assert 0.0 <= u < 1.0

    @given(st.lists(st.integers(), min_size=1, max_size=5))
    def test_unit_deterministic(self, parts):
        assert stable_unit(*parts) == stable_unit(*parts)
