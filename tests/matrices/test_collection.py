"""Tests for the synthetic matrix collection."""

import pytest

from repro.matrices.collection import SCALES, default_collection


class TestCollection:
    def test_tiny_scale(self):
        mats = default_collection("tiny")
        assert len(mats) >= 6
        names = [m.name for m in mats]
        assert len(set(names)) == len(names)  # unique names

    def test_ufl_like_filters(self):
        """Every matrix satisfies the paper's structural filters
        (square, symmetric pattern; density is scale-dependent)."""
        for m in default_collection("tiny"):
            a = m.matrix
            assert a.shape[0] == a.shape[1]
            assert (a != a.T).nnz == 0
            assert a.nnz / a.shape[0] >= 1.5  # nonzeros per row

    def test_deterministic(self):
        a = default_collection("tiny", seed=11)
        b = default_collection("tiny", seed=11)
        for ma, mb in zip(a, b):
            assert ma.name == mb.name
            assert (ma.matrix != mb.matrix).nnz == 0

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            default_collection("huge")

    def test_scales_increase(self):
        assert SCALES["tiny"] < SCALES["small"] < SCALES["medium"]
