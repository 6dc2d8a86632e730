"""The bitset minimum degree and nested dissection against the set-based
orderings they replaced (``min_degree_reference``): the same permutation
on every pattern, ties included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices.collection import default_collection
from repro.matrices.ordering import minimum_degree, nested_dissection
from tests.matrices import min_degree_reference as ref
from tests.matrices.patterns import EDGE_CASES, symmetric_patterns

LEAF_SIZES = [1, 2, 4, 32]


def same(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_minimum_degree_edge_cases(name):
    a = EDGE_CASES[name]
    same(minimum_degree(a), ref.minimum_degree(a))


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_nested_dissection_edge_cases(name, leaf_size):
    a = EDGE_CASES[name]
    same(nested_dissection(a, leaf_size), ref.nested_dissection(a, leaf_size))


@settings(max_examples=300, deadline=None)
@given(symmetric_patterns(max_nodes=40))
def test_minimum_degree_matches_reference(a):
    same(minimum_degree(a), ref.minimum_degree(a))


@settings(max_examples=200, deadline=None)
@given(symmetric_patterns(max_nodes=60), st.sampled_from(LEAF_SIZES))
def test_nested_dissection_matches_reference(a, leaf_size):
    same(nested_dissection(a, leaf_size), ref.nested_dissection(a, leaf_size))


@pytest.mark.parametrize("mat", default_collection("tiny"), ids=lambda m: m.name)
def test_tiny_collection_matches_reference(mat):
    same(minimum_degree(mat.matrix), ref.minimum_degree(mat.matrix))
    same(nested_dissection(mat.matrix), ref.nested_dissection(mat.matrix))
