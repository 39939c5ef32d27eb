"""Brute-force references that several test modules compare against."""

from __future__ import annotations

import pytest

from fcodes import fcc


def _class_distance_matrix(spec: fcc.FunctionSpec, t: int):
    """The requirement matrix of `spec` at budget t by brute force: the
    distance of two values is the least Hamming distance between a message
    of one and a message of the other, every pair of members compared."""
    members = [[] for _ in spec.image]
    for u, i in enumerate(spec.index_table):
        members[i].append(u)
    rows = [[min((a ^ b).bit_count() for a in mine for b in theirs) for theirs in members]
            for mine in members]
    return fcc.requirement_matrix(rows, t, spec.k)


@pytest.fixture
def class_distance_matrix():
    """`_class_distance_matrix`, the reference for `fcc.function_distance_matrix`."""
    return _class_distance_matrix
