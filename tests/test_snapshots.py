import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop.errors import CapExceededError, ValidationError
from clusterhop.snapshots import (build_snapshot_set,
                                  enumerate_valid_snapshots, supply_matrix)

from conftest import brute_force_valid_snapshots


def _adjacency(matrix):
    return np.array(matrix, dtype=np.uint8)


def path4():
    return _adjacency([
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ])


def test_path_graph_pairs():
    v = enumerate_valid_snapshots(path4(), 2)
    cols = [tuple(np.flatnonzero(v[:, n])) for n in range(v.shape[1])]
    assert cols == [(0, 2), (0, 3), (1, 3)]
    assert cols == brute_force_valid_snapshots(path4(), 2)


def test_no_edges_gives_all_combinations():
    a = _adjacency(np.zeros((5, 5), dtype=int))
    v = enumerate_valid_snapshots(a, 2)
    assert v.shape == (5, 10)


def test_complete_graph_has_none():
    a = _adjacency(1 - np.eye(4, dtype=int))
    v = enumerate_valid_snapshots(a, 2)
    assert v.shape == (4, 0)


def test_column_constraints_hold(ref_scenario, ref_snapshots):
    v = ref_snapshots.v
    a = ref_scenario.adjacency.astype(int)
    n_p = ref_scenario.system.n_p
    assert v.shape[1] > 0
    for n in range(v.shape[1]):
        col = v[:, n].astype(int)
        assert col.sum() == n_p
        assert col @ a @ col == 0
    # columns unique
    assert len({tuple(v[:, n]) for n in range(v.shape[1])}) == v.shape[1]


def test_reference_matches_brute_force(ref_scenario, ref_snapshots):
    expected = brute_force_valid_snapshots(
        ref_scenario.adjacency, ref_scenario.system.n_p)
    got = [ref_snapshots.members(n) for n in range(ref_snapshots.n_snapshots)]
    assert got == expected


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_brute_force(n_c, n_p, seed):
    n_p = min(n_p, n_c)
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n_c, n_c)) < 0.4).astype(np.uint8), 1)
    a = a + a.T
    v = enumerate_valid_snapshots(a, n_p)
    got = [tuple(np.flatnonzero(v[:, n])) for n in range(v.shape[1])]
    assert got == brute_force_valid_snapshots(a, n_p)


def test_supply_matrix_identity_weights():
    v = enumerate_valid_snapshots(path4(), 2)
    l = supply_matrix(v, np.ones(4))
    assert (l == v).all()


def test_supply_matrix_single_cluster():
    v = np.zeros((4, 1), dtype=np.uint8)
    v[2, 0] = 1
    l = supply_matrix(v, np.array([1.0, 2.0, 7.0, 3.0]))
    assert l[:, 0] == pytest.approx([0, 0, 7.0, 0])


def test_supply_column_sums_on_reference(ref_caps, ref_snapshots):
    p = ref_caps.p_cluster_bits
    for n in range(ref_snapshots.n_snapshots):
        members = ref_snapshots.members(n)
        expected = sum(p[j] for j in members)
        assert ref_snapshots.l[:, n].sum() == pytest.approx(expected)


def test_candidate_cap():
    a = _adjacency(np.zeros((40, 40), dtype=int))
    with pytest.raises(CapExceededError):
        enumerate_valid_snapshots(a, 20)


def test_bad_n_p():
    with pytest.raises(ValidationError):
        enumerate_valid_snapshots(path4(), 0)
    with pytest.raises(ValidationError):
        enumerate_valid_snapshots(path4(), 5)


def test_supply_shape_mismatch():
    v = enumerate_valid_snapshots(path4(), 2)
    with pytest.raises(ValidationError):
        supply_matrix(v, np.ones(3))


def test_build_snapshot_set(ref_scenario, ref_caps):
    snaps = build_snapshot_set(ref_scenario.adjacency, 3,
                               ref_caps.p_cluster_bits)
    assert snaps.l.shape == snaps.v.shape
    assert snaps.n_snapshots == snaps.v.shape[1]
