import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop import channel, precoding
from clusterhop.errors import CapExceededError, ValidationError
from clusterhop.scenario import scenario_from_dict
from clusterhop.scenariogen import hex_scenario_dict
from clusterhop.snapshots import build_snapshot_set, enumerate_valid_snapshots

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


def _prefix_recursion(adjacency, n_p):
    """The per-element enumeration the bitmask walk replaced, kept as the
    reference: the lexicographic prefix recursion that reads one adjacency
    entry per prefix member, and V filled one column at a time."""
    n_c = adjacency.shape[0]
    columns, prefix = [], []

    def extend(start):
        if len(prefix) == n_p:
            columns.append(prefix.copy())
            return
        remaining = n_p - len(prefix)
        for c in range(start, n_c - remaining + 1):
            if any(adjacency[c, p] for p in prefix):
                continue
            prefix.append(c)
            extend(c + 1)
            prefix.pop()

    extend(0)
    v = np.zeros((n_c, len(columns)), dtype=np.uint8)
    for n, col in enumerate(columns):
        v[col, n] = 1
    return v


def test_bitmask_walk_matches_prefix_recursion():
    rng = np.random.default_rng(7)
    n_empty = 0
    for _ in range(200):
        n_c = int(rng.integers(1, 16))
        a = np.triu((rng.random((n_c, n_c)) < rng.random()).astype(np.uint8),
                    1)
        a = a + a.T
        for n_p in range(1, n_c + 1):
            got = enumerate_valid_snapshots(a, n_p)
            want = _prefix_recursion(a, n_p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (a, n_p)
            assert not got.flags.writeable
            n_empty += got.shape[1] == 0
    assert n_empty > 0


def test_bitmask_walk_reads_the_adjacency_as_the_recursion_does():
    """Bit c of cluster p's mask is adjacency[c, p], the entry the prefix
    recursion tests, so a one-sided entry rejects the same sets."""
    a = np.zeros((5, 5), dtype=np.uint8)
    a[3, 1] = a[4, 0] = 1
    for n_p in (2, 3):
        assert np.array_equal(enumerate_valid_snapshots(a, n_p),
                              _prefix_recursion(a, n_p))


def test_walk_deeper_than_the_recursion_limit():
    """N_P above the recursion limit gives the one set of all clusters."""
    n_c = sys.getrecursionlimit() + 100
    v = enumerate_valid_snapshots(np.zeros((n_c, n_c), dtype=np.uint8), n_c)
    assert v.shape == (n_c, 1) and v.all()


def test_supply_matrix_identity_weights():
    snaps = build_snapshot_set(path4(), 2, np.ones(4))
    assert (snaps.l == snaps.v).all()
    assert snaps.l.dtype == float and not snaps.l.flags.writeable


def test_supply_matrix_single_cluster():
    # N_P = 1: snapshot n lights cluster n alone
    snaps = build_snapshot_set(path4(), 1, np.array([1.0, 2.0, 7.0, 3.0]))
    assert snaps.l[:, 2] == pytest.approx([0, 0, 7.0, 0])


def test_supply_matrix_bits_on_reference(ref_caps, ref_snapshots):
    p = ref_caps.p_cluster_bits
    want = ref_snapshots.v.astype(float) * p[:, None]
    assert ref_snapshots.l.tobytes() == want.tobytes()


def test_supply_matrix_bits_on_120_beams(dvbs2):
    scenario = scenario_from_dict(
        hex_scenario_dict(120, 20, system={"N_P": 4}))
    p = precoding.cluster_capacities(
        scenario, channel.build_all_cluster_channels(scenario),
        dvbs2).p_cluster_bits
    snaps = build_snapshot_set(scenario.adjacency, 4, p)
    assert snaps.n_snapshots == 654
    want = snaps.v.astype(float) * p[:, None]
    assert snaps.l.tobytes() == want.tobytes()


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


def test_candidate_cap_counts_candidates_not_valid_sets():
    """The cap reads C(N_C, N_P), so a graph with no valid set is refused
    too, with the same message; C(27, 7) = 888,030 is just under it."""
    full = _adjacency(1 - np.eye(30, dtype=int))
    with pytest.raises(CapExceededError,
                       match=r"^C\(30,8\) = 5852925 candidate snapshots "
                             r"exceed the cap of 1000000$"):
        enumerate_valid_snapshots(full, 8)
    v = enumerate_valid_snapshots(_adjacency(1 - np.eye(27, dtype=int)), 7)
    assert v.shape == (27, 0)


def test_bad_n_p():
    with pytest.raises(ValidationError):
        enumerate_valid_snapshots(path4(), 0)
    with pytest.raises(ValidationError):
        enumerate_valid_snapshots(path4(), 5)


def test_supply_shape_mismatch():
    with pytest.raises(ValidationError):
        build_snapshot_set(path4(), 2, np.ones(3))


def test_build_snapshot_set(ref_scenario, ref_caps):
    snaps = build_snapshot_set(ref_scenario.adjacency, 3,
                               ref_caps.p_cluster_bits)
    assert snaps.l.shape == snaps.v.shape
    assert snaps.n_snapshots == snaps.v.shape[1]
