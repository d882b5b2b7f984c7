"""Enumeration of valid snapshots and the per-slot supply matrix.

A valid snapshot activates exactly ``n_p`` pairwise non-adjacent clusters.
Enumeration walks size-``n_p`` index combinations in lexicographic order and
rejects a prefix as soon as it contains an adjacent pair, which produces the
same set as filtering all combinations but without materializing them, on
one integer bitmask of neighbours per cluster.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError

CANDIDATE_CAP = 10 ** 6


@dataclass(frozen=True)
class SnapshotSet:
    v: np.ndarray  # (N_C, N_ss) binary, one column per valid snapshot
    l: np.ndarray  # (N_C, N_ss) per-slot supply, column n = v_n * p

    @property
    def n_snapshots(self) -> int:
        return self.v.shape[1]

    def members(self, col: int) -> tuple[int, ...]:
        """Cluster indices active in snapshot ``col``."""
        return tuple(int(j) for j in np.flatnonzero(self.v[:, col]))


def enumerate_valid_snapshots(
    adjacency: np.ndarray,
    n_p: int,
) -> np.ndarray:
    """Binary matrix of all independent sets of size exactly ``n_p`` in the
    0/1 cluster adjacency matrix.

    Columns are ordered lexicographically by member indices. Returns a
    (N_C, 0) matrix when no such set exists. Raises CapExceededError when the
    candidate combination count C(N_C, n_p) exceeds ``CANDIDATE_CAP``.
    """
    n_c = adjacency.shape[0]
    if not 1 <= n_p <= n_c:
        raise ValidationError(f"N_P must be in 1..{n_c}, got {n_p}")
    candidates = math.comb(n_c, n_p)
    if candidates > CANDIDATE_CAP:
        raise CapExceededError(
            f"C({n_c},{n_p}) = {candidates} candidate snapshots exceed the "
            f"cap of {CANDIDATE_CAP}"
        )
    # bit c of neighbours[p] is adjacency[c, p], the entry the walk tests
    packed = np.packbits(adjacency.T != 0, axis=1, bitorder="little")
    neighbours = [int.from_bytes(row, "little") for row in packed.tolist()]
    members: list[int] = []  # each valid set's n_p indices, in column order

    def extend(prefix: list[int], blocked: int, start: int) -> None:
        last = n_c - n_p + len(prefix)  # leaves room for the members to come
        free = ~blocked & ((2 << last) - (1 << start))
        while free:
            c = (free & -free).bit_length() - 1
            free &= free - 1
            if len(prefix) + 1 == n_p:
                members.extend(prefix + [c])
            else:
                extend(prefix + [c], blocked | neighbours[c], c + 1)

    extend([], 0, 0)
    rows = np.array(members, dtype=np.intp).reshape(-1, n_p)
    v = np.zeros((n_c, len(rows)), dtype=np.uint8)
    v[rows, np.arange(len(rows))[:, None]] = 1
    v.flags.writeable = False
    return v


def supply_matrix(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """L[j, n] = V[j, n] * p[j]: supply per slot under each snapshot."""
    p = np.asarray(p, dtype=float)
    if v.shape[0] != p.shape[0]:
        raise ValidationError(
            f"supply vector length {p.shape[0]} does not match {v.shape[0]} clusters"
        )
    l = v.astype(float) * p[:, None]
    l.flags.writeable = False
    return l


def build_snapshot_set(
    adjacency: np.ndarray,
    n_p: int,
    p: np.ndarray,
) -> SnapshotSet:
    v = enumerate_valid_snapshots(adjacency, n_p)
    return SnapshotSet(v=v, l=supply_matrix(v, p))


def v_csv_lines(v: np.ndarray) -> list[str]:
    """V as CSV rows: one row per cluster, one 0/1 column per snapshot."""
    lines = [",".join(f"s{n}" for n in range(v.shape[1]))]
    lines.extend(",".join(str(int(x)) for x in row) for row in v)
    return lines
