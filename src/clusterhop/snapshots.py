"""Enumeration of valid snapshots and the per-slot supply matrix.

A valid snapshot activates exactly ``n_p`` pairwise non-adjacent clusters.
Enumeration walks size-``n_p`` index combinations in lexicographic order and
rejects a prefix as soon as it contains an adjacent pair, which produces the
same set as filtering all combinations but without materializing them.
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
    columns: list[list[int]] = []
    prefix: list[int] = []

    def extend(start: int) -> None:
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


def dump_v_csv(v: np.ndarray, path) -> None:
    """Write V as CSV: one row per cluster, one 0/1 column per snapshot."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"s{n}" for n in range(v.shape[1])) + "\n")
        for row in v:
            fh.write(",".join(str(int(x)) for x in row) + "\n")
