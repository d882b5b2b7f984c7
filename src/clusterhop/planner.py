"""Illumination-period planning: how many slots each snapshot gets.

The core problem maximizes the worst offered/demanded ratio over clusters:

    max t   s.t.   sum_i psi_i * l_i >= t * m   (elementwise, demanded rows)
                   sum_i psi_i = n_slot,  psi_i nonnegative integers

``solve_illumination`` solves it exactly, on integers. Every demanded supply
row factors exactly as l_j = step_j * V_j with V_j nonnegative integers
(a snapshot supply row is p_j times a 0/1 row), so every achievable
objective is a multiple of some step_j / m_j, and a threshold g is the
integer requirement V psi >= k with k_j = ceil(g * m_j / step_j). One LP
branch-and-bound answers both of the solver's questions. It walks the
thresholds downward in exact rational order from the root LP's bound, and
decides each as a feasibility search (zero cost, stopping at the first
integer point); the walk stops above the trivial witness, every slot on the
last snapshot. Then, at the optimum's requirement, it minimizes psi_0,
psi_1, ... in turn with the prefix fixed, which gives the lexicographically
smallest optimal count vector. At each position, exact exchange moves find
the smaller values and the search only proves them: when V is 0/1, slots
of two columns move to two later columns with the same column sum, which
keeps V psi and sum(psi) unchanged and needs no LP, and the search runs
only on what is left. The LPs are over the normalized rows l_j / m_j,
solved by the in-repo bounded-variable simplex; after the first, every LP
restarts from the basis of the LP before it. A point is accepted only by
the integer test, and an LP point outside its node's bounds is a
SolverError. A row that does not factor is a ValidationError,
and one with n_slot * max V_j above ``OBJECTIVE_GRID_CAP`` is a
CapExceededError.
``brute_force_plan`` enumerates count vectors as an oracle and
``greedy_plan`` rounds the root LP into a heuristic lower bound; both accept
any supply matrix. Clusters with zero demand are excluded from the
objective; they still receive whatever supply the chosen snapshots give
them.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (CapExceededError, InfeasibleError, SolverError,
                     ValidationError)
from .simplex import OPTIMAL, solve_bounded_lp

STATUS_OPTIMAL = "optimal"
STATUS_HEURISTIC = "heuristic"

DEFAULT_BRUTE_FORCE_CAP = 10 ** 7
OBJECTIVE_GRID_CAP = 10 ** 6  # largest multiple k_max = n_slot * max V_j of one row
_INT_TOL = 1e-7
_SPLIT_MAX_ROWS = 12  # at most 2**11 candidate splits per exchange pair


@dataclass(frozen=True)
class IlpInstance:
    l: np.ndarray  # (N_C, N_ss) supply per slot, bits
    m: np.ndarray  # (N_C,) demand per window, bits
    n_slot: int

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if l.ndim != 2 or m.ndim != 1 or l.shape[0] != m.shape[0]:
            raise ValidationError("supply matrix and demand vector sizes disagree")
        if (l < 0).any() or (m < 0).any():
            raise ValidationError("supplies and demands must be nonnegative")
        if not (np.isfinite(l).all() and np.isfinite(m).all()):
            raise ValidationError("supplies and demands must be finite")
        if self.n_slot < 1:
            raise ValidationError("n_slot must be >= 1")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)

    @property
    def n_snapshots(self) -> int:
        return self.l.shape[1]


@dataclass(frozen=True)
class HoppingPlan:
    psi: np.ndarray       # (N_ss,) nonnegative integer slot counts
    t: float              # achieved min offered/demand ratio over demanded clusters
    s: np.ndarray         # (N_C,) offered bits per window
    schedule: np.ndarray  # (n_slot,) snapshot index per slot
    solver_status: str


def _ratio_t(instance: IlpInstance, psi: np.ndarray, demanded: np.ndarray) -> float:
    s = instance.l @ psi
    return float((s[demanded] / instance.m[demanded]).min())


def _make_plan(instance: IlpInstance, psi: np.ndarray, status: str,
               demanded: np.ndarray) -> HoppingPlan:
    psi = np.array(psi, dtype=int)
    s = instance.l @ psi
    t = _ratio_t(instance, psi, demanded) if demanded.any() else math.inf
    psi.flags.writeable = False
    s.flags.writeable = False
    return HoppingPlan(
        psi=psi,
        t=t,
        s=s,
        schedule=expand_schedule(psi),
        solver_status=status,
    )


def _uniform_psi(n_snapshots: int, n_slot: int) -> np.ndarray:
    base, extra = divmod(n_slot, n_snapshots)
    psi = np.full(n_snapshots, base, dtype=int)
    psi[:extra] += 1
    return psi


def _require_snapshots(instance: IlpInstance) -> None:
    if instance.n_snapshots == 0:
        raise InfeasibleError(
            "no valid snapshot exists; the illumination plan is infeasible"
        )


# ---------------------------------------------------------------------------
# LP relaxations (normalized rows a = l / m, so coefficients are near 1)

def _root_lp(a: np.ndarray, n_slot: int) -> tuple[float, np.ndarray]:
    """The root LP, max t s.t. a @ psi - t >= 0 rowwise, sum(psi) = n_slot,
    0 <= psi <= n_slot: its optimum (t, psi). Its feasible set is never
    empty, so a solve that reports no optimum is a SolverError."""
    n_dem, n_ss = a.shape
    n_var = n_ss + 1 + n_dem  # psi, t, surplus per demanded row
    rows = np.zeros((n_dem + 1, n_var))
    rhs = np.zeros(n_dem + 1)
    rows[:n_dem, :n_ss] = a
    rows[:n_dem, n_ss] = -1.0
    rows[:n_dem, n_ss + 1:] = -np.eye(n_dem)
    rows[n_dem, :n_ss] = 1.0
    rhs[n_dem] = n_slot
    cost = np.zeros(n_var)
    cost[n_ss] = -1.0
    upper = np.full(n_var, np.inf)
    upper[:n_ss] = n_slot
    res = solve_bounded_lp(cost, rows, rhs, np.zeros(n_var), upper)
    if res.status != OPTIMAL:
        raise SolverError(f"root LP ended {res.status}, not optimal")
    return float(res.x[n_ss]), res.x[:n_ss]


def _lp_over_requirements(a, rhs_req, n_slot, lb, ub, cost_psi, warm=None):
    """min cost_psi @ psi s.t. a @ psi >= rhs_req, sum(psi) = n_slot.

    Returns ((objective, psi) or None when infeasible, restart point). The
    LP restarts from ``warm``, the restart point of an earlier LP of this
    form over the same ``a``, when one is given."""
    n_dem, n_ss = a.shape
    n_var = n_ss + n_dem
    rows = np.zeros((n_dem + 1, n_var))
    rhs = np.zeros(n_dem + 1)
    rows[:n_dem, :n_ss] = a
    rows[:n_dem, n_ss:] = -np.eye(n_dem)
    rhs[:n_dem] = rhs_req
    rows[n_dem, :n_ss] = 1.0
    rhs[n_dem] = n_slot
    cost = np.concatenate([cost_psi, np.zeros(n_dem)])
    lower = np.concatenate([lb, np.zeros(n_dem)])
    upper = np.concatenate([ub, np.full(n_dem, np.inf)])
    res = solve_bounded_lp(cost, rows, rhs, lower, upper, warm=warm)
    if res.status != OPTIMAL:
        return None, res.warm
    return (float(res.objective), res.x[:n_ss]), res.warm


def _fractional_index(psi: np.ndarray):
    """Index of the entry farthest from an integer, or None if integral."""
    frac = psi - np.floor(psi)
    dist = np.minimum(frac, 1.0 - frac)
    i = int(np.argmax(dist))
    if dist[i] <= _INT_TOL:
        return None
    return i


# ---------------------------------------------------------------------------
# Integer thresholds

def _factor_rows(l_dem, n_slot, clusters):
    """Exact factorization l_dem == step[:, None] * V with V a nonnegative
    int64 matrix: step_j is the common value of a row uniform on its support
    (the snapshot-supply case), the gcd of an all-integer row, or 1 for an
    all-zero row (a cluster in outage). Any other row is a ValidationError,
    and a row whose largest multiple n_slot * max V_j exceeds
    ``OBJECTIVE_GRID_CAP`` is a CapExceededError."""
    step = np.ones(len(l_dem))
    for j, row in enumerate(l_dem):
        nz = row[row > 0]
        if nz.size and (nz == nz[0]).all():
            step[j] = nz[0]
        elif (row == np.rint(row)).all():
            step[j] = math.gcd(*map(int, nz)) or 1
        else:
            raise ValidationError(
                f"supply row of cluster {clusters[j]} is neither uniform on its "
                "support nor integer; the exact planner needs a value lattice"
            )
    v = l_dem / step[:, None]  # exact: every entry is a multiple of its step
    for j, v_max in enumerate(v.max(axis=1)):
        k_max = n_slot * int(v_max)
        if k_max > OBJECTIVE_GRID_CAP:
            raise CapExceededError(
                f"objective grid of cluster {clusters[j]} has {k_max} steps, "
                f"above the cap {OBJECTIVE_GRID_CAP} (N_slot={n_slot})"
            )
    return step, v.astype(np.int64)


def _exact_t(v, spacing, psi) -> Fraction:
    """Exact objective of an integer count vector: cluster j is offered
    (V_j psi) * spacing_j times its demand."""
    return min(int(k) * c for k, c in zip(v @ psi, spacing))


def _thresholds(spacing, lo: Fraction, hi: Fraction):
    """The achievable objective values g with lo < g <= hi, in descending
    exact order, each once. Every achieved objective is K * spacing_j for a
    cluster j and an integer K; the values are generated lazily."""
    rows = [map(c.__mul__, range(hi // c, lo // c, -1)) for c in spacing]
    return (g for g, _ in itertools.groupby(heapq.merge(*rows, reverse=True)))


def _requirement(spacing, step, m_dem, g):
    """Integer requirement k_j = ceil(g / spacing_j) of threshold g, meaning
    V psi >= k, and its normalized LP right-hand side step * k / m."""
    k = np.array([-(-g // c) for c in spacing], dtype=np.int64)
    return k, step * k / m_dem


# ---------------------------------------------------------------------------
# Exact integer search

def _branch_and_bound(a, rhs_req, v, k, n_slot, lb, ub, cost, best_val,
                      best_psi, warm):
    """Exact integer minimum of the 0/1 objective cost @ psi over count
    vectors with v @ psi >= k, sum(psi) = n_slot and lb <= psi <= ub, if it
    is below ``best_val``. Returns (best_val, best_psi, restart point of the
    last LP solved); best_val and best_psi come back unchanged when no
    integer point does better.

    Depth-first LP branch-and-bound, down-branch first. The LPs relax the
    requirement as a @ psi >= rhs_req, its normalized form; the root LP
    restarts from ``warm`` and every child from its parent's basis. A node
    is pruned once the ceiling of an LP value bounding it reaches
    ``best_val``, and the search stops when ``best_val`` reaches its floor
    cost @ lb. A point is accepted only by the integer test. With zero cost
    and best_val = 1 this is a feasibility search that stops at the first
    integer point.
    """
    floor = round(float(cost @ lb))
    stack = [(lb, ub, floor, warm)]
    while stack and best_val > floor:
        nlb, nub, bound, parent = stack.pop()
        if bound >= best_val or cost @ nlb >= best_val:
            continue
        if nlb.sum() > n_slot or nub.sum() < n_slot:
            continue
        lp, warm = _lp_over_requirements(a, rhs_req, n_slot, nlb, nub, cost,
                                         parent)
        if lp is None:
            continue
        val_lp, psi_lp = lp
        bound = math.ceil(val_lp - _INT_TOL)
        if bound >= best_val:
            continue
        branch = _fractional_index(psi_lp)
        if branch is None:
            psi_int = np.rint(psi_lp).astype(int)
            if ((psi_int < nlb) | (psi_int > nub)).any():
                raise SolverError("a rounded LP point lies outside its node's "
                                  "box; the LP is too ill-conditioned to solve")
            val = int(cost @ psi_int)
            if (val < best_val and psi_int.sum() == n_slot
                    and (v @ psi_int >= k).all()):
                best_val, best_psi = val, psi_int
            continue
        if not nlb[branch] < psi_lp[branch] < nub[branch]:
            raise SolverError("the LP point's branching coordinate lies outside "
                              "its node's box; the LP is too ill-conditioned "
                              "to solve")
        floor_val = math.floor(psi_lp[branch])
        ub_down = nub.copy()
        ub_down[branch] = floor_val
        lb_up = nlb.copy()
        lb_up[branch] = floor_val + 1
        stack.append((lb_up, nub, bound, warm))    # explored second
        stack.append((nlb, ub_down, bound, warm))  # explored first
    return best_val, best_psi, warm


# ---------------------------------------------------------------------------
# Exact solver

def solve_illumination(instance: IlpInstance) -> HoppingPlan:
    """Exact max-min plan; the lexicographically smallest optimal counts.

    Raises InfeasibleError when there is no snapshot at all, ValidationError
    when a demanded supply row does not factor as step_j * V_j, and
    CapExceededError when n_slot * max V_j exceeds ``OBJECTIVE_GRID_CAP``.
    When every cluster demand is zero the ratio objective is undefined: the
    plan spreads slots uniformly, reports t = inf and status 'heuristic'.
    """
    _require_snapshots(instance)
    demanded = instance.m > 0
    n_ss = instance.n_snapshots
    n_slot = instance.n_slot
    if not demanded.any():
        return _make_plan(instance, _uniform_psi(n_ss, n_slot),
                          STATUS_HEURISTIC, demanded)

    l_dem = instance.l[demanded]
    m_dem = instance.m[demanded]
    a = l_dem / m_dem[:, None]
    step, v = _factor_rows(l_dem, n_slot, np.flatnonzero(demanded))
    spacing = [Fraction(s) / Fraction(m) for s, m in zip(step, m_dem)]

    t_lp, _ = _root_lp(a, n_slot)

    # The trivial witness puts every slot on the last snapshot: the
    # lexicographically smallest count vector, so canonical if optimal.
    best_psi = np.zeros(n_ss, dtype=int)
    best_psi[-1] = n_slot
    best_t = _exact_t(v, spacing, best_psi)

    # Walk the thresholds above the witness downward from the LP bound,
    # widened once for simplex round-off; the first threshold with an
    # integer solution is the exact optimum.
    t_top = Fraction(t_lp + _INT_TOL * max(1.0, abs(t_lp)))
    warm = None  # every LP after the first restarts from the last LP's basis
    lb0 = np.zeros(n_ss)
    ub0 = np.full(n_ss, float(n_slot))
    zero_cost = np.zeros(n_ss)
    for g in _thresholds(spacing, best_t, t_top):
        k, rhs_req = _requirement(spacing, step, m_dem, g)
        _, psi_g, warm = _branch_and_bound(a, rhs_req, v, k, n_slot, lb0, ub0,
                                           zero_cost, 1, None, warm)
        if psi_g is not None:
            best_psi, best_t = psi_g, _exact_t(v, spacing, psi_g)
            break

    k, rhs_req = _requirement(spacing, step, m_dem, best_t)
    best_psi = _lex_smallest_optimal(a, rhs_req, v, k, best_psi, n_slot, warm)
    return _make_plan(instance, best_psi, STATUS_OPTIMAL, demanded)


def _lex_smallest_optimal(a, rhs_req, v, k, witness, n_slot, warm):
    """Among count vectors meeting v @ psi >= k, the optimum's requirement,
    the lexicographically smallest.

    Fixes psi_0, psi_1, ... in turn to the smallest value that still admits
    an integer completion meeting the requirement. The incumbent 'witness'
    certifies feasibility of each fixed prefix, so only positions where it
    is nonzero need work. At such a position i, exact exchange moves
    (``_exchange_down``, when v is 0/1) first lower witness_i without an LP;
    then ``_branch_and_bound`` with a one-hot cost proves that no smaller
    value exists, and runs only if witness_i > 0 is left. Each search
    restarts from the basis of the LP solved before it, ``warm`` at first.
    """
    witness = np.asarray(witness, dtype=int).copy()
    n_ss = len(witness)
    lb = np.zeros(n_ss)
    ub = np.full(n_ss, float(n_slot))
    masks = _column_masks(v) if v.max() <= 1 else None
    for i in range(n_ss):
        if witness[i] > 0 and masks is not None:
            _exchange_down(witness, i, *masks)
        if witness[i] > 0:
            cost = np.zeros(n_ss)
            cost[i] = 1.0
            _, witness, warm = _branch_and_bound(a, rhs_req, v, k, n_slot, lb,
                                                 ub, cost, int(witness[i]),
                                                 witness, warm)
        lb[i] = ub[i] = float(witness[i])
    return witness


# ---------------------------------------------------------------------------
# Exact exchange moves (0/1 requirement rows)

def _column_masks(v):
    """For a 0/1 ``v``: each column's row set as a bitmask (bit r for row
    r), the largest column index of each mask, and the mask sizes that
    occur."""
    packed = np.packbits(v.astype(bool), axis=0, bitorder="little")
    width = packed.shape[0]
    raw = np.ascontiguousarray(packed.T).tobytes()
    masks = [int.from_bytes(raw[o:o + width], "little")
             for o in range(0, len(raw), width)]
    index = {mask: col for col, mask in enumerate(masks)}  # largest index wins
    return masks, index, {mask.bit_count() for mask in masks}


def _exchange_down(w, i, masks, index, sizes):
    """Lower w[i] in place by exchanges that keep v @ w, sum(w) and w[:i]
    exactly: the slots of i move to a column above i with the same mask if
    there is one; otherwise q = min(w[i], w[j]) slots of i and of a support
    column j > i move to columns c, d > i with mask_c + mask_d = mask_i +
    mask_j (``_split``), until w[i] = 0 or no move applies."""
    same = index[masks[i]]
    if same > i:
        w[same] += w[i]
        w[i] = 0
        return
    splits = {}  # j -> (c, d) or None, for this i
    moved = True
    while w[i] and moved:
        moved = False
        for j in (np.flatnonzero(w[i + 1:]) + i + 1).tolist():
            if j not in splits:
                splits[j] = _split(masks[i], masks[j], i, index, sizes)
            q = min(w[i], w[j])
            if splits[j] is None or q == 0:
                continue
            c, d = splits[j]
            w[i] -= q
            w[j] -= q
            w[c] += q
            w[d] += q
            moved = True
            if w[i] == 0:
                break


def _split(mask_i, mask_j, i, index, sizes):
    """Columns (c, d), both above i, with mask_c + mask_d = mask_i + mask_j
    as 0/1 vectors, or None. The shared rows go into both c and d; the
    differing rows D are split, c taking D's lowest row (c and d are
    interchangeable). A split whose mask sizes never occur is not looked
    up. Pairs that differ in more than ``_SPLIT_MAX_ROWS`` rows are left to
    the search."""
    shared, diff = mask_i & mask_j, mask_i ^ mask_j
    n_shared, n_diff = shared.bit_count(), diff.bit_count()
    if n_diff > _SPLIT_MAX_ROWS:
        return None
    low = diff & -diff
    rest = diff ^ low
    sub = 0
    while True:
        part = low | sub
        n_part = part.bit_count()
        if n_shared + n_part in sizes and n_shared + n_diff - n_part in sizes:
            c = index.get(shared | part, -1)
            d = index.get(shared | (diff ^ part), -1)
            if c > i and d > i:
                return c, d
        if sub == rest:
            return None
        sub = (sub - rest) & rest


# ---------------------------------------------------------------------------
# Oracle and heuristic

def brute_force_plan(instance: IlpInstance,
                     cap: int = DEFAULT_BRUTE_FORCE_CAP) -> HoppingPlan:
    """Globally optimal plan by exhaustive enumeration of count vectors.

    Count vectors are visited in lexicographic order and only strict
    improvements are kept, so the returned optimizer is the lexicographically
    smallest one. Raises CapExceededError when the composition count
    C(n_slot + N_ss - 1, N_ss - 1) exceeds ``cap``.
    """
    _require_snapshots(instance)
    n_ss = instance.n_snapshots
    n_slot = instance.n_slot
    n_compositions = math.comb(n_slot + n_ss - 1, n_ss - 1)
    if n_compositions > cap:
        raise CapExceededError(
            f"{n_compositions} count vectors exceed the brute-force cap {cap}"
        )
    demanded = instance.m > 0
    if not demanded.any():
        return _make_plan(instance, _uniform_psi(n_ss, n_slot),
                          STATUS_HEURISTIC, demanded)
    m_dem = instance.m[demanded]
    l_dem = instance.l[demanded]

    best_t = -1.0
    best_psi: np.ndarray | None = None
    psi = np.zeros(n_ss, dtype=int)

    def recurse(pos: int, remaining: int, s_dem: np.ndarray) -> None:
        nonlocal best_t, best_psi
        if pos == n_ss - 1:
            psi[pos] = remaining
            t = float(((s_dem + remaining * l_dem[:, pos]) / m_dem).min())
            if t > best_t:
                best_t = t
                best_psi = psi.copy()
            psi[pos] = 0
            return
        for count in range(remaining + 1):
            psi[pos] = count
            recurse(pos + 1, remaining - count, s_dem + count * l_dem[:, pos])
        psi[pos] = 0

    recurse(0, n_slot, np.zeros(int(demanded.sum())))
    assert best_psi is not None
    return _make_plan(instance, best_psi, STATUS_OPTIMAL, demanded)


def greedy_plan(instance: IlpInstance) -> HoppingPlan:
    """LP-rounding heuristic, a lower bound on the optimum for any supply
    matrix: floor the root LP's counts, hand out the remaining slots one by
    one, each to the snapshot that lifts the worst offered/demand ratio the
    most (ties to the lowest snapshot index), then hill-climb with
    single-slot moves."""
    _require_snapshots(instance)
    demanded = instance.m > 0
    n_ss = instance.n_snapshots
    n_slot = instance.n_slot
    if not demanded.any():
        return _make_plan(instance, _uniform_psi(n_ss, n_slot),
                          STATUS_HEURISTIC, demanded)
    l_dem = instance.l[demanded]
    m_dem = instance.m[demanded]
    m_col = m_dem[:, None]
    _, psi_lp = _root_lp(l_dem / m_col, n_slot)
    psi = np.maximum(np.floor(psi_lp + _INT_TOL).astype(int), 0)
    s = l_dem @ psi
    for _ in range(n_slot - int(psi.sum())):
        pick = int(np.argmax(((s[:, None] + l_dem) / m_col).min(axis=0)))
        psi[pick] += 1
        s += l_dem[:, pick]
    for _ in range(200):  # single-slot exchange passes
        best_gain = float((s / m_dem).min())
        move = None
        for src in np.flatnonzero(psi):
            base = s[:, None] - l_dem[:, [src]] + l_dem
            cand = (base / m_col).min(axis=0)
            cand[src] = -1.0
            dst = int(np.argmax(cand))
            if cand[dst] > best_gain * (1 + 1e-12):
                best_gain = float(cand[dst])
                move = (int(src), dst)
        if move is None:
            break
        src, dst = move
        psi[src] -= 1
        psi[dst] += 1
        s = s - l_dem[:, src] + l_dem[:, dst]
    return _make_plan(instance, psi, STATUS_HEURISTIC, demanded)


def lp_relaxation_bound(instance: IlpInstance) -> float:
    """Optimum of the continuous relaxation; upper-bounds the integer optimum."""
    _require_snapshots(instance)
    demanded = instance.m > 0
    if not demanded.any():
        return math.inf
    a = instance.l[demanded] / instance.m[demanded][:, None]
    return _root_lp(a, instance.n_slot)[0]


# ---------------------------------------------------------------------------
# Schedule expansion

def expand_schedule(psi: np.ndarray) -> np.ndarray:
    """Slot-ordered snapshot sequence with near-even spacing.

    Largest-deficit rule: slot n goes to the snapshot whose placed count lags
    its quota psi_i * (n + 1) / n_slot the most, the lowest index on a tie.
    The deficits are compared exactly, as the integers
    ``psi_i * (n + 1) - placed_i * n_slot``.
    The result contains snapshot i exactly psi_i times. Only the support of
    psi is scanned: the deficits sum to 1 before every slot, so the largest
    is positive and a snapshot with psi_i = 0 (deficit 0) never wins.
    """
    psi = np.asarray(psi)
    if (psi < 0).any() or not np.issubdtype(psi.dtype, np.integer):
        raise ValidationError("psi must be nonnegative integers")
    n_slot = int(psi.sum())
    support = np.flatnonzero(psi).tolist()
    counts = psi[support].tolist()
    placed = [0] * len(support)  # placed counts times n_slot
    schedule = []
    for n in range(1, n_slot + 1):
        best = -math.inf
        for k, count in enumerate(counts):
            deficit = count * n - placed[k]
            if deficit > best:
                best, pick = deficit, k
        schedule.append(support[pick])
        placed[pick] += n_slot
    schedule = np.array(schedule, dtype=int)
    schedule.flags.writeable = False
    return schedule
