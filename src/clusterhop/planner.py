"""Illumination-period planning: how many slots each snapshot gets.

The core problem maximizes the worst offered/demanded ratio over clusters:

    max t   s.t.   sum_i psi_i * l_i >= t * m   (elementwise, demanded rows)
                   sum_i psi_i = n_slot,  psi_i nonnegative integers

The supply is the paper's snapshot supply, which ``IlpInstance`` checks: row
j of l is p_j times a 0/1 row V_j (a snapshot's slot gives p_j to each
cluster it lights). Any other row is a ValidationError, and an n_slot above
``N_SLOT_CAP`` is a CapExceededError, whichever solver runs. The instance
carries the demanded rows' factors V and p and their normalized form
a_j = l_j / m_j. Every solver runs in one frame (``_framed``): no snapshot
is an InfeasibleError, and without a demanded cluster, where the ratio is
undefined, the plan spreads the slots uniformly (t = inf, 'heuristic').

``solve_illumination`` solves it exactly, on integers. Every achievable
objective is a multiple of some step_j / m_j, with step_j = p_j (1 for a
cluster in outage), and a threshold g is the integer requirement V psi >= k
with k_j = ceil(g * m_j / step_j). After the root LP, every LP is a
feasibility LP (no objective) over that requirement itself, rows V and
right-hand side k, run by one search: depth-first LP branch-and-bound that
stops at the first integer point. Those LPs read neither p nor m, so they
are alike at every demand scale; only the root LP, which ``greedy_plan``
rounds too, sees the normalized rows l_j / m_j. The walk takes the
thresholds downward in exact rational order from the root LP's bound and
decides each with the search; it stops above the trivial witness, every
slot on the last snapshot. Then, at the optimum's requirement, it fixes
psi_0, psi_1, ... in turn to their smallest values, which gives the
lexicographically smallest optimal count vector. At each position i, exact
exchange moves lower the witness first: slots of two columns move to two
later columns with the same column sum, which keeps V psi and sum(psi)
unchanged and needs no LP. Then searches with ub_i = u ask whether
psi_i <= u is possible, in this order: u = w_i - 1, whose infeasibility
proves w_i; u = 0; u = w_i - 2, w_i - 4, ... down from the witness; then
bisection of the gap left. Every point found is exchanged down again. The
LPs are solved by the in-repo bounded-variable simplex. Only the root LP is
solved cold; the chain of requirement LPs starts at the trivial witness's
basis, and every LP after restarts from the basis of the LP before it. A
point is accepted only by the integer test, and an LP point outside its
node's bounds, or a requirement count beyond int64, is a SolverError.
``brute_force_plan`` enumerates count vectors as an oracle and
``greedy_plan`` rounds the root LP into a heuristic lower bound. Clusters
with zero demand are excluded from the objective; they still receive
whatever supply the chosen snapshots give them.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (CapExceededError, InfeasibleError, SolverError,
                     ValidationError)
from .simplex import OPTIMAL, solve_bounded_lp, start

STATUS_OPTIMAL = "optimal"
STATUS_HEURISTIC = "heuristic"

DEFAULT_BRUTE_FORCE_CAP = 10 ** 7
N_SLOT_CAP = 10 ** 6  # largest n_slot: the grid and slot loops are O(n_slot)
_INT_TOL = 1e-7
_SPLIT_MAX_ROWS = 12  # at most 2**11 candidate splits per exchange pair


@dataclass(frozen=True)
class IlpInstance:
    l: np.ndarray  # (N_C, N_ss) supply per slot, bits: p_j times a 0/1 row
    m: np.ndarray  # (N_C,) demand per window, bits
    n_slot: int
    # Set once by the check below; v, step and a hold the demanded rows only
    demanded: np.ndarray = field(init=False, repr=False)  # (N_C,) m > 0
    v: np.ndarray = field(init=False, repr=False)     # V_j, int64 0/1 rows
    step: np.ndarray = field(init=False, repr=False)  # p_j, 1 in outage
    a: np.ndarray = field(init=False, repr=False)     # l_j / m_j

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if l.ndim != 2 or m.ndim != 1 or l.shape[0] != m.shape[0]:
            raise ValidationError("supply matrix and demand vector sizes disagree")
        if (l < 0).any() or (m < 0).any():
            raise ValidationError("supplies and demands must be nonnegative")
        if not (np.isfinite(l).all() and np.isfinite(m).all()):
            raise ValidationError("supplies and demands must be finite")
        row_max = l.max(axis=1, initial=0.0)[:, None]
        bad = ((l != 0) & (l != row_max)).any(axis=1)
        if bad.any():
            raise ValidationError(f"supply row of cluster {int(bad.argmax())} "
                                  "is not one value times a 0/1 row")
        if self.n_slot < 1:
            raise ValidationError("n_slot must be >= 1")
        if self.n_slot > N_SLOT_CAP:
            raise CapExceededError(
                f"N_slot={self.n_slot} is above the cap {N_SLOT_CAP}")
        demanded = m > 0
        l_dem, m_dem = l[demanded], m[demanded]
        step = row_max[demanded, 0]
        step[step == 0] = 1.0  # a cluster in outage
        for name, value in (("l", l), ("m", m), ("demanded", demanded),
                            ("v", (l_dem > 0).astype(np.int64)),
                            ("step", step), ("a", l_dem / m_dem[:, None])):
            object.__setattr__(self, name, value)

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


def _prologue(instance: IlpInstance) -> bool:
    """Every solver's first step: InfeasibleError when there is no snapshot
    at all, else whether the ratio objective is defined (a cluster is
    demanded)."""
    if instance.n_snapshots == 0:
        raise InfeasibleError("no valid snapshot exists; the illumination "
                              "plan is infeasible")
    return bool(instance.demanded.any())


def _framed(instance: IlpInstance, counts, status: str) -> HoppingPlan:
    """The plan of the count vector ``counts(instance)``, reported with
    ``status``, after the prologue. With no demanded cluster the plan
    spreads the slots uniformly instead, with t = inf and status
    'heuristic'."""
    if _prologue(instance):
        psi = np.array(counts(instance), dtype=int)
    else:
        base, extra = divmod(instance.n_slot, instance.n_snapshots)
        psi = base + (np.arange(instance.n_snapshots) < extra)
        status = STATUS_HEURISTIC
    s = instance.l @ psi
    d = instance.demanded
    t = float((s[d] / instance.m[d]).min(initial=math.inf))
    psi.flags.writeable = False
    s.flags.writeable = False
    return HoppingPlan(psi=psi, t=t, s=s, schedule=expand_schedule(psi),
                       solver_status=status)


# ---------------------------------------------------------------------------
# LP relaxations

def _root_lp(a: np.ndarray, n_slot: int) -> tuple[float, np.ndarray]:
    """The root LP, max t s.t. a @ psi - t >= 0 rowwise, sum(psi) = n_slot,
    0 <= psi <= n_slot, over the normalized rows a = l / m: its optimum
    (t, psi). Its feasible set is never empty, so a solve that reports no
    optimum is a SolverError. Its matrix is ``_requirement_rows(a)`` with
    the t column after psi."""
    n_dem, n_ss = a.shape
    n_var = n_ss + 1 + n_dem  # psi, t, surplus per demanded row
    rows = np.insert(_requirement_rows(a), n_ss, -1.0, axis=1)
    rows[n_dem, n_ss] = 0.0
    rhs = np.append(np.zeros(n_dem), float(n_slot))
    cost = np.zeros(n_var)
    cost[n_ss] = -1.0
    upper = np.full(n_var, np.inf)
    upper[:n_ss] = n_slot
    res = solve_bounded_lp(cost, rows, rhs, np.zeros(n_var), upper)
    if res.status != OPTIMAL:
        raise SolverError(f"root LP ended {res.status}, not optimal")
    return float(res.x[n_ss]), res.x[:n_ss]


def _requirement_rows(v: np.ndarray) -> np.ndarray:
    """The equality rows [[v, -I], [1, 0]] over (psi, surplus per demanded
    row), read-only. The exact solve builds them once over the integer rows
    V, so every requirement LP of its chain shares one -1/0/1 matrix; the
    root LP's matrix is built the same way over a = l / m."""
    n_dem, n_ss = v.shape
    rows = np.zeros((n_dem + 1, n_ss + n_dem))
    rows[:n_dem, :n_ss] = v
    rows[:n_dem, n_ss:] = -np.eye(n_dem)
    rows[n_dem, :n_ss] = 1.0
    rows.flags.writeable = False
    return rows


def _fractional_index(psi: np.ndarray):
    """Index of the entry farthest from an integer, or None if integral."""
    frac = psi - np.floor(psi)
    dist = np.minimum(frac, 1.0 - frac)
    i = int(dist.argmax())
    if dist[i] <= _INT_TOL:
        return None
    return i


# ---------------------------------------------------------------------------
# Integer thresholds

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


def _requirement(spacing, g):
    """Integer requirement k_j = ceil(g / spacing_j) of threshold g, meaning
    V psi >= k, the requirement LPs' right-hand side: -(-a d // (b c)) for
    g = a / b and spacing_j = c / d. A k_j beyond int64 is a SolverError."""
    a, b = g.numerator, g.denominator
    try:
        k = np.array([-(-a * c.denominator // (b * c.numerator))
                      for c in spacing], dtype=np.int64)
    except OverflowError:
        raise SolverError(
            "demands and supplies are too far apart in scale for int64 "
            "requirement counts") from None
    return k


# ---------------------------------------------------------------------------
# Exact integer search

def _branch_and_bound(rows, v, k, n_slot, lb, ub, warm):
    """The first count vector found with v @ psi >= k, sum(psi) = n_slot
    and lb <= psi <= ub, or None when there is none, and the restart point
    of the last LP solved.

    Depth-first LP branch-and-bound, down-branch first, over feasibility
    LPs. Each LP is the same requirement relaxed to real psi, with no
    objective: ``rows = _requirement_rows(v)``, right-hand side
    [k, n_slot], and bounds psi's box and the surplus columns' [0, inf),
    all built once per search; a child copies its parent's bounds and
    changes one. The first LP restarts from ``warm`` and every child from
    its parent's basis. A point is accepted only by the integer test.
    """
    n_ss, n_dem = len(lb), len(k)
    rhs = np.append(k, n_slot).astype(float)
    stack = [(np.concatenate([lb, np.zeros(n_dem)]),
              np.concatenate([ub, np.full(n_dem, np.inf)]), warm)]
    while stack:
        lower, upper, parent = stack.pop()
        nlb, nub = lower[:n_ss], upper[:n_ss]
        if nlb.sum() > n_slot or nub.sum() < n_slot:
            continue
        res = solve_bounded_lp(None, rows, rhs, lower, upper, warm=parent)
        warm = res.warm
        if res.status != OPTIMAL:
            continue
        psi_lp = res.x[:n_ss]
        branch = _fractional_index(psi_lp)
        if branch is None:
            psi_int = np.rint(psi_lp).astype(int)
            if ((psi_int < nlb) | (psi_int > nub)).any():
                raise SolverError("a rounded LP point lies outside its node's "
                                  "box; the LP is too ill-conditioned to solve")
            if psi_int.sum() == n_slot and (v @ psi_int >= k).all():
                return psi_int, warm
            continue
        if not nlb[branch] < psi_lp[branch] < nub[branch]:
            raise SolverError("the LP point's branching coordinate lies outside "
                              "its node's box; the LP is too ill-conditioned "
                              "to solve")
        floor_val = math.floor(psi_lp[branch])
        ub_down = upper.copy()
        ub_down[branch] = floor_val
        lb_up = lower.copy()
        lb_up[branch] = floor_val + 1
        stack.append((lb_up, upper, warm))    # explored second
        stack.append((lower, ub_down, warm))  # explored first
    return None, warm


# ---------------------------------------------------------------------------
# Exact solver

def solve_illumination(instance: IlpInstance) -> HoppingPlan:
    """Exact max-min plan; the lexicographically smallest optimal counts.
    Reads demanded row j as p_j times V_j, the factorization ``IlpInstance``
    carries, as it guarantees n_slot <= ``N_SLOT_CAP``."""
    return _framed(instance, _exact_counts, STATUS_OPTIMAL)


def _exact_counts(instance: IlpInstance) -> np.ndarray:
    n_ss, n_slot = instance.n_snapshots, instance.n_slot
    v, step = instance.v, instance.step
    m_dem = instance.m[instance.demanded]
    spacing = [Fraction(s) / Fraction(m) for s, m in zip(step, m_dem)]

    t_lp, _ = _root_lp(instance.a, n_slot)
    rows = _requirement_rows(v)

    # The trivial witness puts every slot on the last snapshot: the
    # lexicographically smallest count vector, so canonical if optimal.
    best_psi = np.zeros(n_ss, dtype=int)
    best_psi[-1] = n_slot
    best_t = _exact_t(v, spacing, best_psi)

    # Walk the thresholds above the witness downward from the LP bound,
    # widened once for simplex round-off; the first threshold with an
    # integer solution is the exact optimum.
    t_top = Fraction(t_lp + _INT_TOL * max(1.0, abs(t_lp)))
    # The chain starts at the witness's basis: each demanded row's surplus
    # column, and the last snapshot for the budget row ([[-I, V_last],
    # [0, 1]] is nonsingular). Each LP restarts from the last LP's basis.
    warm = start(rows, np.append(np.arange(n_ss, n_ss + len(v)), n_ss - 1))
    lb0 = np.zeros(n_ss)
    ub0 = np.full(n_ss, float(n_slot))
    for g in _thresholds(spacing, best_t, t_top):
        psi_g, warm = _branch_and_bound(rows, v, _requirement(spacing, g),
                                        n_slot, lb0, ub0, warm)
        if psi_g is not None:
            best_psi, best_t = psi_g, _exact_t(v, spacing, psi_g)
            break

    k = _requirement(spacing, best_t)
    return _lex_smallest_optimal(rows, v, k, best_psi, n_slot, warm)


def _lex_smallest_optimal(rows, v, k, witness, n_slot, warm):
    """Among count vectors meeting v @ psi >= k, the optimum's requirement,
    the lexicographically smallest.

    Fixes psi_0, psi_1, ... in turn to the smallest value that still admits
    an integer completion meeting the requirement. The incumbent 'witness'
    certifies feasibility of each fixed prefix, so only positions where it
    is nonzero need work. At such a position i, exact exchange moves
    (``_exchange_down``) first lower witness_i without an LP. Then
    feasibility searches (``_branch_and_bound`` with ub_i = u) ask whether
    psi_i <= u is possible: u = w_i - 1, whose infeasibility proves w_i;
    u = 0; u = w_i - 2, w_i - 4, ... down from the witness until one is
    infeasible; then bisection of the gap that is left. Each point found
    becomes the witness and is exchanged down again. Feasibility is
    monotone in u, so the search ends on the smallest value. Each search
    restarts from the basis of the LP solved before it, ``warm`` at first.
    """
    witness = np.asarray(witness, dtype=int).copy()
    n_ss = len(witness)
    lb = np.zeros(n_ss)
    ub = np.full(n_ss, float(n_slot))
    masks, index = _column_masks(v)

    def lowered(i, u):
        """Whether psi_i <= u is feasible; a point found becomes the
        witness, exchanged down at i."""
        nonlocal warm
        ub[i] = u
        psi, warm = _branch_and_bound(rows, v, k, n_slot, lb, ub, warm)
        if psi is None:
            return False
        witness[:] = psi
        _exchange_down(witness, i, masks, index, splits)
        return True

    for i in range(n_ss):
        splits = {}  # _split results of position i, shared by its exchanges
        if witness[i] > 0:
            _exchange_down(witness, i, masks, index, splits)
        lo = -1  # the largest value proved out of psi_i's reach
        if witness[i] > 0 and not lowered(i, witness[i] - 1):
            lo = witness[i] - 1
        if witness[i] > lo + 1 and not lowered(i, 0):
            lo = 0
        gap = 2  # gallop down from the witness
        while witness[i] - gap > lo:
            if lowered(i, witness[i] - gap):
                gap *= 2
            else:
                lo = witness[i] - gap
        while witness[i] > lo + 1:  # bisect the gap left
            u = (lo + witness[i]) // 2
            if not lowered(i, u):
                lo = u
        lb[i] = ub[i] = float(witness[i])
    return witness


# ---------------------------------------------------------------------------
# Exact exchange moves (0/1 requirement rows)

def _column_masks(v):
    """For a 0/1 ``v``: each column's row set as a bitmask (bit r for row
    r), and the largest column index of each mask."""
    packed = np.packbits(v.astype(bool), axis=0, bitorder="little")
    width = packed.shape[0]
    raw = np.ascontiguousarray(packed.T).tobytes()
    masks = [int.from_bytes(raw[o:o + width], "little")
             for o in range(0, len(raw), width)]
    index = {mask: col for col, mask in enumerate(masks)}  # largest index wins
    return masks, index


def _exchange_down(w, i, masks, index, splits):
    """Lower w[i] in place by exchanges that keep v @ w, sum(w) and w[:i]
    exactly: the slots of i move to index[masks[i]], the last column with
    the same mask, if it is above i; otherwise q = min(w[i], w[j]) slots of
    i and of a support column j > i move to columns c, d > i with mask_c +
    mask_d = mask_i + mask_j (``_split``), until w[i] = 0 or no move
    applies. ``splits`` maps j to its split, (c, d) or None; it fills as
    pairs are met and serves every exchange at the same i."""
    same = index[masks[i]]
    if same > i:
        w[same] += w[i]
        w[i] = 0
        return
    moved = True
    while w[i] and moved:
        moved = False
        for j in (np.flatnonzero(w[i + 1:]) + i + 1).tolist():
            if j not in splits:
                splits[j] = _split(masks[i], masks[j], i, index)
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


def _split(mask_i, mask_j, i, index):
    """Columns (c, d), both above i, with mask_c + mask_d = mask_i + mask_j
    as 0/1 vectors, or None. The shared rows go into both c and d; the
    differing rows D are split, c taking D's lowest row (c and d are
    interchangeable), and each split is looked up in ``index``. Pairs that
    differ in more than ``_SPLIT_MAX_ROWS`` rows are left to the search."""
    shared, diff = mask_i & mask_j, mask_i ^ mask_j
    if diff.bit_count() > _SPLIT_MAX_ROWS:
        return None
    low = diff & -diff
    rest = diff ^ low
    sub = 0
    while True:
        part = low | sub
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
    return _framed(instance, lambda inst: _enumerated_counts(inst, cap),
                   STATUS_OPTIMAL)


def _enumerated_counts(instance: IlpInstance, cap: int) -> np.ndarray:
    n_ss, n_slot = instance.n_snapshots, instance.n_slot
    n_compositions = math.comb(n_slot + n_ss - 1, n_ss - 1)
    if n_compositions > cap:
        raise CapExceededError(
            f"{n_compositions} count vectors exceed the brute-force cap {cap}"
        )
    m_dem = instance.m[instance.demanded]
    l_dem = instance.l[instance.demanded]

    best_t, best_psi = -1.0, None  # every t is >= 0
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

    recurse(0, n_slot, np.zeros(len(m_dem)))
    return best_psi


def greedy_plan(instance: IlpInstance) -> HoppingPlan:
    """LP-rounding heuristic, a lower bound on the optimum: floor the root
    LP's counts, hand out the remaining slots one by one, each to the
    snapshot that lifts the worst offered/demand ratio the most (ties to the
    lowest snapshot index), then hill-climb with single-slot moves."""
    return _framed(instance, _greedy_counts, STATUS_HEURISTIC)


def _greedy_counts(instance: IlpInstance) -> np.ndarray:
    n_slot = instance.n_slot
    l_dem = instance.l[instance.demanded]
    m_dem = instance.m[instance.demanded]
    m_col = m_dem[:, None]
    _, psi_lp = _root_lp(instance.a, n_slot)
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
    return psi


def lp_relaxation_bound(instance: IlpInstance) -> float:
    """Optimum of the continuous relaxation, an upper bound on the integer
    optimum; inf, like the plan's t, when no cluster is demanded."""
    if not _prologue(instance):
        return math.inf
    return _root_lp(instance.a, instance.n_slot)[0]


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
