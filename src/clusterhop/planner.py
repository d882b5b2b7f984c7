"""Illumination-period planning: how many slots each snapshot gets.

The core problem maximizes the worst offered/demanded ratio over clusters:

    max t   s.t.   sum_i psi_i * l_i >= t * m   (elementwise, demanded rows)
                   sum_i psi_i = n_slot,  psi_i nonnegative integers

The supply is the paper's snapshot supply, which ``IlpInstance`` checks: row
j of l is p_j times a 0/1 row V_j (a snapshot's slot gives p_j to each
cluster it lights). Any other row is a ValidationError, and an n_slot above
``N_SLOT_CAP`` is a CapExceededError, whichever solver runs. The instance
carries the demanded rows' V, as a bool mask, and the exact spacings s_j
= p_j / m_j (p_j = 1 in outage) as integers in one unit: s_j = W_j / L,
with L the lcm of their reduced denominators; an n_slot * s_j beyond
float range is a ValidationError. Every solver runs in one frame
(``_framed``): no snapshot is an InfeasibleError, and without a demanded
cluster, where the ratio is undefined, the plan spreads the slots
uniformly (t = inf, 'heuristic').

``solve_illumination`` solves it exactly, on integers. Every achievable
objective is a multiple of some s_j, and a threshold g, held as the
integer G = g * L = K * W_j, is the integer requirement V psi >= k with
k_j = ceil(g / s_j) = ceil(G / W_j), one floor division; only the root
LP's bound is a Fraction. Every LP reads the rows V, never the demands'
scale. The root LP, the only one with an objective,
bounds t = tau * s_min (s_min the smallest s_j, so 0 <= tau <= n_slot);
tau is the last column of the one LP matrix a solve builds. Every LP after
it is a feasibility LP (no objective) over the requirement itself, rows V
and right-hand side k, read from that matrix without its tau column, and
run by one search: depth-first LP branch-and-bound that stops at the
first integer point. The walk (``_walk``) takes the thresholds downward,
merged as ints, from min(t_lp * (1 + 1e-7), n_slot * s_min), the root
LP's bound t_lp widened for round-off and a bound on every plan (a cluster
is lit in at most n_slot slots), so every k_j is at most n_slot. It stops
at the first with an integer point, above the trivial witness (every slot
on the last snapshot). Then, at the optimum's requirement, it fixes psi_0,
psi_1, ... in turn to their smallest values, which gives the
lexicographically smallest optimal count vector. At each position i, exact
exchange moves lower the witness first: slots of two columns move to two
later columns with the same column sum, which keeps V psi and sum(psi)
unchanged and needs no LP. Then searches with ub_i = u ask whether psi_i <=
u is possible, in this order: u = w_i - 1, whose infeasibility proves w_i;
u = 0; u = w_i - 2, w_i - 4, ... down from the witness; then bisection of
the gap left. Every point found is exchanged down again. The LPs are solved
by the in-repo bounded-variable simplex. The root LP and the chain of
requirement LPs both start at the trivial witness's basis, and every LP of
the chain after the first restarts from the basis of the LP before it;
many are decided by that basis alone, at the cost of its basic values. An
LP point is read clipped to its node's bounds, which the simplex meets up
to its feasibility tolerance (a point further out is a SolverError), and
a point is accepted only by the integer test. ``greedy_plan`` is the exact solve stopped before the
refinement: the walk's point, with the optimal t but counts that need not
be the lexicographically smallest. Clusters with zero demand are
excluded from the objective; they still receive whatever supply the chosen
snapshots give them.
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
from .simplex import OPTIMAL, feasibility_tolerance, solve_bounded_lp, start

STATUS_OPTIMAL = "optimal"
STATUS_HEURISTIC = "heuristic"

N_SLOT_CAP = 10 ** 6  # largest n_slot: the schedule and its loop are O(n_slot)
_INT_TOL = 1e-7
_SPLIT_MAX_ROWS = 12  # at most 2**11 candidate splits per exchange pair


@dataclass(frozen=True)
class IlpInstance:
    l: np.ndarray  # (N_C, N_ss) supply per slot, bits: p_j times a 0/1 row
    m: np.ndarray  # (N_C,) demand per window, bits
    n_slot: int
    # Set once by the check below; v and spacing hold the demanded rows only
    demanded: np.ndarray = field(init=False, repr=False)  # (N_C,) m > 0
    v: np.ndarray = field(init=False, repr=False)  # V_j, bool rows
    # p_j / m_j = spacing[j] / unit exactly, in ints: unit is the lcm of
    # the reduced denominators of the p_j / m_j
    spacing: tuple = field(init=False, repr=False)
    unit: int = field(init=False, repr=False)

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
        nonzero = l != 0
        bad = (nonzero & (l != row_max)).any(axis=1)
        if bad.any():
            raise ValidationError(f"supply row of cluster {int(bad.argmax())} "
                                  "is not one value times a 0/1 row")
        if self.n_slot < 1:
            raise ValidationError("n_slot must be >= 1")
        if self.n_slot > N_SLOT_CAP:
            raise CapExceededError(
                f"N_slot={self.n_slot} is above the cap {N_SLOT_CAP}")
        demanded = m > 0
        p, m_dem = row_max[demanded, 0], m[demanded]
        p[p == 0] = 1.0  # a cluster in outage
        with np.errstate(over="ignore"):
            beyond = ~np.isfinite(p / m_dem * self.n_slot)
        if beyond.any():
            j = int(np.flatnonzero(demanded)[beyond.argmax()])
            raise ValidationError(f"cluster {j}: N_slot times its supply per "
                                  "slot over its demand is beyond float range")
        spacing, unit = _integer_spacing(p.tolist(), m_dem.tolist())
        for name, value in (("l", l), ("m", m), ("demanded", demanded),
                            ("v", nonzero[demanded]),
                            ("spacing", spacing), ("unit", unit)):
            object.__setattr__(self, name, value)

    @property
    def n_snapshots(self) -> int:
        return self.l.shape[1]


def _integer_spacing(p, m):
    """The exact ratios p_j / m_j of positive floats as integers in one
    unit: (w, unit) with p_j / m_j = w_j / unit, where unit is the lcm of
    the ratios' reduced denominators."""
    ratios = []  # (numerator, denominator), reduced
    for pj, mj in zip(p, m):
        a, b = pj.as_integer_ratio()
        c, d = mj.as_integer_ratio()
        g = math.gcd(a * d, b * c)
        ratios.append((a * d // g, b * c // g))
    unit = math.lcm(*(q for _, q in ratios))
    return tuple(n * (unit // q) for n, q in ratios), unit


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

def _requirement_rows(v: np.ndarray, spacing) -> np.ndarray:
    """The one LP matrix of a solve, read-only: the equality rows
    [[V, -I, -w_min / w], [1, 0, 0]] over (psi, surplus per demanded row,
    tau), where w_j = ``spacing[j]`` (integers, see ``IlpInstance``) and
    w_min the smallest; each -w_min / w_j is the correctly rounded
    quotient of the two ints. The root LP reads all of it; every
    requirement LP of the exact solve's chain reads the view without the
    tau column, the -1/0/1 matrix over the integer rows V."""
    n_dem, n_ss = v.shape
    w_min = min(spacing)
    rows = np.zeros((n_dem + 1, n_ss + n_dem + 1))
    rows[:n_dem, :n_ss] = v
    rows[:n_dem, n_ss:-1] = -np.eye(n_dem)
    rows[:n_dem, -1] = [-(w_min / w) for w in spacing]
    rows[n_dem, :n_ss] = 1.0
    rows.flags.writeable = False
    return rows


def _root_lp(rows: np.ndarray, spacing, n_slot: int) -> Fraction:
    """The root LP's optimum t_lp = tau * w_min, in the unit of
    ``spacing``, an upper bound on the integer optimum: max tau s.t. V_j
    psi >= (w_min / w_j) tau for each demanded row j, sum(psi) = n_slot, 0
    <= psi <= n_slot, over ``rows = _requirement_rows(v, spacing)``, so 0
    <= tau <= n_slot at any demand scale. The primal loop starts at the
    trivial witness's basis (each surplus column, and the last snapshot
    for the budget row): tau = 0 and every slot on the last snapshot."""
    n_dem, n_var = rows.shape[0] - 1, rows.shape[1]
    n_ss = n_var - n_dem - 1
    rhs = np.append(np.zeros(n_dem), float(n_slot))
    cost = np.zeros(n_var)
    cost[-1] = -1.0
    upper = np.full(n_var, np.inf)
    upper[:n_ss] = n_slot
    witness = start(rows, np.append(np.arange(n_ss, n_var - 1), n_ss - 1))
    res = solve_bounded_lp(cost, rows, rhs, np.zeros(n_var), upper,
                           warm=witness)
    return Fraction(res.x[-1]) * min(spacing)


def _fractional_index(psi: np.ndarray):
    """Index of the entry of a nonnegative ``psi`` farthest from an
    integer (the first of equals), or None if every entry is within
    ``_INT_TOL`` of one."""
    dist = np.abs(psi - np.rint(psi))
    i = int(dist.argmax())
    if dist.item(i) <= _INT_TOL:
        return None
    return i


# ---------------------------------------------------------------------------
# Integer thresholds, in the unit of ``IlpInstance.spacing``

def _covered(v, psi) -> np.ndarray:
    """V psi over psi's support: ``v @ psi`` would copy all of V to int64."""
    support = psi.nonzero()[0]
    return v[:, support] @ psi[support]


def _exact_t(v, spacing, psi) -> int:
    """Exact objective of an integer count vector, times the unit: cluster
    j is offered (V_j psi) * spacing_j / unit times its demand."""
    return min(k * w for k, w in zip(_covered(v, psi).tolist(), spacing))


def _thresholds(spacing, lo: int, hi: int):
    """The achievable objective values g with lo < g <= hi, times the
    unit, in descending order, each once. Every achieved objective is K *
    spacing_j for a cluster j and an integer K; the values are generated
    lazily."""
    rows = [range(hi // w * w, lo // w * w, -w) for w in spacing]
    return (g for g, _ in itertools.groupby(heapq.merge(*rows, reverse=True)))


def _requirement(spacing, g: int, n_slot: int) -> np.ndarray:
    """The requirement LPs' right-hand side [k, n_slot] of threshold g
    (times the unit), as floats: k_j = ceil(g / spacing_j), meaning V psi
    >= k. The walk's thresholds lie in [0, n_slot * min(spacing)], where
    every k_j is at most n_slot."""
    return np.array([-(-g // w) for w in spacing] + [n_slot], dtype=float)


def _bounds(n_ss: int, n_dem: int, n_slot: int):
    """The requirement LPs' bounds before any branching: psi in [0,
    n_slot], each surplus column in [0, inf)."""
    upper = np.full(n_ss + n_dem, np.inf)
    upper[:n_ss] = n_slot
    return np.zeros(n_ss + n_dem), upper


# ---------------------------------------------------------------------------
# Exact integer search

def _branch_and_bound(rows, v, rhs, lower, upper, warm):
    """The first count vector found with v @ psi >= k, sum(psi) = n_slot
    and psi within its box, or None when there is none, and the restart
    point of the last LP solved.

    Depth-first LP branch-and-bound, down-branch first, over feasibility
    LPs. Each LP is the same requirement relaxed to real psi, with no
    objective: ``rows`` (``_requirement_rows`` without the tau column),
    right-hand side ``rhs`` = [k, n_slot], and bounds ``lower``,
    ``upper`` (psi's box, then the surplus columns' [0, inf)), none written
    to: a child copies its parent's bounds and changes one, and carries
    their box sums. The first LP restarts from ``warm`` and every child
    from its parent's basis. An LP point is read clipped to its node's
    box, and a point outside it by more than the simplex's feasibility
    tolerance is a SolverError. A point is accepted only by the integer
    test.
    """
    n_ss = v.shape[1]
    k, n_slot = rhs[:-1], rhs.item(-1)
    tol = feasibility_tolerance(rhs)
    stack = [(lower, upper, lower[:n_ss].sum(), upper[:n_ss].sum(), warm)]
    while stack:
        lower, upper, lb_sum, ub_sum, parent = stack.pop()
        if lb_sum > n_slot or ub_sum < n_slot:
            continue
        res = solve_bounded_lp(None, rows, rhs, lower, upper, warm=parent)
        warm = res.warm
        if res.status != OPTIMAL:
            continue
        psi_lp = res.x[:n_ss]
        psi = np.minimum(np.maximum(psi_lp, lower[:n_ss]), upper[:n_ss])
        moved = np.abs(psi - psi_lp)
        if moved.item(moved.argmax()) > tol:
            raise SolverError("an LP point lies outside its node's box; the "
                              "LP is too ill-conditioned to solve")
        branch = _fractional_index(psi)
        if branch is None:
            psi_int = np.rint(psi).astype(int)
            if psi_int.sum() == n_slot and (_covered(v, psi_int) >= k).all():
                return psi_int, warm
            continue
        floor_val = math.floor(psi.item(branch))
        ub_down = upper.copy()
        ub_down[branch] = floor_val
        lb_up = lower.copy()
        lb_up[branch] = floor_val + 1
        stack.append((lb_up, upper, lb_sum + lb_up.item(branch)
                      - lower.item(branch), ub_sum, warm))  # explored second
        stack.append((lower, ub_down, lb_sum, ub_sum + floor_val
                      - upper.item(branch), warm))  # explored first
    return None, warm


# ---------------------------------------------------------------------------
# Exact solver

def solve_illumination(instance: IlpInstance) -> HoppingPlan:
    """Exact max-min plan; the lexicographically smallest optimal counts.
    Reads demanded row j as p_j times V_j, the factorization ``IlpInstance``
    carries, as it guarantees n_slot <= ``N_SLOT_CAP``."""
    return _framed(instance, _exact_counts, STATUS_OPTIMAL)


def _exact_counts(instance: IlpInstance) -> np.ndarray:
    rows, psi, t, warm = _walk(instance)
    rhs = _requirement(instance.spacing, t, instance.n_slot)
    return _lex_smallest_optimal(rows, instance.v, rhs, psi, warm)


def _walk(instance: IlpInstance):
    """Walk the thresholds above the trivial witness downward from
    min(t_lp * (1 + _INT_TOL), n_slot * w_min), all in the unit of
    ``instance.spacing``, and stop at the first with an integer point:
    (requirement rows, that point or the witness, its exact t times the
    unit, the last restart point). Both bounds hold for every plan, the
    first up to simplex round-off, so the point's t is the optimum."""
    n_ss, n_slot = instance.n_snapshots, instance.n_slot
    v, spacing = instance.v, instance.spacing
    root = _requirement_rows(v, spacing)
    t_lp = _root_lp(root, spacing, n_slot)
    rows = root[:, :-1]  # the chain's view: no tau column

    # The trivial witness puts every slot on the last snapshot: the
    # lexicographically smallest count vector, so canonical if optimal.
    best_psi = np.zeros(n_ss, dtype=int)
    best_psi[-1] = n_slot
    best_t = _exact_t(v, spacing, best_psi)

    # The chain starts at the witness's basis: each demanded row's surplus
    # column, and the last snapshot for the budget row ([[-I, V_last],
    # [0, 1]] is nonsingular). Each LP restarts from the last LP's basis.
    warm = start(rows, np.append(np.arange(n_ss, n_ss + len(v)), n_ss - 1))
    lower, upper = _bounds(n_ss, len(v), n_slot)
    top = min(math.floor(t_lp * Fraction(1 + _INT_TOL)),
              n_slot * min(spacing))
    for g in _thresholds(spacing, best_t, top):
        psi_g, warm = _branch_and_bound(rows, v,
                                        _requirement(spacing, g, n_slot),
                                        lower, upper, warm)
        if psi_g is not None:
            best_psi, best_t = psi_g, _exact_t(v, spacing, psi_g)
            break
    return rows, best_psi, best_t, warm


def _lex_smallest_optimal(rows, v, rhs, witness, warm):
    """Among count vectors meeting the optimum's requirement, right-hand
    side ``rhs`` = [k, n_slot] (v @ psi >= k, sum(psi) = n_slot), the
    lexicographically smallest.

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
    restarts from the basis of the LP solved before it, ``warm`` at first,
    and gets bounds of its own, copied from the fixed prefix's.
    """
    witness = np.asarray(witness, dtype=int).copy()
    n_ss = len(witness)
    lower, upper = _bounds(n_ss, len(v), rhs.item(-1))
    masks, index, sizes = _column_masks(v)

    def lowered(i, u):
        """Whether psi_i <= u is feasible; a point found becomes the
        witness, exchanged down at i."""
        nonlocal warm
        ub = upper.copy()
        ub[i] = u
        psi, warm = _branch_and_bound(rows, v, rhs, lower.copy(), ub, warm)
        if psi is None:
            return False
        witness[:] = psi
        _exchange_down(witness, i, masks, index, sizes, splits)
        return True

    for i in range(n_ss):
        splits = {}  # _split results of position i, shared by its exchanges
        if witness[i] > 0:
            _exchange_down(witness, i, masks, index, sizes, splits)
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
        lower[i] = upper[i] = float(witness[i])
    return witness


# ---------------------------------------------------------------------------
# Exact exchange moves (0/1 requirement rows)

def _column_masks(v):
    """For a 0/1 ``v``: each column's row set as a bitmask (bit r for row
    r), the largest column index of each mask, and bit n set per size n."""
    packed = np.packbits(v, axis=0, bitorder="little")
    width = packed.shape[0]
    raw = np.ascontiguousarray(packed.T).tobytes()
    masks = [int.from_bytes(raw[o:o + width], "little")
             for o in range(0, len(raw), width)]
    index = {mask: col for col, mask in enumerate(masks)}  # largest index wins
    return masks, index, sum(1 << n for n in {m.bit_count() for m in index})


def _exchange_down(w, i, masks, index, sizes, splits):
    """Lower w[i] in place by exchanges that keep v @ w, sum(w) and w[:i]
    exactly: q = min(w[i], w[j]) slots of i and of a support column j > i
    move to columns c, d > i with mask_c + mask_d = mask_i + mask_j
    (``_split``), until w[i] = 0 or no move applies. ``splits`` maps j to
    its split, (c, d) or None, shared by every exchange at the same i."""
    w_i = int(w[i])
    support = (np.flatnonzero(w[i + 1:]) + i + 1).tolist()
    above = None  # the counts above i as ints, read at the first split
    while w_i:
        before = w_i
        for j in support:
            if j not in splits:
                splits[j] = _split(masks[i], masks[j], i, index, sizes)
            if splits[j] is None:
                continue
            if above is None:
                above = dict(zip(support, w[support].tolist()))
            c, d = splits[j]
            q = min(w_i, above[j])  # > 0: only a move's own j loses slots
            w_i -= q
            above[j] -= q
            above[c] = above.get(c, 0) + q
            above[d] = above.get(d, 0) + q
            if w_i == 0:
                break
        if w_i == before:
            break
        support = sorted(col for col, count in above.items() if count)
    if above:
        w[i] = w_i
        w[list(above)] = list(above.values())


def _split(mask_i, mask_j, i, index, sizes):
    """Columns (c, d), both above i, with mask_c + mask_d = mask_i + mask_j
    as 0/1 vectors, or None: the shared rows go into both, and c takes the
    differing rows D's lowest and as many more as give c and d sizes in
    ``sizes``; the smallest mask_c wins, as in a walk over D's subsets.
    Pairs that differ in more than ``_SPLIT_MAX_ROWS`` rows are left to the
    search."""
    shared, diff = mask_i & mask_j, mask_i ^ mask_j
    n_diff = diff.bit_count()
    if n_diff > _SPLIT_MAX_ROWS:
        return None
    rest, bits = [], diff & (diff - 1)  # D's rows but the lowest, one each
    while bits:
        rest.append(bits & -bits)
        bits &= bits - 1
    first = shared | (diff & -diff)  # c's rows before the part it takes
    fits = sizes >> shared.bit_count()  # bit n: a column has n rows more
    sizes_c = fits & ((2 << n_diff) - 2 if diff else 1)  # c's rows of D
    found = None  # (mask_c, c, d) with the smallest mask_c so far
    while sizes_c:
        n = (sizes_c & -sizes_c).bit_length() - 1
        sizes_c &= sizes_c - 1
        if fits >> (n_diff - n) & 1:
            for part in itertools.combinations(rest, n - n_diff + len(rest)):
                mask_c = first + sum(part)
                c = index.get(mask_c, -1)
                if c > i and (found is None or mask_c < found[0]):
                    d = index.get(mask_c ^ diff, -1)
                    if d > i:
                        found = mask_c, c, d
    return found and found[1:]


# ---------------------------------------------------------------------------
# Heuristic and bound

def greedy_plan(instance: IlpInstance) -> HoppingPlan:
    """The exact solve stopped before the refinement: the point of the
    threshold walk that ``solve_illumination`` refines. Its t is the exact
    t, by the walk's own argument, but its counts need not be the
    lexicographically smallest, so its status is 'heuristic'."""
    return _framed(instance, lambda inst: _walk(inst)[1], STATUS_HEURISTIC)


def lp_relaxation_bound(instance: IlpInstance) -> float:
    """Optimum of the continuous relaxation, an upper bound on the integer
    optimum; inf, like the plan's t, when no cluster is demanded."""
    if not _prologue(instance):
        return math.inf
    return float(_root_lp(_requirement_rows(instance.v, instance.spacing),
                          instance.spacing, instance.n_slot) / instance.unit)


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
