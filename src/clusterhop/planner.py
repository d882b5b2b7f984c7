"""Illumination-period planning: how many slots each snapshot gets.

The core problem maximizes the worst offered/demanded ratio over clusters:

    max t   s.t.   sum_i psi_i * l_i >= t * m   (elementwise, demanded rows)
                   sum_i psi_i = n_slot,  psi_i nonnegative integers

``solve_illumination`` solves it exactly. Every demanded supply row must lie
on a value lattice: uniform on its support (always true for snapshot
supplies, where row j only contains 0 and p_j; an all-zero row qualifies) or
all-integer. The achievable objectives then form a finite grid, and the
solver walks that grid downward from the LP bound, deciding each candidate
threshold with an integer feasibility search over lattice-tightened
requirements, then refines the optimizer to the lexicographically smallest
optimal count vector. LP bounds come from the in-repo bounded-variable
simplex; after the first, every LP of the grid walk and of the refinement
restarts from the basis of the LP before it (a branch-and-bound child from
its parent's). A row off any lattice is a ValidationError; a row whose grid has
more than ``OBJECTIVE_GRID_CAP`` steps (N_slot above the cap for snapshot
rows) is a CapExceededError. ``brute_force_plan`` enumerates count vectors
as an oracle and ``greedy_plan`` is a fast heuristic lower bound; both accept
any supply matrix. Clusters with zero demand are excluded from the
objective; they still receive whatever supply the chosen snapshots give
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InfeasibleError, ValidationError
from .simplex import OPTIMAL, solve_bounded_lp

STATUS_OPTIMAL = "optimal"
STATUS_HEURISTIC = "heuristic"

DEFAULT_BRUTE_FORCE_CAP = 10 ** 7
OBJECTIVE_GRID_CAP = 10 ** 6  # largest lattice multiple k_max of one row
_INT_TOL = 1e-7


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

def _lp_max_t(a: np.ndarray, n_slot: int, lb: np.ndarray, ub: np.ndarray):
    """max t s.t. a @ psi - t >= 0 rowwise, sum(psi) = n_slot, lb<=psi<=ub."""
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
    lower = np.concatenate([lb, [0.0], np.zeros(n_dem)])
    upper = np.concatenate([ub, [np.inf], np.full(n_dem, np.inf)])
    res = solve_bounded_lp(cost, rows, rhs, lower, upper)
    if res.status != OPTIMAL:
        return None
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
# Objective lattice

def _row_lattice_step(row: np.ndarray) -> float | None:
    """Spacing of the values sum_i psi_i * row_i can take, when that set is a
    lattice: the common value for a uniform row (the snapshot-supply case),
    the gcd of the entries of an all-integer row, and 1.0 when that gcd is 0
    (the all-zero row of a cluster in outage). None when no lattice is known."""
    nz = row[row > 0]
    if nz.size and nz.max() - nz.min() <= 1e-9 * nz.max():
        return float(nz[0])
    if np.abs(row - np.rint(row)).max() <= 1e-9:
        return float(math.gcd(*(int(v) for v in np.rint(nz))) or 1)
    return None


def _lattice_steps(l_dem: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    steps = []
    for j, row in zip(clusters, l_dem):
        step = _row_lattice_step(row)
        if step is None:
            raise ValidationError(
                f"supply row of cluster {j} is neither uniform on its "
                "support nor integer; the exact planner needs a value lattice"
            )
        steps.append(step)
    return np.array(steps)


def _objective_grid(l_dem, m_dem, steps, n_slot, clusters):
    """Sorted array of all values the objective can take.

    The achieved t always equals s_j / m_j of some cluster, and s_j lives on
    that row's value lattice; the union of the per-row grids therefore
    contains every achievable objective.
    """
    grids = []
    for j in range(l_dem.shape[0]):
        k_max = int(math.floor(n_slot * l_dem[j].max() / steps[j] + 0.5))
        if k_max > OBJECTIVE_GRID_CAP:
            raise CapExceededError(
                f"objective grid of cluster {clusters[j]} has {k_max} steps, "
                f"above the cap {OBJECTIVE_GRID_CAP} (N_slot={n_slot})"
            )
        grids.append(np.arange(k_max + 1) * (steps[j] / m_dem[j]))
    return np.unique(np.concatenate(grids))


def _grid_floor(grid: np.ndarray, x: float) -> float:
    """Largest grid value <= x, with slack for float round-off."""
    idx = int(np.searchsorted(grid, x + 1e-9 * max(1.0, abs(x)), side="right")) - 1
    return -math.inf if idx < 0 else float(grid[idx])


def _requirements(m_dem, steps, g):
    """Normalized per-row requirements implied by threshold g.

    s_j >= g * m_j together with s_j in steps_j * Z tightens to
    s_j >= steps_j * ceil(g * m_j / steps_j), returned divided by m_j.
    """
    req = np.empty(len(m_dem))
    for j in range(len(m_dem)):
        x = g * m_dem[j] / steps[j]
        req[j] = steps[j] * math.ceil(x - 1e-9 * max(1.0, abs(x))) / m_dem[j]
    return req


def _meets(a: np.ndarray, psi: np.ndarray, rhs_req: np.ndarray) -> bool:
    lhs = a @ psi
    return bool((lhs >= rhs_req - 1e-9 * np.maximum(1.0, np.abs(rhs_req))).all())


# ---------------------------------------------------------------------------
# Heuristics (warm starts; exactness comes from the searches below)

def _rounding_incumbent(instance: IlpInstance, psi_lp: np.ndarray,
                        demanded: np.ndarray) -> np.ndarray:
    """Integer point near the LP optimum: floor the relaxation, hand out the
    remaining slots one by one lifting the worst ratio, then hill-climb with
    single-slot moves."""
    psi = np.floor(psi_lp + _INT_TOL).astype(int)
    psi = np.maximum(psi, 0)
    remaining = instance.n_slot - int(psi.sum())
    l_dem = instance.l[demanded]
    m_dem = instance.m[demanded][:, None]
    s = l_dem @ psi
    for _ in range(remaining):
        scores = ((s[:, None] + l_dem) / m_dem).min(axis=0)
        pick = int(np.argmax(scores))
        psi[pick] += 1
        s += l_dem[:, pick]

    m_flat = instance.m[demanded]
    for _ in range(200):  # single-slot exchange passes
        t_cur = float((s / m_flat).min())
        best_gain = t_cur
        move = None
        for src in np.flatnonzero(psi):
            base = s[:, None] - l_dem[:, [src]] + l_dem
            cand = (base / m_dem).min(axis=0)
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


def _repair_toward(a, rhs_req, n_slot, lb, ub, psi_lp):
    """Round the LP point and spend the remaining budget on the rows that are
    still short. Returns an integer vector within bounds and budget."""
    psi = np.floor(psi_lp + _INT_TOL)
    psi = np.clip(psi, lb, ub).astype(int)
    remaining = n_slot - int(psi.sum())
    if remaining < 0:
        order = np.argsort(-(psi - lb))  # shed from the largest headroom
        for i in order:
            give = min(-remaining, int(psi[i] - lb[i]))
            psi[i] -= give
            remaining += give
            if remaining == 0:
                break
    s = a @ psi
    for _ in range(remaining):
        deficit = np.maximum(rhs_req - s, 0.0)
        gain = np.minimum(deficit[:, None], a).sum(axis=0)
        gain[psi >= ub] = -1.0
        pick = int(np.argmax(gain))
        psi[pick] += 1
        s = s + a[:, pick]
    return psi


# ---------------------------------------------------------------------------
# Exact integer searches

def _find_integer_point(a, rhs_req, n_slot, lb0, ub0, warm):
    """Integer psi with a @ psi >= rhs_req and sum(psi) = n_slot, or None,
    and the restart point of the last LP solved.

    Depth-first search with LP feasibility pruning; exact (exhausts the tree
    before concluding infeasibility). A rounding repair at each node finds
    feasible points quickly when they exist. The root LP restarts from
    ``warm`` and every child from its parent's basis.
    """
    zero_cost = np.zeros(a.shape[1])
    stack = [(lb0.copy(), ub0.copy(), warm)]
    while stack:
        lb, ub, parent = stack.pop()
        if lb.sum() > n_slot or ub.sum() < n_slot:
            continue
        lp, warm = _lp_over_requirements(a, rhs_req, n_slot, lb, ub,
                                         zero_cost, parent)
        if lp is None:
            continue
        _, psi_lp = lp
        psi_h = _repair_toward(a, rhs_req, n_slot, lb, ub, psi_lp)
        if _meets(a, psi_h, rhs_req):
            return psi_h, warm
        branch = _fractional_index(psi_lp)
        if branch is None:
            psi_int = np.rint(psi_lp).astype(int)
            if _meets(a, psi_int, rhs_req):
                return psi_int, warm
            continue
        floor_val = math.floor(psi_lp[branch])
        ub_down = ub.copy()
        ub_down[branch] = floor_val
        lb_up = lb.copy()
        lb_up[branch] = floor_val + 1
        stack.append((lb, ub_down, warm))   # explored second
        stack.append((lb_up, ub, warm))     # explored first
    return None, warm


# ---------------------------------------------------------------------------
# Exact solver

def solve_illumination(instance: IlpInstance) -> HoppingPlan:
    """Exact max-min plan; the lexicographically smallest optimal counts.

    Raises InfeasibleError when there is no snapshot at all, ValidationError
    when a demanded supply row lies on no value lattice, and CapExceededError
    when the objective grid is larger than ``OBJECTIVE_GRID_CAP``. When every
    cluster demand is zero the ratio objective is undefined: the plan spreads
    slots uniformly, reports t = inf and status 'heuristic'.
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
    clusters = np.flatnonzero(demanded)
    steps = _lattice_steps(l_dem, clusters)
    grid = _objective_grid(l_dem, m_dem, steps, n_slot, clusters)

    lb0 = np.zeros(n_ss)
    ub0 = np.full(n_ss, float(n_slot))
    root = _lp_max_t(a, n_slot, lb0, ub0)
    assert root is not None  # the budget simplex is never empty
    t_lp, psi_lp = root

    best_psi = _rounding_incumbent(instance, psi_lp, demanded)
    best_t = _ratio_t(instance, best_psi, demanded)

    # Walk candidate objective values downward from the LP bound; the first
    # threshold with an integer solution is the exact optimum.
    top = _grid_floor(grid, t_lp)
    lo = int(np.searchsorted(grid, best_t * (1 + 1e-12) + 1e-15, side="right"))
    hi = int(np.searchsorted(grid, top, side="right"))
    warm = None  # every LP after the first restarts from the last LP's basis
    for g in grid[lo:hi][::-1]:
        rhs_req = _requirements(m_dem, steps, g)
        psi_g, warm = _find_integer_point(a, rhs_req, n_slot, lb0, ub0, warm)
        if psi_g is not None:
            t_g = _ratio_t(instance, psi_g, demanded)
            if t_g > best_t:
                best_t, best_psi = t_g, psi_g
            break

    best_psi = _lex_smallest_optimal(instance, a, m_dem, steps, best_psi,
                                     best_t, warm)
    return _make_plan(instance, best_psi, STATUS_OPTIMAL, demanded)


def _lex_smallest_optimal(instance, a, m_dem, steps, witness, best_t, warm):
    """Among optimal count vectors, the lexicographically smallest.

    Fixes psi_0, psi_1, ... in turn to the smallest value that still admits
    an integer completion achieving the optimum (within the solver tolerance).
    The incumbent 'witness' certifies feasibility of each fixed prefix, so
    only positions where it is nonzero need a solve. Each position's search
    restarts from the basis of the LP solved before it, ``warm`` at first.
    """
    witness = np.asarray(witness, dtype=int).copy()
    n_ss = instance.n_snapshots
    n_slot = instance.n_slot
    rhs_req = _requirements(m_dem, steps, best_t)
    lb = np.zeros(n_ss)
    ub = np.full(n_ss, float(n_slot))
    for i in range(n_ss):
        if witness[i] > 0:
            val, better, warm = _min_count_at(a, rhs_req, n_slot, lb, ub, i,
                                              witness, warm)
            if val < witness[i]:
                witness = better
        lb[i] = ub[i] = float(witness[i])
    return witness


def _min_count_at(a, rhs_req, n_slot, lb, ub, var, witness, warm):
    """Exact integer minimum of psi_var over the requirement polytope, a
    count vector attaining it, and the restart point of the last LP solved.
    The first LP restarts from ``warm`` and every child from its parent."""
    best_val = int(witness[var])
    best_psi = witness
    global_floor = int(round(lb[var]))
    cost = np.zeros(a.shape[1])
    cost[var] = 1.0
    stack = [(lb.copy(), ub.copy(), 0.0, warm)]
    while stack:
        if best_val <= global_floor:
            break  # already at the variable's global lower bound
        nlb, nub, parent_bound, parent = stack.pop()
        if nlb[var] >= best_val:
            continue
        if math.ceil(parent_bound - _INT_TOL) >= best_val:
            continue
        if nlb.sum() > n_slot or nub.sum() < n_slot:
            continue
        lp, warm = _lp_over_requirements(a, rhs_req, n_slot, nlb, nub, cost,
                                         parent)
        if lp is None:
            continue
        val_lp, psi_lp = lp
        if math.ceil(val_lp - _INT_TOL) >= best_val:
            continue
        branch = _fractional_index(psi_lp)
        if branch is None:
            psi_int = np.rint(psi_lp).astype(int)
            if _meets(a, psi_int, rhs_req) and psi_int[var] < best_val:
                best_val = int(psi_int[var])
                best_psi = psi_int
            continue
        floor_val = math.floor(psi_lp[branch])
        ub_down = nub.copy()
        ub_down[branch] = floor_val
        lb_up = nlb.copy()
        lb_up[branch] = floor_val + 1
        stack.append((lb_up, nub, val_lp, warm))    # explored second
        stack.append((nlb, ub_down, val_lp, warm))  # explored first: drives the count down
    return best_val, best_psi, warm


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
    """Slot-by-slot heuristic: always add the snapshot that lifts the worst
    offered/demand ratio the most (ties to the lowest snapshot index)."""
    _require_snapshots(instance)
    demanded = instance.m > 0
    n_ss = instance.n_snapshots
    if not demanded.any():
        return _make_plan(instance, _uniform_psi(n_ss, instance.n_slot),
                          STATUS_HEURISTIC, demanded)
    l_dem = instance.l[demanded]
    m_dem = instance.m[demanded][:, None]
    psi = np.zeros(n_ss, dtype=int)
    s = np.zeros(l_dem.shape[0])
    for _ in range(instance.n_slot):
        scores = ((s[:, None] + l_dem) / m_dem).min(axis=0)
        pick = int(np.argmax(scores))
        psi[pick] += 1
        s += l_dem[:, pick]
    return _make_plan(instance, psi, STATUS_HEURISTIC, demanded)


def lp_relaxation_bound(instance: IlpInstance) -> float:
    """Optimum of the continuous relaxation; upper-bounds the integer optimum."""
    _require_snapshots(instance)
    demanded = instance.m > 0
    if not demanded.any():
        return math.inf
    a = instance.l[demanded] / instance.m[demanded][:, None]
    lp = _lp_max_t(a, instance.n_slot,
                   np.zeros(instance.n_snapshots),
                   np.full(instance.n_snapshots, float(instance.n_slot)))
    if lp is None:
        raise InfeasibleError("LP relaxation infeasible")
    return lp[0]


# ---------------------------------------------------------------------------
# Schedule expansion

def expand_schedule(psi: np.ndarray) -> np.ndarray:
    """Slot-ordered snapshot sequence with near-even spacing.

    Largest-deficit rule: slot n goes to the snapshot whose placed count lags
    its quota psi_i * (n + 1) / n_slot the most (ties to the lowest index).
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
    placed = [0.0] * len(support)
    schedule = []
    for n in range(1, n_slot + 1):
        best = -math.inf
        for k, count in enumerate(counts):
            deficit = (count * n) / n_slot - placed[k]
            if deficit > best:
                best, pick = deficit, k
        schedule.append(support[pick])
        placed[pick] += 1.0
    schedule = np.array(schedule, dtype=int)
    schedule.flags.writeable = False
    return schedule
