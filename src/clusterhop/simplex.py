"""Dense bounded-variable simplex for the planner's two kinds of LP.

Both have equality rows and bounds, ``a @ x = b``, ``lower <= x <= upper``,
where upper bounds may be +inf (lower bounds must be finite). Inequality
constraints are the caller's job (add slack/surplus columns). Every solve
starts from a restart point, a ``WarmStart``: a basis of the LP's own
matrix, with its inverse and a cost under which it is dual feasible.
``start(a, basis)`` names one under the zero cost, under which every basis
is dual feasible. An LP with the same matrix that differs in ``b`` or the
bounds can restart from it (Koberstein, *The dual simplex method*, 2005);
another matrix is a ValueError.

An LP with a cost ``c`` minimizes ``c @ x``; the planner's root LP is the
only one. The primal loop runs from the restart point's basis, which must
be primal feasible (else a SolverError), so there is no phase 1. Its result
carries no restart point. An unbounded ray is a SolverError, since the root
LP is bounded. The primal loop prices by Dantzig's rule; its ties go to the
lowest index only when two prices or ratios are exactly equal (or within
``_TOL``). In practice rounding decides most ties between equally good
columns, so the pivot path, though deterministic, moves with the order of
floating-point operations.

An LP without a cost is a feasibility LP: every LP after the root LP.
Boxed nonbasic columns whose reduced cost points the other way move to
their other bound, and a bounded dual simplex under the restart cost
pivots until every basic value is within its bounds, up to
``feasibility_tolerance(b)`` (OPTIMAL, with that point), or a violated row
that no movable column can repair proves the LP INFEASIBLE. Either way the result carries the restart
point for the next LP. Its cost is zero after a feasible LP, and after an
infeasible one the cost the dual loop ended on, under which the final
basis is still dual feasible. The dual loop's leaving row is the violated
row with the largest squared violation over the squared norm of its row of
the basis inverse: dual steepest edge (Forrest & Goldfarb, *Math. Prog.*
57, 1992), with exact weights from the explicit inverse. The entering
column has the smallest ratio of reduced cost to pivot-row entry, and the
pivot element and the primal step are taken from that priced row, whose
entry passed the ratio test's tolerance. Under the zero cost every ratio is
0, so the first eligible column enters and the row is priced in
``_PRICE_CHUNK``-column chunks, in index order, up to the first chunk with
one (in full when none has one: the INFEASIBLE proof), with the bits of the
whole row's product. After each update of the carried reduced costs, a
movable nonbasic column whose reduced cost has drifted to the wrong sign
has its cost shifted by exactly that amount, which sets the reduced cost to
zero (Koberstein 2005). After a run of ``_PERTURB_AFTER`` zero-length dual
steps the loop shifts the cost of every movable nonbasic column toward its
bound by a distinct amount of about ``_DUAL_PERTURBATION``, once per solve,
which keeps the basis dual feasible. Neither loop is guaranteed finite: a
loop that stalls stops at ``_ITERATION_LIMIT`` pivots with a
``CapExceededError`` (exit 4).

The matrix is dense and the basis small: the planner's LPs have tens of
rows and up to tens of thousands of columns (15,466 snapshot columns on the
200-beam / 34-cluster / N_P=4 scenario). The solver keeps an explicit basis
inverse and the basis, the basic column of each row. Each basis change
updates the inverse with one rank-1 product-form step (the eta matrix of
the pivot). Every ``_REFACTOR_INTERVAL`` basis changes, and before the
final point of each loop is read, the inverse is recomputed from the basis
columns so that rounding error from the updates cannot build up, and a dual
loop that proves infeasibility inverts its final basis too; an inverse that
is already a fresh inversion of the final basis (no basis change since) is
kept, since inverting again gives the same bits, and the dual loop then
reads the point from the basic values it computed from that inverse. So
every feasibility LP ends on a fresh inversion of its final basis, and the
restart point carries it (``start`` inverts its basis). A solve starts
from that inverse, bit for bit what inverting the same columns of the same
matrix again would give, so the restart takes exactly the pivots of one
that inverts its basis itself. A restart point is never written to: a
solve copies its arrays at the first pivot, and a feasibility LP that
nothing moved returns it as its own. So an LP that its restart basis
decides (feasible at once, or infeasible at the first leaving row) costs
its basic values and that one test. Pivot rows, the entering column and the primal loop's prices come
from the inverse. The basic values ``x_B``, and the
dual loop's reduced costs, are carried from pivot to pivot instead
(Koberstein 2005, ch. 3; Chvatal, *Linear Programming*, 1983, ch. 8): each
step moves ``x_B`` along the entering column and puts the entering value in
the leaving row, and the dual loop subtracts a multiple of the pivot row
from the reduced costs. Both are recomputed from scratch at the start of
each loop and after every fresh inversion, and the reduced costs also after
the dual loop's perturbation. The dual loop's first reduced costs are those
the restart's sign check computed from the same inverse (all zero under
a zero cost).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_TOL = 1e-9  # pivot, ratio-test and reduced-cost tolerance
_PERTURB_AFTER = 50  # zero-length dual steps in a row before the cost shift
_ITERATION_LIMIT = 20000  # pivots per loop before the solve gives up
_REFACTOR_INTERVAL = 32  # basis changes between fresh inversions of the basis
_DUAL_PERTURBATION = 1e-6  # smallest cost shift of a stalled dual loop
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # spreads the shifts so none tie
# Columns per chunk of a zero-cost priced row: a multiple of 4, and no chunk
# of 1, as OpenBLAS sums those of a product's columns in another order.
_PRICE_CHUNK = 2048


@dataclass(frozen=True)
class WarmStart:
    """A basis to restart from, returned by a feasibility LP or named by
    ``start``: the LP's own matrix ``a``, the basic columns, the nonbasic
    columns at their upper bound, the cost under which the basis is dual
    feasible, and the basis inverse, freshly computed from the basic
    columns. Nothing here is written to; a restart copies what it
    changes."""
    a: np.ndarray
    basis: np.ndarray
    at_upper: np.ndarray
    cost: np.ndarray
    binv: np.ndarray


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None  # the point of an OPTIMAL result
    pivots: int  # basis changes and bound flips
    warm: WarmStart | None  # a feasibility LP's restart point for the next
    perturbed: bool  # the dual loop's stall perturbation ran
    drift_shifts: int  # costs returned shifted by ``_absorb_drift``


def start(a, basis) -> WarmStart:
    """The restart point of the basis ``basis`` (the basic column of each
    row) of the matrix ``a``: every nonbasic column at its lower bound,
    under the zero cost, so dual feasible for any bounds. A singular basis
    is a SolverError."""
    a, basis = np.asarray(a, dtype=float), np.asarray(basis)
    return WarmStart(a, basis, np.zeros(a.shape[1], dtype=bool),
                     np.zeros(a.shape[1]), _inverse(a[:, basis]))


def _inverse(columns):
    try:
        return np.linalg.inv(columns)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"simplex basis became singular ({exc}); the LP is too "
            "ill-conditioned to solve") from exc


def feasibility_tolerance(b) -> float:
    """How far a point's basic values may lie outside their bounds when
    the loops accept it: ``_TOL`` times the largest |b_i|, at least
    ``_TOL``. A caller that reads an LP point against its bounds uses the
    same margin."""
    size = np.abs(b)
    return _TOL * max(1.0, size.item(size.argmax()))


class _Lp:
    def __init__(self, a, b, lower, upper, warm):
        self.a, self.b, self.lower, self.upper = a, b, lower, upper
        self.m, self.n = a.shape
        self.warm = warm
        # the restart point's arrays until the first pivot copies them
        self.basis, self.at_upper, self.binv = (warm.basis, warm.at_upper,
                                                warm.binv)
        self.shared = True
        self.pivots = 0
        self.perturbed, self.drift_shifts = False, 0
        self.since_refactor = 0  # basis changes since binv was inverted
        self.x = None  # the point, once a loop ends on a feasible basis

    def _own(self):
        """Copy the restart point's arrays before a pivot writes to them."""
        if self.shared:
            self.basis = self.basis.copy()
            self.at_upper = self.at_upper.copy()
            self.binv = self.binv.copy()
            self.shared = False

    def _refactor(self):
        self.binv = _inverse(self.a[:, self.basis])
        self.since_refactor = 0

    def _basic_values(self):
        """Nonbasic values at their bounds and the implied basic values."""
        x = np.where(self.at_upper, self.upper, self.lower)
        x[self.basis] = 0.0
        return x, self.binv @ (self.b - self.a @ x)

    def _reduced_costs(self, cost):
        return cost - (cost[self.basis] @ self.binv) @ self.a

    def _direction(self):
        """+1 at each movable nonbasic column at its lower bound, -1 at one
        at its upper bound, and 0 at basic and fixed columns."""
        direction = np.where(self.at_upper, -1.0, 1.0) * (
            self.upper - self.lower > _TOL)
        direction[self.basis] = 0.0
        return direction

    def _pivot(self, basis, at_upper, leave_pos, enter, leave_to_upper, w):
        """Swap column ``enter`` (with ``w = B^-1 a_enter``) into basis
        position ``leave_pos`` and update the basis inverse; ``basis`` and
        ``at_upper`` are the LP's own (``_own``). Returns whether the
        inverse was recomputed from scratch."""
        leaving = basis[leave_pos]
        basis[leave_pos] = enter
        at_upper[enter] = False
        at_upper[leaving] = leave_to_upper
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_INTERVAL:
            self._refactor()
            return True
        # product-form update: B_new^-1 = E @ B^-1
        pivot_row = self.binv[leave_pos] / w[leave_pos]
        self.binv -= w[:, None] * pivot_row
        self.binv[leave_pos] = pivot_row
        return False

    def _iterate(self, cost):
        """Run the primal simplex loop to an optimum under ``cost`` and
        read the point. A start that is not primal feasible and an
        unbounded ray are SolverErrors."""
        tol = _TOL
        upper = self.upper.tolist()
        lower = self.lower.tolist()
        _, xb = self._basic_values()
        feas_tol = feasibility_tolerance(self.b)
        if ((xb < self.lower[self.basis] - feas_tol)
                | (xb > self.upper[self.basis] + feas_tol)).any():
            raise SolverError("the start basis is not primal feasible")
        for _ in range(_ITERATION_LIMIT):
            reduced = self._reduced_costs(cost)
            # gain = |reduced| on the columns that may improve the objective
            gain = np.where(self.at_upper, reduced, -reduced)
            gain[self.basis] = 0.0
            enter = int(np.argmax(gain))  # the first largest gain
            if not gain[enter] > tol:
                self._read_point()
                return
            direction = -1.0 if self.at_upper[enter] else 1.0

            w = self.binv @ self.a[:, enter]
            step = upper[enter] - lower[enter]  # own-bound flip limit
            leave_pos = -1
            leave_to_upper = False
            coeffs = (-direction * w).tolist()
            xb_list = xb.tolist()
            basis_list = self.basis.tolist()
            for i in range(self.m):
                coeff = coeffs[i]
                var = basis_list[i]
                if coeff > tol:
                    room = upper[var] - xb_list[i]
                elif coeff < -tol:
                    room = xb_list[i] - lower[var]
                    coeff = -coeff
                else:
                    continue
                ratio = max(room, 0.0) / coeff
                if ratio < step - tol or (
                    ratio < step + tol
                    and leave_pos >= 0
                    and var < basis_list[leave_pos]
                ):
                    step = ratio
                    leave_pos = i
                    leave_to_upper = coeffs[i] > 0
            if not math.isfinite(step):
                raise SolverError(
                    "the LP is unbounded, which no planner LP can be")
            self._own()
            at_upper = self.at_upper
            self.pivots += 1
            xb -= (direction * step) * w
            if leave_pos < 0:
                at_upper[enter] = ~at_upper[enter]  # bound flip, basis unchanged
                continue
            xb[leave_pos] = (upper[enter] - step if at_upper[enter]
                             else lower[enter] + step)
            if self._pivot(self.basis, at_upper, leave_pos, enter,
                           leave_to_upper, w):
                _, xb = self._basic_values()
        raise CapExceededError(
            f"simplex iteration limit reached ({_ITERATION_LIMIT} pivots in "
            "one loop)")

    def _read_point(self):
        """The point, read from a fresh inversion of the final basis."""
        if self.since_refactor:
            self._refactor()
        x, xb = self._basic_values()
        x[self.basis] = xb
        self.x = x

    def _perturbed(self, cost, direction):
        """``cost`` with each movable nonbasic column's entry shifted toward
        its bound (``direction``, see ``_dual_iterate``) by a distinct small
        amount, so that no reduced cost is zero and the basis stays dual
        feasible."""
        shift = _DUAL_PERTURBATION * max(1.0, float(np.abs(cost).max()))
        spread = 1.0 + np.arange(cost.size) * _GOLDEN % 1.0
        return cost + shift * direction * spread

    def _absorb_drift(self, cost, reduced, direction):
        """``cost`` with the entry of every movable nonbasic column whose
        reduced cost has drifted to the wrong sign shifted by exactly that
        reduced cost, which is set to zero in place, so the basis stays
        dual feasible under the cost returned."""
        wrong = direction * reduced < 0.0
        if not np.count_nonzero(wrong):
            return cost
        cost = np.where(wrong, cost - reduced, cost)
        reduced[wrong] = 0.0
        self.drift_shifts += 1
        return cost

    def _dual_iterate(self, cost, reduced, direction):
        """Run the bounded dual simplex loop under ``cost``. ``direction``
        (updated in place) is ``_direction()``, whose basic and fixed
        columns (0) never enter; the reduced costs ``reduced`` (updated in
        place) must not have the opposite sign anywhere. Under a zero cost
        both may be None, built once a violated row needs them.
        Pivots until every basic value lies within its bounds (OPTIMAL,
        with the point in ``x``) or a violated row cannot be repaired
        (INFEASIBLE); returns the status and the cost under which the
        final basis is dual feasible: ``cost`` with the drift of the
        carried reduced costs absorbed.

        Under a zero restart cost every reduced cost is zero and the
        loop can stall on zero-length dual steps. After ``_PERTURB_AFTER``
        such steps in a row the cost is perturbed, once (any cost under
        which the basis is dual feasible serves)."""
        tol = _TOL
        feas_tol = feasibility_tolerance(self.b)
        degenerate_run = 0
        zero = not np.count_nonzero(cost)  # every reduced cost and ratio is 0
        a, n, lower, upper = self.a, self.n, self.lower, self.upper
        x, xb = self._basic_values()
        lower_b, upper_b = lower[self.basis], upper[self.basis]  # by row
        for _ in range(_ITERATION_LIMIT):
            above = xb - upper_b
            violation = np.maximum(lower_b - xb, above)
            rows = (violation > feas_tol).nonzero()[0]
            if rows.size == 0:
                if self.since_refactor:  # the point, from a fresh inverse
                    self._read_point()
                else:  # inverting again would give the same bits
                    x[self.basis] = xb
                    self.x = x
                return OPTIMAL, cost
            if direction is None:
                direction, reduced = self._direction(), np.zeros(n)
            if degenerate_run == _PERTURB_AFTER and not self.perturbed:
                cost = self._perturbed(cost, direction)
                reduced = self._reduced_costs(cost)
                cost = self._absorb_drift(cost, reduced, direction)
                self.perturbed, zero = True, False
            binv = self.binv
            leave_pos = rows.item(0)
            if rows.size > 1:  # dual steepest edge
                b_rows = binv[rows]
                norms = np.einsum("ij,ij->i", b_rows, b_rows)
                leave_pos = rows.item((violation[rows] ** 2 / norms).argmax())
            # The leaving column moves to the bound it violates; sigma
            # orients row leave_pos of B^-1 A so that the dual step is >= 0.
            sigma = 1.0 if above.item(leave_pos) > 0 else -1.0
            # Zero cost: the first eligible column enters; price only to it.
            width = _PRICE_CHUNK if zero else n
            for lo in range(0, n, width):
                hi = n if lo + width >= n - 1 else lo + width
                alpha = sigma * (binv[leave_pos] @ a[:, lo:hi])
                eligible = (direction[lo:hi] * alpha > tol).nonzero()[0]
                if eligible.size or hi == n:
                    break
            if eligible.size == 0:
                return INFEASIBLE, cost
            step, enter = 0.0, lo + eligible.item(0)
            if not zero:
                ratios = np.maximum(reduced[eligible] / alpha[eligible], 0.0)
                step = ratios.min()
                enter = eligible.item((ratios <= step + tol).argmax())
            pivot = alpha.item(enter - lo)
            self._own()
            basis, at_upper = self.basis, self.at_upper
            self.pivots += 1
            degenerate_run = degenerate_run + 1 if step <= tol else 0
            # The pivot element comes from the priced row, which passed the
            # eligibility test, not from the entering column.
            w = binv @ a[:, enter]
            w[leave_pos] = sigma * pivot
            # Primal step: the leaving value lands on the bound it violates
            # and the entering column takes row leave_pos.
            theta = violation.item(leave_pos) / pivot
            xb -= theta * w
            xb[leave_pos] = (upper if at_upper[enter]
                             else lower)[enter] + theta
            leaving = basis.item(leave_pos)
            direction[enter] = 0.0
            if upper.item(leaving) - lower.item(leaving) > tol:
                direction[leaving] = -sigma
            if reduced[enter]:  # else a zero-length step changes nothing
                reduced -= (reduced[enter] / pivot) * alpha
                cost = self._absorb_drift(cost, reduced, direction)
            lower_b[leave_pos] = lower[enter]
            upper_b[leave_pos] = upper[enter]
            if self._pivot(basis, at_upper, leave_pos, enter, sigma > 0, w):
                x, xb = self._basic_values()
                if not zero:
                    reduced = self._reduced_costs(cost)
                    cost = self._absorb_drift(cost, reduced, direction)
        raise CapExceededError(
            f"simplex iteration limit reached ({_ITERATION_LIMIT} pivots in "
            "one loop)")

    def solve(self, c):
        """With a cost ``c``, run the primal loop under it from the restart
        basis, which must be primal feasible. Without one, make the basis
        dual feasible by moving boxed columns to the other bound, then run
        the dual simplex under the warm cost until the basis is primal
        feasible for this LP's bounds and right-hand side, or proves it
        infeasible. A feasibility LP that neither a pivot nor a change of
        cost or bound sides moved returns its restart point itself."""
        if c is not None:
            self._iterate(c)
            return LpResult(OPTIMAL, self.x, self.pivots, None, False, 0)
        warm = self.warm
        cost = warm.cost
        direction = reduced = None  # under a zero cost, built when needed
        if np.count_nonzero(cost):
            direction = self._direction()
            reduced = self._reduced_costs(cost)
            wrong = direction * reduced < -_TOL
            if np.count_nonzero(wrong):
                self.at_upper = self.at_upper ^ wrong
                direction[wrong] = -direction[wrong]
            cost = self._absorb_drift(cost, reduced, direction)
        at_bound = self.upper[self.at_upper]
        if np.count_nonzero(np.isfinite(at_bound)) < at_bound.size:
            raise SolverError(
                "warm start is not dual feasible: a column without an upper "
                "bound has a reduced cost of the wrong sign")
        status, cost = self._dual_iterate(cost, reduced, direction)
        if status == OPTIMAL:
            if np.count_nonzero(cost):  # every basis is dual feasible at 0
                cost = np.zeros(self.n)
        elif self.since_refactor:  # the restart point gets a fresh inverse
            self._refactor()
        if (not self.shared or self.at_upper is not warm.at_upper
                or cost is not warm.cost):
            warm = WarmStart(self.a, self.basis, self.at_upper, cost,
                             self.binv)
        return LpResult(status, self.x, self.pivots, warm, self.perturbed,
                        self.drift_shifts)


def solve_bounded_lp(c, a, b, lower, upper, warm: WarmStart) -> LpResult:
    """Solve ``a @ x = b``, ``lower <= x <= upper`` from the restart point
    ``warm`` (``LpResult.warm`` of a feasibility LP, or ``start(a,
    basis)``) over the same matrix ``a``.

    With ``c``: minimize ``c @ x`` by the primal loop from the basis of
    ``warm``, which must be primal feasible for ``b`` and the bounds; the
    result is OPTIMAL and carries no restart point. Without (``c`` None): a
    feasibility LP, with any ``b`` and bounds; every nonbasic column whose
    reduced cost under the warm cost has the wrong sign needs a finite
    upper bound. The result is OPTIMAL with a feasible ``x``, or
    INFEASIBLE, and carries the next restart point: under the zero cost
    after a feasible LP, the dual loop's last cost after an infeasible one.

    Raises ``CapExceededError`` when a loop runs out of pivots,
    ``SolverError`` when the basis turns out singular, the start of a
    solve with ``c`` is not primal feasible or its LP is unbounded, or the
    basis of a feasibility LP cannot be made dual feasible, and
    ``ValueError`` when ``warm`` comes from an LP with another matrix.
    """
    a, b, lower, upper = (np.asarray(v, dtype=float)
                          for v in (a, b, lower, upper))
    if np.count_nonzero(np.isfinite(lower)) < lower.size:
        raise ValueError("lower bounds must be finite")
    if np.count_nonzero(upper < lower - _TOL):
        raise ValueError("upper bound below lower bound")
    if warm.a is not a and not np.array_equal(warm.a, a):
        raise ValueError("a warm start needs the LP's own matrix")
    return _Lp(a, b, lower, upper, warm).solve(
        None if c is None else np.asarray(c, dtype=float))
