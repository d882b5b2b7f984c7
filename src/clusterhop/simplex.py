"""Dense bounded-variable simplex with warm starts for chains of related LPs.

Solves   minimize c @ x   subject to   a @ x = b,   lower <= x <= upper,
where upper bounds may be +inf (lower bounds must be finite). Inequality
constraints are the caller's job (add slack/surplus columns). Pivoting uses
Dantzig's rule with lowest-index tie-breaks, so the method is deterministic.
It is not guaranteed finite: a phase that stalls stops at
``_ITERATION_LIMIT`` pivots with a ``CapExceededError`` (exit 4).

A cold solve is the two-phase primal method: phase 1 drives one artificial
column per row to zero, phase 2 optimizes ``c``. Every result but an
unbounded one carries a ``WarmStart``: the artificial signs, the basis, the
nonbasic columns at their upper bound and the cost under which that basis
is dual feasible. An LP of the same shape that differs in ``c``, ``b`` or
the bounds can restart from it (Koberstein, *The dual simplex method*,
2005): the artificials are fixed at zero, boxed nonbasic columns whose
reduced cost points the other way move to their other bound, and a bounded
dual simplex under the old cost pivots until every basic value is within
its bounds. It picks the leaving row with the largest bound violation and
the entering column with the smallest ratio of reduced cost to pivot-row
entry, both with lowest-index ties. After a run of ``_PERTURB_AFTER``
zero-length dual steps it shifts the cost of every movable nonbasic column
toward its bound by a distinct amount of about ``_DUAL_PERTURBATION``, once
per solve, which keeps the basis dual feasible. A violated row that no
movable column can repair proves the LP infeasible, and the basis is still
dual feasible, so the next LP of the chain can restart from it. Once the
basis is primal feasible, the primal loop optimizes the new ``c``.

Sized for the planner's instances (tens of rows, a few hundred columns). The
solver keeps an explicit basis inverse and a boolean mask of the basic
columns. Each basis change updates the inverse with one rank-1 product-form
step (the eta matrix of the pivot). Every ``_REFACTOR_INTERVAL`` basis
changes, at the start of a warm solve and before the final point of each
phase is read, the inverse is recomputed from the basis columns so that
rounding error from the updates cannot build up. Basic values, duals, pivot
rows and the entering column all come from that inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9  # pivot, ratio-test and reduced-cost tolerance
_PERTURB_AFTER = 50  # zero-length dual steps in a row before the cost shift
_ITERATION_LIMIT = 20000  # pivots per phase before the solve gives up
_REFACTOR_INTERVAL = 32  # basis changes between fresh inversions of the basis
_DUAL_PERTURBATION = 1e-6  # smallest cost shift of a stalled dual loop
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # spreads the shifts so none tie


@dataclass(frozen=True)
class WarmStart:
    """A basis to restart from: artificial-column signs, basic columns,
    nonbasic columns at their upper bound, and the extended cost vector
    (real columns then artificials) under which the basis is dual feasible."""
    signs: np.ndarray
    basis: np.ndarray
    at_upper: np.ndarray
    cost: np.ndarray


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    pivots: int  # basis changes and bound flips, summed over all phases
    warm: WarmStart | None  # restart point for a related LP


class _Lp:
    def __init__(self, c, a, b, lower, upper):
        self.c = np.asarray(c, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.m, self.n = self.a.shape
        self.pivots = 0
        self.since_refactor = 0
        if not np.isfinite(self.lower).all():
            raise ValueError("lower bounds must be finite")
        if (self.upper < self.lower - _TOL).any():
            raise ValueError("upper bound below lower bound")

    def _extend(self, signs, artificial_upper):
        """Append one artificial column per row, sign-matched to the row."""
        self.signs = signs
        self.a_ext = np.hstack([self.a, np.diag(signs)])
        self.lower = np.concatenate([self.lower, np.zeros(self.m)])
        self.upper = np.concatenate(
            [self.upper, np.full(self.m, artificial_upper)])

    def _refactor(self, basis):
        try:
            self.binv = np.linalg.inv(self.a_ext[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"simplex basis became singular ({exc}); the LP is too "
                "ill-conditioned to solve") from exc
        self.since_refactor = 0

    def _basic_values(self, in_basis, at_upper):
        """Nonbasic values at their bounds and the implied basic values."""
        x = np.where(at_upper, self.upper, self.lower)
        x[in_basis] = 0.0
        return x, self.binv @ (self.b - self.a_ext @ x)

    def _reduced_costs(self, cost, basis):
        return cost - (cost[basis] @ self.binv) @ self.a_ext

    def _pivot(self, basis, in_basis, at_upper, leave_pos, enter,
               leave_to_upper, w):
        """Swap column ``enter`` (with ``w = B^-1 a_enter``) into basis
        position ``leave_pos`` and update the basis inverse."""
        leaving = basis[leave_pos]
        basis[leave_pos] = enter
        in_basis[enter] = True
        in_basis[leaving] = False
        at_upper[enter] = False
        at_upper[leaving] = leave_to_upper
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_INTERVAL:
            self._refactor(basis)
        else:  # product-form update: B_new^-1 = E @ B^-1
            pivot_row = self.binv[leave_pos] / w[leave_pos]
            self.binv -= np.outer(w, pivot_row)
            self.binv[leave_pos] = pivot_row

    def _iterate(self, cost, basis, in_basis, at_upper):
        """Run the primal simplex loop; mutates basis/in_basis/at_upper and
        the basis inverse, returns status."""
        tol = _TOL
        upper = self.upper.tolist()
        lower = self.lower.tolist()
        for _ in range(_ITERATION_LIMIT):
            _, xb = self._basic_values(in_basis, at_upper)
            reduced = self._reduced_costs(cost, basis)
            can_rise = ~in_basis & ~at_upper & (reduced < -tol)
            can_fall = ~in_basis & at_upper & (reduced > tol)
            eligible = np.flatnonzero(can_rise | can_fall)
            if eligible.size == 0:
                return OPTIMAL
            enter = int(eligible[np.argmax(np.abs(reduced[eligible]))])
            direction = -1.0 if at_upper[enter] else 1.0

            w = self.binv @ self.a_ext[:, enter]
            step = upper[enter] - lower[enter]  # own-bound flip limit
            leave_pos = -1
            leave_to_upper = False
            coeffs = (-direction * w).tolist()
            xb_list = xb.tolist()
            basis_list = basis.tolist()
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
                return UNBOUNDED
            self.pivots += 1
            if leave_pos < 0:
                at_upper[enter] = ~at_upper[enter]  # bound flip, basis unchanged
                continue
            self._pivot(basis, in_basis, at_upper, leave_pos, enter,
                        leave_to_upper, w)
        raise CapExceededError(
            f"simplex iteration limit reached ({_ITERATION_LIMIT} pivots in "
            "one phase)")

    def _perturbed(self, cost, in_basis, at_upper, movable):
        """``cost`` with each movable nonbasic column's entry shifted toward
        its bound by a distinct small amount, so that no reduced cost is
        zero and the basis stays dual feasible."""
        shift = _DUAL_PERTURBATION * max(1.0, float(np.abs(cost).max()))
        spread = 1.0 + np.arange(cost.size) * _GOLDEN % 1.0
        return cost + np.where(at_upper, -shift, shift) * (
            movable & ~in_basis) * spread

    def _dual_iterate(self, cost, basis, in_basis, at_upper):
        """Run the bounded dual simplex loop under ``cost``, whose reduced
        costs must already have the right sign at every nonbasic column.
        Pivots until every basic value lies within its bounds (OPTIMAL) or a
        violated row cannot be repaired (INFEASIBLE); returns the status and
        the cost under which the final basis is dual feasible.

        Under the planner's zero or one-hot costs most reduced costs are
        zero and the loop can stall on zero-length dual steps for thousands
        of pivots. After ``_PERTURB_AFTER`` such steps in a row the cost is
        perturbed, once (any cost under which the basis is dual feasible
        serves)."""
        tol = _TOL
        feas_tol = tol * max(1.0, float(np.abs(self.b).max()))
        movable = self.upper - self.lower > tol  # fixed columns never enter
        degenerate_run = 0
        perturbed = False
        for _ in range(_ITERATION_LIMIT):
            _, xb = self._basic_values(in_basis, at_upper)
            above = xb - self.upper[basis]
            violation = np.maximum(self.lower[basis] - xb, above)
            rows = np.flatnonzero(violation > feas_tol)
            if rows.size == 0:
                return OPTIMAL, cost
            if degenerate_run == _PERTURB_AFTER and not perturbed:
                cost = self._perturbed(cost, in_basis, at_upper, movable)
                perturbed = True
            rows = rows[violation[rows] == violation[rows].max()]
            leave_pos = int(rows[np.argmin(basis[rows])])  # lowest index
            # The leaving column moves to the bound it violates; sigma
            # orients row leave_pos of B^-1 A so that the dual step is >= 0.
            sigma = 1.0 if above[leave_pos] > 0 else -1.0
            alpha = sigma * (self.binv[leave_pos] @ self.a_ext)
            eligible = np.flatnonzero(
                ~in_basis & movable
                & np.where(at_upper, alpha < -tol, alpha > tol))
            if eligible.size == 0:
                return INFEASIBLE, cost
            reduced = self._reduced_costs(cost, basis)
            ratios = np.maximum(reduced[eligible] / alpha[eligible], 0.0)
            step = ratios.min()
            enter = int(eligible[np.flatnonzero(ratios <= step + tol)[0]])
            self.pivots += 1
            degenerate_run = degenerate_run + 1 if step <= tol else 0
            w = self.binv @ self.a_ext[:, enter]
            self._pivot(basis, in_basis, at_upper, leave_pos, enter,
                        sigma > 0, w)
        raise CapExceededError(
            f"simplex iteration limit reached ({_ITERATION_LIMIT} pivots in "
            "one phase)")

    def _final_values(self, basis, in_basis, at_upper):
        self._refactor(basis)
        x, xb = self._basic_values(in_basis, at_upper)
        x[basis] = xb
        return x

    def _result(self, status, x=None, objective=None, warm=None):
        return LpResult(status, x, objective, self.pivots, warm)

    def _optimize(self, basis, in_basis, at_upper):
        """Primal phase from a primal-feasible basis with the artificials
        pinned at zero."""
        cost = np.concatenate([self.c, np.zeros(self.m)])
        status = self._iterate(cost, basis, in_basis, at_upper)
        if status == UNBOUNDED:
            return self._result(UNBOUNDED)
        x = self._final_values(basis, in_basis, at_upper)
        xs = x[: self.n]
        return self._result(OPTIMAL, xs, float(self.c @ xs),
                            WarmStart(self.signs, basis, at_upper, cost))

    def solve(self):
        # Phase 1: artificials sized to the residual at the all-lower point.
        x0 = self.lower.copy()
        resid = self.b - self.a @ x0
        self._extend(np.where(resid >= 0, 1.0, -1.0), np.inf)
        cols = self.n + self.m
        basis = np.arange(self.n, cols)
        in_basis = np.zeros(cols, dtype=bool)
        in_basis[basis] = True
        at_upper = np.zeros(cols, dtype=bool)
        self.binv = np.diag(self.signs)  # inverse of the artificial basis

        phase1_cost = np.concatenate([np.zeros(self.n), np.ones(self.m)])
        status = self._iterate(phase1_cost, basis, in_basis, at_upper)
        if status != OPTIMAL:
            return self._result(INFEASIBLE)
        x = self._final_values(basis, in_basis, at_upper)
        feas_tol = 1e-7 * max(1.0, float(np.abs(self.b).max()))
        if x[self.n:].sum() > feas_tol:
            return self._result(INFEASIBLE, warm=WarmStart(
                self.signs, basis, at_upper, phase1_cost))

        # Phase 2: pin artificials at zero and optimize the real objective.
        self.upper[self.n:] = 0.0
        return self._optimize(basis, in_basis, at_upper)

    def solve_warm(self, warm: WarmStart):
        """Restart from ``warm``: make its basis dual feasible by moving
        boxed columns to the other bound, run the dual simplex under the
        warm cost until the basis is primal feasible for this LP's bounds
        and right-hand side, then the primal simplex under this LP's cost."""
        self._extend(warm.signs, 0.0)
        basis = warm.basis.copy()
        in_basis = np.zeros(self.n + self.m, dtype=bool)
        in_basis[basis] = True
        at_upper = warm.at_upper.copy()
        self._refactor(basis)
        reduced = self._reduced_costs(warm.cost, basis)
        wrong = ~in_basis & np.where(at_upper, reduced > _TOL,
                                     reduced < -_TOL)
        at_upper[wrong] = ~at_upper[wrong]
        if not np.isfinite(self.upper[at_upper]).all():
            raise SolverError(
                "warm start is not dual feasible: a column without an upper "
                "bound has a reduced cost of the wrong sign")
        status, cost = self._dual_iterate(warm.cost, basis, in_basis,
                                          at_upper)
        if status == INFEASIBLE:
            return self._result(INFEASIBLE, warm=WarmStart(
                warm.signs, basis, at_upper, cost))
        return self._optimize(basis, in_basis, at_upper)


def solve_bounded_lp(c, a, b, lower, upper,
                     warm: WarmStart | None = None) -> LpResult:
    """Minimize ``c @ x`` over ``a @ x = b``, ``lower <= x <= upper``.

    Without ``warm`` the solve is the cold two-phase method. With it, the
    solve restarts from that basis (``LpResult.warm`` of an LP with the same
    shape and artificial signs, which may differ in ``c``, ``b`` and the
    bounds). Every nonbasic column whose reduced cost has the wrong sign
    must have a finite upper bound. The result's ``warm`` is the restart
    point for the next LP of a chain; it is None only for an unbounded LP.

    Raises ``CapExceededError`` when a phase runs out of pivots and
    ``SolverError`` when the basis turns out singular or the warm basis
    cannot be made dual feasible.
    """
    lp = _Lp(c, a, b, lower, upper)
    return lp.solve() if warm is None else lp.solve_warm(warm)
