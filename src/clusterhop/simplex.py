"""Dense two-phase primal simplex for linear programs with bounded variables.

Solves   minimize c @ x   subject to   a @ x = b,   lower <= x <= upper,
where upper bounds may be +inf (lower bounds must be finite). Inequality
constraints are the caller's job (add slack/surplus columns). Pivoting uses
Dantzig's rule with lowest-index tie-breaks and falls back to Bland's rule
after a run of degenerate steps, so the method is deterministic and finite.

Sized for the planner's instances (tens of rows, a few hundred columns). The
solver keeps an explicit basis inverse and a boolean mask of the basic
columns. Each basis change updates the inverse with one rank-1 product-form
step (the eta matrix of the pivot); every ``_REFACTOR_INTERVAL`` basis changes,
and before the final point of each phase is read, the inverse is recomputed
from the basis columns so that rounding error from the updates cannot build
up. Basic values, duals and the entering column all come from that inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_BLAND_TRIGGER = 50  # consecutive degenerate pivots before switching rules
_ITERATION_LIMIT = 20000  # pivots per phase before the solve gives up
_REFACTOR_INTERVAL = 32  # basis changes between fresh inversions of the basis


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    pivots: int  # basis changes and bound flips, summed over both phases


class _Lp:
    def __init__(self, c, a, b, lower, upper, tol):
        self.c = np.asarray(c, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.tol = tol
        self.m, self.n = self.a.shape
        self.pivots = 0
        if not np.isfinite(self.lower).all():
            raise ValueError("lower bounds must be finite")
        if (self.upper < self.lower - tol).any():
            raise ValueError("upper bound below lower bound")

    def _refactor(self, basis):
        try:
            self.binv = np.linalg.inv(self.a_ext[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"simplex basis became singular ({exc}); the LP is too "
                "ill-conditioned to solve") from exc

    def _basic_values(self, in_basis, at_upper):
        """Nonbasic values at their bounds and the implied basic values."""
        x = np.where(at_upper, self.upper, self.lower)
        x[in_basis] = 0.0
        return x, self.binv @ (self.b - self.a_ext @ x)

    def _iterate(self, cost, basis, in_basis, at_upper):
        """Run the simplex loop; mutates basis/in_basis/at_upper and the
        basis inverse, returns status."""
        tol = self.tol
        upper = self.upper.tolist()
        lower = self.lower.tolist()
        degenerate_run = 0
        since_refactor = 0
        for _ in range(_ITERATION_LIMIT):
            _, xb = self._basic_values(in_basis, at_upper)
            y = cost[basis] @ self.binv
            reduced = cost - y @ self.a_ext
            can_rise = ~in_basis & ~at_upper & (reduced < -tol)
            can_fall = ~in_basis & at_upper & (reduced > tol)
            eligible = np.flatnonzero(can_rise | can_fall)
            if eligible.size == 0:
                return OPTIMAL
            if degenerate_run >= _BLAND_TRIGGER:
                enter = int(eligible[0])  # Bland: lowest index
            else:
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
            degenerate_run = degenerate_run + 1 if step <= tol else 0
            if leave_pos < 0:
                at_upper[enter] = ~at_upper[enter]  # bound flip, basis unchanged
                continue
            leaving = basis_list[leave_pos]
            basis[leave_pos] = enter
            in_basis[enter] = True
            in_basis[leaving] = False
            at_upper[enter] = False
            at_upper[leaving] = leave_to_upper
            since_refactor += 1
            if since_refactor >= _REFACTOR_INTERVAL:
                self._refactor(basis)
                since_refactor = 0
            else:  # product-form update: B_new^-1 = E @ B^-1
                pivot_row = self.binv[leave_pos] / w[leave_pos]
                self.binv -= np.outer(w, pivot_row)
                self.binv[leave_pos] = pivot_row
        raise CapExceededError(
            f"simplex iteration limit reached ({_ITERATION_LIMIT} pivots in "
            "one phase)")

    def _final_values(self, basis, in_basis, at_upper):
        self._refactor(basis)
        x, xb = self._basic_values(in_basis, at_upper)
        x[basis] = xb
        return x

    def _result(self, status, x=None, objective=None):
        return LpResult(status, x, objective, self.pivots)

    def solve(self):
        # Phase 1: artificials sized to the residual at the all-lower point.
        x0 = self.lower.copy()
        resid = self.b - self.a @ x0
        signs = np.where(resid >= 0, 1.0, -1.0)
        self.a_ext = np.hstack([self.a, np.diag(signs)])
        cols = self.n + self.m
        self.lower = np.concatenate([self.lower, np.zeros(self.m)])
        self.upper = np.concatenate([self.upper, np.full(self.m, np.inf)])
        basis = np.arange(self.n, cols)
        in_basis = np.zeros(cols, dtype=bool)
        in_basis[basis] = True
        at_upper = np.zeros(cols, dtype=bool)
        self.binv = np.diag(signs)  # inverse of the artificial basis

        phase1_cost = np.concatenate([np.zeros(self.n), np.ones(self.m)])
        status = self._iterate(phase1_cost, basis, in_basis, at_upper)
        if status != OPTIMAL:
            return self._result(INFEASIBLE)
        x = self._final_values(basis, in_basis, at_upper)
        feas_tol = 1e-7 * max(1.0, float(np.abs(self.b).max()))
        if x[self.n:].sum() > feas_tol:
            return self._result(INFEASIBLE)

        # Phase 2: pin artificials at zero and optimize the real objective.
        self.upper[self.n:] = 0.0
        phase2_cost = np.concatenate([self.c, np.zeros(self.m)])
        status = self._iterate(phase2_cost, basis, in_basis, at_upper)
        if status == UNBOUNDED:
            return self._result(UNBOUNDED)
        x = self._final_values(basis, in_basis, at_upper)
        xs = x[: self.n]
        return self._result(OPTIMAL, xs, float(self.c @ xs))


def solve_bounded_lp(c, a, b, lower, upper, tol: float = 1e-9) -> LpResult:
    """Minimize ``c @ x`` over ``a @ x = b``, ``lower <= x <= upper``.

    Raises ``CapExceededError`` when a phase runs out of pivots and
    ``SolverError`` when the basis turns out singular.
    """
    return _Lp(c, a, b, lower, upper, tol).solve()
