"""Embedded LP/MIP solving plus a subprocess bridge to external solvers.

The LP engine is a dense bounded-variable simplex that always returns a
basic (vertex) solution, which is what the LP-integrality checks rely on.
A cold solve is the two-phase primal simplex from a slack crash basis
(Bixby 1992): a row's slack starts basic wherever its bounds hold the row's
initial residual, and only the remaining rows get an artificial.  Pricing
is Dantzig's with a Bland fallback against cycling; the basis inverse is
updated explicitly and refactorized periodically; both ratio tests refuse
pivots below 1e-9.  A re-solve after a bound change starts from the
previous optimal basis and runs the bounded dual simplex (Koberstein 2005),
falling back to a cold solve when that basis is unusable.  The MIP engine
is best-first branch and bound on top of it: it builds the LP arrays once
and warm-starts each child from its parent's optimal basis.  Neither aims
to compete with commercial solvers; they are deterministic and auditable
at desk scale.  `external_solve` shells out to any solver reachable via a
command template and verifies the returned solution against the model.
"""

from __future__ import annotations

import math
import os
import shlex
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from heapq import heappush, heappop

import numpy as np

from .model import INF, MAX, ModelIR, evaluate, write_mps

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"

_FEAS_TOL = 1e-8
_OPT_TOL = 1e-7
_INT_TOL = 1e-6


class SolverError(RuntimeError):
    pass


class SimplexNumericalError(SolverError):
    """Singular basis or irrecoverable numerical trouble."""


class SolverSpawnError(SolverError):
    pass


class SolverExitError(SolverError):
    pass


class SolutionParseError(SolverError):
    pass


class SolutionVerificationError(SolverError):
    pass


@dataclass
class SolveResult:
    status: str
    objective: float
    assignment: dict
    bound: float
    iterations: int = 0
    nodes: int = 0
    wall_time: float = 0.0
    basis: tuple = None  # an optimal LP's basis, for `WarmStart`

    def value(self, name):
        return self.assignment[name]


# -- bounded-variable simplex -------------------------------------------------

_PIV_TOL = 1e-9  # smallest pivot either ratio test accepts
_ZERO_TOL = 1e-12  # a computed tableau entry this small is round-off


class _Simplex:
    """min c.x  s.t.  A x = b,  lo <= x <= hi  (dense).

    The last m columns of A are the row slacks (the identity), as
    `_model_arrays` lays them out.  `solve` is the cold two-phase primal
    simplex from a slack crash basis; `solve_warm` re-solves from a given
    basis with the dual simplex.
    """

    def __init__(self, A, b, c, lo, hi, iteration_cap=50000, refactor_every=150):
        self.A = A
        self.b = b
        self.c = c
        self.lo = lo
        self.hi = hi
        self.m, self.n = A.shape
        self.iteration_cap = iteration_cap
        self.refactor_every = refactor_every
        self.iterations = 0
        self.art_rows = np.zeros(0, dtype=int)

    def _refactor(self):
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise SimplexNumericalError("singular basis during refactorization")

    def _basic_values(self):
        rhs = self.b - self.A @ self.x + self.A[:, self.basis] @ self.x[self.basis]
        return self.binv @ rhs

    def basis_state(self):
        """(basic columns, at-upper flags) over A's own columns, for `solve_warm`.

        An artificial left basic (at zero) is replaced by its row's slack:
        both are unit columns of that row, so the basis stays nonsingular.
        """
        n, m = self.n, self.m
        basis = [j if j < n else n - m + int(self.art_rows[j - n]) for j in self.basis]
        return basis, self.at_upper[:n].copy()

    def solve(self):
        m, n = self.m, self.n
        A, b, lo, hi = self.A, self.b, self.lo, self.hi
        # start nonbasic at the finite bound closest to zero (0 for free vars);
        # every slack's bounds hold 0
        x = np.where(np.isfinite(lo), lo, 0.0)
        use_hi = np.isfinite(hi) & (~np.isfinite(lo) | (np.abs(hi) < np.abs(lo)))
        x[use_hi] = hi[use_hi]
        resid = b - A @ x
        # slack crash basis: a row's slack starts basic when its bounds hold
        # the row's residual; an artificial carries the residual of every
        # other row (equalities off zero and violated inequalities)
        slack = np.arange(n - m, n)
        absorb = (lo[slack] <= resid) & (resid <= hi[slack])
        x[slack[absorb]] = resid[absorb]
        art_rows = np.nonzero(~absorb)[0]
        k = art_rows.size
        art = np.zeros((m, k))
        art[art_rows, np.arange(k)] = np.where(resid[art_rows] >= 0, 1.0, -1.0)
        self.A = np.hstack([A, art])
        self.lo = np.concatenate([lo, np.zeros(k)])
        self.hi = np.concatenate([hi, np.full(k, INF)])
        self.x = np.concatenate([x, np.abs(resid[art_rows])])
        self.art_rows = art_rows
        self.basis = slack.tolist()
        for j, i in enumerate(art_rows):
            self.basis[i] = n + j
        self.at_upper = np.zeros(n + k, dtype=bool)
        self.at_upper[:n] = np.isfinite(hi) & (x == hi) & (x != lo)
        self.at_upper[self.basis] = False
        # the crash basis is diagonal with entries +-1: its own inverse
        self.binv = np.diag(self.A[np.arange(m), self.basis])

        if k:
            phase1 = np.concatenate([np.zeros(n), np.ones(k)])
            status = self._iterate(phase1)
            if status == LIMIT:
                return LIMIT
            if float(phase1 @ self.x) > 1e-6:
                return INFEASIBLE
            # freeze artificials at zero so they cannot re-enter
            self.lo[n:] = 0.0
            self.hi[n:] = 0.0
            self.x[n:] = 0.0
        return self._iterate(np.concatenate([self.c, np.zeros(k)]))

    def solve_warm(self, basis, at_upper):
        """Bounded dual simplex from a dual-feasible basis, then a primal check.

        Each nonbasic column sits at the bound its reduced cost favours; the
        dual simplex then drives out the primal infeasibility a bound change
        left (Koberstein 2005, textbook ratio test with Harris's tolerance).
        Returns OPTIMAL or INFEASIBLE, or None when the basis is singular or
        not dual feasible, or the iteration cap is hit: the caller then
        solves cold.
        """
        A, c, lo, hi = self.A, self.c, self.lo, self.hi
        self.basis = list(basis)
        try:
            self._refactor()
        except SimplexNumericalError:
            return None
        basic = np.zeros(self.n, dtype=bool)
        basic[self.basis] = True
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
        free = ~fin_lo & ~fin_hi
        movable = ~basic & (lo != hi)
        d = c - (c[self.basis] @ self.binv) @ A
        up = at_upper.copy()
        boxed = fin_lo & fin_hi
        up[boxed & (d < -_OPT_TOL)] = True
        up[boxed & (d > _OPT_TOL)] = False
        up[~fin_lo] = fin_hi[~fin_lo]
        up[fin_lo & ~fin_hi] = False
        up[basic] = False
        wrong = np.where(up, d > _OPT_TOL, d < -_OPT_TOL) | (free & (np.abs(d) > _OPT_TOL))
        if np.any(movable & wrong):
            return None
        self.x = np.where(up, hi, np.where(fin_lo, lo, 0.0))
        self.x[self.basis] = 0.0
        self.x[self.basis] = self._basic_values()
        basis_idx = np.asarray(self.basis)
        while True:
            xb = self.x[basis_idx]
            lob, hib = lo[basis_idx], hi[basis_idx]
            viol = np.maximum(lob - xb, xb - hib)
            r = int(np.argmax(viol))
            if viol[r] <= _FEAS_TOL:
                break
            if self.iterations >= self.iteration_cap:
                return None
            self.iterations += 1
            # x_B[r] leaves to the bound it violates; a nonbasic column may
            # enter if moving it off its bound pushes x_B[r] back toward it
            to_upper = xb[r] > hib[r]
            alpha = self.binv[r] @ A
            sa = alpha if to_upper else -alpha
            may_rise, may_fall = movable & (~up | free), movable & (up | free)
            cand = (may_rise & (sa > _PIV_TOL)) | (may_fall & (sa < -_PIV_TOL))
            if not cand.any():
                # only pivots below tolerance are left: infeasible unless
                # moving all of them fully could still reach the bound
                tiny = (may_rise & (sa > _ZERO_TOL)) | (may_fall & (sa < -_ZERO_TOL))
                with np.errstate(invalid="ignore"):
                    reach = np.sum(np.abs(alpha[tiny]) * (hi[tiny] - lo[tiny]))
                return None if reach >= viol[r] - _FEAS_TOL else INFEASIBLE
            # each candidate's reduced cost may shrink to zero, no further
            room = np.where(free, 0.0, np.maximum(np.where(up, -d, d), 0.0))
            abs_a = np.where(cand, np.abs(alpha), 1.0)
            ratio = np.where(cand, room / abs_a, INF)
            # Harris: the largest pivot among ratios within the relaxed minimum
            relaxed = np.min(np.where(cand, (room + _OPT_TOL) / abs_a, INF))
            q = int(np.argmax(np.where(cand & (ratio <= relaxed), abs_a, -1.0)))
            theta = ratio[q] if to_upper else -ratio[q]
            w = self.binv @ A[:, q]
            target = hib[r] if to_upper else lob[r]
            step = (xb[r] - target) / w[r]
            out = int(basis_idx[r])
            self.x[q] += step
            self.x[basis_idx] -= step * w
            self.x[out] = target
            d -= theta * alpha
            d[q] = 0.0
            up[out], up[q] = to_upper, False
            movable[out], movable[q] = lo[out] != hi[out], False
            basis_idx[r] = q
            row = self.binv[r, :] / w[r]
            self.binv -= np.outer(w, row)
            self.binv[r, :] = row
            if self.iterations % self.refactor_every == 0:
                self.basis = basis_idx.tolist()
                try:
                    self._refactor()
                except SimplexNumericalError:
                    return None
                self.x[basis_idx] = self._basic_values()
                d = c - (c[basis_idx] @ self.binv) @ A
        self.basis = basis_idx.tolist()
        self.at_upper = up
        # the primal pass confirms optimality on fresh reduced costs and
        # mends any dual infeasibility the Harris tolerance let through
        status = self._iterate(c)
        return status if status == OPTIMAL else None

    def _iterate(self, cost):
        n_total = self.A.shape[1]
        m = self.m
        basic_mask = np.zeros(n_total, dtype=bool)
        basic_mask[self.basis] = True
        fixed = self.lo == self.hi
        free = ~np.isfinite(self.lo) & ~np.isfinite(self.hi)
        stall = 0
        bland_after = 4 * (m + n_total) + 200
        while True:
            if self.iterations >= self.iteration_cap:
                return LIMIT
            self.iterations += 1
            if self.iterations % self.refactor_every == 0:
                self._refactor()
                self.x[self.basis] = self._basic_values()
            y = cost[self.basis] @ self.binv
            d = cost - y @ self.A
            # improvement rate: at-upper columns decrease, at-lower increase,
            # free columns move whichever way their reduced cost rewards
            score = np.where(self.at_upper, d, -d)
            score[free] = np.abs(d[free])
            score[basic_mask | fixed] = -INF
            if stall > bland_after:
                eligible = np.nonzero(score > _OPT_TOL)[0]
                if eligible.size == 0:
                    return OPTIMAL
                enter = int(eligible[0])
            else:
                enter = int(np.argmax(score))
                if score[enter] <= _OPT_TOL:
                    return OPTIMAL
            if free[enter]:
                direction = 1.0 if d[enter] < 0 else -1.0
            else:
                direction = -1.0 if self.at_upper[enter] else 1.0
            w = self.binv @ self.A[:, enter]
            # largest step before a basic variable or the entering bound
            # blocks; rows whose rate is below the pivot tolerance never block
            if m:
                basic_idx = np.asarray(self.basis)
                rate = -direction * w
                xb = self.x[basic_idx]
                room = np.full(m, INF)
                pos = rate > _PIV_TOL
                neg = rate < -_PIV_TOL
                with np.errstate(invalid="ignore"):
                    room[pos] = (self.hi[basic_idx[pos]] - xb[pos]) / rate[pos]
                    room[neg] = (self.lo[basic_idx[neg]] - xb[neg]) / rate[neg]
                room = np.maximum(room, 0.0)
                min_room = float(room.min())
            else:
                min_room = INF
            span = self.hi[enter] - self.lo[enter]
            if span <= min_room + 1e-12:
                if not np.isfinite(span):
                    return UNBOUNDED
                # bound flip, basis unchanged
                step = span * direction
                self.x[enter] += step
                if m:
                    self.x[basic_idx] -= step * w
                self.at_upper[enter] = not self.at_upper[enter]
                stall = stall + 1 if span < 1e-11 else 0
                continue
            if not np.isfinite(min_room):
                return UNBOUNDED
            candidates = np.nonzero(room <= min_room + 1e-12)[0]
            leave = int(min(candidates, key=lambda i: self.basis[i]))
            leave_to_upper = rate[leave] > 0
            step = min_room * direction
            self.x[enter] += step
            self.x[basic_idx] -= step * w
            out = self.basis[leave]
            basic_mask[out] = False
            basic_mask[enter] = True
            self.x[out] = self.hi[out] if leave_to_upper else self.lo[out]
            self.at_upper[out] = leave_to_upper
            self.at_upper[enter] = False
            self.basis[leave] = enter
            row = self.binv[leave, :] / w[leave]
            self.binv -= np.outer(w, row)
            self.binv[leave, :] = row
            stall = stall + 1 if min_room < 1e-11 else 0


def _model_arrays(model: ModelIR, var_cap=5000):
    """(A, b, c, lo, hi, sign) of `min c.x, A x = b, lo <= x <= hi`, one slack per row.

    Built once per model: a branch-and-bound child patches copies of lo/hi.
    """
    n = len(model.variables)
    if n > var_cap:
        raise SolverError(f"embedded LP guarded to {var_cap} variables")
    m = len(model.constraints)
    lo = np.array([v.lower for v in model.variables], dtype=float)
    hi = np.array([v.upper for v in model.variables], dtype=float)
    A = np.zeros((m, n + m))
    b = np.zeros(m)
    slo = np.zeros(m)
    shi = np.zeros(m)
    for i, con in enumerate(model.constraints):
        for idx, coef in con.terms:
            A[i, idx] += coef
        b[i] = con.rhs
        A[i, n + i] = 1.0
        if con.sense == "<=":
            slo[i], shi[i] = 0.0, INF
        elif con.sense == ">=":
            slo[i], shi[i] = -INF, 0.0
        else:
            slo[i], shi[i] = 0.0, 0.0
    c = np.zeros(n + m)
    for idx, coef in model.objective:
        c[idx] += coef
    sign = -1.0 if model.objective_sense == MAX else 1.0
    return A, b, sign * c, np.concatenate([lo, slo]), np.concatenate([hi, shi]), sign


@dataclass
class WarmStart:
    """A model's solver arrays (`_model_arrays`) and a basis to re-solve from.

    With `basis` None the solve is cold; otherwise `basis` is a previous
    optimum's `SolveResult.basis` on the same arrays.
    """

    arrays: tuple
    basis: tuple = None


def solve_lp(model: ModelIR, iteration_cap=50000, bound_patch=None, var_cap=5000,
             warm_start: WarmStart = None) -> SolveResult:
    """Solve the LP relaxation with the embedded simplex (vertex solution).

    `bound_patch` maps variable indices to (lower, upper) bounds intersected
    with the model's.  `warm_start` reuses arrays built once for the model
    and, when it carries a basis, re-solves from it with the dual simplex;
    if that fails (singular basis, iteration cap) the solve restarts cold.
    """
    t0 = time.perf_counter()
    arrays = warm_start.arrays if warm_start is not None else _model_arrays(model, var_cap)
    if any(v.lower > v.upper for v in model.variables) or (
        bound_patch and any(L > U + 1e-12 for L, U in bound_patch.values())
    ):
        return SolveResult(INFEASIBLE, math.nan, {}, _infeasible_bound(model), 0, 0, 0.0)
    A, b, c, lo, hi, _ = arrays
    lo, hi = lo.copy(), hi.copy()
    for idx, (L, U) in (bound_patch or {}).items():
        lo[idx] = max(lo[idx], L)
        hi[idx] = min(hi[idx], U)
    if np.any(lo > hi + 1e-12):
        return SolveResult(INFEASIBLE, math.nan, {}, _infeasible_bound(model), 0, 0, 0.0)
    status, iterations = None, 0
    if warm_start is not None and warm_start.basis is not None:
        sx = _Simplex(A, b, c, lo, hi, iteration_cap=iteration_cap)
        status = sx.solve_warm(*warm_start.basis)
        iterations = sx.iterations
    if status is None:
        sx = _Simplex(A, b, c, lo, hi, iteration_cap=iteration_cap)
        status = sx.solve()
        iterations += sx.iterations
    wall = time.perf_counter() - t0
    if status == OPTIMAL:
        nvars = len(model.variables)
        values = sx.x[:nvars]
        assignment = {v.name: float(values[i]) for i, v in enumerate(model.variables)}
        obj = model.objective_value(values)
        return SolveResult(OPTIMAL, obj, assignment, obj, iterations, 0, wall, sx.basis_state())
    if status == INFEASIBLE:
        return SolveResult(INFEASIBLE, math.nan, {}, _infeasible_bound(model), iterations, 0, wall)
    if status == UNBOUNDED:
        ub = INF if model.objective_sense == MAX else -INF
        return SolveResult(UNBOUNDED, ub, {}, ub, iterations, 0, wall)
    return SolveResult(LIMIT, math.nan, {}, _loose_bound(model), iterations, 0, wall)


def _loose_bound(model):
    return INF if model.objective_sense == MAX else -INF


def _infeasible_bound(model):
    return -INF if model.objective_sense == MAX else INF


@dataclass
class MipOptions:
    node_cap: int = 1_000_000
    time_limit: float = None
    int_tol: float = _INT_TOL
    gap_abs: float = 1e-6
    lp_iteration_cap: int = 50000


def solve_mip(model: ModelIR, options: MipOptions = None) -> SolveResult:
    """Best-first branch and bound over the embedded LP.

    Branches on the most fractional integer variable (ties to the lowest
    index); optimal within gap_abs on the objective.  Deterministic.  The
    LP arrays are built once; each child patches the branched bound and
    re-solves from its parent's optimal basis.  An LP that hits its
    iteration cap ends the search with status `limit` and the best open
    bound.
    """
    opts = options or MipOptions()
    t0 = time.perf_counter()
    int_idx = model.integer_indices()
    sense_max = model.objective_sense == MAX

    def better(a, b):
        return a > b if sense_max else a < b

    arrays = _model_arrays(model)
    root = solve_lp(model, iteration_cap=opts.lp_iteration_cap, warm_start=WarmStart(arrays))
    iterations = root.iterations
    if root.status in (INFEASIBLE, UNBOUNDED):
        return SolveResult(root.status, root.objective, root.assignment, root.bound, iterations, 1,
                           time.perf_counter() - t0)
    if root.status == LIMIT:
        return SolveResult(LIMIT, math.nan, {}, _loose_bound(model), iterations, 1,
                           time.perf_counter() - t0)

    incumbent = None
    inc_obj = -INF if sense_max else INF
    counter = 0
    heap = []

    def push(res, patch, frac):
        nonlocal counter
        key = -res.objective if sense_max else res.objective
        heappush(heap, (key, counter, res.objective,
                        (patch, frac, res.assignment[model.variables[frac].name], res.basis)))
        counter += 1

    def fractional(assignment):
        worst = None
        worst_dist = opts.int_tol
        for idx in int_idx:
            val = assignment[model.variables[idx].name]
            dist = abs(val - round(val))
            if dist > worst_dist + 1e-12:
                worst = idx
                worst_dist = dist
        return worst

    def consider(result):
        nonlocal incumbent, inc_obj
        frac = fractional(result.assignment)
        if frac is None:
            if incumbent is None or better(result.objective, inc_obj):
                incumbent = dict(result.assignment)
                inc_obj = result.objective
            return None
        return frac

    frac = consider(root)
    nodes = 1
    if frac is not None:
        push(root, {}, frac)

    status = OPTIMAL
    while heap and status == OPTIMAL:
        if nodes >= opts.node_cap:
            status = LIMIT
            break
        if opts.time_limit is not None and time.perf_counter() - t0 > opts.time_limit:
            status = LIMIT
            break
        entry = heappop(heap)
        _, _, bound, (patch, frac, val, basis) = entry
        if incumbent is not None and not better(bound, inc_obj + (opts.gap_abs if sense_max else -opts.gap_abs)):
            continue
        floor, ceil = math.floor(val + opts.int_tol), math.ceil(val - opts.int_tol)
        if floor == ceil:
            floor, ceil = math.floor(val), math.ceil(val)
        for lo_b, hi_b in (((-INF), floor), (ceil, INF)):
            child = dict(patch)
            cur = child.get(frac, (-INF, INF))
            child[frac] = (max(cur[0], lo_b), min(cur[1], hi_b))
            res = solve_lp(model, iteration_cap=opts.lp_iteration_cap, bound_patch=child,
                           warm_start=WarmStart(arrays, basis))
            iterations += res.iterations
            nodes += 1
            if res.status == INFEASIBLE:
                continue
            if res.status == LIMIT:
                heappush(heap, entry)  # the unsolved child keeps its parent's bound open
                status = LIMIT
                break
            if res.status != OPTIMAL:
                raise SolverError(f"unexpected LP status {res.status} inside branch and bound")
            if incumbent is not None and not better(res.objective, inc_obj):
                continue
            f2 = consider(res)
            if f2 is not None:
                push(res, child, f2)

    open_bounds = [entry[2] for entry in heap]
    if status == LIMIT:
        best_open = (max if sense_max else min)(open_bounds) if open_bounds else inc_obj
        bound = best_open if incumbent is None else (max if sense_max else min)([best_open, inc_obj])
    else:
        bound = inc_obj
    wall = time.perf_counter() - t0
    if incumbent is None:
        if status == LIMIT:
            return SolveResult(LIMIT, math.nan, {}, bound, iterations, nodes, wall)
        return SolveResult(INFEASIBLE, math.nan, {}, _infeasible_bound(model), iterations, nodes, wall)
    return SolveResult(status, inc_obj, incumbent, bound, iterations, nodes, wall)


# -- external solver bridge ----------------------------------------------------

SOLVER_ENV = "KREVISE_SOLVER_CMD"


def parse_solution_file(text: str):
    """Parse 'name value' style solution files.

    Accepts plain name/value lines, '#' or '//' comment lines, header lines
    such as 'Objective value = ...', and the 4-column 'index name value
    reduced-cost' convention some solvers use.  Returns (assignment,
    objective-or-None).
    """
    assignment = {}
    objective = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("//",)):
            continue
        if line.startswith("#"):
            low = line.lower()
            if "objective" in low and "=" in line:
                try:
                    objective = float(line.split("=")[-1].strip())
                except ValueError:
                    pass
            continue
        low = line.lower()
        if low.startswith(("objective", "solution", "status", "optimal", "infeasible", "=obj=")):
            for tok in reversed(line.replace("=", " ").split()):
                try:
                    objective = float(tok)
                    break
                except ValueError:
                    continue
            continue
        tokens = line.split()
        try:
            if len(tokens) == 2:
                assignment[tokens[0]] = float(tokens[1])
            elif len(tokens) >= 3 and tokens[0].lstrip("-").isdigit():
                assignment[tokens[1]] = float(tokens[2])
            elif len(tokens) >= 3:
                assignment[tokens[0]] = float(tokens[1])
            else:
                raise ValueError
        except ValueError:
            raise SolutionParseError(f"cannot parse solution line: {raw!r}")
    if not assignment:
        raise SolutionParseError("solution file contains no variable values")
    return assignment, objective


def external_solve(model: ModelIR, solver_cmd=None, keep_artifacts=False, timeout=None,
                   verify_tol=1e-5) -> SolveResult:
    """Write MPS, invoke an external solver command, parse and verify.

    The command template must contain '{mps}' and '{sol}' placeholders,
    e.g. ``KREVISE_SOLVER_CMD='scip -f {mps} -l /dev/null -q -s /dev/null
    ...'`` or a small wrapper script.  Missing variables default to 0 (the
    usual convention for sparse solution files).
    """
    cmd = solver_cmd or os.environ.get(SOLVER_ENV)
    if not cmd:
        raise SolverSpawnError(
            f"no external solver configured; set {SOLVER_ENV} to a command template "
            "with {mps} and {sol} placeholders"
        )
    tmpdir = tempfile.mkdtemp(prefix="krevise_")
    try:
        mps_path = os.path.join(tmpdir, "model.mps")
        sol_path = os.path.join(tmpdir, "model.sol")
        with open(mps_path, "w") as fh:
            fh.write(write_mps(model))
        argv = [a.replace("{mps}", mps_path).replace("{sol}", sol_path) for a in shlex.split(cmd)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        except FileNotFoundError as exc:
            raise SolverSpawnError(
                f"cannot launch external solver {argv[0]!r}: {exc}; "
                "check that the binary is on PATH"
            ) from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverExitError(f"external solver timed out after {timeout} s") from exc
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SolverExitError(
                f"external solver exited with code {proc.returncode}; stderr: {proc.stderr[-500:]}"
            )
        if not os.path.exists(sol_path):
            raise SolutionParseError(f"external solver produced no solution file at {sol_path}")
        with open(sol_path) as fh:
            assignment, reported = parse_solution_file(fh.read())
        full = {v.name: assignment.get(v.name, 0.0) for v in model.variables}
        obj, violations = evaluate(model, full, tol=verify_tol)
        if violations:
            worst = max(violations, key=lambda kv: kv[1])
            raise SolutionVerificationError(
                f"external solution violates {len(violations)} rows; "
                f"worst {worst[0]} by {worst[1]:.3g}"
            )
    finally:
        if not keep_artifacts:
            shutil.rmtree(tmpdir, ignore_errors=True)
    bound = reported if reported is not None else obj
    return SolveResult(OPTIMAL, obj, full, bound, 0, 0, wall)


def default_solver(model: ModelIR, options: MipOptions = None,
                   keep_artifacts=False) -> SolveResult:
    """External solver when configured, embedded branch and bound otherwise."""
    if os.environ.get(SOLVER_ENV):
        return external_solve(model, keep_artifacts=keep_artifacts)
    if model.integer_indices():
        return solve_mip(model, options)
    return solve_lp(model)
