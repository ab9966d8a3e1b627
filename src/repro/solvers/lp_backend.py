"""The LP solvers behind the MLU-minimisation hot path, and the one rule
that picks between them.

Every number the paper reports is normalised by the omniscient MLU LP
(Appendix B, Equation 9), so the LP solver *is* the cold-run hot path.
:func:`repro.solvers.lp.solve_mlu_lp` / :func:`~repro.solvers.lp.
solve_mlu_lp_batch` hand every solve to :func:`resolve_lp_backend`'s one
composite, which routes it by what the caller needs back:

* value-only solves (``solve_mlu``: every normaliser) run on
  :class:`PersistentHighsBackend`, which builds one persistent HiGHS model
  per ``(PathSet, ratio-upper-bounds)`` key and solves each demand by primal
  simplex from a canonical shortest-path basis: no model rebuild, no
  presolve, ~100 pivots instead of ~650.  About 5x per solve on smooth and
  bursty traces alike (``benchmarks/test_lp_warmstart.py`` writes the record
  to ``benchmarks/.records/BENCH_lp_warmstart.json``).  The optimum value is
  unique, and a result is a function of (model, demand) alone.
* vertex-returning solves (``solve``: Des TE, Pred TE, the oracle scheme)
  run on :class:`ScipyLinprogBackend`, which hands scipy's vendored HiGHS
  core -- the binary ``linprog(method="highs")`` runs -- exactly the arrays
  and options ``linprog`` would, because the quality of the LP-based schemes
  depends on *which* optimal vertex of a degenerate LP comes back.  It keeps
  ``linprog``'s vertex bit for bit and its status and feasibility checks;
  it skips the wrapper's per-call input cleaning, matrix conversion and
  dual bookkeeping (about a fifth of a call).

The solver is not selectable (the variable that once chose it stops the
import, below), and neither is the HiGHS build: both solvers bind the core
scipy >= 1.15 vendors for its own ``linprog``/``milp``
(``scipy.optimize._highspy._core``, the pybind11 module ``linprog`` itself
runs), never a standalone ``highspy``.  Another HiGHS build can return
another vertex of a degenerate LP, or another last bit of a normaliser, so a
record must not depend on which packages the machine has installed.

Persistent-model formulation
----------------------------

The ratio LP's demand enters the *coefficients* of the edge-load rows, so
every demand would need a new matrix.  The persistent model therefore solves
the equivalent flow form with explicit per-pair supply slacks
(``x_p = r_p * d_{sd(p)}``)::

    minimise    t
    subject to  sum_{p in P_i} x_p - s_i = 0      for every SD pair i
                sum_{p: e in p} x_p - c(e) t <= 0 for every edge e
                x >= 0, t >= 0, s_i = d_i  (fixed by its bounds)

A new demand is then *one* bulk column-bounds update (``s_i in [d_i, d_i]``).
Every solve starts from the same shortest-path basis, the start of Garg &
Young's multicommodity-flow algorithm, never from the previous solve's:
carrying a basis over made results depend on solve history and cost 10x on
bursty traces.  The optimal objective equals the ratio LP's optimal MLU; the
optimal *vertex* may differ from ``linprog``'s (degenerate LPs have many),
which is why equivalence is asserted on the MLU, not on the split ratios.
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict

import numpy as np
from scipy import sparse
# Kept only as the target of perfbench's ``solvers.lp_backend.linprog`` span.
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

if os.environ.get("REPRO_LP_BACKEND"):
    raise RuntimeError(
        "REPRO_LP_BACKEND is set, but the LP solver is no longer selectable: "
        "normalisers run on the persistent HiGHS model, vertex-returning "
        "solves on linprog's LP in scipy's HiGHS core.  Unset REPRO_LP_BACKEND."
    )

__all__ = [
    "ScipyLinprogBackend",
    "PersistentHighsBackend",
    "AutoLPBackend",
    "resolve_lp_backend",
]

#: Persistent HiGHS models kept per backend instance (LRU beyond this).
MAX_PERSISTENT_MODELS = 8


#: ``linprog``'s post-solve tolerance: its default ``tol`` (1e-9), loosened
#: the way ``scipy.optimize._linprog_util._check_result`` loosens it.
FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)


def _linprog_options():
    """The options ``linprog(method="highs")`` passes HiGHS, exactly."""
    options = _core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def _within_linprog_tolerance(x, row_value, col_upper, row_upper, num_inequalities) -> bool:
    """``linprog``'s check that an ``Optimal`` solution satisfies its constraints.

    The check of ``scipy.optimize._linprog_util._check_result``, for the
    stacked LP ``[A_ub; A_eq] x`` with zero lower bounds: every ``x`` within
    its bounds, every inequality slack ``row_upper - row_value`` at least
    ``-tol`` and every equality residual at most ``tol`` in magnitude, with
    ``tol =`` :data:`FEASIBILITY_TOL`.  A NaN anywhere fails it.
    """
    tol = FEASIBILITY_TOL
    slack = row_upper - row_value
    return bool(
        np.all((x >= -tol) & (x <= col_upper + tol))
        and np.all(slack[:num_inequalities] >= -tol)
        and np.all(np.abs(slack[num_inequalities:]) <= tol)
    )


def _replace_inf(values: np.ndarray, inf: float) -> np.ndarray:
    """linprog's ``_replace_inf``: a copy with +-inf as HiGHS's +-``kHighsInf``."""
    values = values.copy()
    infinite = np.isinf(values)
    values[infinite] = np.sign(values[infinite]) * inf
    return values


class _LinprogModel:
    """One path set's LP as ``linprog`` hands it to HiGHS.

    Everything but the column upper bounds and the matrix values is marshalled
    into the ``HighsLp`` once; each solve sets those two and runs a fresh
    solver on it, so a result is a function of (path set, demand, bounds).
    Holds no reference to the structure it was built from (it is the value of
    a weak-keyed map whose key is that structure).
    """

    def __init__(self, structure) -> None:
        self._options = _linprog_options()
        inf = _core.kHighsInf
        num_cols = structure.num_paths + 1
        row_lower = _replace_inf(structure.stacked_row_lower, inf)
        self._row_upper = _replace_inf(structure.stacked_row_upper, inf)
        self._num_inequalities = structure.b_ub.size
        self._inf = inf
        lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = num_cols
        lp.num_row_ = lp.a_matrix_.num_row_ = row_lower.size
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.col_cost_ = structure.cost
        lp.col_lower_ = np.zeros(num_cols)
        lp.row_lower_ = row_lower
        lp.row_upper_ = self._row_upper
        lp.a_matrix_.start_ = structure.stacked_indptr
        lp.a_matrix_.index_ = structure.stacked_indices
        self._lp = lp

    def solve(self, structure, demand, upper) -> np.ndarray:
        from repro.solvers.lp import LPSolveError

        lp = self._lp
        col_upper = np.append(upper, self._inf)
        # Python lists cross into HiGHS's vectors about 2x faster than arrays.
        lp.col_upper_ = col_upper.tolist()
        lp.a_matrix_.value_ = structure.stacked_data(demand).tolist()
        highs = _core._Highs()
        highs.passOptions(self._options)
        error = _core.HighsStatus.kError
        failed = highs.passModel(lp) == error or highs.run() == error
        status = highs.getModelStatus()
        if failed or status != _core.HighsModelStatus.kOptimal:
            raise LPSolveError(
                f"MLU LP failed: HiGHS model status {highs.modelStatusToString(status)}"
            )
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        if not _within_linprog_tolerance(
            x, np.array(solution.row_value), col_upper, self._row_upper, self._num_inequalities
        ):
            raise LPSolveError(
                "MLU LP failed: HiGHS model status Optimal, but the solution "
                f"violates its constraints by more than {FEASIBILITY_TOL:.2e}"
            )
        return x


class ScipyLinprogBackend:
    """The vertex solver: ``linprog(method="highs")``'s LP and vertex per demand.

    Both methods take the demand vector together with the already-resolved
    per-path ratio upper bounds (sensitivity caps x failure masks,
    feasibility relaxation applied -- see
    ``repro.solvers.lp._resolved_upper_bounds``) and return raw arrays; the
    public :func:`~repro.solvers.lp.solve_mlu_lp` wrapper owns validation,
    the solve counter and the :class:`~repro.te.config.TEConfiguration`
    packaging.

    Each solve hands scipy's vendored HiGHS core the very arrays and options
    ``linprog`` would (the stacked LP of
    :class:`~repro.solvers.lp.MLUConstraintStructure`, marshalled once per
    path set), runs a fresh solver, and keeps ``linprog``'s ``Optimal``
    check and post-solve feasibility check
    (:func:`_within_linprog_tolerance`): the same vertex bit for bit, without
    the wrapper's input cleaning, matrix conversion and dual bookkeeping.
    Also the reference the persistent model is tested against.
    """

    def __init__(self) -> None:
        self._models: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _run(self, path_set, demand_vector, upper) -> np.ndarray:
        from repro.solvers.lp import constraint_structure

        structure = constraint_structure(path_set)
        model = self._models.get(structure)
        if model is None:
            model = self._models[structure] = _LinprogModel(structure)
        return model.solve(structure, demand_vector, upper)

    def solve(self, path_set, demand_vector, upper) -> tuple[np.ndarray, float]:
        """Solve one LP; return ``(split_ratios, optimal_mlu)``.

        Raises:
            repro.solvers.lp.LPSolveError: If the LP is infeasible, the
                solver fails, or its solution misses ``linprog``'s
                feasibility check, naming HiGHS's model status.
        """
        x = self._run(path_set, demand_vector, upper)
        return x[: path_set.num_paths], float(x[-1])

    def solve_mlu(self, path_set, demand_vector, upper) -> float:
        """Optimal MLU only (HiGHS returns the full solution either way;
        skipping the ratio slice only saves the caller the packaging)."""
        return float(self._run(path_set, demand_vector, upper)[-1])


class _PersistentModel:
    """One HiGHS model for a ``(PathSet, upper-bounds)`` key, re-solved per demand."""

    def __init__(self, path_set, structure, upper) -> None:
        num_paths = path_set.num_paths
        num_pairs = path_set.num_sd_pairs
        num_edges = structure.b_ub.shape[0]
        num_cols = num_paths + 1 + num_pairs
        inf = _core.kHighsInf

        self._path_sd_index = path_set.path_sd_index
        self._num_paths = num_paths
        self._num_pairs = num_pairs
        #: Indices of the per-pair supply slacks (their bounds carry the demand).
        self._slack_cols = np.arange(num_paths + 1, num_cols, dtype=np.int32)
        # Fractional sensitivity caps (0 < u < 1) scale with the demand, so
        # those flow columns get per-solve bounds u_p * d_{sd(p)}; u >= 1 is
        # implied by the supply equality, u == 0 is fixed at build time.
        fractional = np.flatnonzero((upper > 0.0) & (upper < 1.0))
        self._frac_cols = fractional.astype(np.int32)
        self._frac_caps = np.ascontiguousarray(upper[fractional], dtype=float)
        self._frac_sd = self._path_sd_index[fractional]
        self._frac_lower = np.zeros(fractional.size)
        # Zero-demand pairs carry no flow, so any caps-respecting split is
        # optimal; distribute proportionally to the upper bounds (feasible
        # because the relaxation guarantees they sum to >= 1 per pair).
        cap_sums = np.zeros(num_pairs)
        np.add.at(cap_sums, self._path_sd_index, upper)
        # A pair with an all-zero upper only occurs when infeasibility is
        # being forced deliberately (the relaxation otherwise prevents it);
        # the LP will fail before these placeholder ratios are ever used.
        path_cap_sums = cap_sums[self._path_sd_index]
        self._zero_demand_ratios = np.divide(
            upper,
            path_cap_sums,
            out=np.zeros(num_paths),
            where=path_cap_sums > 0.0,
        )

        # [ sd_to_path | 0 | -I ] x,t,s = 0   (pair supply rows)
        # [ path_to_edge^T | -c | 0 ] <= 0    (edge load rows)
        equality = sparse.hstack(
            [structure.a_eq, -sparse.identity(num_pairs, format="csr")]
        )
        load = sparse.hstack(
            [structure._template, sparse.csr_matrix((num_edges, num_pairs))]
        )
        matrix = sparse.vstack([equality, load]).tocsc()
        matrix.sort_indices()

        lp = _core.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_pairs + num_edges
        cost = np.zeros(num_cols)
        cost[num_paths] = 1.0
        lp.col_cost_ = cost
        col_upper = np.full(num_cols, inf)
        col_upper[np.flatnonzero(upper == 0.0)] = 0.0
        lp.col_lower_ = np.zeros(num_cols)
        lp.col_upper_ = col_upper
        lp.row_lower_ = np.concatenate(
            [np.zeros(num_pairs), np.full(num_edges, -inf)]
        )
        lp.row_upper_ = np.zeros(num_pairs + num_edges)
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data

        solver = _core._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("simplex_strategy", 4)  # primal: the start is primal feasible
        solver.passModel(lp)
        self._solver = solver
        self._optimal = _core.HighsModelStatus.kOptimal
        self._crash_start(path_set, upper)

    def _crash_start(self, path_set, upper) -> None:
        """The canonical start: every pair routed over its first usable paths.

        Each pair's paths are filled in path order up to their ratio caps
        (the shortest-path routing when nothing is capped or masked).  In
        ratio units that routing does not depend on the demand: capped paths
        sit at their upper bound, the pair's partially filled path is basic,
        everything else is at zero.  Only the edge row that carries ``t`` --
        the routing's most loaded edge -- is picked per demand.
        """
        status = _core.HighsBasisStatus
        sd = self._path_sd_index
        paths = np.arange(self._num_paths)
        before = np.cumsum(upper) - upper
        need = 1.0 - (before - before[np.searchsorted(sd, np.arange(self._num_pairs))][sd])
        usable = upper > 0.0
        last = np.full(self._num_pairs, -1)
        np.maximum.at(last, sd[usable], paths[usable])
        # A pair's last usable path takes what rounding left of caps that
        # sum to one, so every pair with a usable path has a basic one.
        absorbs = usable & ((upper >= need) | (paths == last[sd]))
        basic = np.full(self._num_pairs, self._num_paths)
        np.minimum.at(basic, sd[absorbs], paths[absorbs])
        self._basis = None
        if (last < 0).any():
            # Some pair has no usable path (infeasibility forced on purpose):
            # there is no routing to start from, the solver reports it.
            return
        flows = np.full(self._num_paths, status.kLower, dtype=object)
        flows[usable & (paths < basic[sd])] = status.kUpper
        flows[basic] = status.kBasic
        fill = sparse.diags(np.clip(need, 0.0, upper)) @ path_set.sd_to_path.T
        per_capacity = sparse.diags(1.0 / path_set.topology.capacities)
        self._crash_utilisation = (per_capacity @ path_set.path_to_edge.T @ fill).tocsr()
        self._basis = _core.HighsBasis()
        self._basis.valid, self._basis.alien = True, False
        # Columns x | t | s, rows pairs | edges: t is basic in place of the
        # slack of the tight edge row, which solve_mlu marks per demand.
        self._basis.col_status = (
            flows.tolist() + [status.kBasic] + [status.kLower] * self._num_pairs
        )
        self._rows = [status.kLower] * self._num_pairs
        self._rows += [status.kBasic] * self._crash_utilisation.shape[0]
        self._tight = status.kUpper

    def solve_mlu(self, demand_vector: np.ndarray) -> float:
        from repro.solvers.lp import LPSolveError

        solver = self._solver
        demand = np.ascontiguousarray(demand_vector, dtype=float)
        if self._frac_cols.size:
            solver.changeColsBounds(
                self._frac_cols.size,
                self._frac_cols,
                self._frac_lower,
                self._frac_caps * demand[self._frac_sd],
            )
        solver.changeColsBounds(self._num_pairs, self._slack_cols, demand, demand)
        # Nothing of the previous solve survives: the result is a function of
        # (model, demand) alone, whatever this model solved before.
        solver.clearSolver()
        if self._basis is not None:
            rows = self._rows.copy()
            rows[self._num_pairs + int(np.argmax(self._crash_utilisation @ demand))] = self._tight
            self._basis.row_status = rows
            solver.setBasis(self._basis)
        solver.run()
        status = solver.getModelStatus()
        if status != self._optimal:
            raise LPSolveError(
                f"MLU LP failed: {solver.modelStatusToString(status)}"
            )
        return float(solver.getObjectiveValue())

    def solve(self, demand_vector: np.ndarray) -> tuple[np.ndarray, float]:
        mlu = self.solve_mlu(demand_vector)
        # The solver's feasibility tolerance is absolute, in flow units: a
        # flow it left that far below zero would turn into a large negative
        # ratio once divided by a tiny demand.
        flows = np.clip(self._solver.getSolution().col_value[: self._num_paths], 0.0, None)
        demand_per_path = np.asarray(demand_vector, dtype=float)[self._path_sd_index]
        carried = demand_per_path > 0.0
        ratios = np.where(
            carried,
            flows / np.where(carried, demand_per_path, 1.0),
            self._zero_demand_ratios,
        )
        return ratios, mlu


class PersistentHighsBackend:
    """The value solver: persistent HiGHS models, one per (PathSet, bounds) key.

    The first solve for a key builds the model; every solve moves the
    demand-carrying column bounds and runs primal simplex from the model's
    canonical shortest-path basis, so results do not depend on what was
    solved before.  Models are kept per backend instance in an LRU of
    :data:`MAX_PERSISTENT_MODELS`.

    The optimal MLU matches :class:`ScipyLinprogBackend` to solver tolerance
    (the equivalence suite pins 1e-9); the returned split ratios can sit on a
    different optimal vertex of degenerate LPs.
    """

    def __init__(self) -> None:
        self._models: OrderedDict[tuple[str, bytes], _PersistentModel] = OrderedDict()

    def clear_models(self) -> None:
        """Drop every persistent model (frees the solver instances)."""
        self._models.clear()

    @property
    def num_models(self) -> int:
        """Number of persistent models currently cached."""
        return len(self._models)

    def _model(self, path_set, upper) -> _PersistentModel:
        key = (path_set.fingerprint, np.ascontiguousarray(upper).tobytes())
        model = self._models.get(key)
        if model is None:
            from repro.solvers.lp import constraint_structure

            model = _PersistentModel(path_set, constraint_structure(path_set), upper)
            self._models[key] = model
            if len(self._models) > MAX_PERSISTENT_MODELS:
                self._models.popitem(last=False)
        else:
            self._models.move_to_end(key)
        return model

    def solve(self, path_set, demand_vector, upper):
        return self._model(path_set, upper).solve(demand_vector)

    def solve_mlu(self, path_set, demand_vector, upper) -> float:
        return self._model(path_set, upper).solve_mlu(demand_vector)


class AutoLPBackend:
    """The one solver rule: unique values on the persistent model, vertices
    on ``linprog``'s LP, both in scipy's vendored HiGHS core.

    Whatever else the machine has installed, both sides run the one HiGHS
    build scipy ships, so no record depends on the machine's packages.
    """

    #: What ``resolve_lp_backend(None).name`` reports (perfbench records it).
    name = "auto"

    def __init__(self) -> None:
        self._vertices = ScipyLinprogBackend()
        self._values = PersistentHighsBackend()

    def solve(self, path_set, demand_vector, upper) -> tuple[np.ndarray, float]:
        return self._vertices.solve(path_set, demand_vector, upper)

    def solve_mlu(self, path_set, demand_vector, upper) -> float:
        return self._values.solve_mlu(path_set, demand_vector, upper)


_SOLVER: AutoLPBackend | None = None


def resolve_lp_backend(backend: None = None) -> AutoLPBackend:
    """The process's one :class:`AutoLPBackend` (built on first use).

    There is nothing to pick: any argument but ``None`` raises
    :class:`TypeError`.
    """
    if backend is not None:
        raise TypeError(
            f"the LP solver is not selectable (got {backend!r}): normalisers "
            "run on the persistent HiGHS model, vertex-returning solves on linprog's LP"
        )
    global _SOLVER
    if _SOLVER is None:
        _SOLVER = AutoLPBackend()
    return _SOLVER
