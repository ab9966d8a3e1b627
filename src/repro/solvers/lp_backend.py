"""Pluggable LP solver backends for the MLU-minimisation hot path.

Every number the paper reports is normalised by the omniscient MLU LP
(Appendix B, Equation 9), so the LP solver *is* the cold-run hot path.  This
module puts a small backend layer behind :func:`repro.solvers.lp.solve_mlu_lp`
/ :func:`~repro.solvers.lp.solve_mlu_lp_batch`, mirroring the
:mod:`repro.backend` array-backend pattern:

* :class:`ScipyLinprogBackend` (name ``"scipy"``) -- the reference.  Runs
  the historical ``scipy.optimize.linprog(method="highs")`` code path
  verbatim: one model build, presolve and from-scratch solve per demand.
* :class:`PersistentHighsBackend` (name ``"highs"``) -- builds one persistent
  HiGHS model per ``(PathSet, ratio-upper-bounds)`` key and solves each
  demand by primal simplex from a canonical shortest-path basis: no model
  rebuild, no presolve, ~100 pivots instead of ~650.  About 5x per solve on
  smooth and bursty traces alike (``benchmarks/test_lp_warmstart.py`` writes
  the record to ``benchmarks/.records/BENCH_lp_warmstart.json``), and a
  result is a function of (model, demand) alone.
* :class:`AutoLPBackend` (name ``"auto"``) -- the default.  Value-only solves
  (``solve_mlu``: every normaliser) run on ``highs``, whose optimum is
  unique; vertex-returning ``solve`` stays on ``linprog`` bit for bit,
  because the quality of the LP-based schemes depends on *which* optimal
  vertex of a degenerate LP comes back.

Selection: ``OptimalMLUCache(backend=)`` names the solver of every
normaliser drawn from that cache (a study's trainings and replays alike),
``backend=`` on ``solve_mlu_lp`` / ``solve_mlu_lp_batch`` that of one call,
and the ``REPRO_LP_BACKEND`` environment variable whatever neither names --
which includes the LP schemes' own solves, so only ``REPRO_LP_BACKEND=scipy``
or ``=highs`` puts *everything* on one solver.  A known-but-unimportable
backend falls back to scipy with a single :class:`RuntimeWarning` per
process (``"auto"`` silently: without the bindings it *is* scipy).

The ``highs`` backend needs the ``highspy`` bindings.  When the standalone
``highspy`` package is missing, the backend transparently uses the private
copy scipy >= 1.15 vendors for its own ``linprog``/``milp`` (the same
pybind11 module, so no new dependency is required); with neither available
it is unimportable and selection falls back to scipy.

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
import warnings
from collections import OrderedDict

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

__all__ = [
    "LP_BACKEND_ENV_VAR",
    "LPBackend",
    "ScipyLinprogBackend",
    "PersistentHighsBackend",
    "AutoLPBackend",
    "available_lp_backends",
    "importable_lp_backends",
    "get_lp_backend",
    "resolve_lp_backend",
]

#: Environment variable naming the default LP backend for the process.
LP_BACKEND_ENV_VAR = "REPRO_LP_BACKEND"

#: Persistent HiGHS models kept per backend instance (LRU beyond this).
MAX_PERSISTENT_MODELS = 8


class LPBackend:
    """Interface of an MLU-LP solver backend.

    Backends receive the demand vector together with the already-resolved
    per-path ratio upper bounds (sensitivity caps x failure masks, feasibility
    relaxation applied -- see ``repro.solvers.lp._ratio_upper_bounds``), and
    return raw arrays; the public :func:`~repro.solvers.lp.solve_mlu_lp`
    wrapper owns validation, the solve counter and the
    :class:`~repro.te.config.TEConfiguration` packaging.
    """

    #: Registry name of the backend.
    name = "abstract"

    def solve(self, path_set, demand_vector, upper) -> tuple[np.ndarray, float]:
        """Solve one LP; return ``(split_ratios, optimal_mlu)``.

        Raises:
            repro.solvers.lp.LPSolveError: If the LP is infeasible or the
                solver fails, with the solver's status message.
        """
        raise NotImplementedError

    def solve_mlu(self, path_set, demand_vector, upper) -> float:
        """Optimal MLU only -- the normaliser fast path.

        Backends that can skip extracting the full solution vector override
        this; the default just discards the ratios.
        """
        return self.solve(path_set, demand_vector, upper)[1]


class ScipyLinprogBackend(LPBackend):
    """The historical ``scipy.optimize.linprog(method="highs")`` path.

    Each solve hands scipy a freshly rescaled constraint matrix (sparsity
    arrays shared via :class:`~repro.solvers.lp.MLUConstraintStructure`), so
    results are bit-identical to the pre-backend implementation.
    """

    name = "scipy"

    def _run(self, path_set, demand_vector, upper):
        from repro.solvers.lp import LPSolveError, constraint_structure

        structure = constraint_structure(path_set)
        result = linprog(
            structure.cost,
            A_ub=structure.a_ub(demand_vector),
            b_ub=structure.b_ub,
            A_eq=structure.a_eq,
            b_eq=structure.b_eq,
            bounds=structure.bounds_array(upper),
            method="highs",
        )
        if not result.success:
            raise LPSolveError(f"MLU LP failed: {result.message}")
        return result

    def solve(self, path_set, demand_vector, upper):
        result = self._run(path_set, demand_vector, upper)
        return result.x[: path_set.num_paths], float(result.x[-1])

    def solve_mlu(self, path_set, demand_vector, upper) -> float:
        # scipy returns the full solution either way; skipping the ratio
        # slice only saves the caller the TEConfiguration packaging.
        return float(self._run(path_set, demand_vector, upper).x[-1])


def _load_highspy():
    """The highspy bindings: the standalone package, else scipy's vendored copy.

    Returns ``(module_like, Highs_class)``.  Raises :class:`ImportError` when
    neither is available (old scipy without the vendored solver).
    """
    try:
        import highspy

        return highspy, highspy.Highs
    except ImportError:
        pass
    try:
        from scipy.optimize._highspy import _core

        return _core, _core._Highs
    except (ImportError, AttributeError) as exc:
        raise ImportError(
            "the 'highs' LP backend needs the highspy bindings (pip install "
            "highspy), and this scipy does not vendor them"
        ) from exc


class _PersistentModel:
    """One HiGHS model for a ``(PathSet, upper-bounds)`` key, re-solved per demand."""

    def __init__(self, hs, highs_cls, path_set, structure, upper) -> None:
        num_paths = path_set.num_paths
        num_pairs = path_set.num_sd_pairs
        num_edges = structure.b_ub.shape[0]
        num_cols = num_paths + 1 + num_pairs
        inf = hs.kHighsInf

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

        lp = hs.HighsLp()
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
        lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data

        solver = highs_cls()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("simplex_strategy", 4)  # primal: the start is primal feasible
        solver.passModel(lp)
        self._solver = solver
        self._optimal = hs.HighsModelStatus.kOptimal
        self._crash_start(hs, path_set, upper)

    def _crash_start(self, hs, path_set, upper) -> None:
        """The canonical start: every pair routed over its first usable paths.

        Each pair's paths are filled in path order up to their ratio caps
        (the shortest-path routing when nothing is capped or masked).  In
        ratio units that routing does not depend on the demand: capped paths
        sit at their upper bound, the pair's partially filled path is basic,
        everything else is at zero.  Only the edge row that carries ``t`` --
        the routing's most loaded edge -- is picked per demand.
        """
        status = hs.HighsBasisStatus
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
        self._basis = hs.HighsBasis()
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


class PersistentHighsBackend(LPBackend):
    """Persistent HiGHS models, one per (PathSet, bounds) key.

    The first solve for a key builds the model; every solve moves the
    demand-carrying column bounds and runs primal simplex from the model's
    canonical shortest-path basis, so results do not depend on what was
    solved before.  Models are kept per backend instance in an LRU of
    :data:`MAX_PERSISTENT_MODELS`.

    The optimal MLU matches :class:`ScipyLinprogBackend` to solver tolerance
    (the equivalence suite pins 1e-9); the returned split ratios can sit on a
    different optimal vertex of degenerate LPs.
    """

    name = "highs"

    def __init__(self) -> None:
        self._hs, self._highs_cls = _load_highspy()
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

            model = _PersistentModel(
                self._hs, self._highs_cls, path_set, constraint_structure(path_set), upper
            )
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


class AutoLPBackend(LPBackend):
    """The default: unique values on the persistent model, vertices on ``linprog``.

    Unimportable without the HiGHS bindings (selection then falls back to
    scipy for everything, silently: that is what ``auto`` means).
    """

    name = "auto"

    def __init__(self) -> None:
        self._values = _instantiate("highs")
        self._vertices = _instantiate("scipy")

    def solve(self, path_set, demand_vector, upper):
        return self._vertices.solve(path_set, demand_vector, upper)

    def solve_mlu(self, path_set, demand_vector, upper) -> float:
        return self._values.solve_mlu(path_set, demand_vector, upper)


_FACTORIES = {
    "scipy": ScipyLinprogBackend,
    "highs": PersistentHighsBackend,
    "auto": AutoLPBackend,
}

_INSTANCES: dict[str, LPBackend] = {}
_FALLBACK_WARNED: set[str] = set()


def available_lp_backends() -> tuple[str, ...]:
    """Registered LP backend names (``highs`` may not be importable)."""
    return tuple(_FACTORIES)


def importable_lp_backends() -> tuple[str, ...]:
    """LP backends that can actually run on this machine (no fallbacks)."""
    names = ["scipy"]
    try:
        _load_highspy()
    except ImportError:
        pass
    else:
        names.append("highs")
    return tuple(names)


def _instantiate(name: str) -> LPBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        _INSTANCES[name] = backend
    return backend


def get_lp_backend(name: str | None = None) -> LPBackend:
    """Resolve an LP backend by name, environment variable, or default.

    Args:
        name: Backend name, or None to consult ``REPRO_LP_BACKEND`` (falling
            back to ``auto``: normalisers on ``highs`` when importable,
            everything else -- or everything -- on ``scipy``).

    Returns:
        The (cached) backend instance.  A *known but unimportable* backend
        falls back to scipy with a single warning per process (none for
        ``auto``); an *unknown* name raises :class:`ValueError`.
    """
    if name is None:
        name = os.environ.get(LP_BACKEND_ENV_VAR) or "auto"
    name = name.strip().lower()
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown LP backend {name!r} (from {LP_BACKEND_ENV_VAR} or an "
            f"explicit argument); known backends: {', '.join(sorted(_FACTORIES))}"
        )
    try:
        return _instantiate(name)
    except ImportError as exc:
        if name != "auto" and name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            warnings.warn(
                f"LP backend {name!r} is not importable ({exc}); "
                "falling back to scipy",
                RuntimeWarning,
                stacklevel=2,
            )
        # Cache the fallback under the failing name so hot-path resolution
        # does not re-attempt the import on every solve.
        fallback = _instantiate("scipy")
        _INSTANCES[name] = fallback
        return fallback


def resolve_lp_backend(backend: "LPBackend | str | None") -> LPBackend:
    """Normalise a function's ``backend`` argument.

    ``None`` means the environment default (``REPRO_LP_BACKEND``, ``auto``
    if unset), a string is looked up in the registry, and an instance passes
    through.
    """
    if backend is None:
        return get_lp_backend(None)
    if isinstance(backend, LPBackend):
        return backend
    return get_lp_backend(backend)
