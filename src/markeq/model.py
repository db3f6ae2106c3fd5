"""Problem data: horizon, grids, control constraints, kernel, and costs.

Time indexing is 0-based throughout the package: states live on grids at
times 0..T-1 and controls are chosen at times 0..T-2.  The objective at
time t from state y is

    J_t(y) = E[ sum_k C_k(t, y, x_k, u_k) + F(t, y, x_T) ]
             + G(t, y, E[H(x_T)]),

where the first two (s, y) arguments of the running and terminal costs
are frozen at the evaluation point -- the source of time inconsistency,
together with the nonlinear mixer G.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfigError, ModelError
from .kernels import FEAS_TOL, AdditiveNoise, DiscreteChain, KernelSpec, broadcasting

CLAMP_EDGE_FRAC = 0.25  # share of states and of controls at each end left out of clamp_diagnostic


@dataclass(frozen=True)
class ControlConstraint:
    """Feasible control interval [lo(x), hi(x)] discretized to n_nodes values."""

    lo: Callable
    hi: Callable
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ModelError("control grid needs at least 2 nodes")

    @classmethod
    def interval(cls, lo: float, hi: float, n_nodes: int) -> "ControlConstraint":
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise ModelError(f"empty or unbounded control interval [{lo}, {hi}]")
        return cls(lo=lambda x: np.full_like(np.asarray(x, dtype=float), lo),
                   hi=lambda x: np.full_like(np.asarray(x, dtype=float), hi),
                   n_nodes=n_nodes)

    def bounds(self, x):
        lo = np.asarray(self.lo(np.asarray(x, dtype=float)), dtype=float)
        hi = np.asarray(self.hi(np.asarray(x, dtype=float)), dtype=float)
        if np.any(lo > hi):
            raise ModelError("empty control interval: lo > hi")
        return lo, hi

    def nodes(self, x) -> np.ndarray:
        """Control node values per state: shape (len(x), n_nodes)."""
        lo, hi = self.bounds(x)
        frac = np.linspace(0.0, 1.0, self.n_nodes)
        return lo[..., None] + (hi - lo)[..., None] * frac


@dataclass(frozen=True)
class Costs:
    """The four cost components.

    running(t, s, y, x, u) -> C_t at (s, y) evaluated at state x, control u
    terminal(s, y, x_T)    -> F
    terminal_stat(x_T)     -> H
    mixer(s, y, h)         -> G
    The callables take numpy arrays and may return anything that
    broadcasts against their arguments: ``mixer=lambda s, y, h: 0.0``, or
    a terminal cost that ignores y.  Each is wrapped with ``broadcasting``
    once, so ``costs.running`` and the others return float arrays of the
    arguments' broadcast shape.  Refinement differentiates running in u and mixer in h.
    """

    running: Callable
    terminal: Callable
    terminal_stat: Callable
    mixer: Callable
    assume_nonneg: bool = True

    def __post_init__(self):
        for name in ("running", "terminal", "terminal_stat", "mixer"):
            object.__setattr__(self, name, broadcasting(getattr(self, name)))


@dataclass
class Policy:
    """Nonrandomized Markov policy: one control value per state node per time.

    Entries may be None for times before the policy's starting epoch.
    """

    controls: List[Optional[np.ndarray]]

    def start_time(self) -> int:
        for t, c in enumerate(self.controls):
            if c is not None:
                return t
        raise ModelError("empty policy")

    def check_feasible(self, model: "Model"):
        for t, c in enumerate(self.controls):
            if c is None:
                if t >= self.start_time():
                    raise ModelError(f"policy missing controls at t={t}")
                continue
            lo, hi = model.constraints[t].bounds(model.grids[t])
            if c.shape != model.grids[t].shape:
                raise ModelError(f"policy shape mismatch at t={t}")
            if np.any(c < lo - FEAS_TOL) or np.any(c > hi + FEAS_TOL):
                raise ModelError(f"infeasible policy control at t={t}")


@dataclass
class Model:
    """Full problem specification; immutable after construction."""

    T: int
    grids: List[np.ndarray]
    constraints: List[ControlConstraint]
    kernel: KernelSpec
    costs: Costs

    def __post_init__(self):
        if self.T < 2:
            raise ModelError("horizon must be >= 2")
        if len(self.grids) != self.T or len(self.constraints) != self.T - 1:
            raise ModelError("grids/constraints length must match horizon")
        grids = []
        for t, g in enumerate(self.grids):
            g = np.asarray(g, dtype=float)
            if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
                raise ModelError(f"state grid at t={t} must be strictly increasing, >= 2 nodes")
            grids.append(g)
        self.grids = grids
        for t, c in enumerate(self.constraints):
            c.bounds(self.grids[t])  # raises on empty intervals

    def clamp_diagnostic(self, dk) -> float:
        """Worst clamped kernel mass over grid-interior states and mid-range controls."""
        f = CLAMP_EDGE_FRAC
        worst = 0.0
        for t in range(self.T - 1):
            n, M = dk.clamped[t].shape
            i0, i1 = int(n * f), max(int(n * (1 - f)), int(n * f) + 1)
            j0, j1 = int(M * f), max(int(M * (1 - f)), int(M * f) + 1)
            worst = max(worst, float(dk.clamped[t][i0:i1, j0:j1].max()))
        return worst


@dataclass
class AssumptionReport:
    """Sampled verdicts for the sufficient-condition clauses; report only."""

    nonnegativity: str           # pass / fail / unknown
    mixer_monotone: str
    sigma_floor: str
    compact_controls: str
    notes: List[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in
                   (self.nonnegativity, self.mixer_monotone,
                    self.sigma_floor, self.compact_controls))


def validate_assumptions(model: Model, samples: int = 10_000,
                         seed: int = 0) -> AssumptionReport:
    """Sampled check of nonnegative costs, monotone mixer, sigma floor, compact controls.

    Sampling can refute a clause but never prove it; un-refuted clauses
    report "pass" (or "unknown" when not applicable).
    """
    rng = np.random.default_rng(seed)
    notes: List[str] = []
    T = model.T

    ts = rng.integers(0, T - 1, size=samples)
    ss = (rng.random(samples) * (ts + 1)).astype(int)
    def draw_states(times):
        lo = np.array([model.grids[t][0] for t in times])
        hi = np.array([model.grids[t][-1] for t in times])
        return lo + rng.random(times.size) * (hi - lo)

    ys = draw_states(ss)
    xs = draw_states(ts)
    ulo = np.array([model.constraints[t].bounds(x)[0] for t, x in zip(ts, xs)]).ravel()
    uhi = np.array([model.constraints[t].bounds(x)[1] for t, x in zip(ts, xs)]).ravel()
    us = ulo + rng.random(samples) * (uhi - ulo)
    xT = draw_states(np.full(samples, T - 1))
    hprobe = model.costs.terminal_stat(xT)
    h_lo, h_hi = float(hprobe.min()), float(hprobe.max())
    if h_hi <= h_lo:
        h_hi = h_lo + 1.0
    hs = h_lo + rng.random(samples) * (h_hi - h_lo)

    cvals = model.costs.running(ts, ss, ys, xs, us)
    fvals = model.costs.terminal(ss, ys, xT)
    gvals = model.costs.mixer(ss, ys, hs)
    if not np.all(np.isfinite(cvals)) or not np.all(np.isfinite(fvals)) \
            or not np.all(np.isfinite(gvals)) or not np.all(np.isfinite(hprobe)):
        raise ModelError("cost components returned non-finite values")

    neg = (cvals.min() < 0) or (fvals.min() < 0) or (gvals.min() < 0) or (hprobe.min() < 0)
    if model.costs.assume_nonneg:
        nonnegativity = "fail" if neg else "pass"
    else:
        nonnegativity = "fail" if neg else "unknown"
    if neg:
        notes.append("nonnegativity not satisfied; solver proceeds via "
                     "direct inf-compactness check")

    dh = 1e-4 * max(1.0, h_hi - h_lo)
    g_up = model.costs.mixer(ss, ys, hs + dh)
    mixer_monotone = "pass" if np.all(g_up >= gvals - 1e-12) else "fail"
    if mixer_monotone == "fail":
        notes.append("mixer G is not nondecreasing in h on sampled range")

    if isinstance(model.kernel, AdditiveNoise):
        sc = model.kernel.scale(ts, xs, us)
        sigma_floor = "pass" if np.all(sc >= model.kernel.sigma_floor) else "fail"
    else:
        sigma_floor = "unknown"

    compact = np.all(np.isfinite(ulo)) and np.all(np.isfinite(uhi)) and np.all(ulo <= uhi)
    compact_controls = "pass" if compact else "fail"

    return AssumptionReport(nonnegativity=nonnegativity,
                            mixer_monotone=mixer_monotone,
                            sigma_floor=sigma_floor,
                            compact_controls=compact_controls,
                            notes=notes)


# ---------------------------------------------------------------------------
# Config-document construction
# ---------------------------------------------------------------------------

_CHAIN_FAMILIES = ("discrete_chain", "tabulated")  # both name the tabulated-cost chain
# A chain family's grids, controls and costs are its kernel and cost tables;
# the other families build theirs from params and windows.
_CHAIN_BLOCKS = {"kernel": ("state_grids", "matrices", "control_values"),
                 "costs": ("running", "terminal", "terminal_stat", "mixer")}
_FAMILY_KEYS = ("family", "horizon", "params", "state_grid", "control")


def config_hash(config: dict) -> str:
    """Hash of the config document, stable under key reordering."""
    import hashlib  # deferred: only the CLI manifest hashes a config

    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def build_model(config: dict) -> Model:
    """Build a validated Model from a structured config document.

    Top-level keys: family, params, horizon, state_grid, control, kernel,
    costs; window keys: lo, hi, nodes.  ``params`` may hold the fields of
    the family's parameter dataclass (``families.CONFIG_FAMILIES``) but the
    callable ``phi``.  kernel and costs are for a chain family only, and
    it takes no params, state_grid or control; its horizon must match its
    state grids.  Any other key, at the top level, in a window or in a
    chain's kernel or costs, raises ConfigError; see the README.
    """
    from . import families  # deferred: families builds Model instances

    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    family = config.get("family")
    known = (*families.CONFIG_FAMILIES, *_CHAIN_FAMILIES)
    if family not in known:
        raise ConfigError(f"unknown or missing family {family!r}; expected one of {known}")
    chain = family in _CHAIN_FAMILIES
    _check_keys(config, ("family", "horizon", *_CHAIN_BLOCKS) if chain else _FAMILY_KEYS,
                f"config of family {family!r}")
    horizon = config.get("horizon")
    if horizon is not None and (not isinstance(horizon, int) or horizon < 2):
        raise ConfigError("horizon must be >= 2")
    if chain:
        return _chain_from_config(config)

    builder, params_type = families.CONFIG_FAMILIES[family]
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params of family {family!r} must be a mapping")
    allowed = [f.name for f in fields(params_type) if f.name != "phi"]
    unknown = [k for k in params if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown parameter {unknown[0]!r} for family {family!r}; "
                          f"expected some of {allowed}")
    params = {"T": horizon, **params} if horizon is not None else params
    try:
        return builder(params_type(**params), **_windows(config))
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"bad parameters for family {family!r}: {exc}") from exc


def _check_keys(doc: dict, known, where: str):
    unknown = [k for k in doc if k not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; expected some of {list(known)}")


def _windows(config: dict) -> dict:
    """Builder keywords from the state_grid and control windows, mappings of lo, hi, nodes.

    A bad window or entry raises ConfigError naming it (e.g. ``control.lo``).
    """
    out = {}
    for key, names in (("state_grid", ("x_lo", "x_hi", "n_x")),
                       ("control", ("u_lo", "u_hi", "n_u"))):
        win = config.get(key)
        if win is not None and not isinstance(win, dict):
            raise ConfigError(f"{key} must be a mapping of lo, hi and nodes")
        if not win:
            continue
        _check_keys(win, ("lo", "hi", "nodes"), key)
        for entry, name, cast in zip(("lo", "hi", "nodes"), names, (float, float, int)):
            if entry not in win:
                raise ConfigError(f"{key}.{entry} is missing")
            try:
                out[name] = cast(win[entry])
            except (TypeError, ValueError):
                kind = "an integer" if cast is int else "a number"
                raise ConfigError(f"{key}.{entry} must be {kind}, got {win[entry]!r}") from None
    return out


def _chain_from_config(config: dict) -> Model:
    for key, known in _CHAIN_BLOCKS.items():
        if not isinstance(config.get(key, {}), dict):
            raise ConfigError(f"{key} must be a mapping of {', '.join(known)}")
        _check_keys(config.get(key, {}), known, key)
    kernel_doc = config.get("kernel", {})
    tables = []
    for key in _CHAIN_BLOCKS["kernel"]:
        if not isinstance(kernel_doc.get(key), (list, tuple)):
            raise ConfigError(f"discrete_chain config needs kernel.{key} as a list")
        tables.append([_numeric(a, f"kernel.{key}[{t}]") for t, a in enumerate(kernel_doc[key])])
    grids, matrices, control_values = tables
    if len(grids) < 2 or config.get("horizon") not in (None, len(grids)):
        raise ConfigError(f"horizon {config.get('horizon') or '>= 2'} disagrees with "
                          f"{len(grids)} state grids")
    chain = DiscreteChain(matrices=matrices, control_values=control_values)
    constraints = [ControlConstraint.interval(float(u[0]), float(u[-1]), u.size)
                   for u in control_values]
    costs = _tabulated_costs(config.get("costs", {}), grids, control_values)
    return Model(T=len(grids), grids=grids, constraints=constraints, kernel=chain, costs=costs)


def _numeric(value, where: str, shape=None) -> np.ndarray:
    """``value`` as a float array, of ``shape`` if given; else ConfigError naming ``where``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a numeric, non-ragged array") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{where} has shape {arr.shape}, expected {shape}")
    return arr


def _tabulated_costs(doc: dict, grids, control_values) -> Costs:
    """Costs interpolated from tables over (state node, control node).

    running: one (n_t, M_u) table per decision time; terminal, terminal_stat:
    one entry per node of the last grid (else ConfigError).  mixer: one of
    zero, square, neg_square.  All tables are (s, y)-independent.
    """
    shapes = [(g.size, u.size) for g, u in zip(grids[:-1], control_values)]
    tables = doc.get("running", [np.zeros(s) for s in shapes])
    if not isinstance(tables, (list, tuple)) or len(tables) != len(grids) - 1:
        raise ConfigError(f"costs.running needs {len(grids) - 1} tables, one per decision time")
    running_tabs = [_numeric(a, f"costs.running[{t}]", s)
                    for t, (a, s) in enumerate(zip(tables, shapes))]
    term_tab, stat_tab = (_numeric(doc.get(key, np.zeros(grids[-1].size)), f"costs.{key}",
                                   grids[-1].shape) for key in ("terminal", "terminal_stat"))
    mixer_name = doc.get("mixer", "zero")
    mixers = {"zero": lambda s, y, h: 0.0,
              "square": lambda s, y, h: np.square(h),
              "neg_square": lambda s, y, h: -np.square(h)}
    if not isinstance(mixer_name, str) or mixer_name not in mixers:
        raise ConfigError(f"unknown mixer {mixer_name!r}")

    def running(t, s, y, x, u):
        x_b, u_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
        t_b = np.broadcast_to(np.asarray(t), x_b.shape)
        out = np.empty(x_b.shape)
        for ti in np.unique(t_b):
            m = t_b == ti
            out[m] = running_tabs[int(ti)][_nearest(grids[int(ti)], x_b[m]),
                                           _nearest(control_values[int(ti)], u_b[m])]
        return out

    nonneg = (all(tab.min() >= 0 for tab in running_tabs)
              and term_tab.min() >= 0 and mixer_name != "neg_square")
    return Costs(running=running,
                 terminal=lambda s, y, xT: term_tab[_nearest(grids[-1], xT)],
                 terminal_stat=lambda xT: stat_tab[_nearest(grids[-1], xT)],
                 mixer=mixers[mixer_name], assume_nonneg=nonneg)


def _nearest(grid: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    j = np.clip(np.searchsorted(grid, x), 0, grid.size - 1)
    jm = np.clip(j - 1, 0, grid.size - 1)
    pick_lower = np.abs(x - grid[jm]) <= np.abs(grid[j] - x)
    return np.where(pick_lower, jm, j)
