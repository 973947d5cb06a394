"""Named verification checks and the suite runner.

Each check draws its own inputs from a generator seeded by (master seed,
check index), so a run is deterministic regardless of execution order or
which subset of checks is selected.  A check returns a record of named
residuals together with the tolerances it was judged against; the suite
report is JSON-stable apart from wall times.  Every verdict is formed in
``_record``, from the bounds declared in the check's ``CheckDef``.

Root sets are solved once per run: ``run_suite`` owns a memo that every
check's context shares, and it dies with the call.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES, ExperimentConfig
from .determinants import (gaudin_norm_check, izergin, izergin_oracle_exponent,
                           maba_scalar_product, scalar_product, spin_half_chain)
from .identities import identity_a, identity_b, rel_error
from .linsys import (action_table, build_m, build_omega, numerical_rank,
                     omega_columns, scaled_det_residual, scaled_minors, solve_x,
                     w_transform_check)
from .models import (PeriodicChainSpec, TwistSpec, YModel, chain_y_model, lambda_eval,
                     maba_f, random_y_model, y_maba, ytr_model)
from .oracle import (BetheRootResult, bethe_vector, direct_scalar_product,
                     dual_bethe_vector, modified_monodromy, solve_bethe_roots, transfer)
from .rational import g_prod

# instances drawn by each random-class check (omega-two-paths, appendix-A/B)
RANDOM_TRIALS = 100
# drawn points have real and imaginary parts in [-POINT_SCALE, POINT_SCALE]
# and lie farther than POINT_MIN_SEP apart
POINT_SCALE = 1.6
POINT_MIN_SEP = 0.35


@dataclass
class CheckRecord:
    name: str
    passed: bool
    residuals: dict[str, float]
    tolerances: dict[str, float]
    inputs_digest: str
    wall_time_s: float
    note: str = ""


@dataclass
class CheckContext:
    config: ExperimentConfig
    rng: np.random.Generator
    # validated root sets keyed by n; run_suite shares one per run
    roots: dict[int, BetheRootResult]
    drawn: list = field(default_factory=list)
    # set by _eigenstates when a twisted chain has fewer root sets than D;
    # it fails the check
    shortfall: str = ""

    @property
    def spec(self) -> PeriodicChainSpec:
        return self.config.model.spec

    @property
    def twist(self) -> TwistSpec | None:
        return self.config.model.twist

    def root_sets(self, n: int) -> list[tuple[complex, ...]]:
        """Validated size-n root sets of the configured chain, solved on first request."""
        if n not in self.roots:
            self.roots[n] = solve_bethe_roots(self.spec, n, twist=self.twist)
        return self.roots[n].roots

    def record_input(self, label: str, value) -> None:
        self.drawn.append((label, _jsonable(value)))

    def draw_points(self, count: int, avoid=()) -> list[complex]:
        """Well-separated complex points, kept away from the avoid list.

        Each candidate is one draw of its real and imaginary part; it is kept
        if it is farther than POINT_MIN_SEP from every point taken so far.
        """
        taken = [complex(a) for a in avoid]
        first = len(taken)
        guard = 0
        while len(taken) < first + count:
            guard += 1
            if guard > 10000:
                raise RuntimeError("failed to draw separated points")
            re, im = self.rng.uniform(-POINT_SCALE, POINT_SCALE, size=2)
            z = complex(re, im)
            if all(abs(z - w) > POINT_MIN_SEP for w in taken):
                taken.append(z)
        pts = taken[first:]
        self.record_input("points", pts)
        return pts

    def random_class_trials(self, low: int, high: int, draw) -> dict:
        """RANDOM_TRIALS random members of the Y-class, stacked by set size.

        Trial by trial, in a fixed order, the generator gives a set size n in
        [low, high), a coupling c, a random model with n_max = n + 1 and then
        whatever ``draw(n)`` returns, a tuple of per-trial inputs.  Returns
        {n: (stacked model, stacked inputs...)}, one entry per size drawn.
        """
        trials: dict[int, list] = {}
        for _ in range(RANDOM_TRIALS):
            n = int(self.rng.integers(low, high))
            c = complex(self.rng.uniform(0.6, 1.4), self.rng.uniform(-0.5, 0.5))
            model = random_y_model(self.rng, c, n + 1)
            trials.setdefault(n, []).append((model, *draw(n)))
        stacked = {}
        for n in sorted(trials):
            members, *inputs = zip(*trials[n])
            stacked[n] = (YModel.stack(members), *(np.array(x) for x in inputs))
        return stacked

    def digest(self) -> str:
        payload = json.dumps(self.drawn, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _eigenstates(ctx: CheckContext):
    """Yield (n, root sets) for each set size the checks judge, recording the roots.

    A periodic chain gives the configured sizes in 1..S/2, the magnon numbers
    with distinct finite roots; a twisted chain gives S.  Every transfer
    eigenvector of a twisted chain gives one set, so fewer than D sets is a
    shortfall.
    """
    spec, twist = ctx.spec, ctx.twist
    sizes = ([n for n in ctx.config.sizes if 0 < n <= spec.magnon_capacity / 2]
             if twist is None else [spec.magnon_capacity])
    for n in sizes:
        roots = ctx.root_sets(n)
        ctx.record_input(f"roots_n{n}" if twist is None else "maba_roots",
                         [list(r) for r in roots])
        if twist is not None and len(roots) < spec.dim:
            ctx.shortfall = f"{len(roots)} of {spec.dim} root sets"
        yield n, roots


def _oracle_products(spec: PeriodicChainSpec, twist: TwistSpec | None, vbar, ubar) -> np.ndarray:
    """<vbar| B(ubar_l) |0> by the oracle for every l, ubar_l being ubar without u_l."""
    dual = dual_bethe_vector(spec, vbar, twist)
    u = np.asarray(ubar)
    return np.array([direct_scalar_product(dual, bethe_vector(spec, np.delete(u, ell), twist))
                     for ell in range(len(u))])


def _instance_models(ctx: CheckContext):
    """Yield (model, vbar, n) for every root set of the configured chain."""
    for n, states in _eigenstates(ctx):
        model = chain_y_model(ctx.spec, n, ctx.twist)
        for vbar in states:
            yield model, list(vbar), n


# ---------------------------------------------------------------------------
# individual checks


def check_det_m_zero(ctx: CheckContext) -> CheckRecord:
    if ctx.config.model.type == "degenerate-ytr":
        n = ctx.config.model.degenerate_n
        model = ytr_model(ctx.config.model.degenerate_c, n)
        vbar = ctx.draw_points(n)
        ubar = ctx.draw_points(n + 1, avoid=vbar)
        sysm = build_m(model, vbar, ubar)
        lam_dev = float(np.max(np.abs(lambda_eval(model, ubar, vbar) - 1.0)))
        omega_norm = float(np.max(np.abs(sysm.omega))) if sysm.omega.size else 0.0
        rank, _ = numerical_rank(sysm.m, scale=sysm.scale)
        matrix_resid = float(np.max(np.abs(sysm.m)) / sysm.scale)
        note = f"rank {rank} detected; degenerate family collapses as expected"
        return _record(ctx, "det-M-zero",
                       {"matrix_residual": [matrix_resid, lam_dev, omega_norm]}, 1, note,
                       rank_zero=rank == 0)
    dets = []
    for model, vbar, n in _instance_models(ctx):
        for _ in range(ctx.config.draws):
            ubar = ctx.draw_points(n + 1, avoid=vbar)
            dets.append(scaled_det_residual(build_m(model, vbar, ubar).m))
    return _record(ctx, "det-M-zero", {"scaled_det": dets}, len(dets), f"{len(dets)} instances")


def check_lse_residual(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    resids = []
    for model, vbar, n in _instance_models(ctx):
        for _ in range(ctx.config.draws):
            ubar = ctx.draw_points(n + 1, avoid=vbar)
            sysm = build_m(model, vbar, ubar)
            x = _oracle_products(spec, twist, vbar, ubar)
            resids.append(np.max(np.abs(sysm.m @ x)) / max(np.linalg.norm(x), 1e-300))
    return _record(ctx, "lse-residual", {"system_residual": resids}, len(resids),
                   f"{len(resids)} instances")


def check_transfer_action(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    sizes = ([n for n in ctx.config.sizes if 0 < n <= spec.magnon_capacity]
             if twist is None else [spec.magnon_capacity])
    errs = []
    for n in sizes:
        model = chain_y_model(spec, n, twist)
        ubar = ctx.draw_points(n + 1, avoid=spec.theta)
        vectors = [bethe_vector(spec, np.delete(np.asarray(ubar), k), twist)
                   for k in range(n + 1)]
        action = action_table(model, ubar)
        for j in range(n + 1):
            lhs = transfer(spec, ubar[j], vectors[j], twist)
            rhs = sum(action[j, k] * vectors[k] for k in range(n + 1))
            scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
            errs.append(np.max(np.abs(lhs - rhs)) / scale)
    return _record(ctx, "transfer-action", {"componentwise": errs}, len(errs),
                   f"{len(errs)} instances")


def check_omega_two_paths(ctx: CheckContext) -> CheckRecord:
    errs = []
    groups = ctx.random_class_trials(1, 5, lambda n: (ctx.draw_points(2 * n + 1),))
    for n, (model, pts) in groups.items():
        vbar, ubar = pts[:, :n], pts[:, n:]
        oa = build_omega(model, vbar, ubar, route="derivative")
        ob = build_omega(model, vbar, ubar, route="substitution")
        scale = np.maximum(np.maximum(np.abs(oa), np.abs(ob)), 1e-30)
        errs.extend(np.max(np.abs(oa - ob) / scale, axis=(-2, -1)))
    return _record(ctx, "omega-two-paths", {"entrywise": errs}, len(errs),
                   f"{len(errs)} random-class trials")


def check_w_transform(ctx: CheckContext) -> CheckRecord:
    measures = {"det_w": [], "closed_form": [], "omega_rows": [], "row_onshell": [],
                "ray": [], "row_offshell_min": []}
    for model, vbar, n in _instance_models(ctx):
        w_free = ctx.draw_points(1, avoid=vbar)[0]
        ubar = ctx.draw_points(n + 1, avoid=list(vbar) + [w_free])
        rep = w_transform_check(model, vbar, ubar, w_free)
        # decouple the eigenvalue argument from the pinned rows
        shifted = [v + 0.1 + 0.07j for v in vbar]
        rep_off = w_transform_check(model, vbar, ubar, w_free, lambda_set=shifted)
        for key, val in [("det_w", rep.det_w_error), ("closed_form", rep.closed_form_error),
                         ("omega_rows", rep.omega_row_error), ("row_onshell", rep.last_row_ratio),
                         ("ray", rep.equivalent_ray_distance),
                         ("row_offshell_min", rep_off.last_row_ratio)]:
            measures[key].append(val)
    count = len(measures["det_w"])
    return _record(ctx, "w-transform", measures, count, f"{count} instances")


def check_solution_ray(ctx: CheckContext) -> CheckRecord:
    spreads, resids = [], []
    for model, vbar, n in _instance_models(ctx):
        ratios: list[complex] = []
        for _ in range(max(ctx.config.draws, 3)):
            ubar = ctx.draw_points(n + 1, avoid=vbar)
            sysm = build_m(model, vbar, ubar)
            sol = solve_x(sysm)
            resids.append(sol.residual)
            scaled = scaled_minors(model.c, sysm.omega, ubar, vbar)
            good = np.abs(scaled) > 1e-12 * np.max(np.abs(scaled))
            ratios.extend((sol.x[good] / scaled[good]).tolist())
        mean = np.mean(ratios)
        spreads.append(np.max(np.abs(np.asarray(ratios) - mean)) / max(abs(mean), 1e-30))
    return _record(ctx, "solution-ray", {"ratio_spread": spreads, "system_residual": resids},
                   len(spreads), f"{len(spreads)} states")


def check_izergin_oracle(ctx: CheckContext) -> CheckRecord:
    spec = ctx.spec
    errs = []
    for n in [n for n in ctx.config.sizes if 0 < n <= spec.n_sites]:
        for _ in range(ctx.config.draws):
            vbar = ctx.draw_points(n, avoid=spec.theta)
            idx = list(ctx.rng.choice(spec.n_sites, size=n, replace=False))
            closed = izergin(spec, vbar, idx) * spec.c ** izergin_oracle_exponent(n, spec.n_sites)
            dual = dual_bethe_vector(spec, vbar)
            vec = bethe_vector(spec, [spec.theta[i] for i in idx])
            errs.append(rel_error(closed, direct_scalar_product(dual, vec)))
    return _record(ctx, "izergin-oracle", {"rel_err": errs}, len(errs),
                   f"{len(errs)} comparisons")


def check_gaudin_norm(ctx: CheckContext) -> CheckRecord:
    spec = ctx.spec
    spreads, fds = [], []
    checked = 0
    for _, states in _eigenstates(ctx):
        if len(states) < 1:
            continue
        rep = gaudin_norm_check(spec, states)
        if any(abs(d) < 1e-12 for d in rep.determinants):
            # the norm formula divides by the determinant: no state can be judged
            return _record(ctx, "gaudin-norm", {"spread": [1.0]}, 0,
                           "vanishing Jacobian determinant")
        spreads.append(rep.spread)
        fds.append(rep.fd_error)
        checked += len(states)
    return _record(ctx, "gaudin-norm", {"spread": spreads, "fd": fds}, checked,
                   f"{checked} states")


def check_scalar_product_oracle(ctx: CheckContext) -> CheckRecord:
    spec = ctx.spec
    errs = []
    for n, states in _eigenstates(ctx):
        for vbar in states:
            for _ in range(ctx.config.draws):
                uvals = ctx.draw_points(n, avoid=vbar)
                closed = scalar_product(spec, vbar, uvals)
                direct = direct_scalar_product(dual_bethe_vector(spec, vbar),
                                               bethe_vector(spec, uvals))
                errs.append(rel_error(closed, direct))
    return _record(ctx, "scalar-product-oracle", {"rel_err": errs}, len(errs),
                   f"{len(errs)} comparisons")


def check_maba_oracle(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    errs = []
    for n, states in _eigenstates(ctx):
        for vbar in states:
            ubar = ctx.draw_points(n + 1, avoid=vbar)
            closed = maba_scalar_product(spec, twist, vbar, ubar)
            errs.extend(rel_error(closed, _oracle_products(spec, twist, vbar, ubar)))
    return _record(ctx, "maba-oracle", {"rel_err": errs}, len(errs),
                   f"{len(errs)} comparisons")


def _slope_dev(errors: list[float]) -> float:
    """Worst per-step ``|slope + 1|`` of errors at scales 1e3, 1e4, 1e5.

    Errors that decay like 1/U have slope -1 per decade, so deviation 0; an
    exactly vanishing error has nothing left to decay and counts as 0.
    """
    if any(e == 0.0 for e in errors):
        return 0.0
    return float(np.max(np.abs(np.diff(np.log10(errors)) + 1.0)))


def check_maba_asymptotics(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    [(s_total, states)] = _eigenstates(ctx)
    model = chain_y_model(spec, s_total, twist)
    n_sites = spec.n_sites
    c = spec.c
    kk = twist.kappa + twist.kappa_tilde
    rr = twist.rho1 + twist.rho2
    if not states:
        return _record(ctx, "maba-asymptotics", {}, 0, "no validated root sets found")
    ubars = [u_scale * np.arange(1, s_total + 2, dtype=complex) for u_scale in [1e3, 1e4, 1e5]]

    # set-independent measures, one error per scale
    nu_err, diag_err, off_ratio = [], [], []
    for uarr in ubars:
        # creation-entry growth
        z = uarr[0]
        nu12 = modified_monodromy(spec, twist, z).nu12
        target = (twist.mu / twist.kappa_minus) * rr * np.eye(len(nu12))
        nu_err.append(float(np.linalg.norm(nu12 * (c / z) ** n_sites - target, 2)
                            / np.linalg.norm(target, 2)))
        # derivative-matrix entries: the set-dependent part of Y only
        dmat = np.zeros((s_total, s_total), dtype=complex)
        for j in range(s_total):
            gj = g_prod(c, uarr[j], np.delete(uarr, j))
            for k in range(s_total):
                y_min_f = y_maba(spec, twist, uarr[j], np.delete(uarr, k)) \
                    - rr * maba_f(spec, uarr[j])
                dmat[j, k] = -gj * y_min_f
        # np.max, not max: a NaN entry must reach the verdict
        diag_err.append(float(np.max([abs(dmat[j, j] * (c / uarr[j]) ** n_sites - (rr - kk))
                                      / abs(rr - kk) for j in range(s_total)])))
        off_ratio.append(float(np.max([abs(dmat[j, k] * (c / uarr[j]) ** n_sites)
                                       for j in range(s_total) for k in range(s_total)
                                       if j != k], initial=0.0)))

    # set-dependent measures, one error series per root set
    lam_errs, minor_errs = [], []
    for vbar in states:
        lam_err, minor_err = [], []
        for uarr in ubars:
            # eigenvalue growth
            lam = lambda_eval(model, uarr[0], vbar)
            lam_err.append(abs(lam * (c / uarr[0]) ** n_sites - kk) / abs(kk))
            # minor growth
            omega = omega_columns(model, vbar, uarr)
            lead = scaled_minors(c, omega, uarr, vbar)[s_total]
            target_minor = rr ** s_total * np.prod([(u / c) ** n_sites for u in uarr[:s_total]])
            minor_err.append(abs(lead / target_minor - 1.0))
        lam_errs.append(lam_err)
        minor_errs.append(minor_err)

    # each series gives one slope deviation and one error at the largest scale
    measures = {}
    for label, series in [("eigenvalue", lam_errs), ("creation_entry", [nu_err]),
                          ("derivative_diag", [diag_err]), ("offdiagonal", [off_ratio]),
                          ("minor_product", minor_errs)]:
        measures[f"{label}_slope_dev"] = [_slope_dev(errs) for errs in series]
        measures[f"{label}_final_err"] = [errs[-1] for errs in series]
    return _record(ctx, "maba-asymptotics", measures, len(states), f"{len(states)} root sets")


def check_appendix_a(ctx: CheckContext) -> CheckRecord:
    def draw(n):
        pts = ctx.draw_points(2 * (n + 1))
        return pts, int(ctx.rng.integers(0, n + 1)), int(ctx.rng.integers(0, n + 1))
    errs = []
    for n, (model, pts, j, k) in ctx.random_class_trials(0, 5, draw).items():
        errs.extend(identity_a(model, pts[:, :n + 1], pts[:, n + 1:], j, k).relative_error)
    return _record(ctx, "appendix-A", {"rel_err": errs}, len(errs),
                   f"{len(errs)} random-class trials")


def check_appendix_b(ctx: CheckContext) -> CheckRecord:
    def draw(s):
        pts = ctx.draw_points(2 * s + 1)
        return pts, int(ctx.rng.integers(0, s)), int(ctx.rng.integers(0, s))
    errs = []
    for s, (model, pts, j, k) in ctx.random_class_trials(1, 4, draw).items():
        errs.extend(identity_b(model, pts[:, :s + 1], pts[:, s + 1:], j, k).relative_error)
    return _record(ctx, "appendix-B", {"rel_err": errs}, len(errs),
                   f"{len(errs)} random-class trials")


# ---------------------------------------------------------------------------
# verdict


def _lower_bound(key: str) -> bool:
    return key.endswith("_min")


def tolerance_key(measure: str, keys) -> str | None:
    """The key among ``keys`` that bounds ``measure``, or None.

    The exact name, else the longest key that ends the name after an
    underscore: ``eigenvalue_slope_dev`` is bounded by ``slope_dev``.
    """
    names = [k for k in keys if measure == k or measure.endswith("_" + k)]
    return max(names, key=len) if names else None


def _record(ctx: CheckContext, name: str, measures: dict[str, list], count: int,
            note: str, *, rank_zero: bool = True) -> CheckRecord:
    """Judge a check's measures against the bounds of its ``CheckDef``.

    Each measure reports its worst instance: the largest value, at least 0
    (an error of -1e-16 is rounding), or the smallest for a ``_min`` lower
    bound.  NaN propagates into the worst value and fails its bound; a
    measure without values is left out.  A check passes when it judged at
    least one instance, read no root-set shortfall and every bound holds.
    """
    bounds = registry()[name].bounds
    residuals, tolerances, holds = {}, {}, [count > 0, rank_zero, not ctx.shortfall]
    for key, values in measures.items():
        if len(values) == 0:
            continue
        bound_key = tolerance_key(key, bounds)
        bound = bounds[bound_key]
        tol = ctx.config.tol(bound) if isinstance(bound, str) else bound
        lower = _lower_bound(key)
        worst = float(np.min(values) if lower else np.max(values, initial=0.0))
        residuals[key] = worst
        tolerances[bound_key] = float(tol)
        holds.append(worst > tol if lower else worst < tol)
    if ctx.shortfall:
        note = f"{note}; only {ctx.shortfall}"
    return CheckRecord(name=name, passed=all(holds), residuals=residuals,
                       tolerances=tolerances, inputs_digest=ctx.digest(), wall_time_s=0.0,
                       note=note)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    name: str
    func: Callable[[CheckContext], CheckRecord]
    description: str
    model_types: tuple[str, ...]
    # residual key -> its bound: a tolerance name or a fixed number; a key
    # ending in _min is a lower bound, any other an upper bound
    bounds: dict[str, str | float]
    spin_half_only: bool = False


_ORDERED: list[CheckDef] = [
    CheckDef("det-M-zero", check_det_m_zero,
             "Closure matrix of the transfer-action system is singular (scaled determinant below tolerance); for the degenerate family, rank 0 is detected and reported.",
             ("periodic-xxx", "maba-xxx", "degenerate-ytr"),
             {"scaled_det": "det_m_zero", "matrix_residual": "det_m_zero"}),
    CheckDef("lse-residual", check_lse_residual,
             "Brute-force inner products solve the homogeneous system M X = 0.",
             ("periodic-xxx", "maba-xxx"), {"system_residual": "lse_residual"}),
    CheckDef("omega-two-paths", check_omega_two_paths,
             "Derivative route and substitution route for the Omega matrix agree entrywise on random members of the model class.",
             ("periodic-xxx", "maba-xxx", "degenerate-ytr"), {"entrywise": "omega_two_paths"}),
    CheckDef("w-transform", check_w_transform,
             "Row-reduction multiplier: determinant ratio, closed form of the transformed matrix, its first n rows as multiples of Omega's rows, vanishing last row when the eigenvalue argument matches the pinned rows (nonvanishing when decoupled), and equivalent-system null ray.",
             ("periodic-xxx", "maba-xxx"),
             {"det_w": "w_det", "closed_form": "w_closed_form", "omega_rows": "w_closed_form",
              "row_onshell": "w_row_onshell", "ray": "w_ray",
              "row_offshell_min": "w_row_offshell_min"}),
    CheckDef("solution-ray", check_solution_ray,
             "Null ray of the closure matrix equals the scaled minor vector of Omega, with a single ell- and draw-independent proportionality constant.",
             ("periodic-xxx", "maba-xxx"),
             {"ratio_spread": "solution_ray", "system_residual": "solution_ray"}),
    CheckDef("izergin-oracle", check_izergin_oracle,
             "Domain-wall determinant equals direct inner products after the fixed power-of-c normalization (spin-1/2 chains only).",
             ("periodic-xxx",), {"rel_err": "izergin_oracle"}, spin_half_only=True),
    CheckDef("gaudin-norm", check_gaudin_norm,
             "Root-system Jacobian: entries match finite differences and its determinant reproduces state norms with one state-independent constant.",
             ("periodic-xxx",), {"spread": "gaudin_spread", "fd": "gaudin_fd"}),
    CheckDef("scalar-product-oracle", check_scalar_product_oracle,
             "Determinant representation of eigenstate/product-state inner products matches the oracle for generic parameter draws.",
             ("periodic-xxx",), {"rel_err": "scalar_product_oracle"}),
    CheckDef("maba-oracle", check_maba_oracle,
             "Broken-symmetry determinant representation (minor form times the vacuum-expectation prefactor) matches the oracle.",
             ("maba-xxx",), {"rel_err": "maba_oracle"}),
    CheckDef("maba-asymptotics", check_maba_asymptotics,
             "Large-parameter limits: eigenvalue growth, creation-entry limit, diagonal dominance of the derivative matrix, and the leading minor product, each with 1/scale error decay; every root set is judged and the worst is reported.",
             ("maba-xxx",),
             # <label>_slope_dev and <label>_final_err for each limit
             {"slope_dev": "asymptotic_slope", "final_err": 1e-3}),
    CheckDef("appendix-A", check_appendix_a,
             "Rational summation identity over one-element removals of the u-set equals the substituted evaluation (residue-derived closed form).",
             ("periodic-xxx", "maba-xxx", "degenerate-ytr"), {"rel_err": "appendix_a"}),
    CheckDef("appendix-B", check_appendix_b,
             "Rational summation identity with pole term equals the complement-set evaluation minus the diagonal eigenvalue term (residue-derived closed form).",
             ("periodic-xxx", "maba-xxx", "degenerate-ytr"), {"rel_err": "appendix_b"}),
    CheckDef("transfer-action", check_transfer_action,
             "Operator-level expansion of the transfer matrix acting on parameterized product states, with coefficients from the model layer.",
             ("periodic-xxx", "maba-xxx"), {"componentwise": "transfer_action"}),
]


def registry() -> dict[str, CheckDef]:
    return {d.name: d for d in _ORDERED}


def check_names() -> list[str]:
    return [d.name for d in _ORDERED]


def inapplicable_reason(name: str, model_type: str,
                        spec: PeriodicChainSpec | None = None) -> str | None:
    """Why check ``name`` cannot run on this model (and chain, if given), or None."""
    cdef = registry()[name]
    if model_type not in cdef.model_types:
        return f"does not apply to model type {model_type!r}"
    if cdef.spin_half_only and spec is not None and not spin_half_chain(spec):
        return "applies to spin-1/2 chains only"
    return None


def applicable_checks(model_type: str, spec: PeriodicChainSpec | None = None) -> list[str]:
    return [d.name for d in _ORDERED if inapplicable_reason(d.name, model_type, spec) is None]


def explain(name: str) -> str:
    defs = registry()
    if name not in defs:
        raise KeyError(name)
    return defs[name].description


def bounds_summary(name: str) -> str:
    """Each residual key of check ``name`` with its bound and the bound's default."""
    parts = []
    for key, bound in registry()[name].bounds.items():
        op = ">" if _lower_bound(key) else "<"
        if isinstance(bound, str):
            parts.append(f"{key} {op} {bound} ({DEFAULT_TOLERANCES[bound]:g})")
        else:
            parts.append(f"{key} {op} {bound:g} (fixed)")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# suite runner


def run_suite(config: ExperimentConfig) -> dict:
    """Execute the configured checks and assemble the report dictionary."""
    records: list[CheckRecord] = []
    index = {d.name: i for i, d in enumerate(_ORDERED)}
    roots: dict[int, BetheRootResult] = {}
    for name in config.suite:
        cdef = registry()[name]
        ctx = CheckContext(config=config, roots=roots,
                           rng=np.random.default_rng([config.seed, index[name]]))
        start = time.perf_counter()
        rec = cdef.func(ctx)
        rec.wall_time_s = round(time.perf_counter() - start, 4)
        records.append(rec)
    passed = sum(1 for r in records if r.passed)
    return {
        "config": config.raw,
        "seed": config.seed,
        "checks": [asdict(r) for r in records],
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
        "suite_passed": passed == len(records),
    }
