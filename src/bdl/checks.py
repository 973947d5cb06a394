"""Named verification checks and the suite runner.

Each check draws its own inputs from a generator seeded by (master seed,
check index), so a run is deterministic regardless of execution order or
which subset of checks is selected.  A check returns a record of named
residuals together with the tolerances it was judged against; the suite
report is JSON-stable apart from wall times.  Every verdict is formed in
``_record``, from the bounds declared in the check's ``CheckDef``.

Points are drawn by one law, ``_separated_rows``: candidates in a box, each
kept if it lies farther than POINT_MIN_SEP from the points kept before it in
its row, a row's avoid points being its kept prefix; one plain Python loop per
row filters that row's candidates in order.  The random-class checks
(``omega-two-paths``, ``appendix-A``, ``appendix-B``) draw their
RANDOM_TRIALS members in one block of rows per set size
(``random_class_trials``).  The chain checks (``det-M-zero``,
``lse-residual``, ``w-transform``, ``solution-ray``,
``scalar-product-oracle``, ``maba-oracle``) draw one block per set size, one
row per (root set, draw), each row kept away from its own root set
(``_state_blocks``), and judge the block in one stacked evaluation.  Every
other check (``transfer-action``, ``izergin-oracle``, the degenerate
``det-M-zero``) draws one row at a time (``draw_points``), and
``izergin-oracle`` evaluates each set size in one call.  Only the checks call
the oracle: the inner products a check reads are one ``row_overlaps`` call
per set size (``overlaps`` for ``izergin-oracle``'s drawn sets), passed to a
closed form where they enter one (``gaudin_norm_check``,
``maba_scalar_product``).

Everything a check draws or reads as input is recorded: the root sets it
reads, each block or row of points, the ``izergin-oracle`` site subsets and
the random-class couplings, coefficients and picks.  ``inputs_digest``
hashes each record's label, shape and bytes, not the check's outputs.

Eigenstates are built once per run: ``run_suite`` owns a memo of them that
every check's context shares, and it dies with the call.  Per set size it
holds the root sets as one array, their Bethe vectors, which the root
solve's alignment test built, and their dual rows <psi(vbar)|, built by one
``dual_bethe_vector`` call when a check first asks (``Eigenstates``).  The
checks pair product states against those rows; a state's norm is its row
paired with its Bethe vector, and the twisted vacuum expectation
<0| prod nu21(v_j) |0> is its row's vacuum entry, so neither costs a sweep.
The chain's Y-models are built once per chain (``chain_y_model``).  A
package error inside a check fails that check's record, with its type and
text as the note.

Everything ``bdl verify`` runs, the checks here and the closed forms and
oracle they call, reduces and gathers with ufuncs and ndarray methods
(``x.max(axis=-1)``, ``x.prod(axis=-2)``, ``mask.nonzero()[0]``), not
numpy's Python-level wrappers (``np.max``, ``np.prod``, ``np.flatnonzero``,
``np.indices``): its arrays hold a few entries, so a wrapper costs more than
the operation.  Both forms run the same operation on the same operands, so
results keep their bits.  A check hands ``_record`` one array per measure,
its blocks joined (``_joined``), and the registry is built once.
``tests/test_per_call_path.py`` fails if a warm run calls a wrapper from any
``bdl`` frame; linalg, ``einsum`` and ``tensordot`` are allowed there with
their reasons.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .config import DEFAULT_TOLERANCES, ExperimentConfig
from .errors import BdlError
from .determinants import (gaudin_norm_check, izergin, izergin_oracle_exponent,
                           maba_scalar_product, scalar_product, spin_half_chain)
from .identities import identity_a, identity_b, ratio_spread, rel_error, row_error
from .linsys import (action_table, build_m, build_omega, numerical_rank,
                     omega_columns, omega_derivative_route, scaled_det_residual,
                     scaled_minors, solve_x, system_residual, w_transform_check)
from .models import (PeriodicChainSpec, TwistSpec, YModel, chain_y, chain_y_model, lambda_eval,
                     maba_f, random_y_model, ytr_model)
from .oracle import (bethe_vector, direct_scalar_product, dual_bethe_vector, expected_root_sets,
                     modified_monodromy, overlaps, row_overlaps, solve_bethe_roots, transfer)
from .rational import _removals, g_prod

# instances drawn by each random-class check (omega-two-paths, appendix-A/B),
# and the box (real part, imaginary part) their couplings are drawn from
RANDOM_TRIALS = 100
COUPLING_LOW = np.array([0.6, -0.5])
COUPLING_RANGE = np.array([1.4, 0.5]) - COUPLING_LOW
# drawn points have real and imaginary parts in [-POINT_SCALE, POINT_SCALE]
# and lie farther than POINT_MIN_SEP apart
POINT_SCALE = 1.6
POINT_MIN_SEP = 0.35
# candidates per wanted point in each block that _separated_rows draws, and
# the candidates one draw of separated points may use before it gives up
CANDIDATES_PER_POINT = 2
MAX_CANDIDATES = 10000


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
class Eigenstates:
    """The configured chain's size-n eigenstates, as one run holds them.

    ``roots`` stacks the validated root sets, (sets, n), or (0,) when there
    is none; ``vectors`` (sets, D) are their Bethe vectors B(vbar)|0> (nu12
    when twisted) from the root solve; ``rows`` (sets, D) are their dual rows
    <0| prod C(v_j) (nu21 when twisted), built on first use
    (``CheckContext.dual_rows``).
    """

    roots: np.ndarray
    vectors: np.ndarray
    rows: np.ndarray | None = None


@dataclass
class CheckContext:
    config: ExperimentConfig
    rng: np.random.Generator
    # the eigenstates keyed by set size n; run_suite shares one memo per run
    states: dict[int, Eigenstates]
    drawn: list = field(default_factory=list)
    # set by _eigenstates for each set size n at which a chain has more or
    # fewer root sets than expected_root_sets; any entry fails the check
    miscounts: dict[int, str] = field(default_factory=dict)

    @property
    def spec(self) -> PeriodicChainSpec:
        return self.config.model.spec

    @property
    def twist(self) -> TwistSpec | None:
        return self.config.model.twist

    def eigenstates(self, n: int) -> Eigenstates:
        """The configured chain's size-n eigenstates, solved on first request."""
        if n not in self.states:
            solved = solve_bethe_roots(self.spec, n, twist=self.twist)
            self.states[n] = Eigenstates(np.array(solved.roots, dtype=complex), solved.vectors)
        return self.states[n]

    def dual_rows(self, n: int) -> np.ndarray:
        """The dual rows (sets, D) of the size-n eigenstates, one stacked build on first request."""
        states = self.eigenstates(n)
        if states.rows is None:
            states.rows = dual_bethe_vector(self.spec, states.roots, self.twist)
        return states.rows

    def y_model(self, n: int) -> YModel:
        """The configured chain's Y-model at set size n, built once per chain."""
        return chain_y_model(self.spec, n, self.twist)

    def record_input(self, label: str, value) -> None:
        self.drawn.append((label, np.array(value, dtype="<c16")))

    def draw_points(self, count: int, avoid=()) -> np.ndarray:
        """``count`` separated points kept away from ``avoid``, drawn by ``_separated_rows``.

        A 1-D ``avoid`` gives one row, shape (count,); a 2-D one gives one row
        per row of ``avoid``, shape (rows, count), each kept away from its own.
        """
        avoid = np.asarray(avoid, dtype=complex)
        rows = _separated_rows(self.rng, len(avoid) if avoid.ndim == 2 else 1, count, avoid)
        pts = rows if avoid.ndim == 2 else rows[0]
        self.record_input("points", pts)
        return pts

    def random_class_trials(self, low: int, high: int, points, picks=None) -> dict:
        """RANDOM_TRIALS random members of the Y-class, drawn in blocks by set size.

        The generator gives all set sizes n in [low, high), then all couplings
        c, then, for each size in ascending order, one stacked random model
        with n_max = n + 1, one (trials, points(n)) block of separated points
        and, when ``picks`` is given, indices j and k in [0, picks(n)).
        Returns {n: (model, points[, j, k])}, one entry per size drawn; each
        group's couplings, coefficients, points and picks are recorded.
        """
        sizes = self.rng.integers(low, high, size=RANDOM_TRIALS)
        # uniform((0.6, -0.5), (1.4, 0.5)) draw by draw: low + (high - low) * u,
        # without the checks that array bounds cost it
        parts = COUPLING_LOW + COUPLING_RANGE * self.rng.random((RANDOM_TRIALS, 2))
        c = parts[:, 0] + 1j * parts[:, 1]
        groups = {}
        for n in sorted(set(sizes.tolist())):
            idx = (sizes == n).nonzero()[0]
            model = random_y_model(self.rng, c[idx], n + 1)
            pts = _separated_rows(self.rng, len(idx), points(n), ())
            self.record_input("couplings", model.c)
            self.record_input("alpha", model.alpha)
            self.record_input("points", pts)
            groups[n] = (model, pts)
            if picks is not None:
                jk = self.rng.integers(0, picks(n), size=(2, len(idx)))
                self.record_input("picks", jk)
                groups[n] += tuple(jk)
        return groups

    def digest(self) -> str:
        """SHA-256 of each record's label, shape and little-endian complex128 bytes."""
        sha = hashlib.sha256()
        for label, value in self.drawn:
            sha.update(f"{label}{value.shape}".encode())
            sha.update(value.tobytes())
        return sha.hexdigest()[:16]


def _separated_rows(rng: np.random.Generator, rows: int, count: int, avoid) -> np.ndarray:
    """(rows, count) complex points, each row kept away from ``avoid``.

    ``avoid`` is one set for every row, shape (k,), or one per row, shape
    (rows, k).  Every row takes its candidates in order, in one Python loop,
    and keeps one if it is farther than POINT_MIN_SEP from every point the row
    holds, its avoid points first.
    Candidates come in blocks of CANDIDATES_PER_POINT * count per row; a row
    that runs short draws another block and carries on where it stopped, up
    to MAX_CANDIDATES per row.
    """
    avoid = np.asarray(avoid, dtype=complex)
    first = avoid.shape[-1]
    want = first + count
    held = np.empty((rows, first), dtype=complex)
    held[:] = avoid
    held = held.tolist()
    block = CANDIDATES_PER_POINT * count
    drawn = 0
    while short := [row for row in held if len(row) < want]:
        drawn += block
        if drawn > MAX_CANDIDATES:
            raise RuntimeError("failed to draw separated points")
        parts = rng.uniform(-POINT_SCALE, POINT_SCALE, size=(len(short), block, 2))
        for row, cand in zip(short, (parts[..., 0] + 1j * parts[..., 1]).tolist()):
            for p in cand:
                for z in row:
                    if abs(p - z) <= POINT_MIN_SEP:
                        break
                else:
                    row.append(p)
                    if len(row) == want:
                        break
    return np.array([row[first:] for row in held], dtype=complex).reshape(rows, count)


def root_set_sizes(spec: PeriodicChainSpec, sizes: list[int]) -> list[int]:
    """The configured sizes n > 0 with periodic root sets, all of 1..S/2 on spin 1/2."""
    return [n for n in sizes if n > 0 and expected_root_sets(spec, n) > 0]


def _eigenstates(ctx: CheckContext):
    """Yield (n, ``Eigenstates``) for each set size the checks judge, recording the roots.

    A periodic chain gives the configured sizes that have root sets
    (``root_set_sizes``); a twisted chain gives S.  A count other than
    ``expected_root_sets`` is a miscount.
    """
    spec, twist = ctx.spec, ctx.twist
    sizes = root_set_sizes(spec, ctx.config.sizes) if twist is None else [spec.magnon_capacity]
    for n in sizes:
        states = ctx.eigenstates(n)
        ctx.record_input(f"roots_n{n}" if twist is None else "maba_roots", states.roots)
        found, expected = len(states.roots), expected_root_sets(spec, n, twist)
        if found < expected:
            ctx.miscounts[n] = f"only {found} of {expected} root sets at n = {n}"
        elif found > expected:
            ctx.miscounts[n] = f"{found} root sets found, {expected} expected at n = {n}"
        yield n, states


def _state_blocks(ctx: CheckContext, extra: int = 1, draws: int = 1):
    """Yield (n, model, vbar, points) for each set size with root sets.

    ``vbar`` stacks the size-n root sets ``draws`` times each, one row per
    (set, draw) with a set's draws adjacent, and ``points`` is one block of
    n + ``extra`` separated points per row, each row kept away from its own
    vbar: one ``_separated_rows`` draw per set size.
    """
    for n, states in _eigenstates(ctx):
        if not len(states.roots):
            continue
        vbar = states.roots.repeat(draws, axis=0)
        yield n, ctx.y_model(n), vbar, ctx.draw_points(n + extra, avoid=vbar)


# ---------------------------------------------------------------------------
# individual checks


def check_det_m_zero(ctx: CheckContext) -> CheckRecord:
    if ctx.config.model.type == "degenerate-ytr":
        n = ctx.config.model.degenerate_n
        model = ytr_model(ctx.config.model.degenerate_c, n)
        vbar = ctx.draw_points(n)
        ubar = ctx.draw_points(n + 1, avoid=vbar)
        sysm = build_m(model, vbar, ubar)
        lam_dev = float(np.abs(lambda_eval(model, ubar, vbar) - 1.0).max())
        omega_norm = float(np.abs(build_omega(model, vbar, ubar)).max(initial=0.0))
        rank, _ = numerical_rank(sysm.m, scale=sysm.scale)
        matrix_resid = float(np.abs(sysm.m).max() / sysm.scale)
        note = f"rank {rank} detected; degenerate family collapses as expected"
        return _record(ctx, "det-M-zero",
                       {"matrix_residual": [matrix_resid, lam_dev, omega_norm]}, 1, note,
                       rank_zero=rank == 0)
    dets = []
    for _, model, vbar, ubar in _state_blocks(ctx, draws=ctx.config.draws):
        dets.append(scaled_det_residual(build_m(model, vbar, ubar).m))
    dets = _joined(dets)
    return _record(ctx, "det-M-zero", {"scaled_det": dets}, len(dets), f"{len(dets)} instances")


def check_lse_residual(ctx: CheckContext) -> CheckRecord:
    spec, twist, draws = ctx.spec, ctx.twist, ctx.config.draws
    resids = []
    for n, model, vbar, ubar in _state_blocks(ctx, draws=draws):
        # <vbar| B(ubar_l) |0> for every l, ubar_l being ubar without u_l
        x = row_overlaps(spec, ctx.dual_rows(n)[:, None, None],
                         _removals(ubar.reshape(-1, draws, n + 1)), twist).reshape(ubar.shape)
        resids.append(system_residual(build_m(model, vbar, ubar).m, x))
    resids = _joined(resids)
    return _record(ctx, "lse-residual", {"system_residual": resids}, len(resids),
                   f"{len(resids)} instances")


def check_transfer_action(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    sizes = ([n for n in ctx.config.sizes if 0 < n <= spec.magnon_capacity]
             if twist is None else [spec.magnon_capacity])
    errs = []
    for n in sizes:
        ubar = ctx.draw_points(n + 1, avoid=spec.theta)
        vectors = bethe_vector(spec, _removals(ubar), twist)
        # row j: T(u_j) on the vector without u_j, one sweep with a point per column
        lhs = transfer(spec, ubar, vectors.T, twist).T
        rhs = action_table(ctx.y_model(n), ubar) @ vectors
        errs.append(row_error(lhs, rhs))
    errs = _joined(errs)
    return _record(ctx, "transfer-action", {"componentwise": errs}, len(errs),
                   f"{len(errs)} instances")


def check_omega_two_paths(ctx: CheckContext) -> CheckRecord:
    errs = []
    for n, (model, pts) in ctx.random_class_trials(1, 5, lambda n: 2 * n + 1).items():
        vbar, ubar = pts[:, :n], pts[:, n:]
        oa = omega_derivative_route(model, vbar, ubar)
        errs.append(rel_error(oa, build_omega(model, vbar, ubar)).max(axis=(-2, -1)))
    errs = _joined(errs)
    return _record(ctx, "omega-two-paths", {"entrywise": errs}, len(errs),
                   f"{len(errs)} random-class trials")


def check_w_transform(ctx: CheckContext) -> CheckRecord:
    measures = {key: [] for key in _REGISTRY["w-transform"].bounds}
    # per row the free point first, then ubar, each kept away from the points before it
    for _, model, vbar, pts in _state_blocks(ctx, extra=2):
        for key, val in w_transform_check(model, vbar, pts[:, 1:], pts[:, 0]).items():
            measures[key].append(val)
    measures = {key: _joined(blocks) for key, blocks in measures.items()}
    count = len(measures["det_w"])
    return _record(ctx, "w-transform", measures, count, f"{count} instances")


def check_solution_ray(ctx: CheckContext) -> CheckRecord:
    draws = max(ctx.config.draws, 3)
    spreads, resids = [], []
    for n, model, vbar, ubar in _state_blocks(ctx, draws=draws):
        sol = solve_x(build_m(model, vbar, ubar))
        resids.append(sol.residual)
        size = np.abs(sol.minors)
        good = size > 1e-12 * size.max(axis=-1, keepdims=True)
        # one ray per root set, across its draws
        for x, minors, ok in zip(*(a.reshape(-1, draws * (n + 1))
                                   for a in (sol.x, sol.minors, good))):
            spreads.append(ratio_spread(x[ok] / minors[ok]))
    return _record(ctx, "solution-ray",
                   {"ratio_spread": np.array(spreads), "system_residual": _joined(resids)},
                   len(spreads), f"{len(spreads)} states")


def check_izergin_oracle(ctx: CheckContext) -> CheckRecord:
    spec = ctx.spec
    errs = []
    for n in [n for n in ctx.config.sizes if 0 < n <= spec.n_sites]:
        vbars, subsets = [], []
        for _ in range(ctx.config.draws):
            vbars.append(ctx.draw_points(n, avoid=spec.theta))
            subsets.append(ctx.rng.choice(spec.n_sites, size=n, replace=False))
            ctx.record_input("theta_subset", subsets[-1])
        closed = izergin(spec, vbars, subsets) * spec.c ** izergin_oracle_exponent(n, spec.n_sites)
        errs.append(rel_error(closed, overlaps(spec, vbars, spec._theta.take(subsets))))
    errs = _joined(errs)
    return _record(ctx, "izergin-oracle", {"rel_err": errs}, len(errs),
                   f"{len(errs)} comparisons")


def check_gaudin_norm(ctx: CheckContext) -> CheckRecord:
    spreads, fds, checked = [], [], 0
    for n, states in _eigenstates(ctx):
        if not len(states.roots):
            continue
        # <vbar|vbar>: each state's dual row paired with its Bethe vector, no sweep
        norms = direct_scalar_product(ctx.dual_rows(n), states.vectors)
        rep = gaudin_norm_check(ctx.spec, states.roots, norms)
        if (np.abs(rep.determinants) < 1e-12).any():
            # the norm formula divides by the determinant: no state can be judged
            return _record(ctx, "gaudin-norm", {"spread": [1.0]}, 0,
                           "vanishing Jacobian determinant")
        spreads.append(rep.spread)
        fds.append(rep.fd_error)
        checked += len(states.roots)
    return _record(ctx, "gaudin-norm", {"spread": spreads, "fd": fds}, checked,
                   f"{checked} states")


def check_scalar_product_oracle(ctx: CheckContext) -> CheckRecord:
    spec, draws = ctx.spec, ctx.config.draws
    errs = []
    for n, _, vbar, uvals in _state_blocks(ctx, extra=0, draws=draws):
        closed = scalar_product(spec, vbar, uvals)
        direct = row_overlaps(spec, ctx.dual_rows(n)[:, None], uvals.reshape(-1, draws, n))
        errs.append(rel_error(closed, direct.ravel()))
    errs = _joined(errs)
    return _record(ctx, "scalar-product-oracle", {"rel_err": errs}, len(errs),
                   f"{len(errs)} comparisons")


def check_maba_oracle(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    errs = []
    for n, _, vbar, ubar in _state_blocks(ctx):
        rows = ctx.dual_rows(n)
        direct = row_overlaps(spec, rows[:, None], _removals(ubar), twist)
        # the vacuum expectation <0| prod nu21(v_j) |0> is each row's vacuum entry
        closed = maba_scalar_product(spec, twist, vbar, ubar, rows[:, 0])
        errs.append(rel_error(closed, direct).ravel())
    errs = _joined(errs)
    return _record(ctx, "maba-oracle", {"rel_err": errs}, len(errs),
                   f"{len(errs)} comparisons")


def _slope_dev(errors: np.ndarray) -> np.ndarray:
    """Worst per-step ``|slope + 1|`` of each error series (last axis) at scales 1e3, 1e4, 1e5.

    Errors that decay like 1/U have slope -1 per decade, so deviation 0; a
    series with an exactly vanishing error has nothing left to decay: 0.
    """
    errors = np.asarray(errors, dtype=float)
    vanishes = (errors == 0.0).any(axis=-1)
    logs = np.log10(np.where(vanishes[..., None], 1.0, errors))
    steps = logs[..., 1:] - logs[..., :-1]
    return np.where(vanishes, 0.0, np.abs(steps + 1.0).max(axis=-1))


def check_maba_asymptotics(ctx: CheckContext) -> CheckRecord:
    spec, twist = ctx.spec, ctx.twist
    [(s_total, states)] = _eigenstates(ctx)
    if not len(states.roots):
        return _record(ctx, "maba-asymptotics", {}, 0, "no validated root sets found")
    model = ctx.y_model(s_total)
    n_sites, c = spec.n_sites, spec.c
    kk, rr = twist.trace, twist.y_weights[2]
    # one row of points per scale, (3, S + 1), and its (c/u)^N
    ubars = np.array([1e3, 1e4, 1e5])[:, None] * np.arange(1, s_total + 2, dtype=complex)
    decay = (c / ubars) ** n_sites

    # set-independent measures, one error per scale; creation-entry growth
    target = twist.mu_over_kappa_minus * rr * np.eye(spec.dim)
    target_norm = np.linalg.norm(target, 2)
    nu12 = modified_monodromy(spec, twist, ubars[:, 0])  # one dense pass, (3, D, D)
    nu_err = [np.linalg.norm(nu * d - target, 2) / target_norm for nu, d in zip(nu12, decay[:, 0])]
    # derivative-matrix entries -g(u_j, ubar \ u_j) [Y(u_j | ubar \ u_k) - rr f(u_j)],
    # the set-dependent part of Y only: one evaluation of all (scale, j, k)
    zs, rest = ubars[:, :s_total], _removals(ubars)[:, :s_total]
    y_min_f = (chain_y(spec, zs[..., None], rest[:, None], twist)
               - (rr * maba_f(spec, zs))[..., None])
    dmat = -g_prod(c, zs, rest)[..., None] * y_min_f * decay[:, :s_total, None]
    diagonal = np.eye(s_total, dtype=bool)
    # an ndarray max, not Python's: a NaN entry must reach the verdict
    diag_err = np.abs(dmat[:, diagonal] - (rr - kk)).max(axis=-1) / abs(rr - kk)
    off_ratio = np.abs(dmat[:, ~diagonal]).max(axis=-1, initial=0.0)

    # set-dependent measures, one error series per root set, all (set, scale) at once
    vbar = states.roots
    lam_err = np.abs(lambda_eval(model, ubars[:, 0], vbar) * decay[:, 0] - kk) / abs(kk)
    omega = omega_columns(model, vbar[:, None], ubars)
    lead = scaled_minors(c, omega, ubars, vbar[:, None])[..., s_total]
    target_minor = rr ** s_total * (1 / decay[:, :s_total]).prod(axis=-1)
    minor_err = np.abs(lead / target_minor - 1.0)

    # each series gives one slope deviation and one error at the largest scale
    measures = {}
    for label, series in [("eigenvalue", lam_err), ("creation_entry", [nu_err]),
                          ("derivative_diag", [diag_err]), ("offdiagonal", [off_ratio]),
                          ("minor_product", minor_err)]:
        measures[f"{label}_slope_dev"] = _slope_dev(series)
        measures[f"{label}_final_err"] = np.asarray(series)[:, -1]
    return _record(ctx, "maba-asymptotics", measures, len(vbar), f"{len(vbar)} root sets")


def check_appendix_a(ctx: CheckContext) -> CheckRecord:
    errs = []
    trials = ctx.random_class_trials(0, 5, lambda n: 2 * (n + 1), picks=lambda n: n + 1)
    for n, (model, pts, j, k) in trials.items():
        errs.append(rel_error(*identity_a(model, pts[:, :n + 1], pts[:, n + 1:], j, k)))
    errs = _joined(errs)
    return _record(ctx, "appendix-A", {"rel_err": errs}, len(errs),
                   f"{len(errs)} random-class trials")


def check_appendix_b(ctx: CheckContext) -> CheckRecord:
    errs = []
    trials = ctx.random_class_trials(1, 4, lambda s: 2 * s + 1, picks=lambda s: s)
    for s, (model, pts, j, k) in trials.items():
        errs.append(rel_error(*identity_b(model, pts[:, :s + 1], pts[:, s + 1:], j, k)))
    errs = _joined(errs)
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


def _joined(blocks: list) -> np.ndarray:
    """One measure's values, one per instance, from the 1-D arrays of its blocks."""
    return np.concatenate(blocks) if blocks else np.zeros(0)


def _record(ctx: CheckContext, name: str, measures: dict[str, np.ndarray], count: int,
            note: str, *, rank_zero: bool = True) -> CheckRecord:
    """Judge a check's measures against the bounds of its ``CheckDef``.

    A measure is a 1-D array of one value per instance (a check that
    judges in blocks joins them with ``_joined``; a short list of floats
    also does).  Each measure reports its worst instance: the largest value,
    at least 0 (an error of -1e-16 is rounding), or the smallest for a
    ``_min`` lower bound.  NaN propagates into the worst value and fails its
    bound, and the note names each measure whose worst value is not finite
    (a JSON report writes it as null); a measure without values is left out.
    ``count`` is the number of instances judged.  A check passes when it
    judged at least one instance, read no root-set miscount and every bound
    holds.
    """
    bounds = _REGISTRY[name].bounds
    residuals, tolerances, holds = {}, {}, [count > 0, rank_zero, not ctx.miscounts]
    for key, values in measures.items():
        values = np.asarray(values)
        if values.size == 0:
            continue
        bound_key = tolerance_key(key, bounds)
        bound = bounds[bound_key]
        tol = ctx.config.tol(bound) if isinstance(bound, str) else bound
        lower = _lower_bound(key)
        worst = float(values.min() if lower else values.max(initial=0.0))
        residuals[key] = worst
        tolerances[bound_key] = float(tol)
        holds.append(worst > tol if lower else worst < tol)
    if ctx.miscounts:
        note = "; ".join([note, *ctx.miscounts.values()])
    nonfinite = [key for key, worst in residuals.items() if not math.isfinite(worst)]
    if nonfinite:
        note = "; ".join([note, f"not finite (null in JSON): {', '.join(nonfinite)}"])
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
    # judges root sets of the chain (_eigenstates)
    reads_roots: bool = False


_ORDERED: list[CheckDef] = [
    CheckDef("det-M-zero", check_det_m_zero,
             "Closure matrix of the transfer-action system is singular (scaled determinant below tolerance); for the degenerate family, rank 0 is detected and reported.",
             ("periodic-xxx", "maba-xxx", "degenerate-ytr"),
             {"scaled_det": "det_m_zero", "matrix_residual": "det_m_zero"}, reads_roots=True),
    CheckDef("lse-residual", check_lse_residual,
             "Brute-force inner products solve the homogeneous system M X = 0.",
             ("periodic-xxx", "maba-xxx"), {"system_residual": "lse_residual"}, reads_roots=True),
    CheckDef("omega-two-paths", check_omega_two_paths,
             "Derivative route and substitution route for the Omega matrix agree entrywise on random members of the model class.",
             ("periodic-xxx", "maba-xxx", "degenerate-ytr"), {"entrywise": "omega_two_paths"}),
    CheckDef("w-transform", check_w_transform,
             "Row-reduction multiplier: determinant ratio, closed form of the transformed matrix, its first n rows as multiples of Omega's rows, vanishing last row when the eigenvalue argument matches the pinned rows (nonvanishing when decoupled), and equivalent-system null ray.",
             ("periodic-xxx", "maba-xxx"),
             {"det_w": "w_det", "closed_form": "w_closed_form", "omega_rows": "w_closed_form",
              "row_onshell": "w_row_onshell", "ray": "w_ray",
              "row_offshell_min": "w_row_offshell_min"}, reads_roots=True),
    CheckDef("solution-ray", check_solution_ray,
             "Null ray of the closure matrix equals the scaled minor vector of Omega, with a single ell- and draw-independent proportionality constant.",
             ("periodic-xxx", "maba-xxx"),
             {"ratio_spread": "solution_ray", "system_residual": "solution_ray"},
             reads_roots=True),
    CheckDef("izergin-oracle", check_izergin_oracle,
             "Domain-wall determinant equals direct inner products after the fixed power-of-c normalization (spin-1/2 chains only).",
             ("periodic-xxx",), {"rel_err": "izergin_oracle"}, spin_half_only=True),
    CheckDef("gaudin-norm", check_gaudin_norm,
             "Root-system Jacobian: entries match an exact contour-rule derivative of Y and its determinant reproduces state norms with one state-independent constant.",
             ("periodic-xxx",), {"spread": "gaudin_spread", "fd": "gaudin_fd"}, reads_roots=True),
    CheckDef("scalar-product-oracle", check_scalar_product_oracle,
             "Determinant representation of eigenstate/product-state inner products matches the oracle for generic parameter draws.",
             ("periodic-xxx",), {"rel_err": "scalar_product_oracle"}, reads_roots=True),
    CheckDef("maba-oracle", check_maba_oracle,
             "Broken-symmetry determinant representation (minor form times the vacuum-expectation prefactor) matches the oracle.",
             ("maba-xxx",), {"rel_err": "maba_oracle"}, reads_roots=True),
    CheckDef("maba-asymptotics", check_maba_asymptotics,
             "Large-parameter limits: eigenvalue growth, creation-entry limit, diagonal dominance of the derivative matrix, and the leading minor product, each with 1/scale error decay; every root set is judged and the worst is reported.",
             ("maba-xxx",),
             # <label>_slope_dev and <label>_final_err for each limit
             {"slope_dev": "asymptotic_slope", "final_err": 1e-3}, reads_roots=True),
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


# read-only, built once: the runner looks a check up per record
_REGISTRY: Mapping[str, CheckDef] = MappingProxyType({d.name: d for d in _ORDERED})
_INDEX = {d.name: i for i, d in enumerate(_ORDERED)}


def registry() -> Mapping[str, CheckDef]:
    """The checks by name, in suite order; a read-only mapping."""
    return _REGISTRY


def check_names() -> list[str]:
    return [d.name for d in _ORDERED]


def inapplicable_reason(name: str, model_type: str,
                        spec: PeriodicChainSpec | None = None) -> str | None:
    """Why check ``name`` cannot run on this model (and chain, if given), or None."""
    cdef = _REGISTRY[name]
    if model_type not in cdef.model_types:
        return f"does not apply to model type {model_type!r}"
    if cdef.spin_half_only and spec is not None and not spin_half_chain(spec):
        return "applies to spin-1/2 chains only"
    return None


def applicable_checks(model_type: str, spec: PeriodicChainSpec | None = None) -> list[str]:
    return [d.name for d in _ORDERED if inapplicable_reason(d.name, model_type, spec) is None]


def explain(name: str) -> str:
    if name not in _REGISTRY:
        raise KeyError(name)
    return _REGISTRY[name].description


def bounds_summary(name: str) -> str:
    """Each residual key of check ``name`` with its bound and the bound's default."""
    parts = []
    for key, bound in _REGISTRY[name].bounds.items():
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
    states: dict[int, Eigenstates] = {}
    for name in config.suite:
        cdef = _REGISTRY[name]
        ctx = CheckContext(config=config, states=states,
                           rng=np.random.default_rng([config.seed, _INDEX[name]]))
        start = time.perf_counter()
        try:
            rec = cdef.func(ctx)
        except (BdlError, ArithmeticError, np.linalg.LinAlgError) as exc:
            rec = CheckRecord(name, False, {}, {}, ctx.digest(), 0.0,
                              f"{type(exc).__name__}: {exc}")
        rec.wall_time_s = round(time.perf_counter() - start, 4)
        records.append(rec)
    passed = sum(1 for r in records if r.passed)
    return {
        "config": config.raw,
        "seed": config.seed,
        "checks": [dict(vars(r)) for r in records],
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
        "suite_passed": passed == len(records),
    }
