"""The full-ladder damped Newton, kept as a reference for ``oracle._newton``.

``oracle._newton`` evaluates the residual at each live set's full step and
searches the line-search ladder only for the sets whose full step does not
qualify.  ``newton`` here is the form it replaced: one residual over the
whole ladder, (sets, 25, n), every iteration.  It reads SWEEP_ENTRIES and
FLOOR_ULPS from ``bdl.oracle`` at call time, so a test that patches them
there patches both.
"""
import numpy as np

from bdl import oracle


def newton(residual_fn, jacobian_fn, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on a stack of sets (sets, n), every rung of every set per iteration."""
    us = starts.astype(complex)
    fv = residual_fn(us)
    n = us.shape[-1]
    rungs = 0.5 ** np.arange(25)
    step_sets = max(1, oracle.SWEEP_ENTRIES // (2 * len(rungs) * n * n))
    live = np.arange(len(us))
    for _ in range(80):
        if not len(live):
            break
        base = np.max(np.abs(fv[live]), axis=-1)
        step = oracle._solve_each(jacobian_fn(us[live]), -fv[live])
        trials = us[live, None, :] + rungs[:, None] * step[:, None, :]
        fv_trials = np.concatenate([residual_fn(trials[i:i + step_sets])
                                    for i in range(0, len(live), step_sets)])
        ulps = oracle.FLOOR_ULPS * np.spacing(np.abs(us[live, None, :]))
        floor = np.all(np.abs(trials - us[live, None, :]) <= ulps, axis=-1)
        lowers = np.max(np.abs(fv_trials), axis=-1) < base[:, None]
        hit = floor | lowers
        rung = np.argmax(hit, axis=-1)
        taken = np.arange(len(live)), rung
        moves = hit.any(axis=-1) & lowers[taken]
        us[live[moves]] = trials[moves, rung[moves]]
        fv[live[moves]] = fv_trials[moves, rung[moves]]
        live = live[moves & ~floor[taken]]
    return us, fv
