"""The block draw of separated points, kept as a reference for ``checks._separated_rows``.

``block_rows`` draws the candidates exactly as ``_separated_rows`` does, one
``uniform`` block per round for the rows still short, and filters them with
``_take_separated``: one numpy pass per candidate column, across all rows.
It reads the box, block and limit constants from ``bdl.checks`` at call
time, so a test that patches them there patches both draws.
"""
import numpy as np

from bdl import checks
from bdl.checks import POINT_MIN_SEP


def block_rows(rng: np.random.Generator, rows: int, count: int, avoid) -> np.ndarray:
    """(rows, count) complex points, each row kept away from ``avoid``, by column passes."""
    avoid = np.asarray(avoid, dtype=complex)
    first = avoid.shape[-1]
    kept = np.zeros((rows, first + count), dtype=complex)
    kept[:, :first] = avoid
    filled = np.full(rows, first)
    block = checks.CANDIDATES_PER_POINT * count
    drawn = 0
    while len(short := np.flatnonzero(filled < first + count)):
        drawn += block
        if drawn > checks.MAX_CANDIDATES:
            raise RuntimeError("failed to draw separated points")
        parts = rng.uniform(-checks.POINT_SCALE, checks.POINT_SCALE, size=(len(short), block, 2))
        cand = parts[..., 0] + 1j * parts[..., 1]
        kept[short], filled[short] = _take_separated(cand, kept[short], filled[short])
    return kept[:, first:]


def _take_separated(cand: np.ndarray, kept: np.ndarray,
                    filled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend each row's kept points from its candidates, in order.

    Row r has kept ``kept[r, :filled[r]]``; a candidate is kept if its row is
    not full and it is farther than POINT_MIN_SEP from every point kept so
    far.  One step per candidate column, across all rows.  Returns the new
    (kept, filled).
    """
    kept, filled = kept.copy(), filled.copy()
    count = kept.shape[1]
    for col in cand.T:
        rows = np.flatnonzero(filled < count)
        if not len(rows):
            break
        near = np.abs(kept[rows] - col[rows, None]) <= POINT_MIN_SEP
        rows = rows[~(near & (np.arange(count) < filled[rows, None])).any(axis=1)]
        kept[rows, filled[rows]] = col[rows]
        filled[rows] += 1
    return kept, filled
