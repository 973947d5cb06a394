"""Fixed reference work that gauges how fast the machine runs just now.

The benchmark times this work before the first ``verify`` call of a pass and
after every call, and divides each call's time by the mean of the two
reference times around it. On a shared host whose speed drifts by 1.5x
within a minute, that ratio moves much less between runs than the seconds
do. None of the work calls ``bdl``, so no change to the program moves it.

Contention slows interpreter work and dense linear algebra by different
amounts, so there are two kinds of reference work, and each workload is
divided by the kind that makes up most of its passes:

- ``interpreter``: a pure-Python loop, small numpy calls (``np.polyder``, as
  in ``bethe_jacobian``) and a small damped Newton iteration with
  ``np.poly``/``np.polyval``/``np.linalg.solve``; about 0.3 s.
- ``dense``: complex 256 x 256 matrix products, eigenvalues and 2-norms, as
  in the dense oracle at D = 256; about 0.3 s. The products weigh most, as
  the monodromy products do in an ``oracle-dense`` pass.

Both run on one BLAS thread (the benchmark sets ``OPENBLAS_NUM_THREADS=1``)
and allocate about 3 MB, so they leave ``peak_rss_mb`` alone.
"""
from __future__ import annotations

import time

import numpy as np

LOOP = 600_000
POLYDER = 10_000
NEWTON = 300
ZGEMM = 40
EIG = 1
NORM = 4


def _python_loop(_) -> None:
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7


def _numpy_small(_) -> None:
    poly = np.arange(1.0, 6.0)
    for _ in range(POLYDER):
        np.polyder(poly)


def _newton(_) -> None:
    rng = np.random.default_rng(1)
    for _ in range(NEWTON):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for _ in range(6):
            deriv = np.polyder(np.poly(z))
            f = np.array([np.polyval(deriv, u) for u in z])
            z = z - 0.1 * np.linalg.solve(np.outer(f, f) + np.eye(3), f)


def _zgemm(matrix) -> None:
    for _ in range(ZGEMM):
        matrix @ matrix


def _eigvals(matrix) -> None:
    for _ in range(EIG):
        np.linalg.eigvals(matrix)


def _norm2(matrix) -> None:
    for _ in range(NORM):
        np.linalg.norm(matrix, 2)


KINDS = {
    "interpreter": {"python_loop_s": _python_loop, "numpy_small_s": _numpy_small,
                    "newton_s": _newton},
    "dense": {"zgemm256_s": _zgemm, "eigvals256_s": _eigvals, "norm2_256_s": _norm2},
}


def timings(kind: str) -> dict[str, float]:
    """Seconds each part of one kind of reference work took, in one go."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    out = {}
    for name, work in KINDS[kind].items():
        t0 = time.perf_counter()
        work(matrix)
        out[name] = time.perf_counter() - t0
    return out


def seconds(kind: str) -> float:
    """Seconds one kind of reference work took just now."""
    return sum(timings(kind).values())
