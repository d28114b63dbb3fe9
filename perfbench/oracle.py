"""Independent reference values for the benchmark's correctness checks.

The magnetization chain is rebuilt here from its closed-form heat-bath
rates, symmetrized densely and handed to numpy.linalg.eigvalsh.  Nothing in
this module calls into the package, so a defect in its chain build or its
tridiagonal eigensolver cannot hide behind a matching reference.
"""

import numpy as np


def _logistic(a):
    return np.exp(-np.logaddexp(0.0, -a))


def reference_lambda2(n: int, J: float, H: float) -> float:
    """Second-largest eigenvalue of the lumped magnetization chain."""
    k = np.arange(n, dtype=float)
    up = (n - k) / n * _logistic(-((n - 2 * k - 1) * 2 * J - 2 * H))
    kd = k + 1
    down = kd / n * _logistic((n - 2 * kd + 1) * 2 * J - 2 * H)
    diag = 1.0 - np.concatenate([up, [0.0]]) - np.concatenate([[0.0], down])
    off = np.sqrt(up * down)
    S = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(S)[-2])


def reference_t_rel_sweeps(n: int, J: float, H: float) -> float:
    """Relaxation time 1/(1 - lambda_2) in sweeps of n single-site steps."""
    gap = 1.0 - reference_lambda2(n, J, H)
    return 1.0 / gap / n if gap > 0 else float("inf")
