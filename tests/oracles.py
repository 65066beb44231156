"""Independent reference solvers for the Toeplitz tests.

None of these has a production caller.  `durbin_reference` is a frozen copy
of the Durbin loop that the production `correlation._durbin` must match bit
for bit; `levinson` and `dense_quadratic_form` are slower, independently
derived solves that bound its accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from fbmpower.correlation import _dense_toeplitz
from fbmpower.errors import IllConditionedError


def durbin_reference(row: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Durbin recursion as it stood before y was stored reversed: returns
    (u, beta, logdet T) with T u = beta * row[0] * e_1."""
    n = row.size
    diag = row[0]
    if not np.isfinite(diag) or diag <= 0.0:
        raise IllConditionedError(f"non-positive diagonal {float(diag)!r}")
    r = row[1:] / diag
    lags = r.tolist()
    u = np.zeros(n)
    u[0] = 1.0
    if n == 1:
        return u, 1.0, float(np.log(diag))

    y = u[1:]
    y[0] = alpha = -lags[0]
    beta = 1.0
    logdet = 0.0
    for k in range(1, n):
        beta = (1.0 - alpha * alpha) * beta
        if not 0.0 < beta < math.inf:
            raise IllConditionedError(
                f"prediction variance {beta!r} at order {k}: "
                "matrix is not positive definite"
            )
        logdet += np.log(beta)
        if k < n - 1:
            reversed_y = y[k - 1 :: -1]
            alpha = -(lags[k] + float(np.dot(r[:k], reversed_y))) / beta
            y[:k] += alpha * reversed_y
            y[k] = alpha
    return u, beta, float(logdet + n * np.log(diag))


def levinson(row: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Levinson recursion (Golub & Van Loan, alg. 4.7.3): returns (solution
    of T x = b, logdet T).

    The recursion tracks the prediction-error variance, whose running
    product is the determinant; a non-positive value means the leading
    minors are not all positive, and IllConditionedError is raised.
    """
    n = row.size
    diag = row[0]
    if not np.isfinite(diag) or diag <= 0.0:
        raise IllConditionedError(f"non-positive diagonal {float(diag)!r}")
    if n == 1:
        return b / diag, float(np.log(diag))
    r = row[1:] / diag

    x = np.zeros(n)
    y = np.zeros(n - 1)
    x[0] = b[0]
    y[0] = -r[0]
    alpha = -r[0]
    beta = 1.0
    logdet = 0.0
    for k in range(1, n):
        beta = (1.0 - alpha * alpha) * beta
        if not np.isfinite(beta) or beta <= 0.0:
            raise IllConditionedError(
                f"prediction variance {float(beta)!r} at order {k}: "
                "matrix is not positive definite"
            )
        logdet += np.log(beta)
        mu = (b[k] - np.dot(r[:k], x[k - 1 :: -1])) / beta
        x[:k] += mu * y[k - 1 :: -1]
        x[k] = mu
        if k < n - 1:
            alpha = -(r[k] + np.dot(r[:k], y[k - 1 :: -1])) / beta
            y[:k] = y[:k] + alpha * y[k - 1 :: -1]
            y[k] = alpha
    return x / diag, float(logdet + n * np.log(diag))


def dense_quadratic_form(row: np.ndarray, z: np.ndarray) -> float:
    """z' T^-1 z via dense Cholesky, O(m^3)."""
    row = np.asarray(row, dtype=float)
    z = np.asarray(z, dtype=float)
    try:
        chol = np.linalg.cholesky(_dense_toeplitz(row))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(str(exc)) from exc
    w = np.linalg.solve(chol, z)
    return float(np.dot(w, w))
