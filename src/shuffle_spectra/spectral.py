"""Eigenvalue estimation with stability certificates.

All solvers share one loop, orthogonal iteration with Rayleigh-Ritz on a
block of one or two columns, over caller-supplied matvec callables, so
they run equally against a dense kernel and the matrix-free applies.  With
one column (S and D) it is plain power iteration; with two (B) a complex
dominant pair comes out as a Ritz pair just as a real eigenvalue does.
For the normal operators (the symmetric part S and skew part D of the
round kernel) a small residual ||Op v - lambda v|| is a certificate: some
true eigenvalue lies within the residual of the estimate.  The full kernel
B is not normal, so its residual is reported without that reading.

Two vector-norm conventions appear side by side: the n-vector 2-norm and
the L2[0,1] norm of the step-function extension, which is the vector norm
divided by sqrt(n).  Every reported residual names its convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigenEstimate",
    "second_eig_sym",
    "skew_norm",
    "second_eig_b",
    "residual",
    "interpolate",
    "smooth_boundary",
    "oscillation_stats",
]


@dataclass
class EigenEstimate:
    """An (eigenvalue, eigenvector, residual) triple from a solver run.

    The vector is scaled to unit n-vector 2-norm.  For operator tags "S"
    and "D" (normal operators) the residual certifies a true eigenvalue
    within ``residual`` of ``value``; for "B" it is a diagnostic only.
    """

    value: complex
    vector: np.ndarray
    residual: float
    operator: str
    n: int
    iterations: int
    converged: bool
    norm_convention: str = "vector"
    note: str = ""
    rayleigh_history: list = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "operator": self.operator,
                "n": self.n,
                "value_re": float(np.real(self.value)),
                "value_im": float(np.imag(self.value)),
                "residual": self.residual,
                "norm_convention": self.norm_convention,
                "iterations": self.iterations,
                "converged": self.converged,
                "note": self.note,
            }
        )


def _top_pair(h):
    """Largest-modulus eigenvalue of the 1x1 or 2x2 matrix h, with a vector.

    Of a conjugate pair it takes the one with positive imaginary part.
    """
    if len(h) == 1:
        return h[0][0], (1.0,)
    (a, b), (c, d) = h
    half, disc = 0.5 * (a + d), (0.5 * (a - d)) ** 2 + b * c
    # rounding moves a double root by up to sqrt(eps) relative: a smaller
    # imaginary part is no evidence of a complex pair
    if disc < -np.finfo(float).eps * half * half:
        lam = complex(half, math.sqrt(-disc))
    else:
        lam = half + math.copysign(math.sqrt(max(disc, 0.0)), half)
    # each row of h - lam gives a null vector; take the longer (both
    # vanish only when h = lam I, and then any vector will do)
    y = max((b, lam - a), (lam - d, c), key=lambda y: abs(y[0]) + abs(y[1]))
    return lam, y if any(y) else (1.0, 0.0)


def _orthonormal(cols, p):
    """The first p orthonormal rows Gram-Schmidt makes of ``cols``, in order.

    A vector keeping less than 1e-8 of its length once the rows already
    taken are projected out adds no direction and is passed over.
    """
    basis = []
    for c in cols:
        length = np.linalg.norm(c)
        for b in basis * 2:  # twice is enough
            c = c - (b @ c) * b
        nc = np.linalg.norm(c)
        if nc > 1e-8 * length:
            basis.append(c / nc)
            if len(basis) == p:
                break
    return np.array(basis)


def _ritz(apply, start, tol, maxiter):
    """Orthogonal iteration with Rayleigh-Ritz on a block of p <= 2 columns.

    ``start`` holds the p starting columns as rows (a vector for p = 1).
    Each step applies the operator to each column of the orthonormal block
    Q (held as rows), takes H = Q^T A Q's eigenpair (lam, y) of largest
    modulus and orthonormalizes AQ into the next block.  A run ends when
    lam moves by less than tol (relative, floor 1) on 5 steps running.
    Returns (lam, x, iterations, converged, history), x = AQy / ||AQy||
    being the Ritz vector advanced one step: for p = 1, power iteration.
    If AQy vanishes, lam = 0 comes back with x = Qy.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")
    start = np.atleast_2d(np.asarray(start, dtype=float))
    q = _orthonormal(start, len(start))
    if len(q) < len(start):
        raise ValueError("start vectors must be nonzero and independent")
    lam_prev, streak, history, x, it = np.inf, 0, [], q[0], 0
    for it in range(1, maxiter + 1):
        w = np.array([apply(v) for v in q])
        lam, y = _top_pair([[float(qi @ wj) for wj in w] for qi in q])
        x = np.dot(y, w)
        nx = np.linalg.norm(x)
        if nx < 1e-300:  # Q has orthonormal rows, so ||Qy|| = ||y||
            return 0.0, np.dot(y, q) / np.linalg.norm(y), it, True, history
        history.append(lam)
        x = x / nx
        streak = streak + 1 if abs(lam - lam_prev) < tol * max(1.0, abs(lam)) else 0
        if streak == 5:
            return lam, x, it, True, history
        lam_prev = lam
        q = _orthonormal([*w, *q], len(q))
    return lam_prev, x, it, False, history


def _estimate(apply, value, x, operator, iterations, converged, history, note=""):
    """The EigenEstimate of (value, x), with residual ||apply(x) - value x||."""
    res = float(np.linalg.norm(apply(x) - value * x))
    return EigenEstimate(complex(value), x, res, operator, len(x), iterations,
                         converged, note=note, rayleigh_history=history)


def second_eig_sym(apply, n, tol=1e-10, maxiter=100000, seed=0):
    """Second-largest-modulus eigenpair of a symmetric operator.

    Two-stage power iteration: converge the top pair starting from the
    all-ones vector (for a doubly stochastic symmetric kernel the top
    eigenvector is all-ones; here it is computed, which also covers
    kernels that are only approximately column-stochastic), deflate it,
    and iterate on the orthogonal complement with re-orthogonalization
    every step.
    """
    if n < 2:
        raise ValueError("second_eig_sym needs n >= 2")
    l1, v1, it1, conv1, _ = _ritz(apply, np.ones(n), tol, maxiter)

    def deflated(y):
        w = apply(y) - l1 * (v1 @ y) * v1
        return w - (v1 @ w) * v1

    rng = np.random.default_rng(seed)
    start = rng.standard_normal(n)
    start -= (v1 @ start) * v1
    if np.linalg.norm(start) == 0.0:
        start = rng.standard_normal(n)
    l2, v2, it2, conv2, hist = _ritz(deflated, start, tol, maxiter)
    return _estimate(apply, l2, v2, "S", it1 + it2, conv1 and conv2, hist)


def skew_norm(apply, n, tol=1e-10, maxiter=100000, seed=0):
    """Operator 2-norm of a skew-symmetric operator, as an eigenpair.

    Powers the symmetric positive semidefinite map v -> -D(D v); the top
    eigenvalue is ||D||^2 and the corresponding invariant plane carries
    the purely imaginary eigenpair (i sigma, v - i w) with w = D v / sigma.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def m(y):
        return -apply(apply(y))

    rng = np.random.default_rng(seed)
    rho, v, it, conv, hist = _ritz(m, rng.standard_normal(n), tol, maxiter)
    sigma = float(np.sqrt(max(rho, 0.0)))
    if sigma < 1e-150:  # D v = 0: v is the eigenvector of 0
        sigma, u = 0.0, v.astype(complex)
    else:
        u = (v - 1j * (apply(v) / sigma)) / np.sqrt(2.0)
        u /= np.linalg.norm(u)
    return _estimate(apply, 1j * sigma, u, "D", it, conv, hist)


def second_eig_b(apply, n, tol=1e-10, maxiter=100000, *, seed=0):
    """Dominant eigenpair of B after deflating its eigenvalue-1 pair.

    Every row of B sums to 1, so B 1 = 1, and B'y = B y - mean(y) 1
    (Wielandt deflation with the uniform vector) has B's eigenvalues with 0
    in place of 1.  A two-column Ritz iteration on B' gives its dominant
    eigenpair (lam, x'), a complex pair as readily as a real one, and
    x = x' + mean(x') / (lam - 1) is B's own eigenvector; if lam is 1 to
    within tol (B's eigenvalue 1 is not simple), x' has mean zero and is
    kept.  If the shift cancels x' to rounding, B' is zero to rounding
    (B is the uniform chain), every mean-zero vector is an eigenvector of
    0, and the first start vector less its mean is taken.  x[0] is made
    real and >= 0.  B is not normal, so the residual ||B x - lam x||
    carries no certificate.  A complex pair is flagged as not converged,
    with the note "complex dominant pair".
    """
    if n < 2:
        raise ValueError("second_eig_b needs n >= 2")

    def deflated(y):
        return apply(y) - y.mean()

    start = np.random.default_rng(seed).standard_normal((2, n))
    value, x, it, conv, history = _ritz(deflated, start, tol, maxiter)
    if abs(value - 1.0) > tol:
        x = x + x.mean() / (value - 1.0)
    if np.linalg.norm(x) <= np.sqrt(np.finfo(float).eps):  # ||x'|| = 1
        x = start[0] - start[0].mean()
    x = x / np.linalg.norm(x)
    if x[0] != 0:
        x = x * (np.conj(x[0]) / abs(x[0]))
    note = ("maxiter exceeded" if not conv
            else "complex dominant pair" if value.imag else "")
    # every note flags an estimate that did not converge
    return _estimate(apply, value, x, "B", it, not note, history, note)


def _norm(v, n, convention):
    nv = np.linalg.norm(v)
    if convention == "vector":
        return nv
    if convention == "function":
        return nv / np.sqrt(n)
    raise ValueError("convention must be 'vector' or 'function'")


def residual(apply, v, kappa, convention="function", normalized=True):
    """||apply(v) - kappa v|| in the chosen norm convention.

    With ``normalized`` the result is divided by ||v|| in the same
    convention (and is then convention-independent); without it, the raw
    residual norm is returned, which for "function" is the n-vector norm
    divided by sqrt(n).
    """
    v = np.asarray(v)
    n = v.shape[0]
    nv = _norm(v, n, convention)
    if nv == 0.0:
        raise ValueError("v must be nonzero")
    r = _norm(apply(v) - kappa * v, n, convention)
    return float(r / nv) if normalized else float(r)


def interpolate(v, m):
    """Piecewise-linear resample of a grid function onto m points.

    Source entries sit at the affine parameters j/(n-1), j = 0..n-1, and
    targets at j/(m-1), so endpoints map to endpoints, m = n is the
    identity, and no extrapolation ever happens (endpoints clamp).
    """
    v = np.asarray(v)
    n = v.shape[0]
    if m < n:
        raise ValueError("target size must be >= source size")
    if m == n:
        return v.copy()
    if n == 1:
        return np.full(m, v[0])
    src = np.linspace(0.0, 1.0, n)
    dst = np.linspace(0.0, 1.0, m)
    if np.iscomplexobj(v):
        return np.interp(dst, src, v.real) + 1j * np.interp(dst, src, v.imag)
    return np.interp(dst, src, v)


def smooth_boundary(v, k):
    """Replace the first k-1 entries by the line through entries k and k+1.

    1-based entry convention: entries 1..k-1 become linear extrapolations
    of the segment (entry k, entry k+1); the rest is untouched.
    """
    v = np.asarray(v)
    n = v.shape[0]
    if k + 1 > n:
        raise ValueError("need k+1 <= n")
    if k < 2:
        return v.copy()
    out = v.copy()
    j = np.arange(k - 1)  # 0-based targets, entries 1..k-1
    out[j] = v[k] - (k - j) * (v[k] - v[k - 1])
    return out


def oscillation_stats(v):
    """(span, max-slope) of a real grid function.

    span = max - min; max-slope = n * max |v[i+1] - v[i]| (the discrete
    derivative on the 1/n grid).  Complex vectors are phase-gauged, so
    callers must pick a real component first.
    """
    v = np.asarray(v)
    if np.iscomplexobj(v):
        raise TypeError("oscillation_stats needs a real vector; take a component")
    n = v.shape[0]
    span = float(v.max() - v.min())
    slope = 0.0 if n < 2 else float(n * np.abs(np.diff(v)).max())
    return span, slope
