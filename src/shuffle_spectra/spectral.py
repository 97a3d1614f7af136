"""Eigenvalue estimation with stability certificates.

All solvers are plain power iterations over caller-supplied matvec
callables, so they run equally against a dense kernel and the matrix-free
applies.  For the normal operators (the symmetric part S and skew part D
of the round kernel) a small residual ||Op v - lambda v|| is a certificate:
some true eigenvalue lies within the residual of the estimate.  The full
kernel B is not normal, so its residual is reported without that reading.

Two vector-norm conventions appear side by side: the n-vector 2-norm and
the L2[0,1] norm of the step-function extension, which is the vector norm
divided by sqrt(n).  Every reported residual names its convention.
"""

from __future__ import annotations

import json
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


_PROBE_EVERY = 50  # a quasi-periodic Rayleigh sequence never builds a streak
# Deflating with any pi (pi @ ones != 0) keeps B's other eigenvalues, but the
# deflated eigenvector is B's own only for the exact stationary pi.
_STATIONARY_TOL = 1e-15
_STATIONARY_CAP = 5000


def _power(matvec, start, tol, maxiter, stall=None, streak_needed=5):
    """Power iteration with a convergence streak on the Rayleigh quotient.

    Returns (rho, v, iterations, converged, history, stop).  Stops early
    with value 0 if the operator annihilates the iterate.  ``stall(v, rho,
    settled)``, if given, is asked when a streak completes (settled=True)
    and every _PROBE_EVERY steps: a result other than None ends the run and
    comes back as ``stop``; a settled streak it declines starts over.
    """
    v = np.asarray(start, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("start vector must be nonzero")
    v = v / nv
    rho_prev = np.inf
    streak = 0
    history = []
    it = 0
    for it in range(1, maxiter + 1):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            return 0.0, v, it, True, history, None
        rho = float(v @ w)
        history.append(rho)
        v = w / nw
        settled = False
        if abs(rho - rho_prev) < tol * max(1.0, abs(rho)):
            streak += 1
            settled = streak >= streak_needed
            if settled and stall is None:
                return rho, v, it, True, history, None
        else:
            streak = 0
        if stall is not None and (settled or it % _PROBE_EVERY == 0):
            stop = stall(v, rho, settled)
            if stop is not None:
                return rho, v, it, True, history, stop
            if settled:
                streak = 0
        rho_prev = rho
    return rho_prev, v, it, False, history, None


def second_eig_sym(apply, n, tol=1e-10, maxiter=100000, seed=0):
    """Second-largest-modulus eigenpair of a symmetric operator.

    Two-stage power iteration: converge the top pair starting from the
    all-ones vector (for a doubly stochastic symmetric kernel the top
    eigenvector is all-ones; here it is computed, which also covers
    kernels that are only approximately column-stochastic), deflate it,
    and iterate on the orthogonal complement with re-orthogonalization
    every step.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    l1, v1, it1, conv1, *_ = _power(apply, np.ones(n), tol, maxiter)

    def deflated(y):
        w = apply(y) - l1 * (v1 @ y) * v1
        return w - (v1 @ w) * v1

    rng = np.random.default_rng(seed)
    start = rng.standard_normal(n)
    start -= (v1 @ start) * v1
    if np.linalg.norm(start) == 0.0:
        start = rng.standard_normal(n)
    l2, v2, it2, conv2, hist, _ = _power(deflated, start, tol, maxiter)
    res = float(np.linalg.norm(apply(v2) - l2 * v2))
    return EigenEstimate(
        value=complex(l2),
        vector=v2,
        residual=res,
        operator="S",
        n=n,
        iterations=it1 + it2,
        converged=conv1 and conv2,
        rayleigh_history=hist,
    )


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
    rho, v, it, conv, hist, _ = _power(m, rng.standard_normal(n), tol, maxiter)
    sigma = float(np.sqrt(max(rho, 0.0)))
    if sigma < 1e-150:
        res = float(np.linalg.norm(apply(v)))
        return EigenEstimate(
            value=0j, vector=v.astype(complex), residual=res, operator="D",
            n=n, iterations=it, converged=conv, rayleigh_history=hist,
        )
    w = apply(v) / sigma
    u = (v - 1j * w) / np.sqrt(2.0)
    u /= np.linalg.norm(u)
    res = float(np.linalg.norm(apply(u) - 1j * sigma * u))
    return EigenEstimate(
        value=1j * sigma,
        vector=u,
        residual=res,
        operator="D",
        n=n,
        iterations=it,
        converged=conv,
        rayleigh_history=hist,
    )


def _complex_pair(apply, x):
    """The dominant pair of ``apply`` if the iterate x rotates in a plane.

    Fits the degree-2 Krylov relation z = a y + b x with y = apply(x) and
    z = apply(y).  When the fit is exact and its companion roots
    (a +- sqrt(a^2 + 4b))/2 are complex, returns (lambda, residual of the
    two-step relation); otherwise None.
    """
    y = apply(x)
    z = apply(y)
    ny = np.linalg.norm(y)
    if ny < 1e-300:
        return None
    # skip when the iterate has already collapsed to a ray (fit is
    # collinear and its roots meaningless)
    if np.linalg.norm(y / ny - x * np.sign(x @ y)) < 1e-3:
        return None
    basis = np.stack([y, x], axis=1)
    coef, *_ = np.linalg.lstsq(basis, z, rcond=None)
    fit_res = np.linalg.norm(z - basis @ coef) / max(np.linalg.norm(z), 1e-300)
    a, b = coef
    disc = a * a + 4.0 * b
    if fit_res > 1e-8 or disc >= 0:
        return None
    lam = (a + 1j * np.sqrt(-disc)) / 2.0
    if abs(lam.imag) <= 1e-8 * abs(lam):
        return None
    return lam, float(np.linalg.norm(z - 2 * lam.real * y + (abs(lam) ** 2) * x))


def second_eig_b(apply, n, tol=1e-10, maxiter=100000, apply_t=None, seed=0):
    """Dominant eigenpair of B after deflating its eigenvalue-1 pair.

    The right eigenvector of eigenvalue 1 is all-ones (rows sum to 1); the
    left one is the stationary vector, computed by transpose power
    iteration when ``apply_t`` is provided and taken uniform otherwise.
    B is not normal, so the returned residual carries no certificate.  If
    the Rayleigh sequence settles into a period-2 oscillation (complex
    dominant pair), the estimate from a two-step companion fit is
    returned flagged as not converged.  Iterations count both power
    iterations; a stationary solve that reaches its cap leaves the
    estimate flagged as not converged, with a note.
    """
    if n < 2:
        raise ValueError("second_eig_b needs n >= 2")
    ones = np.ones(n)
    pi, it_pi, conv_pi = ones / n, 0, True
    if apply_t is not None:
        _, pi, it_pi, conv_pi, *_ = _power(apply_t, pi, _STATIONARY_TOL,
                                           _STATIONARY_CAP)
        pi = pi / pi.sum()
    c = pi @ ones

    def deflated(y):
        return apply(y) - ones * ((pi @ y) / c)

    def stall(v, rho, settled):
        if settled:
            res = float(np.linalg.norm(deflated(v) - rho * v))
            if res <= 1e-6 * max(1.0, abs(rho)):
                return complex(rho), res, ""
        # value stagnant but vector still moving, or no streak at all:
        # a rotating (complex) dominant pair?
        hit = _complex_pair(deflated, v)
        if hit is not None:
            return (*hit, "complex dominant pair (two-step companion estimate)")
        return None

    start = np.random.default_rng(seed).standard_normal(n)
    rho, v, it, conv, history, stop = _power(deflated, start, tol, maxiter, stall)
    if stop is None:  # annihilated the iterate, or reached maxiter
        res = float(np.linalg.norm(deflated(v) - rho * v))
        stop = (complex(rho), res, "" if conv else "maxiter exceeded")
    value, res, note = stop
    if not conv_pi:
        note = "; ".join(filter(None, (note, "stationary vector: iteration cap reached")))
    return EigenEstimate(  # every note flags an estimate that did not converge
        value, v, res, "B", n, it_pi + it, not note, note=note,
        rayleigh_history=history,
    )


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
