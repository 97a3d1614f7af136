"""Idealized one-round motion of a single card.

A card that starts a round at depth ``b`` (depths measured as fractions
1/n, 2/n, ..., 1 of the deck, top to bottom) and is reinserted at a uniform
position ``u`` lands, in the large-deck limit, at ``g(b, u)``:

    g(b, u) = e^(1-b) * u                              for u <= u0(b)
    g(b, u) = e^(e^(-b) * (1-u)) - (1-u) * e^(1-b)     for u >  u0(b)

with breakpoint ``u0(b) = 1 - (1-b) * e^b``.  Both branches meet at the
breakpoint and ``g(b, .)`` is a continuous, strictly increasing bijection of
[0, 1].  Its inverse is the CDF of the landing position.

On the second branch g depends on (b, u) only through x = e^(-b) (1-u):
there g = h(x) = e^x - e x, which falls from 1 to 0 on [0, 1].  So

    ginv(b, z) = max(z e^(b-1), 1 - e^b X(z)),    X = h^(-1),

and the one root X(z) per landing position z is shared by every depth.
It is solved as s(z) = 1 - X(z), the root of expm1(-s) + s = z/e; expm1
keeps the double root at z = 0 (the top-corner boundary layer) accurate.
(In Lambert form X = -W0(-e^(-1-z/e)) - z/e; numpy has no W.)

The row of the discretized transition matrix ``B(n)`` for start depth
``a = i/n`` is the vector of CDF increments

    b[i, j] = ginv(a, j/n) - ginv(a, (j-1)/n).

A row takes the linear branch below its switch column and the second
branch from it on, so B, B^T and the symmetric and skew parts
``S = (B + B^T)/2`` and ``D = (B - B^T)/2`` apply matrix-free in O(n)
from O(n) numbers.  The module also provides the exact moments and
distribution of the auxiliary upward-drift chain Y used to control the
single-card motion:

    Y_0 = a,   Y_{t+1} = Y_t + 1/n with probability Y_t, else Y_t.
"""

from __future__ import annotations

import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericError",
    "GridKernel",
    "u0",
    "g",
    "g_prime",
    "g_inverse",
    "build_kernel",
    "MatrixFreeKernel",
    "apply_sym",
    "y_moments",
    "y_distribution",
    "kernel_to_csv",
    "kernel_to_binary",
    "kernel_from_binary",
]


class NumericError(RuntimeError):
    """An iterative numeric routine failed to reach its tolerance."""


KERNEL_MAGIC = b"CCRKERN1"

_NEWTON_CAP = 50  # the root converges in about 6 steps from its start
_ROW_BLOCK = 8  # kernel rows per block: its reused CDF buffers stay in cache
Y_DISTRIBUTION_N_MAX = 500  # y_distribution's DP is O(t^2), and t runs up to n


def _check_unit(name, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def u0(b):
    """Breakpoint of the landing map: u0(b) = 1 - (1-b) e^b.

    Monotone from u0(0) = 0 to u0(1) = 1; a uniform reinsertion above the
    breakpoint lands the card on the first branch of g.
    """
    b = _check_unit("b", b)
    out = 1.0 - (1.0 - b) * np.exp(b)
    return float(out) if out.ndim == 0 else out


def g(b, u):
    """Idealized landing position of a card from depth b reinserted at u.

    Evaluated in the single-expression form min(branch1, branch2), which
    equals the piecewise definition on the whole unit square.
    """
    b = _check_unit("b", b)
    u = _check_unit("u", u)
    e1b = np.exp(1.0 - b)
    out = np.minimum(e1b * u, np.exp(np.exp(-b) * (1.0 - u)) - (1.0 - u) * e1b)
    return float(out) if out.ndim == 0 else out


def g_prime(b, u, side="auto"):
    """du-derivative of g(b, .), piecewise.

    The derivative jumps at u0(b).  ``side`` selects the branch exactly at
    the breakpoint: "left" forces the linear branch, "right" the second
    branch; "auto" uses u <= u0(b) (left-continuous).
    """
    if side not in ("auto", "left", "right"):
        raise ValueError("side must be auto, left or right")
    b = _check_unit("b", b)
    u = _check_unit("u", u)
    e1b = np.exp(1.0 - b)
    second = e1b - np.exp(-b) * np.exp(np.exp(-b) * (1.0 - u))
    ub = u0(np.asarray(b))
    out = np.where(u < ub if side == "right" else u <= ub, e1b, second)
    return float(out) if out.ndim == 0 else out


def _landing_root(z):
    """s(z) = 1 - X(z): the root in [0, 1] of expm1(-s) + s = z/e.

    Vector Newton from sqrt(2z/e), the root of the leading term s^2/2.  The
    left side is convex and increasing, so the first step overshoots and
    the rest descend onto the root; the result is accurate to about 1e-16
    absolute.  Raises NumericError if the step cap is reached.
    """
    w = np.asarray(z, dtype=float) / np.e
    s = np.sqrt(2.0 * w)
    for _ in range(_NEWTON_CAP):
        m = np.expm1(-s)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(m < 0.0, (m + s - w) / -m, 0.0)  # s = 0 only at z = 0
        s = s - step
        if np.all(np.abs(step) <= 1e-15):
            return s
    raise NumericError("landing-map root failed to converge")


def _cdf(a, z, s):
    """Landing CDF ginv(a, z) given s = s(z); a broadcasts against z."""
    return np.maximum(z * np.exp(a - 1.0), 1.0 - np.exp(a) * (1.0 - s))


def g_inverse(b, z):
    """Inverse of g(b, .), in closed form over the root s(z).

    Scalar b with scalar or vector z.  This is also the CDF of the landing
    position of a card started at depth b.
    """
    b = float(b)
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    z = _check_unit("z", z)
    u = _cdf(b, z, _landing_root(z))
    return float(u) if u.ndim == 0 else u


def _by_parts(apply, v):
    """apply(v) for a real linear map, taking a complex v part by part.

    Keeps numpy from casting a real matrix to complex (a full copy of it)
    when it meets a complex vector.
    """
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return apply(v.real) + 1j * apply(v.imag)
    return apply(v)


class _KernelApplies:
    """B, B^T, S = (B + B^T)/2 and D = (B - B^T)/2 applied to a vector.

    A subclass supplies ``_b`` and ``_bt``, the real applies of B and B^T.
    """

    def matvec(self, v):
        return _by_parts(self._b, v)

    def rmatvec(self, v):
        return _by_parts(self._bt, v)

    def sym_matvec(self, v):
        return _by_parts(lambda u: 0.5 * (self._b(u) + self._bt(u)), v)

    def skew_matvec(self, v):
        return _by_parts(lambda u: 0.5 * (self._b(u) - self._bt(u)), v)


@dataclass
class GridKernel(_KernelApplies):
    """Dense one-round transition matrix on the depth grid {1/n, ..., 1}.

    Row i gives the landing distribution of a card starting at depth
    a = i/n exactly ("endpoint" rule) or averaged over the cell
    ((i-1)/n, i/n) ("cell-average" rule, under which the matrix is doubly
    stochastic to rounding).
    """

    n: int
    probs: np.ndarray

    def row_sums(self):
        return self.probs.sum(axis=1)

    def col_sums(self):
        return self.probs.sum(axis=0)

    def _b(self, u):
        return self.probs @ u

    def _bt(self, u):
        return self.probs.T @ u


def build_kernel(n, row_rule="endpoint"):
    """Build the n x n landing-distribution matrix B(n).

    Each row is the landing CDF on the grid j/n, j = 0..n, differenced;
    the root s(j/n) is solved once and every row is closed form over it.
    ``row_rule`` picks the depth convention ("endpoint": a = i/n exactly;
    "cell-average": the CDF integrated exactly over a in ((i-1)/n, i/n),
    under which the kernel is doubly stochastic to rounding).

    Rows are built _ROW_BLOCK at a time in buffers allocated once per
    call: each block's CDFs are written with ``out=`` ufuncs, differenced
    straight into the kernel and clipped to >= 0 while still in cache, so
    no pass runs over the whole matrix.  Every entry is bit for bit the
    entry-by-entry CDF difference, which keeps the kernel an oracle
    independent of MatrixFreeKernel.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if row_rule not in ("endpoint", "cell-average"):
        raise ValueError("row_rule must be 'endpoint' or 'cell-average'")
    z = np.arange(n + 1) / n
    x = 1.0 - _landing_root(z)
    h = 1.0 / n
    # a cell's depths take the second branch below a* = 1 - log(e X + z)
    # and the linear one above it; a* depends on the column alone
    switch = 1.0 - np.log(np.e * x + z) if row_rule == "cell-average" else None
    probs = np.empty((n, n))
    bufs = np.empty((4, min(_ROW_BLOCK, n), n + 1))
    for lo in range(0, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        cdf, t, p, q = bufs[:, : hi - lo]
        if row_rule == "endpoint":  # ginv(a, z), a = i/n, as _cdf gives it
            a = np.arange(lo + 1, hi + 1)[:, None] / n
            np.multiply(z, np.exp(a - 1.0), out=cdf)
            np.multiply(np.exp(a), x, out=t)
            np.maximum(cdf, np.subtract(1.0, t, out=t), out=cdf)
        else:  # the mean of ginv over [a, a + h], a = (i-1)/n, integrated exactly
            a = np.arange(lo, hi)[:, None] / n
            np.clip(np.subtract(switch, a, out=t), 0.0, h, out=t)  # the switch's offset
            elo = np.exp(a)
            np.multiply(np.multiply(x, elo, out=cdf), np.expm1(t, out=p), out=cdf)
            np.subtract(t, cdf, out=cdf)  # the second branch's part
            np.multiply(np.multiply(z, elo, out=q), np.exp(np.subtract(t, 1.0, out=p), out=p),
                        out=q)
            np.multiply(q, np.expm1(np.subtract(h, t, out=p), out=p), out=q)  # the linear part
            np.divide(np.add(cdf, q, out=cdf), h, out=cdf)
        row = probs[lo:hi]
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=row)
        np.maximum(row, 0.0, out=row)
    return GridKernel(n=n, probs=probs)


class MatrixFreeKernel(_KernelApplies):
    """B(n) with endpoint rows, applied matrix-free in O(n).

    Row i (depth a = i/n) takes the linear branch of its CDF below its
    switch column k_i and the second branch from k_i on (where
    e X(j/n) + j/n <= e^(1-a); the left side falls in j, and k_i never
    falls in i).  Its entries are e^(a-1)/n before column k_i, ``cross_i``
    at it and e^a (s_j - s_(j-1)) after it, so each apply is a few prefix
    sums over O(n) numbers, which the O(n log n) constructor computes once.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        z = np.arange(n + 1) / n
        s = _landing_root(z)
        a = np.arange(1, n + 1) / n
        level = np.e * (1.0 - s) + z
        k = np.minimum(np.searchsorted(-level, -np.exp(1.0 - a)), n)  # 1-based
        self._ea = np.exp(a)
        self._ds = np.diff(s)
        self._k = k
        self._cross = 1.0 - self._ea * (1.0 - s[k]) - z[k - 1] * np.exp(a - 1.0)
        # column j is on the second branch in rows i < before_j (k_i < j)
        # and on the linear branch in rows i >= after_j (k_i > j)
        cols = np.arange(1, n + 1)
        self._before = np.searchsorted(k, cols, "left")
        self._after = np.searchsorted(k, cols, "right")

    def _vector(self, v):
        v = np.asarray(v)
        if v.shape != (self.n,):
            raise ValueError(f"expected a length-{self.n} vector")
        return v.astype(float, copy=False)

    def _b(self, v):
        v, n, k = self._vector(v), self.n, self._k
        head = np.concatenate(([0.0], np.cumsum(v)))
        tail = np.concatenate(([0.0], np.cumsum(self._ds * v)))
        return (self._ea / (np.e * n) * head[k - 1] + self._cross * v[k - 1]
                + self._ea * (tail[n] - tail[k]))

    def _bt(self, v):
        v, n = self._vector(v), self.n
        acc = np.concatenate(([0.0], np.cumsum(self._ea * v)))
        return (self._ds * acc[self._before] + (acc[n] - acc[self._after]) / (np.e * n)
                + np.bincount(self._k - 1, self._cross * v, minlength=n))


def apply_sym(n, x):
    """Matrix-free (B + B^T)/2 @ x in O(n); builds a MatrixFreeKernel(n)."""
    return MatrixFreeKernel(n).sym_matvec(x)


def y_moments(n, a, t):
    """Mean, closed-form variance bound, and exact variance of Y_t.

    Mean is (1 + 1/n)^t * a.  The exact variance follows the recursion
    v_{t+1} = (c^2 - 1/n^2) v_t + (c^t a / n^2)(1 - c^t a) with c = 1 + 1/n,
    v_0 = 0.  The returned bound is the solved form
    (a/n^2) sum_{j=t-1}^{2t-2} c^j - (a^2/n^2)(t-1) c^(2t-2) for t >= 1.
    The exact variance always stays below 2/(5n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    if t < 0 or t > round(n * (1.0 - a)) + 1e-9:
        raise ValueError("t must lie in [0, n(1-a)]")
    t = int(t)
    c = 1.0 + 1.0 / n
    mean = c**t * a
    var = 0.0
    for s in range(t):
        var = (c * c - 1.0 / n**2) * var + (c**s * a / n**2) * (1.0 - c**s * a)
    assert var < 0.4 / n  # holds for every admissible (n, a, t)
    if t == 0:
        bound = 0.0
    else:
        s = t - 1
        js = np.arange(s, 2 * s + 1)
        bound = (a / n**2) * np.sum(c**js) - (a * a / n**2) * s * c ** (2 * s)
    return mean, float(bound), var


def y_distribution(n, a, t):
    """Exact law of Y_t by forward dynamic programming.

    Returns (values, probs): the support {a, a + 1/n, ..., a + t/n} and the
    probability of each point.  Limited to n <= Y_DISTRIBUTION_N_MAX (the
    DP is O(t^2)); use y_moments alone for larger n.
    """
    if n > Y_DISTRIBUTION_N_MAX:
        raise ValueError(f"y_distribution is limited to n <= {Y_DISTRIBUTION_N_MAX}")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    k0 = round(a * n)
    if abs(k0 / n - a) > 1e-12:
        raise ValueError("a must be a grid point i/n")
    if t < 0 or k0 + t > n:
        raise ValueError("t must lie in [0, n(1-a)]")
    t = int(t)
    probs = np.zeros(t + 1)
    probs[0] = 1.0
    for step in range(t):
        vals = (k0 + np.arange(step + 1)) / n
        nxt = np.zeros(t + 1)
        nxt[: step + 1] = probs[: step + 1] * (1.0 - vals)
        nxt[1 : step + 2] += probs[: step + 1] * vals
        probs = nxt
    values = (k0 + np.arange(t + 1)) / n
    return values, probs


def kernel_to_csv(kernel, path):
    """Write the kernel row-major as CSV, one row per line, full precision.

    The file is the bare n x n matrix: no schema or config comment line.
    ``path`` may also be an open text stream, which is left open.
    """
    with (nullcontext(path) if hasattr(path, "write")
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        line = ",".join(["%.17g"] * kernel.n) + "\n"
        for row in kernel.probs.tolist():
            fh.write(line % tuple(row))


def kernel_to_binary(kernel, path):
    """Write magic + uint64 n header + row-major float64 payload.

    The payload is written from the kernel's own buffer, not a copy.
    """
    with open(path, "wb") as fh:
        fh.write(KERNEL_MAGIC)
        fh.write(struct.pack("<Q", kernel.n))
        fh.write(np.ascontiguousarray(kernel.probs, dtype="<f8"))


def kernel_from_binary(path):
    """Read a kernel written by kernel_to_binary.

    The file's length is checked against the header's n before the
    payload is read, straight into the kernel's array.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:8] != KERNEL_MAGIC:
            raise ValueError("not a kernel file (bad magic)")
        if len(header) < 16:
            raise ValueError(f"kernel file truncated: {len(header)} of 16 header bytes")
        (n,) = struct.unpack("<Q", header[8:])
        have, want = os.fstat(fh.fileno()).st_size - 16, 8 * n * n
        if have < want:
            raise ValueError(f"kernel file truncated: {have} of {want} payload bytes")
        if have > want:
            raise ValueError(f"kernel file too long: {have} payload bytes, expected {want}")
        probs = np.empty((n, n), dtype="<f8")
        if fh.readinto(probs) != want:
            raise ValueError(f"kernel file truncated while reading its {want} payload bytes")
    return GridKernel(n=n, probs=probs)
