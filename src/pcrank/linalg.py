"""Small linear-algebra kernel: Cholesky solves, conjugate gradients, and
the dominant eigenpair of a nonnegative matrix.

Every linear system pcrank solves on a validated matrix is symmetric positive
definite, so the one direct solver is Cholesky: numpy's LAPACK factor, then a
forward and a backward substitution by row blocks.  On large sparse systems
GM and LLS first try Jacobi-preconditioned conjugate gradients
(:func:`_cg`), whose product they take over the edge list without building
a matrix; a solution that does not pass a backward-stable residual test
within the step budget falls back to Cholesky.  This module adds the
contracts the solvers rely on (an explicit singularity guard relative to the
matrix max-norm, and a residual-checked dominant eigenpair, found by power
steps and then Noda's iteration, or on small matrices by one LAPACK
eigensolve whose vector passes the iteration's own final test).  The steps
(:func:`_iterate`) take the matrix's product as a function, so Harker's
method runs its power steps over the edge list on large sparse graphs and
builds its matrix only if they reach the Noda steps.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .priority import UnrepresentableWeightsError

__all__ = [
    "SingularMatrixError",
    "ConvergenceError",
    "solve",
    "power_iteration",
]

#: A pivot below PIVOT_RTOL * max|a_ij| counts as numerically singular.
#: Well above double-precision noise; tripping it on validated input means
#: something upstream is corrupt.
PIVOT_RTOL = 1e-12

#: Rows per block of the substitutions in :func:`solve`.  Each block costs one
#: matrix-vector update and one small ``np.linalg.solve``; 32 was the fastest
#: of 16-96 at n = 100-600, and every size up to 32 is a single block.
_BLOCK = 32

#: The largest n for which :func:`power_iteration` first tries one dense
#: eigensolve.  Against power and Noda steps on random complete and Harker
#: matrices, with one BLAS thread on a 2-core x86-64 VM, dgeev took 55-95
#: against 290-330 us at n = 8, 270-300 against 280-340 us at n = 24, and
#: 360-380 against 300-365 us at n = 28; beyond that the iteration is faster.
_EIG_MAX_N = 24

#: Conjugate gradients (:func:`_cg`) are tried on a system of n unknowns whose
#: product reads m stored entries (the edge list, diagonal included) when
#: n**3 >= _CG_WORK * m: a Cholesky factor costs n^3 / 3 flops, and a CG
#: step's product reads the m entries.
#: On random matrices with 90 % of pairs missing, one BLAS thread, a 2-core
#: x86-64 VM, GM's CG against the build and Cholesky solve of its matrix took
#: 0.5-1.0 against 0.4-0.6 ms at n = 140 (n^3 / m = 1315), 0.55-0.9 against
#: 0.5-0.7 ms at 160 (1515), 0.5-0.9 against 0.6-1.0 ms at 180 (1714) and
#: 1.2 against 8.6 ms at 600 (5911).
_CG_WORK = 1700

#: :func:`_cg` accepts x when max|A x - b| <= _CG_TOL * (||A|| max|x| + max|b|).
_CG_TOL = 16 * float(np.finfo(float).eps)

#: :func:`power_iteration`'s default tolerance and step budget.
_TOL, _MAX_ITER = 1e-12, 100_000

#: The smallest normal double, the spacing of the doubles below it, the largest.
_TINY = float(np.finfo(float).tiny)
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)
_HUGE = float(np.finfo(float).max)


class SingularMatrixError(ArithmeticError):
    """The matrix is numerically singular (pivot under the guard threshold)."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the residual tolerance was met."""


def _check_square(a: np.ndarray, rhs: np.ndarray | None = None) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if rhs is not None and rhs.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {a.shape}, rhs {rhs.shape}")


def solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for a symmetric positive definite ``a`` (Cholesky).

    Raises SingularMatrixError when ``a`` is not positive definite or any
    pivot falls below PIVOT_RTOL times the matrix max-norm, ValueError on
    dimension mismatch or on an infinite or NaN entry in ``a`` or ``rhs``.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _check_square(a, rhs)
    scale = max(a.max(initial=0.0), -a.min(initial=0.0))  # max|a_ij|; NaN with a NaN
    if not (scale < math.inf and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")

    try:  # a.T is a in column order, which numpy passes to LAPACK untransposed
        low = np.linalg.cholesky(a.T)
    except np.linalg.LinAlgError as e:  # also the zero matrix
        raise SingularMatrixError(f"not positive definite: {e}") from e
    if (np.diag(low) ** 2 < PIVOT_RTOL * scale).any():
        raise SingularMatrixError("pivot below singularity threshold")

    x = rhs.copy()
    starts = range(0, x.size, _BLOCK)
    for s in starts:  # low @ y = rhs, top block first; y overwrites x
        e = s + _BLOCK
        b = x[s:e] - low[s:e, :s] @ x[:s] if s else x[s:e]  # the top block has no update
        x[s:e] = np.linalg.solve(low[s:e, s:e], b)
    for s in reversed(starts):  # low.T @ x = y, bottom block first
        e = s + _BLOCK
        b = x[s:e] - low[e:, s:e].T @ x[e:] if e < x.size else x[s:e]  # nor the bottom one
        x[s:e] = np.linalg.solve(low[s:e, s:e].T, b)
    return x


def _cg(
    product: Callable[[np.ndarray], np.ndarray], diag: np.ndarray, rhs: np.ndarray, norm: float
) -> np.ndarray | None:
    """x solving A x = rhs by Jacobi-preconditioned conjugate gradients
    (Hestenes & Stiefel, 1952) from x = 0, or None.

    A is symmetric positive definite, ``product(v)`` returns A v, ``diag`` is
    A's diagonal and ``norm`` bounds max|A x| / max|x| at the solution:
    ||A||_inf, or for GM's L + J, whose J x is about 0 there, ||L||_inf.
    The solution must pass
    the test max|A x - rhs| <= _CG_TOL * (norm * max|x| + max|rhs|), a
    backward-stable solve's residual (Cholesky's bound has a further factor
    of n).  When the residual the iteration updates passes it, the residual
    is recomputed as rhs - A x and replaces it, and x is returned if that one
    passes too.  None after max(n // 5, 1) steps, n = rhs.size, or on a
    breakdown: d' A d not positive, or NaN, for a search direction d, or a
    bound that is not finite.

    The budget covers random matrices with 90 % of pairs missing at every
    size that :data:`_CG_WORK` lets through (GM took about 25 steps at
    n = 180 and 18 at n = 600) and with 99 % missing at n = 600 (about 38);
    sparser graphs at small n run out of it (95 % missing at n = 160 needs
    34).  Where CG converges slowly, as on a path graph, the budget is
    spent before the fall-back: 120 steps took 3.5-3.9 ms
    before an 8.7-10.6 ms Cholesky solve at n = 600, 60 steps about 1.5 ms
    before 1.2-1.4 ms at n = 300, and 32 steps 0.6-0.7 ms before 0.3-0.45 ms
    at n = 160.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r / diag
    d = z.copy()
    rz = float(r @ z)
    floor = _CG_TOL * float(np.abs(rhs).max())
    for _ in range(max(rhs.size // 5, 1)):
        ad = product(d)
        dad = float(d @ ad)
        if not dad > 0.0:  # also NaN
            return None
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        bound = _CG_TOL * norm * float(np.abs(x).max()) + floor
        if float(np.abs(r).max()) <= bound:
            r = rhs - product(x)
            if float(np.abs(r).max()) <= bound < math.inf:
                return x
        z = r / diag
        rz, last = float(r @ z), rz
        d *= rz / last
        d += z
    return None


def power_iteration(
    a: np.ndarray, tol: float = _TOL, max_iter: int = _MAX_ITER
) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a nonnegative irreducible matrix.

    Up to n = _EIG_MAX_N, first the vector of one dense eigensolve
    (:func:`_eigensolve`), when it passes the test below; otherwise power
    steps from the uniform vector (l1 renormalization each step), then Noda
    steps.  Returns (lam, v) with max|a @ v - lam * v| <= tol * lam *
    max|v|, every entry of v at least the smallest normal double and v
    summing to 1.  Raises ConvergenceError after ``max_iter`` steps of either
    kind or when ``v`` has an entry below the normal range, except that with
    a positive diagonal, where the Perron vector has no zero entry, such an
    entry is taken for underflow, which raises UnrepresentableWeightsError.
    Raises SingularMatrixError when
    a power step maps ``v`` to the zero vector, as the zero matrix does.  A
    power step whose l1 norm of a v overflows rescales a v by its largest
    entry, unless min(a v / v) over the positive entries of v, a lower bound
    on lam, overflows too: then lam does not fit in a double, which raises
    UnrepresentableWeightsError.

    A power step costs one matrix-vector product, 2n^2 flops, and converges
    at the rate |lam_2 / lam_1|, which can sit next to 1.  A Noda step (see
    :class:`_Noda`) converges quadratically near the solution but solves a
    linear system, 2n^3/3 flops.  So the first max(n // 3, 1) steps are power
    steps, about one solve's worth, and the residual test runs after every
    step, so also before every solve.  The test is absolute, and a vector
    whose small entries are wrong by orders of magnitude can pass it; Noda
    steps reach such vectors on wide-range matrices, so once they have begun
    the test must also hold entry by entry (:func:`_settled`).  An entry
    below the normal range keeps only an absolute precision, the subnormal
    spacing, and the entries it feeds in a @ v can pass that test however
    wrong they are, so no vector with one is returned.  A Noda
    step shifts at the largest double when its bound overflows, and gives
    way to a power step when it cannot be taken in floating point.

    On small matrices the per-step numpy overhead, not the flops, sets the
    cost, and one LAPACK eigensolve is cheaper than the handful of steps.
    Its vector is accurate relative to its largest entry only, so it is
    accepted only if it passes the test that ends an iteration once Noda
    steps have begun, with every entry finite and normal.  Otherwise the
    iteration runs as if the eigensolve had not been tried, so the errors
    above still come from the iteration.  The eigensolve counts as no step.
    """
    a = np.asarray(a, dtype=float)
    _check_square(a)
    if a.min() < 0:
        raise ValueError("power iteration expects a nonnegative matrix")

    n = a.shape[0]
    if n <= _EIG_MAX_N:
        pair = _eigensolve(a, tol)
        if pair is not None:
            return pair
    return _iterate(lambda v: a @ v, lambda: a, n, tol, max_iter)[:2]


def _iterate(
    product: Callable[[np.ndarray], np.ndarray],
    matrix: Callable[[], np.ndarray],
    n: int,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The power and Noda steps of :func:`power_iteration` on an n x n matrix
    a, given as ``product(v)`` = a @ v and as ``matrix()``, which returns a
    and is called at most once: at the first Noda step, or for the error of
    an entry below the normal range.  So a caller with a cheaper product
    than a @ v need not build a unless the power steps do not converge.
    Returns (lam, v, av) with av = product(v) from the last step.
    """
    switch = max(n // 3, 1)
    a = noda = None
    v = np.full(n, 1.0 / n)
    av = product(v)
    residual = np.inf
    with np.errstate(all="ignore"):  # overflow is handled below, and by _Noda
        for step in range(max_iter):
            if step == switch:
                a = matrix()
                noda = _Noda(a)
            y = noda.step(v, av) if noda else None
            if y is None:
                lam = float(av.sum())  # l1 norm: av is nonnegative
                if lam <= 0.0:
                    raise SingularMatrixError("iteration collapsed to the zero vector")
                if lam == math.inf:  # a v fits, its l1 norm does not
                    if not np.min(av / v, where=v > 0, initial=math.inf) < math.inf:
                        # Collatz-Wielandt: lam_max >= min(a v / v) over v_i > 0
                        raise UnrepresentableWeightsError(
                            "eigenvalue is not representable in double precision"
                        )
                    av = av / av.max()
                    lam = float(av.sum())
                v = av / lam
                av = product(v)  # checks this step's residual and seeds the next step
            else:
                v, av = y, product(y)
                lam = float(av.sum())
            error = np.abs(av - lam * v)
            residual = float(error.max())
            if residual <= tol * lam * float(np.abs(v).max()) and (
                noda is None or _settled(v, error, lam, tol)
            ):
                if (v >= _TINY).all():
                    return lam, v, av
                raise _zero_entry_error(matrix() if a is None else a)
    raise ConvergenceError(f"no convergence after {max_iter} iterations (residual {residual:.3e})")


def _eigensolve(a: np.ndarray, tol: float) -> tuple[float, np.ndarray] | None:
    """(lam, v) from the eigenvector of the eigenvalue of ``a`` with the largest
    real part (LAPACK dgeev), scaled to sum 1, with lam = sum(a @ v); or None
    unless every entry of v is finite and at least the smallest normal double,
    lam is positive, and the residual passes both the absolute test and
    :func:`_settled`."""
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):  # a zero sum, a NaN: rejected below
        v = vectors[:, values.real.argmax()].real
        v = v / v.sum()
        if not ((v >= _TINY) & (v < math.inf)).all():
            return None
        av = a @ v
        lam = float(av.sum())
        error = np.abs(av - lam * v)
        passed = 0.0 < lam < math.inf and error.max() <= tol * lam * v.max()
        return (lam, v) if passed and _settled(v, error, lam, tol) else None


def _settled(v: np.ndarray, error: np.ndarray, lam: float, tol: float) -> bool:
    """Whether error = |a v - lam v| is within tol * lam * v_i at every i,
    give or take lam * n subnormal spacings of rounding (n spacings first:
    lam * n can overflow).  Runs under the caller's ``np.errstate``."""
    return bool((error <= tol * lam * v + lam * (v.size * _SUBNORMAL)).all())


def _zero_entry_error(a: np.ndarray) -> Exception:
    if (np.diag(a) > 0).all():  # then a @ v > 0 for every v > 0: a 0 is underflow
        return UnrepresentableWeightsError("eigenvector is not representable in double precision")
    return ConvergenceError("eigenvector is not strictly positive; matrix may be reducible")


class _Noda:
    """Noda's iteration on one matrix (T. Noda, Numer. Math. 17, 1971;
    quadratic convergence: L. Elsner, Linear Algebra Appl. 15, 1976).

    A step from v > 0 takes sigma = max(a v / v), an upper bound on lam
    (Collatz-Wielandt), or the largest double if that overflows, and solves
    (sigma I - a) y = v; a positive y proves that its shift exceeds lam,
    since then a y < shift * y.  Far from the solution sigma can exceed lam
    by hundreds of orders of magnitude, and a step then barely moves v.  So,
    as in a safeguarded root finder, a step that has not halved
    log(sigma / floor), with ``floor`` the best lower bound on lam so far,
    is followed by one that first tries the shift sqrt(floor * sigma); a
    shift that fails becomes the new floor, and the step falls back to sigma.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.floor = 0.0  # a lower bound on lam
        self.width = math.inf  # log(sigma / floor) at the last step

    def step(self, v: np.ndarray, av: np.ndarray) -> np.ndarray | None:
        """The next iterate, summing to 1, or None if it is not representable.

        An entry of v below the normal range, whose few digits say nothing
        about lam, or so far below what a v feeds it that a v / v overflows,
        first takes the value av_i / floor >= av_i / lam.  If that is still
        below the normal range, so is the eigenvector's entry next to the
        others, and the step raises as :func:`power_iteration` does for a zero
        entry.  If a v / v still overflows, sigma is the largest double; if
        it is NaN, there is no step.  Runs under :func:`power_iteration`'s
        ``np.errstate``.
        """
        a = self.a
        ratios = av / v
        fed = (v >= _TINY) & (ratios < np.inf)
        self.floor = max(self.floor, float(np.min(ratios, where=fed, initial=np.inf)))
        if not fed.all():
            v = np.where(fed, v, av / self.floor)
            if not (v >= _TINY).all():
                raise _zero_entry_error(a)
            av = a @ v
            ratios = av / v
        sigma = min(float(ratios.max()), _HUGE)  # a NaN stays NaN
        if math.isnan(sigma):
            return None
        last, self.width = self.width, _log_width(self.floor, sigma)
        if self.width > last / 2:
            trial = math.sqrt(self.floor) * math.sqrt(sigma)
            if 0.0 < trial < sigma:
                y = _shifted_solve(a, v, trial)
                if y is not None:
                    return y
                self.floor, self.width = trial, _log_width(trial, sigma)
        return _shifted_solve(a, v, sigma)


def _log_width(floor: float, sigma: float) -> float:
    return math.log(sigma / floor) if floor > 0.0 else math.inf


def _shifted_solve(a: np.ndarray, v: np.ndarray, shift: float) -> np.ndarray | None:
    """y solving (shift I - a) y = v, scaled to sum 1, or None unless y > 0.

    It solves in the basis scaled by v: with c = diag(v)^-1 a diag(v), it
    solves (I - c / shift) z = 1 and takes y = v * z, so every entry of y keeps
    its relative accuracy however widely v ranges.  It runs under the
    caller's ``np.errstate``; ``np.linalg.solve`` raises on an exactly
    singular matrix and warns on none.
    """
    n = v.size
    m = a * v / (-shift * v)[:, None]
    m.flat[:: n + 1] += 1.0
    try:
        z = np.linalg.solve(m, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    y = v * z
    total = float(y.sum())
    if not (total < math.inf and (z > 0).all()):
        return None
    return y / total
