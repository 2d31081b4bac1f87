"""Perron-Frobenius eigendata, Hausdorff dimension, and the cylinder measure.

For an irreducible 0-1 matrix A with spectral radius r = r(A), the measure of a
level-k cylinder is

    mu(Lambda(a_1 ... a_k)) = r^-(k-1) * p_{a_k},

where p is the right Perron eigenvector normalized to sum 1.  With this
normalization mu(R_i) = p_i, total mass is 1 at every level, and the additivity
recursion mu(w) = sum_{j: A[w_k, j]=1} mu(w.j) holds exactly because
(Ap)_i = r p_i.  The Hausdorff dimension of the underlying Cantor set is
delta = log r / log N, and N^delta = r ties the operator scalings below to the
geometry.  On the full shift (all-ones A) the measure is Lebesgue and every
formula here can be checked against interval lengths.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import LevelOutOfRange, MatrixMismatch, NoConvergence, Reducible

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100000


@dataclass(frozen=True)
class PerronData:
    """Spectral data of an admissibility matrix.

    radius: Perron root r(A); p / omega: right eigenvectors of A and A^t,
    positive, each summing to 1; delta: log r / log N (0 when undefined);
    tol: the achieved infinity-norm eigen-residual; iterations: power steps.
    """

    matrix: core.AdmissibilityMatrix
    radius: float
    p: np.ndarray
    omega: np.ndarray
    delta: float
    tol: float
    iterations: int


def _power_iteration(m, tol, max_iter):
    """Plain power iteration from the uniform start vector, L1-normalized.

    m must be primitive (some power strictly positive); returns
    (eigenvalue, vector, residual, iterations).
    """
    n = m.shape[0]
    x = np.full(n, 1.0 / n)
    lam = float((m @ x).sum())
    res = float(np.max(np.abs(m @ x - lam * x)))
    it = 0
    while res > tol and it < max_iter:
        y = m @ x
        lam = float(y.sum())  # sum(x) == 1, so this is the Rayleigh-type ratio
        x = y / lam
        res = float(np.max(np.abs(m @ x - lam * x)))
        it += 1
    if res > tol:
        raise NoConvergence(
            "power iteration residual %.3e after %d steps (tol %.3e)"
            % (res, max_iter, tol))
    return lam, x, res, it


def perron_data(matrix, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Compute PerronData for an irreducible matrix.

    Strict matrices are primitive (unit diagonal + irreducible), so A itself is
    iterated.  Non-strict irreducible matrices can be periodic (e.g. the edge
    matrix of a cycle), so the iteration runs on A + I — primitive whenever A
    is irreducible, same eigenvectors, eigenvalue shifted by exactly 1.
    """
    a = matrix.array.astype(float)
    if not core._is_irreducible(matrix.rows):
        raise Reducible("matrix is reducible; no Perron data")
    shift = 0.0 if matrix.strict else 1.0
    m = a + shift * np.eye(matrix.n)
    lam_r, p, _, it_r = _power_iteration(m, tol, max_iter)
    lam_l, omega, _, it_l = _power_iteration(m.T, tol, max_iter)
    radius = float(lam_r - shift)
    # Report the residual both vectors achieve against the single reported radius.
    res = max(
        float(np.max(np.abs(a @ p - radius * p))),
        float(np.max(np.abs(a.T @ omega - radius * omega))),
    )
    delta = math.log(radius) / math.log(matrix.n) if matrix.n >= 2 else 0.0
    p = p.copy()
    omega = omega.copy()
    p.setflags(write=False)
    omega.setflags(write=False)
    return PerronData(
        matrix=matrix, radius=radius, p=p, omega=omega,
        delta=delta, tol=res, iterations=it_r + it_l)


def cylinder_measure(pd, word):
    """mu(Lambda(word)) = r^-(k-1) * p_{last digit}; the empty word has mass 1."""
    word = core.check_word(pd.matrix, word)
    k = len(word)
    if k == 0:
        return 1.0
    return float(pd.radius ** (-(k - 1)) * pd.p[word[-1]])


def measure_array(pd, k):
    """mu of every level-k cylinder, in lexicographic word order."""
    if k == 0:
        return np.array([1.0])
    last = core.last_digit_array(pd.matrix, k)
    return pd.radius ** (-(k - 1)) * pd.p[last]


def inner_product(f, g, pd):
    """<f, g> in L2(Lambda_A, mu): conjugate-linear in f, refined to a common level."""
    if f.matrix != g.matrix or f.matrix != pd.matrix:
        raise MatrixMismatch("inner product needs one common matrix")
    m = max(f.level, g.level)
    fc = core.refine(f, m).coeffs
    gc = core.refine(g, m).coeffs
    return complex(np.sum(np.conj(fc) * gc * measure_array(pd, m)))


def norm(f, pd):
    """L2(mu) norm of a cylinder function."""
    return math.sqrt(max(inner_product(f, f, pd).real, 0.0))


def self_similarity_residual(pd, k):
    """How far mu is from its scaling identity, over all level-k cylinders.

    The inverse branches sigma_i(x) = (x + i)/N pull a cylinder back to
    sigma_{w_1}^{-1}(Lambda(w)) = Lambda(shift(w)) for |w| >= 2, and to the
    domain D_{w_1} (union of the successors' level-1 cylinders) for |w| = 1;
    all other branches pull it back to nothing.  Self-similarity says mu of a
    cylinder equals N^-delta = 1/r times the mass of that pullback.  Returns
    the max absolute defect, which vanishes up to eigen-residual.
    """
    if k < 1:
        raise LevelOutOfRange("k must be >= 1")
    r = pd.radius
    if k == 1:
        pulled = pd.matrix.array.astype(float) @ pd.p  # mass of D_i, per letter
        return float(np.max(np.abs(pd.p - pulled / r)))
    mu_k = measure_array(pd, k)
    mu_prev = measure_array(pd, k - 1)
    pulled = mu_prev[core.shift_index_array(pd.matrix, k)]
    return float(np.max(np.abs(mu_k - pulled / r)))
