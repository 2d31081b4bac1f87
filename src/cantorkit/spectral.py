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
formula here can be checked against interval lengths.  r, p and omega come
from one eigenvalue call and inverse iteration (see perron_data).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import LevelOutOfRange, MatrixMismatch, NoConvergence, Reducible, UsageError

DEFAULT_TOL = 1e-12
SHIFT = 1e-13   # how far above the Perron root inverse iteration is shifted, relatively
SOLVES = 2      # inverse-iteration solves per vector; one leaves a residual near 2e-14


@dataclass(frozen=True)
class PerronData:
    """Spectral data of an admissibility matrix.

    radius: Perron root r(A); p / omega: right eigenvectors of A and A^t,
    positive, each summing to 1; delta: log r / log N (0 when undefined);
    tol: the achieved infinity-norm eigen-residual; iterations: the
    inverse-iteration solves made, SOLVES for each vector.
    """

    matrix: core.AdmissibilityMatrix
    radius: float
    p: np.ndarray
    omega: np.ndarray
    delta: float
    tol: float
    iterations: int


def perron_data(matrix, tol=DEFAULT_TOL):
    """Compute PerronData for an irreducible matrix.

    The Perron root lam is the eigenvalue of largest real part, periodic A
    included.  sigma I - A, sigma = lam (1 + SHIFT), is then a nonsingular
    M-matrix with a positive inverse: SOLVES steps x <- (sigma I - A)^-1 x / sum
    from the uniform vector give p, the same on A^t give omega.  NoConvergence
    when a solve fails, a vector is not positive, or the residual is over tol.
    """
    if not 0.0 < tol < math.inf:
        raise UsageError("tolerance must be finite and > 0, got %r" % (tol,))
    a = matrix.array.astype(float)
    if not matrix.strict and not core._is_irreducible(a):   # validate_matrix checked strict ones
        raise Reducible("matrix is reducible; no Perron data")
    both = np.stack([a, a.T])   # A and A^t, solved side by side
    shifted = float(np.linalg.eigvals(a).real.max()) * (1.0 + SHIFT) * np.eye(matrix.n) - both
    x = np.full((2, matrix.n, 1), 1.0 / matrix.n)
    try:
        for _ in range(SOLVES):
            x = np.linalg.solve(shifted, x)
            x /= x.sum(axis=1, keepdims=True)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("inverse iteration failed: %s" % exc)
    if not np.all(x > 0):
        raise NoConvergence("a Perron vector is not positive")
    bx = both @ x
    radius = float(bx[0].sum())
    res = float(np.max(np.abs(bx - radius * x)))   # both vectors against the one radius
    if not res <= tol:
        raise NoConvergence("Perron residual %.3e is over tol %.3e" % (res, tol))
    x.setflags(write=False)
    p, omega = x[:, :, 0]
    delta = math.log(radius) / math.log(matrix.n) if matrix.n >= 2 else 0.0
    return PerronData(
        matrix=matrix, radius=radius, p=p, omega=omega,
        delta=delta, tol=res, iterations=2 * SOLVES)


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
    mu = pd.p[core.last_digit_array(pd.matrix, k)]
    mu *= pd.radius ** (-(k - 1))   # in place: the gather is the one |W_k| array
    return mu


def inner_product(f, g, pd):
    """<f, g> in L2(Lambda_A, mu): conjugate-linear in f, refined to a common level."""
    if f.matrix != g.matrix or f.matrix != pd.matrix:
        raise MatrixMismatch("inner product needs one common matrix")
    m = max(f.level, g.level)
    # numpy multiplies into the conj above 256 kB; mu, half that size, goes in in place
    terms = np.conj(core.refine(f, m).coeffs) * core.refine(g, m).coeffs
    terms *= measure_array(pd, m)
    return complex(np.sum(terms))


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
    pulled = measure_array(pd, k - 1)[core.shift_index_array(pd.matrix, k)]
    pulled /= r
    np.subtract(measure_array(pd, k), pulled, out=pulled)
    return float(np.max(np.abs(pulled, out=pulled)))
