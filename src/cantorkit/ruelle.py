"""Ruelle transfer operators, Keane potentials, and random-walk measures.

The transfer operator with potential W >= 0 sums over shift preimages:

    (R_W f)(x) = sum_{y: sigma(y) = x} W(y) f(y)
               = sum_{i: A[i, x_1] = 1} W(i.x) f(i.x).

W satisfies the *Keane condition* when R_W 1 = 1, i.e. the W-weights over the
preimages of every point sum to one; the constant potential N^-delta = 1/r is
Keane exactly when A has constant column sums, and a trigonometric potential

    W(y) = (1/N_1) (1 - cos(2 pi N y / N_1)),

with N_1 = number of admissible digits before y's *second* digit (the size of
the sibling set {sigma_j(sigma y)} containing y), is Keane whenever each
column's support covers all residues modulo its size: the preimage sum then
runs over the N_1-th roots of unity and the cosines cancel.  Column supports
that are incomplete modulo their size (they exist; see the 4x4 matrix with
A[i,j] = 0 iff |i-j| = 2) leave a genuinely nonzero residual, which
keane-checking here measures rather than hides.

A Keane W drives a random walk upward through the transposed-admissibility
tree: starting from a point x with leading digit x_1, the cylinder
Lambda_{k,A^t}(a) carries probability

    P_x(a) = A[a_1, x_1] * W(sigma_{a_1} x) * W(sigma_{a_2} sigma_{a_1} x) * ...

Each layer then has total mass 1, and the layer sums over depths 1..k are the
truncated harmonic series.

R_W and the Keane residuals are the preimage sum core.preimage_sum: R_W writes its
output and one scratch array, a residual only its sums.  A pointwise potential is evaluated
on arrays, once per level: at the cylinder endpoints of one level for the sampling and
the exact Keane defect, and once per depth of a prefix recursion on the A^t index arrays
for the walk; all O(|W_k|), with the float operations of the scalar forms, in order.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import CylinderFunction
from .errors import EmptyWord, LevelOutOfRange, MatrixMismatch, NegativePotential

_REAL_TOL = 1e-15


@dataclass(frozen=True)
class PointwisePotential:
    """A potential evaluated at exact points rather than on cylinders.

    The evaluator receives arrays of the first digit, the second digit and
    the value in [0, 1] of each point (a missing digit is zero, as in the
    N-adic expansion of a cylinder's left endpoint) and returns W at every
    point, or a scalar for all; every value must be finite and >= 0.
    """

    evaluator: object

    def values(self, first, second, value):
        """W at arrays of points; NegativePotential where it is negative or not finite."""
        w = np.broadcast_to(np.asarray(self.evaluator(first, second, value), dtype=np.float64),
                            np.shape(value))
        if w.size and not (w.min() >= 0.0 and w.max() < math.inf):   # a NaN fails both
            bad = np.flatnonzero(~((w >= 0.0) & (w < math.inf)))[0]
            raise NegativePotential("potential is %.6g at %r, not finite and >= 0"
                                    % (w[bad], float(value[bad])))
        return w


def constant_potential(c):
    c = float(c)
    if not 0.0 <= c < math.inf:
        raise NegativePotential("constant potential must be finite and >= 0, got %r" % c)
    return PointwisePotential(evaluator=lambda first, second, value: c)


def _cylinder_weights(w_fn, m):
    """W's coefficients at level m as reals, after the budget check at m; NegativePotential
    unless finite, real and >= 0 to _REAL_TOL, told with no array of W's size (NaN fails)."""
    core.check_cap(w_fn.matrix, m)
    c = w_fn.coeffs
    parts = c.view(np.float64)   # the real and imaginary parts, side by side
    if not (-_REAL_TOL <= parts.min() and parts.max() < math.inf and c.imag.max() <= _REAL_TOL):
        bad = ~((c.real >= -_REAL_TOL) & (c.real < math.inf) & (np.abs(c.imag) <= _REAL_TOL))
        raise NegativePotential("potential must be finite, real and >= 0, not %s" % c[bad][0])
    return core.refine(w_fn, m).coeffs.real


def _max_defect(sums):
    """max |sums - 1| over a fresh array of preimage sums, in place."""
    sums -= 1.0
    return float(np.max(np.abs(sums, out=sums)))


def ruelle_apply(w_fn, f, pd):
    """(R_W f) at one level coarser than the common refinement of W and f."""
    if w_fn.matrix != f.matrix or f.matrix != pd.matrix:
        raise MatrixMismatch("potential, signal and PerronData must share a matrix")
    m = max(w_fn.level, f.level, 2)
    wc, fc = _cylinder_weights(w_fn, m), core.refine(f, m).coeffs
    return CylinderFunction(pd.matrix, m - 1,
                            core._frozen(core.preimage_sum(pd.matrix, m - 1, wc, fc)))


def keane_residual(w_fn, pd):
    """max_b | sum_{i: A[i,b_1]=1} W(i.b) - 1 | over one level below W."""
    if w_fn.matrix != pd.matrix:
        raise MatrixMismatch("potential and PerronData must share a matrix")
    m = max(w_fn.level, 2)
    return _max_defect(core.preimage_sum(pd.matrix, m - 1, _cylinder_weights(w_fn, m)))


def trig_potential(pd, sample_level):
    """The cosine Keane potential, as (cylinder sampling, pointwise form).

    Pointwise: W(y) = (1/N_1)(1 - cos(2 pi N y / N_1)) with N_1 the column
    sum of y's second digit — the number of digits j that can precede
    sigma(y), i.e. the size of the sibling preimage set y belongs to.  That
    count is what makes the preimage sum at any x run through N_1-th roots of
    unity.  The cylinder form samples W at the left endpoint x(a) of every
    level-`sample_level` cylinder; it inherits a discretization-size Keane
    residual, the pointwise form is the exact object.  The sampling is the
    pointwise form evaluated at every endpoint at once, O(|W_k|).
    """
    if sample_level < 1:
        raise LevelOutOfRange("sample_level must be >= 1")
    mat = pd.matrix
    n = mat.n
    col = np.array(mat.col_sums, dtype=np.float64)

    def evaluator(first, second, value):   # (1 - cos(2 pi N value / n1)) / n1, in one array
        n1 = col[second]
        w = np.multiply(value, 2.0 * math.pi * n)
        np.cos(np.divide(w, n1, out=w), out=w)
        return np.divide(np.subtract(1.0, w, out=w), n1, out=w)

    pointwise = PointwisePotential(evaluator=evaluator)
    coeffs = _endpoint_values(pointwise, mat, sample_level).astype(np.complex128)
    return CylinderFunction(mat, sample_level, core._frozen(coeffs)), pointwise


def _endpoint_values(potential, matrix, k):
    """W at the left endpoint x(a) of every level-k cylinder (k >= 1), lexicographic."""
    if k == 1:
        second = np.zeros(matrix.n, dtype=np.intp)
    else:
        second = core.first_digit_array(matrix, k - 1)[core.shift_index_array(matrix, k)]
    return potential.values(core.first_digit_array(matrix, k), second,
                            core.value_array(matrix, k))


def preimage_keane_residual(potential, pd, level):
    """Exact pointwise Keane defect, sampled at all level-`level` endpoints.

    For each sample x: | sum_j A[j, x_1] W(sigma_j x) - 1 |, where sigma_j x
    has digits j.x and value (x + j)/N — no cylinder averaging involved.
    W is evaluated at the level-(level+1) endpoints, those of the words j.x,
    and core.preimage_sum adds each sample's terms in the order of j.  Level 0
    samples level 1; a negative level raises LevelOutOfRange.
    """
    core.check_level(level)
    level = max(level, 1)
    w = _endpoint_values(potential, pd.matrix, level + 1)
    return _max_defect(core.preimage_sum(pd.matrix, level, w))


# --- the walk on transposed-admissibility cylinders ---------------------------


def walk_layers(start, potential, matrix, kmax):
    """P_x of every A^t word at depths 0 .. kmax, one array per depth, x = x(start).

    x is summed from the last digit of the start word, v = (v + a_m)/N.  A
    depth-d word's point is (v + a_d)/N and its weight W there times its
    prefix's, with v and the weight gathered from the prefix; W is not
    evaluated on words whose first letter fails the gate A[a_1, x_1].
    """
    core.check_level(kmax)
    core.check_cap(matrix.transpose, kmax)
    if len(start) == 0:
        raise EmptyWord("walk needs a starting point with at least one digit")
    start = core.check_word(matrix, start)
    x = 0.0
    for digit in reversed(start):
        x = (x + digit) / matrix.n
    mt = matrix.transpose
    gate = matrix.array[:, start[0]] == 1
    layers = [np.ones(1)]
    points, last = np.array([x]), np.array(start[:1])
    for d in range(1, kmax + 1):
        parent = core.prefix_index_array(mt, d, d - 1)
        letter = core.last_digit_array(mt, d)
        points = (points[parent] + letter) / matrix.n
        live = gate[core.first_digit_array(mt, d)]
        w = np.zeros(len(letter))
        w[live] = potential.values(letter[live], last[parent][live], points[live])
        layers.append(layers[-1][parent] * w)
        last = letter
    return layers

