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

Each layer then has total mass 1, and the layer sums assemble the truncated
harmonic series exposed at the end of the module.

R_W and the Keane residual R_W 1 - 1 are the preimage sum core.preimage_sum,
and the cylinder sampling of the trigonometric potential is a gather over
the core index arrays, all O(|W_k|); the pointwise forms (the exact preimage
Keane defect, the walk) call the potential once per word and preimage.  The
walk enumerates and checks the words of A^t through core, on
AdmissibilityMatrix.transpose.
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

    The evaluator receives (digits, value): the digit word naming the point
    (missing trailing digits are zero, as they are in the N-adic expansion of
    a cylinder's left endpoint) and the point's numeric value in [0, 1].
    Must be re-entrant and non-negative.
    """

    evaluator: object

    def __call__(self, digits, value):
        v = float(self.evaluator(tuple(digits), float(value)))
        if v < 0.0:
            raise NegativePotential(
                "potential is %.6g < 0 at %r" % (v, tuple(digits)))
        return v


def constant_potential(c):
    c = float(c)
    if c < 0:
        raise NegativePotential("constant potential must be >= 0")
    return PointwisePotential(evaluator=lambda digits, value: c)


def _check_cylinder_potential(w_fn):
    c = w_fn.coeffs
    if float(np.max(np.abs(c.imag))) > _REAL_TOL:
        raise NegativePotential("potential must be real-valued")
    if float(c.real.min()) < -_REAL_TOL:
        raise NegativePotential(
            "potential has negative value %.6g" % float(c.real.min()))


def ruelle_apply(w_fn, f, pd):
    """(R_W f) at one level coarser than the common refinement of W and f."""
    if w_fn.matrix != f.matrix or f.matrix != pd.matrix:
        raise MatrixMismatch("potential, signal and PerronData must share a matrix")
    _check_cylinder_potential(w_fn)
    m = max(w_fn.level, f.level, 2)
    wc = core.refine(w_fn, m).coeffs.real
    fc = core.refine(f, m).coeffs
    return CylinderFunction(pd.matrix, m - 1, core.preimage_sum(pd.matrix, m - 1, wc * fc))


def keane_residual(w_fn, pd):
    """max_b | sum_{i: A[i,b_1]=1} W(i.b) - 1 | over one level below W."""
    if w_fn.matrix != pd.matrix:
        raise MatrixMismatch("potential and PerronData must share a matrix")
    _check_cylinder_potential(w_fn)
    m = max(w_fn.level, 2)
    wc = core.refine(w_fn, m).coeffs.real
    return float(np.max(np.abs(core.preimage_sum(pd.matrix, m - 1, wc) - 1.0)))


def trig_potential(pd, sample_level):
    """The cosine Keane potential, as (cylinder sampling, pointwise form).

    Pointwise: W(y) = (1/N_1)(1 - cos(2 pi N y / N_1)) with N_1 the column
    sum of y's second digit — the number of digits j that can precede
    sigma(y), i.e. the size of the sibling preimage set y belongs to.  That
    count is what makes the preimage sum at any x run through N_1-th roots of
    unity.  The cylinder form samples W at the left endpoint x(a) of every
    level-`sample_level` cylinder; it inherits a discretization-size Keane
    residual, the pointwise form is the exact object.  The sampling is one
    numpy expression over `core.value_array`, O(|W_k|), with the float
    operations of the pointwise form (a level-1 word's missing second digit
    is 0, as in the endpoint's expansion).
    """
    if sample_level < 1:
        raise LevelOutOfRange("sample_level must be >= 1")
    mat = pd.matrix
    n = mat.n
    col = mat.col_sums

    def evaluator(digits, value):
        d2 = digits[1] if len(digits) >= 2 else 0
        n1 = col[d2]
        return (1.0 - math.cos(2.0 * math.pi * n * value / n1)) / n1

    pointwise = PointwisePotential(evaluator=evaluator)
    if sample_level == 1:
        second = np.zeros(n, dtype=np.intp)
    else:
        second = core.first_digit_array(mat, sample_level - 1)[
            core.shift_index_array(mat, sample_level)]
    n1 = np.array(col, dtype=np.intp)[second]
    vals = core.value_array(mat, sample_level)
    coeffs = (1.0 - np.cos(2.0 * math.pi * n * vals / n1)) / n1
    return CylinderFunction(mat, sample_level, coeffs), pointwise


def preimage_keane_residual(potential, pd, level):
    """Exact pointwise Keane defect, sampled at all level-`level` endpoints.

    For each sample x: | sum_j A[j, x_1] W(sigma_j x) - 1 |, where sigma_j x
    has digits j.x and value (x + j)/N — no cylinder averaging involved.
    """
    mat = pd.matrix
    n = mat.n
    level = max(level, 1)
    worst = 0.0
    for a, v in zip(core.enumerate_words(mat, level),
                    core.value_array(mat, level).tolist()):
        s = 0.0
        for j in mat.predecessors[a[0]]:
            s += potential((j,) + a, (v + j) / n)
        worst = max(worst, abs(s - 1.0))
    return worst


# --- the walk on transposed-admissibility cylinders ---------------------------


def walk_measure(x, potential, a, matrix):
    """P_x(Lambda_{k,A^t}(a)): the W-weight of walking x upward along a.

    Multiplies W along the forward orbit x -> sigma_{a_1} x -> ..., with the
    gate A[a_1, x_1] zeroing walks whose first step cannot sit in front of x.
    """
    if len(x.word) == 0:
        raise EmptyWord("walk needs a starting point with at least one digit")
    core.check_word(matrix, x.word)
    a = core.check_word(matrix.transpose, a)
    if len(a) == 0:
        return 1.0
    if not matrix.rows[a[0]][x.word[0]]:
        return 0.0
    n = matrix.n
    digits = tuple(x.word)
    v = x.value
    prod = 1.0
    for d in a:
        digits = (d,) + digits
        v = (v + d) / n
        prod *= potential(digits, v)
    return prod


def walk_layer_mass(x, potential, matrix, k, cap=None):
    """Total P_x-mass of depth-k cylinders (equals 1 for Keane potentials)."""
    return sum(walk_measure(x, potential, a, matrix)
               for a in core.enumerate_words(matrix.transpose, k, cap))


def harmonic_truncated(x, potential, matrix, kmax):
    """Partial sum of the layer masses, depths 1..kmax."""
    if kmax < 1:
        raise LevelOutOfRange("kmax must be >= 1")
    return float(sum(walk_layer_mass(x, potential, matrix, k)
                     for k in range(1, kmax + 1)))
