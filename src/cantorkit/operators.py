"""Cuntz-Krieger generators on L2(Lambda_A, mu) and what they buy us.

The N partial isometries

    (S_i f)(x) = sqrt(r) * chi_{R_i}(x) * f(sigma x),
    (S_i* f)(x) = (1/sqrt(r)) * chi_{D_i}(x) * f(sigma_i x),

(r = r(A) = N^delta; sigma the digit shift; sigma_i(x) = (x+i)/N its inverse
branch into R_i; D_i the union of cylinders R_j with A[i,j] = 1) satisfy the
Cuntz-Krieger relations

    sum_i S_i S_i* = 1,        S_i* S_i = sum_j A[i,j] S_j S_j*,

exactly in cylinder coordinates: S_i shifts a level-k coefficient vector to
level k+1 and S_i* back down.  Words of generators give the cylinder
projections P(a) = S_a S_a*, a projection-valued measure on the cylinder
algebra; diagonal matrix elements of that measure produce the spectral measure
mu_f and its Fourier-type transform, and the sum N^{-delta/2} sum_i S_i* is the
transfer (Perron-Frobenius) operator of the shift.

The generators and the transfer operator are slice operations over the branch runs
of core.branch_runs, each writing its output and at most one scratch array: S_i scales
f's runs into the block of words starting with i, S_i* scales them back, and the
transfer operator is core.preimage_sum, adding each branch's block over sqrt(r), formed
in its scratch array, onto its runs.  The Cuntz-Krieger residual runs these same kernels
on the whole basis at once, in row form (on each row, the id of the basis vector that
lands there and its value), not on a dense identity matrix.  The Fourier sweep keeps f's
masses on f, binned in core.split_layout's grouping; then a t costs cos and sin tables
of about sqrt(|W_k|) entries and one (n_j x c_j) matrix product per letter j.  All cost
O(|W_k|) in the number of level-k words.
"""

import dataclasses
import math

import numpy as np

from . import core, spectral
from .core import CylinderFunction
from .errors import IndexOutOfRange, LevelOutOfRange, MatrixMismatch


def _check(f, pd):
    if f.matrix != pd.matrix:
        raise MatrixMismatch("function and PerronData use different matrices")


def _check_digit(i, pd):
    if not 0 <= i < pd.matrix.n:
        raise IndexOutOfRange("digit %r out of range for N = %d" % (i, pd.matrix.n))


def apply_S(i, f, pd):
    """S_i f at one level finer: sqrt(r) * f(shifted word) on words starting with i."""
    _check(f, pd)
    _check_digit(i, pd)
    runs = core.branch_runs(f.matrix, f.level)[i]
    out = np.zeros(core.word_count(f.matrix, f.level + 1), dtype=np.complex128)
    root = math.sqrt(pd.radius)
    for b, a, z in runs:
        np.multiply(f.coeffs[a:z], root, out=out[b:b + z - a])
    return CylinderFunction(f.matrix, f.level + 1, core._frozen(out))


def apply_S_star(i, f, pd):
    """S_i* f: value at word b is f(i.b)/sqrt(r) when A[i, b_1] = 1, else 0.

    Level-0/1 inputs are refined to level 2 first so the result always lives
    at level >= 1, where the domain indicator chi_{D_i} is representable.
    """
    _check(f, pd)
    _check_digit(i, pd)
    g = core.refine(f, 2) if f.level <= 1 else f
    k = g.level - 1
    runs = core.branch_runs(f.matrix, k)[i]
    out = np.zeros(core.word_count(f.matrix, k), dtype=np.complex128)
    root = math.sqrt(pd.radius)
    for b, a, z in runs:
        np.divide(g.coeffs[b:b + z - a], root, out=out[a:z])
    return CylinderFunction(f.matrix, k, core._frozen(out))


def apply_S_word(a, f, pd, adjoint=False):
    """S_a = S_{a_1} ... S_{a_k} applied to f, or S_a* = S_{a_k}* ... S_{a_1}*.

    In both cases the factor nearest f acts first: S_{a_k} for the forward
    word, S_{a_1}* for the adjoint.
    """
    _check(f, pd)
    a = core.check_word(pd.matrix, a)
    out = f
    if adjoint:
        for d in a:
            out = apply_S_star(d, out, pd)
    else:
        core.check_cap(pd.matrix, f.level + len(a))
        for d in reversed(a):
            out = apply_S(d, out, pd)
    return out


def _worst_defect(plus, minus, mu):
    """Largest L2(mu) column norm of sum(plus) - sum(minus), over basis images.

    An image is a pair (ids, vals) of level-k functions in row form: row b holds the
    1-based column whose entry lands on it, or 0, and that entry's value.  Diagonal
    entries are summed in the order a dense column sum would take; an entry off the
    diagonal adds |value|^2 mu(row) to its own column.
    """
    rows = np.arange(len(mu))

    def side(images):
        diag = 0
        stray = np.zeros(len(mu))
        for ids, vals in images:
            cols, vals = ids.coeffs.real.astype(np.intp) - 1, vals.coeffs
            diag = diag + np.where(cols == rows, vals, 0)
            off = (cols >= 0) & (cols != rows)
            np.add.at(stray, cols[off], np.abs(vals[off]) ** 2 * mu[off])
        return diag, stray

    (dp, sp), (dm, sm) = side(plus), side(minus)
    norms_sq = np.abs(dp - dm) ** 2 * mu + (sp + sm)
    return math.sqrt(float(norms_sq.max()))


def ck_relations_residual(pd, K):
    """Worst L2 defect of the Cuntz-Krieger relations over the level-K basis.

    S_i and S_i* send distinct cylinder indicators to distinct scaled indicators
    or to 0, so the images of the whole basis W_K fit in row form (_worst_defect),
    moved by apply_S and apply_S_star: the ids exactly, under radius 1, and the
    values under pd.  Both relations are measured against every basis vector in
    the L2(mu) norm, in time and memory linear in |W_K|, and bit for bit as if the
    generators were applied to the whole |W_K| x |W_K| identity matrix.
    """
    if K < 2:
        raise LevelOutOfRange("relation check needs K >= 2")
    mat = pd.matrix
    core.check_cap(mat, K + 1)
    nwords = core.word_count(mat, K)
    unit = dataclasses.replace(pd, radius=1.0)
    basis = (CylinderFunction(mat, K, np.arange(1, nwords + 1)),
             CylinderFunction(mat, K, np.ones(nwords)))
    mu = spectral.measure_array(pd, K)

    def push(op, i, image):
        ids, vals = image
        return op(i, ids, unit), op(i, vals, pd)

    range_proj = [push(apply_S, i, push(apply_S_star, i, basis))   # S_i S_i* on the basis
                  for i in range(mat.n)]
    res = _worst_defect(range_proj, [basis], mu)
    for i in range(mat.n):
        lhs = push(apply_S_star, i, push(apply_S, i, basis))
        res = max(res, _worst_defect(
            [lhs], [range_proj[j] for j in mat.successors[i]], mu))
    return res


def pf_operator(f, pd):
    """Transfer operator of the shift: (1/sqrt(r)) * sum_i S_i* f.

    Averages f over the admissible preimages of each point with weight 1/r
    per branch; fixes constants on the full shift and, in general, the
    left-eigenvector function of pf_fixed_point.
    """
    _check(f, pd)
    g = core.refine(f, 2) if f.level <= 1 else f
    root = math.sqrt(pd.radius)
    out = core.preimage_sum(f.matrix, g.level - 1, g.coeffs, root, np.divide)
    out /= root
    return CylinderFunction(f.matrix, g.level - 1, core._frozen(out))


def pf_fixed_point(pd):
    """The level-1 function sum_i omega_i chi_{R_i}, fixed by pf_operator."""
    return CylinderFunction(pd.matrix, 1, core._frozen(pd.omega.astype(np.complex128)))


def kms_state(a, b, pd):
    """phi(S_a S_b*), a complex number: zero unless a = b, in which case the cylinder
    mass of a."""
    a = core.check_word(pd.matrix, a)
    b = core.check_word(pd.matrix, b)
    if a != b:
        return 0j
    return complex(spectral.cylinder_measure(pd, a))


def kms_letter_ratio(i, pd):
    """phi(S_i* S_i) / phi(S_i S_i*), which the scaling symmetry pins at r = N^delta.

    The numerator expands through S_i* S_i = sum_j A[i,j] S_j S_j* into
    sum_j A[i,j] phi(S_j S_j*) = sum_j A[i,j] p_j = (A p)_i.
    """
    _check_digit(i, pd)
    num = sum(kms_state((j,), (j,), pd).real for j in pd.matrix.successors[i])
    den = kms_state((i,), (i,), pd).real
    return num / den


def _cylinder_masses(f, k, pd):
    """mu_f of every level-k cylinder: |f|^2 mu binned by level-k prefix, in one buffer."""
    m = max(k, f.level)
    weights = np.abs(f.coeffs)
    np.square(weights, out=weights)
    if m > f.level:
        weights = weights[core.prefix_index_array(pd.matrix, m, f.level)]
    np.multiply(weights, spectral.measure_array(pd, m), out=weights)
    if m == k:  # each cylinder is its own bin
        return weights
    return np.bincount(core.prefix_index_array(pd.matrix, m, k), weights=weights,
                       minlength=core.word_count(pd.matrix, k))


def fourier_sweep(f, ts, k, pd):
    """fourier_approx(f, t, k, pd) for every t in ts.

    x(a) = x(p) + N^-|p| x(s) for a = p.s with |s| = k // 2, and the n_j prefixes p
    that end in letter j are followed by the same c_j suffixes (core.split_layout).
    So a t costs one cos and one sin per word of W_|p| and of W_{|s|+1}, and per letter
    one product of the (n_j x c_j) masses of the words p.s with (cos - 1, sin) of the
    phases of the s; each prefix's row mass, summed pairwise, is added back.  At t = 0
    every phase is 1, and the sum is the total mass, added in word order.  The grouped
    masses, the row masses and the t = 0 total stay on f (f._masses) for the last pd (by
    identity) and k; a call that reads them makes the budget checks the binning would.
    """
    _check(f, pd)
    core.check_level(k)
    core.check_cap(pd.matrix, max(k, f.level))
    order, x, p, letters = core.split_layout(pd.matrix, k)
    memo = getattr(f, "_masses", None)
    if memo is None or memo[0] is not pd or memo[1] != k:
        masses = _cylinder_masses(f, k, pd)
        grouped, row_masses = masses[order], np.empty(p)
        for m, r, _, shape in letters:
            np.add.reduce(grouped[m].reshape(shape), axis=1, out=row_masses[r])
        memo = (pd, k, grouped, row_masses, complex(np.add.reduce(masses.astype(np.complex128))))
        object.__setattr__(f, "_masses", memo)
    _, _, grouped, row_masses, total = memo
    theta = np.empty(len(x))
    row_sums, phases = np.empty(p, np.complex128), np.empty(len(x), np.complex128)
    rows, pairs = row_sums.view(float).reshape(-1, 2), phases.view(float).reshape(-1, 2)
    out = []
    for t in ts:
        if t == 0:
            out.append(total)
            continue
        np.multiply(x, t, out=theta)
        np.cos(theta, out=pairs[:, 0])
        np.sin(theta, out=pairs[:, 1])
        pairs[p:, 0] -= 1
        for m, r, s, shape in letters:   # each prefix p: sum_s mass(p.s) (e^{i t N^-|p| x(s)} - 1)
            np.dot(grouped[m].reshape(shape), pairs[s], out=rows[r])
        rows[:, 0] += row_masses
        out.append(complex(np.add.reduce(phases[:p] * row_sums)))   # summed pairwise, not in a row
    return out


def fourier_approx(f, t, k, pd):
    """Level-k Fourier transform of mu_f:  sum_a e^{i t x(a)} ||S_a* f||^2.

    ||S_a* f||^2 = <f, S_a S_a* f> is the mu_f-mass of the cylinder of a, so
    the sum is computed by binning |f|^2 mu over level-k prefixes — identical
    to composing the operators, without the exponential blow-up.  As in
    fourier_sweep, t costs one (n_j x c_j) product per letter j.
    """
    return fourier_sweep(f, (t,), k, pd)[0]
