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

The generators and the transfer operator are slice copies over the branch
runs of core.branch_runs: S_i writes f's runs into the block of words starting
with i, S_i* reads them back, and the transfer operator is the preimage sum
core.preimage_sum, which adds each branch's block onto its runs, scaled by 1/r.
The Cuntz-Krieger residual is a gather over the core index arrays; it pushes each
basis vector through the generators as one (row, value) pair, not a dense identity
matrix.  The Fourier sweep keeps f's masses on f, binned in core.split_layout's grouping;
then a t costs cos and sin tables of about sqrt(|W_k|) entries and one (n_j x c_j)
matrix product per letter j.  All cost O(|W_k|) in the number of level-k words.
"""

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
        out[b:b + z - a] = root * f.coeffs[a:z]
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
        out[a:z] = g.coeffs[b:b + z - a] / root
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


def _push_s(i, rows, vals, k, pd):
    """S_i on basis images at level k: the entry at row b moves to i.b in W_{k+1}.

    An image is one entry per column, vals[c] at row rows[c], or the zero
    vector where rows[c] < 0.  S_i gathers from shift(w) on the words w
    starting with i, so it pushes row b forward through prepend.
    """
    pia = core.prepend_index_array(pd.matrix, k, i)
    return (np.where(rows >= 0, pia[rows], -1),
            math.sqrt(pd.radius) * vals)


def _push_sstar(i, rows, vals, k, pd):
    """S_i* on basis images at level k: the entry at row w moves to shift(w) when w_1 = i."""
    fd = core.first_digit_array(pd.matrix, k)
    si = core.shift_index_array(pd.matrix, k)
    return (np.where((rows >= 0) & (fd[rows] == i), si[rows], -1),
            vals / math.sqrt(pd.radius))


def _worst_defect(plus, minus, mu):
    """Largest L2(mu) column norm of sum(plus) - sum(minus), over basis images.

    Entries on the diagonal row are summed in the order a dense column sum
    would take; an entry anywhere else adds |value|^2 mu(row) of its own.
    """
    cols = np.arange(len(mu))

    def side(images):
        diag = 0
        stray = np.zeros(len(mu))
        for rows, vals in images:
            diag = diag + np.where(rows == cols, vals, 0)
            off = (rows >= 0) & (rows != cols)
            stray[off] += np.abs(vals[off]) ** 2 * mu[rows[off]]
        return diag, stray

    (dp, sp), (dm, sm) = side(plus), side(minus)
    norms_sq = np.abs(dp - dm) ** 2 * mu + (sp + sm)
    return math.sqrt(float(norms_sq.max()))


def ck_relations_residual(pd, K):
    """Worst L2 defect of the Cuntz-Krieger relations over the level-K basis.

    S_i and S_i* send a cylinder indicator chi_{Lambda(w)} to one scaled
    indicator or to 0, so each basis vector w in W_K is pushed through the
    generators as one (row, value) pair, gathered from the index arrays, and
    both relations are measured against every basis vector in the L2(mu)
    norm.  Time and memory grow linearly in |W_K| (the level-(K+1) tables
    plus O(n) arrays of |W_K| entries); the values are bit for bit those of
    applying the generators to the whole |W_K| x |W_K| identity matrix.
    """
    if K < 2:
        raise LevelOutOfRange("relation check needs K >= 2")
    mat = pd.matrix
    core.check_cap(mat, K + 1)
    nwords = core.word_count(mat, K)
    basis = (np.arange(nwords, dtype=np.intp), np.ones(nwords, dtype=np.complex128))
    mu = spectral.measure_array(pd, K)

    range_proj = []  # S_i S_i* applied to the basis
    for i in range(mat.n):
        down = _push_sstar(i, *basis, K, pd)
        range_proj.append(_push_s(i, *down, K - 1, pd))
    res = _worst_defect(range_proj, [basis], mu)
    for i in range(mat.n):
        up = _push_s(i, *basis, K, pd)
        lhs = _push_sstar(i, *up, K + 1, pd)
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
    core.check_cap(f.matrix, g.level)   # before the scaled copy of g
    root = math.sqrt(pd.radius)
    return CylinderFunction(f.matrix, g.level - 1, core._frozen(
        core.preimage_sum(f.matrix, g.level - 1, g.coeffs / root) / root))


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


def fourier_tail_bound(t, k, n):
    """Bound on |fourier_approx(f,t,k) - fourier_approx(f,t,k+m)| for unit f.

    Each level of refinement moves every sample point x(a) by at most n^-k,
    so the level-k transform sits within |t| n^-k of the limit and two
    truncations differ by at most twice that.
    """
    return 2.0 * abs(t) * float(n) ** (-k)
