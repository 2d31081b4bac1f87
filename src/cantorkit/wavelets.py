"""Haar-type wavelet bases on Lambda_A, built by weighted Gram-Schmidt.

For each letter k the row support {j : A[k,j] = 1} (size d_k) carries the
weighted inner product <v, w>_k = sum_j A[k,j] conj(v_j) w_j p_j.  The
orthogonal complement of the constant vector u = (1,...,1) in that product
supplies d_k - 1 coefficient vectors c^{l,k}; each becomes a *mother wavelet*

    f^{l,k} = sum_j A[k,j] c^{l,k}_j chi_{Lambda(k j)},

a mean-zero level-2 function supported in R_k, renormalized here to unit
L2(mu) norm.  Moving mothers around with the generators, psi = S_a f^{l,r}
(needs A[a_last, r] = 1), fills in finer and finer detail; a mother is the
translate with a = ().  The scaling family mu(R_i)^{-1/2} chi_{R_i} and the
wavelets with |a| <= K-2 together form an orthonormal basis of the level-K
cylinder functions, with dimensions telescoping to |W_K| exactly.  On the full
2x2 shift this is the classical Haar basis of [0,1].  The vectors c^{l,k} of
every letter come from one helper, which graphs also runs, on the Perron data
of an edge matrix, for the graph wavelets.

One key (a, l, r) names S_a f^{l,r} everywhere: in `detail_keys`, in the
`detail` dict of WaveletCoefficients, and in coefficient files, which fileio
spells.  The level-K keys are a table in the matrix's memo: level K - 1's
keys, then those with |a| = K - 2, a read off core's digit table.  Every
level up to the finest asked for is kept, each a tuple sharing its keys with
the levels above; about 110 bytes per key.

S_a f^{l,r} is supported on the single cylinder Lambda(a r), where it takes
the values r(A)^{|a|/2} f^{l,r}(r s) on the children a r s.  The basis is
therefore a local change of basis on the children of each word, and analyze /
synthesize run as Mallat's pyramid on the tree of admissible words: analyze
sums the masses f*mu up the tree one level at a time and pairs each word's
children with the fixed (d_r - 1) x d_r matrix F_r of mother values;
synthesize copies values down the tree and adds the same matrix products back.
Each costs O(|W_K| * max d_k) time and O(|W_K|) memory.  The positions of
each level's child blocks and coefficients depend on A alone and are kept in
the matrix's memo, so a call only gathers and multiplies.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core, spectral
from .core import CylinderFunction
from .errors import IndexOutOfRange, LevelTooLow, MatrixMismatch, NonPositiveWeight


def weighted_complement_basis(weights, support):
    """Orthonormal basis of the complement of u=(1,..,1) on a digit support.

    Modified Gram-Schmidt over [u, e_j1, e_j2, ...] with the support digits
    ascending, in the inner product sum_{j in support} conj(v_j) w_j weights_j.
    The first d-1 standard vectors already complete the span (u has full
    support), so exactly d-1 vectors come back, None of them thresholded —
    the construction is deterministic.  Vectors have full length
    max(support)+1 <= len(weights), zero off the support.
    """
    weights = np.asarray(weights, dtype=float)
    sup = sorted(set(int(j) for j in support))
    if not sup:
        raise NonPositiveWeight("empty support")
    for j in sup:
        if not (0 <= j < len(weights)) or weights[j] <= 0:
            raise NonPositiveWeight(
                "weight at digit %d must be positive on the support" % j)
    n = len(weights)
    mask = np.zeros(n, dtype=bool)
    mask[sup] = True
    w_on = np.where(mask, weights, 0.0)

    def wip(v, x):
        return float(np.sum(v * x * w_on))

    u = mask.astype(float)
    u = u / math.sqrt(wip(u, u))
    basis = [u]
    out = []
    for j in sup[:-1]:
        v = np.zeros(n)
        v[j] = 1.0
        for b in basis:
            v = v - wip(b, v) * b
        nrm = math.sqrt(wip(v, v))
        assert nrm > 0.0, "positive weights keep e_j independent of the span"
        v = v / nrm
        v.setflags(write=False)
        basis.append(v)
        out.append(v)
    return out


@dataclass(frozen=True)
class MotherWaveletSet:
    """Everything needed to span the detail spaces: per-letter coefficient
    vectors c^{l,k} and the values of the unit-norm level-2 mother functions
    f^{l,k} on the children of each letter.

    `c[k]` is the tuple of vectors for letter k (length d_k - 1, c[k][l - 1]
    for l = 1 .. d_k - 1); `d[k]` is the row sum; `fmat[k]` is the
    (d_k - 1) x d_k matrix F_k with F_k[l-1, j] = f^{l,k} on the word
    (k, s_j), s_j the j-th successor of k.  f^{l,k} is zero off those words.
    """

    pd: spectral.PerronData
    d: tuple
    c: tuple
    fmat: tuple

    @property
    def matrix(self):
        return self.pd.matrix


def _complement_vectors(pd):
    """c^{l,k} for every letter k: the complement basis on the successors of k, weighted
    by the Perron vector p.  The line wavelets and the graph wavelets both take theirs here."""
    return tuple(tuple(weighted_complement_basis(pd.p, succ)) for succ in pd.matrix.successors)


def build_mother_wavelets(pd):
    """Run the weighted complement construction for every letter of A."""
    mat = pd.matrix
    c_all, fmat = _complement_vectors(pd), []
    for k in range(mat.n):
        succ = list(mat.successors[k])
        start = sum(mat.row_sums[:k])   # the words k.j are contiguous in W_2
        cols = slice(start, start + len(succ))
        rows = []
        for v in c_all[k]:
            coeffs = np.zeros(core.word_count(mat, 2), dtype=np.complex128)
            coeffs[cols] = v[succ]
            f = CylinderFunction(mat, 2, core._frozen(coeffs))
            rows.append((f * (1.0 / spectral.norm(f, pd))).coeffs[cols])
        fmat.append(np.array(rows, dtype=np.complex128).reshape(len(succ) - 1, len(succ)))
    return MotherWaveletSet(pd=pd, d=mat.row_sums, c=c_all, fmat=tuple(fmat))


@core._table(levelled=True)
def _keys(matrix, K, below):
    """The level-K detail keys, kept in the matrix's memo: those of level K - 1, then the
    keys with |a| = K - 2, r following a_last (any letter for the mothers, a = ())."""
    if K < 2 or core.word_count(matrix, K) == core.word_count(matrix, K - 1):
        return below or ()   # no key with |a| = K - 2, so no word of that level is listed
    d, letters = matrix.row_sums, matrix.successors + (range(matrix.n),)
    pairs = [[(l, r) for r in s for l in range(1, d[r])] for s in letters]
    words = map(tuple, core._digit_table(matrix, K - 2).tolist())
    return below + tuple((a, l, r) for a in words for l, r in pairs[a[-1] if a else -1])


def detail_keys(mw, K):
    """(a, l, r) triples of the wavelets S_a f^{l,r} with |a| = 0 .. K-2.

    Order: |a| ascending, then a lexicographic, then r ascending over the
    digits following a_last (any letter when a = ()), then l ascending.  The
    mothers a = () come first; this is the pyramid's flat order.  A copy of
    the level-K entry of a table kept in the matrix's memo.
    """
    return list(_keys(mw.matrix, K))


@dataclass(frozen=True)
class WaveletCoefficients:
    """Transform output: scaling[i] pairs with mu(R_i)^{-1/2} chi_{R_i},
    detail[(a, l, r)] with S_a f^{l,r} (the mother f^{l,r} when a = ())."""

    scaling: np.ndarray
    detail: dict

    def energy(self):
        """Sum of |coefficient|^2 over both layers (Parseval mass)."""
        e = float(np.sum(np.abs(self.scaling) ** 2))
        e += sum(abs(v) ** 2 for v in self.detail.values())
        return e


@core._table(least=1, above=1)
def _pyramid_layout(matrix, m):
    """Positions of the level-m step of the pyramid, kept in the matrix's memo.

    The children v.s of a level-m word v are contiguous in W_{m+1}, d_{last(v)}
    of them, and v anchors d_{last(v)} - 1 consecutive coefficients of its
    level.  Returns the child counts, the child block starts, the number of
    coefficients, and per letter r the pair (child positions, coefficient
    positions) with one row per level-m word ending in r, which pairs with F_r.
    """
    last = core.last_digit_array(matrix, m)
    sizes = core._frozen(np.asarray(matrix.row_sums, dtype=np.intp)[last])
    starts = core._frozen(np.cumsum(sizes) - sizes)
    offsets = np.cumsum(sizes - 1) - (sizes - 1)
    blocks = []
    for r, d in enumerate(matrix.row_sums):
        rows = np.flatnonzero(last == r)
        blocks.append((core._frozen(starts[rows, None] + np.arange(d)),
                       core._frozen(offsets[rows, None] + np.arange(d - 1))))
    return sizes, starts, int(np.sum(sizes - 1)), tuple(blocks)


def analyze(f, mw):
    """Expand f over the wavelet basis of its own level (at least 1).

    Coefficient = <basis function, f> in L2(mu), so synthesize recovers f.
    Computed as a pyramid: the masses f*mu are summed level by level up the
    word tree, and at each word v ending in r the wavelets S_a f^{l,r}
    (v = a r) pair with the masses of v's children through F_r.
    """
    if f.matrix != mw.matrix:
        raise MatrixMismatch("signal and wavelets use different matrices")
    K = max(f.level, 1)
    pd = mw.pd
    mass = core.refine(f, K).coeffs * spectral.measure_array(pd, K)
    layers = []
    for m in range(K - 1, 0, -1):
        _, starts, ncoef, blocks = _pyramid_layout(mw.matrix, m)
        out = np.zeros(ncoef, dtype=np.complex128)
        for f_r, (kids, slots) in zip(mw.fmat, blocks):
            out[slots] = mass[kids] @ np.conj(f_r).T
        layers.append(pd.radius ** ((m - 1) / 2.0) * out)
        mass = np.add.reduceat(mass, starts)
    scaling = mass / np.sqrt(pd.p)
    scaling.setflags(write=False)
    flat = np.concatenate(layers[::-1]).tolist() if layers else []
    return WaveletCoefficients(scaling=scaling, detail=dict(zip(_keys(mw.matrix, K), flat)))


def _flat_layers(coeffs, mw, K):
    """The scaling layer and the level-K detail layer of coeffs, as arrays.

    The detail array is in detail_keys order, zero where coeffs has no key.
    Raises IndexOutOfRange for a scaling layer of the wrong length or a key
    that is not a level-K wavelet.
    """
    n = mw.matrix.n
    if len(coeffs.scaling) != n:
        raise IndexOutOfRange(
            "scaling layer has %d entries, need %d" % (len(coeffs.scaling), n))
    keys = _keys(mw.matrix, K)
    if tuple(coeffs.detail) == keys:   # the layout analyze writes
        flat = np.array(list(coeffs.detail.values()), dtype=np.complex128)
    else:
        slot = dict(zip(keys, range(len(keys))))
        flat = np.zeros(len(keys), dtype=np.complex128)
        for key, alpha in coeffs.detail.items():
            if key not in slot:
                raise IndexOutOfRange("detail key %r invalid at level %d" % (key, K))
            flat[slot[key]] = alpha
    return np.asarray(coeffs.scaling, dtype=np.complex128), flat


def synthesize(coeffs, mw, K):
    """Rebuild the level-K function with the given wavelet coefficients.

    Every coefficient key must denote a basis element of the level-K system:
    words a no longer than K-2, letters/indices in range.  The pyramid runs
    top down: each level's values are copied onto the children and the
    wavelets anchored at that level add alpha @ F_r on each child block.
    """
    mat, pd = mw.matrix, mw.pd
    if K < 1:
        raise LevelTooLow("synthesis needs level K >= 1, got %d" % K)
    core.check_cap(mat, K)
    scaling, rest = _flat_layers(coeffs, mw, K)
    h = scaling / np.sqrt(pd.p)
    for m in range(1, K):
        sizes, _, ncoef, blocks = _pyramid_layout(mat, m)
        layer, rest = np.split(rest, [ncoef])
        layer = pd.radius ** ((m - 1) / 2.0) * layer
        h = np.repeat(h, sizes)
        for f_r, (kids, slots) in zip(mw.fmat, blocks):
            h[kids] += layer[slots] @ f_r
    return CylinderFunction(mat, K, core._frozen(h))
