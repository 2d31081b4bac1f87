"""Sierpinski-type planar fractals carved out by an admissibility matrix.

A point (x, y) of the unit square survives when the paired N-adic digits
satisfy A[x_m, y_m] = 1 at every position: each subdivision round keeps
D = sum_i d_i of the N^2 subsquares (d_i = row sums).  The module reports the
dimension exponent log D / (2 log N) together with the similarity dimension
log D / log N (they disagree; both are printed and the discrepancy is the
caller's to interpret), enumerates and renders depth-k cells, and exposes the
pair-digit shift through its D x D induced matrix over the letter pairs.
Because every pair letter can follow every other in the plane, the natural
operator system on the fractal is the full D-shift: the all-ones D x D matrix,
which validate_matrix takes as it is.  The depth-k cells are its level-k
words: core's digit table of that matrix, read through letter_map into an
x-word and a y-word per cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import AdmissibilityMatrix, validate_matrix
from .errors import LevelOutOfRange


@dataclass(frozen=True)
class SierpinskiSpec:
    """Derived data of the planar fractal of a matrix.

    letter_map[t] is the t-th allowed digit pair (i, j), row-major, so pair
    letters are 0..D-1.  pair_dimension is the exponent of the pair-digit
    expansion, log D / log N^2; similarity_dimension = log D / log N treats
    each subdivision as a side-length contraction by 1/N and is twice the
    former.
    """

    matrix: AdmissibilityMatrix
    D: int
    pair_dimension: float
    similarity_dimension: float
    letter_map: tuple


def sierpinski_spec(matrix):
    n = matrix.n
    pairs = tuple((i, j) for i in range(n) for j in range(n)
                  if matrix.rows[i][j])
    d = len(pairs)
    dim = math.log(d) / math.log(n) if n >= 2 else 0.0   # 0 when N = 1, as perron's delta
    return SierpinskiSpec(
        matrix=matrix,
        D=d,
        pair_dimension=dim / 2,
        similarity_dimension=dim,
        letter_map=pairs,
    )


def cells(spec, depth):
    """All depth-k cells, ordered lexicographically by pair-letter indices: an integer
    array of shape (D^depth, 2, depth) whose row j holds the x-word and y-word of cell j.

    Across positions the pair letters are unconstrained (the planar
    subdivision has no memory), so the cells are the level-k words of the full
    D-shift and there are exactly D^depth of them.
    """
    if depth < 1:
        raise LevelOutOfRange("depth must be >= 1")
    # D^depth, taken no deeper than cap.bit_length(), where any D >= 2 passes the cap
    core._check_budget(lambda cap: spec.D ** min(depth, cap.bit_length()),
                       "depth %d is over the cap of %d cells", depth)
    full = validate_matrix([[1] * spec.D] * spec.D, strict=False)
    words = core._digit_table(full, depth)   # pair letters, a row per cell
    return np.transpose(np.asarray(spec.letter_map)[words], (0, 2, 1))


def induced_matrix(spec):
    """The D x D matrix of the pair-digit shift: (i,j) -> (l,k) iff j = l and A[j,k] = 1.

    Row sums equal d_j (the row sum of the second letter); the diagonal is
    generally not all ones, so the result is non-strict.
    """
    pairs = np.asarray(spec.letter_map)
    j, l, k = pairs[:, 1, None], pairs[None, :, 0], pairs[None, :, 1]
    return validate_matrix(((j == l) & (spec.matrix.array[j, k] == 1)).tolist(), strict=False)


def render_pgm(spec, depth, resolution):
    """Rasterize the depth-k approximation on a resolution^2 grid.

    Returns a uint8 array, 0 (dark) on surviving cells and 255 elsewhere;
    row 0 is the top of the square (image convention).  Pixels are sampled
    at their centers, so when resolution is a multiple of N^depth every pixel
    lies strictly inside one cell and the dark-area fraction is exactly
    (D/N^2)^depth.  Work is resolution^2 * depth digit lookups, which the
    budget counts; the centers' digits are exact integers and cycle within
    2 N resolution levels.
    """
    if depth < 1 or resolution < 1:
        raise LevelOutOfRange("depth and resolution must be >= 1")
    core._check_budget(lambda cap: resolution * resolution * depth,
                       "res^2 * depth is over the cap of %d")
    n, den = spec.matrix.n, 2 * resolution
    a = spec.matrix.array.astype(bool)
    centers = 2 * np.arange(resolution, dtype=np.int64) + 1   # x = c / den, left to right
    alive = np.ones((resolution, resolution), dtype=bool)
    power, seen = 1, set()   # N^m mod den N, and its values so far
    for _ in range(depth):
        power = power * n % (den * n)
        if power in seen:   # the digit rows repeat from here on, and so would alive
            break
        seen.add(power)
        digits = centers * power % (den * n) // den   # digit m: floor(c N^m / den) mod N
        alive &= a[digits[None, :], digits[::-1, None]]   # row i, top first: y = 1 - x
    img = np.where(alive, 0, 255).astype(np.uint8)
    return img

