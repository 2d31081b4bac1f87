"""Seeded inputs for the benchmark: matrices, unit-norm signals, CLI files.

The generator uses only the standard library and numpy, so the package under
test receives finished inputs and never computes its own.  The one exception
is admission of random matrices: a candidate is kept only if the package's
`validate_matrix` accepts it, which the caller passes in as `accepts`.
"""

import math

import numpy as np

FULL2 = ((1, 1), (1, 1))
TRI3 = ((1, 1, 0), (1, 1, 1), (0, 1, 1))
SCHOTTKY4 = ((1, 1, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1))


def words(rows, k):
    """Admissible level-k words of a 0-1 matrix, in lexicographic order."""
    if k == 0:
        return [()]
    succ = [[j for j, v in enumerate(r) if v] for r in rows]
    out = [(i,) for i in range(len(rows))]
    for _ in range(k - 1):
        out = [w + (j,) for w in out for j in succ[w[-1]]]
    return out


def word_count(rows, k):
    """|W_k| with Python integers."""
    if k == 0:
        return 1
    succ = [[j for j, v in enumerate(r) if v] for r in rows]
    counts = [1] * len(rows)
    for _ in range(k - 1):
        counts = [sum(counts[j] for j in s) for s in succ]
    return sum(counts)


def level_for(rows, target):
    """The level K >= 2 whose |W_K| is nearest to `target` on a log scale."""
    k = 2
    while word_count(rows, k + 1) <= target:
        k += 1
    lo, hi = word_count(rows, k), word_count(rows, k + 1)
    return k if math.log(target / lo) <= math.log(hi / target) else k + 1


def perron(rows):
    """Perron root r and right eigenvector p (positive, summing to 1)."""
    vals, vecs = np.linalg.eig(np.array(rows, dtype=float))
    top = int(np.argmax(vals.real))
    p = np.abs(vecs[:, top].real)
    return float(vals[top].real), p / p.sum()


def cylinder_measures(rows, k):
    """mu of every level-k cylinder: r^-(k-1) p_last, in word order."""
    r, p = perron(rows)
    last = np.array([w[-1] for w in words(rows, k)], dtype=np.intp)
    return r ** (-(k - 1)) * p[last]


def random_strict_matrix(rng, n, accepts):
    """A random N x N 0-1 matrix with unit diagonal that `accepts` admits.

    Off-diagonal entries are 1 with probability 1/2.
    """
    while True:
        grid = (rng.random((n, n)) < 0.5).astype(int)
        np.fill_diagonal(grid, 1)
        rows = tuple(tuple(int(v) for v in r) for r in grid)
        if accepts(rows):
            return rows


def banded_matrix(n):
    """The N-letter tridiagonal matrix: A[i, j] = 1 when |i - j| <= 1."""
    return tuple(tuple(int(abs(i - j) <= 1) for j in range(n)) for i in range(n))


def unit_signal(rng, rows, k):
    """Random complex coefficients on level-k cylinders with L2(mu) norm 1."""
    mu = cylinder_measures(rows, k)
    c = rng.standard_normal(len(mu)) + 1j * rng.standard_normal(len(mu))
    return c / math.sqrt(float(np.sum(np.abs(c) ** 2 * mu)))


def format_matrix(rows):
    lines = [str(len(rows))] + [" ".join(str(v) for v in r) for r in rows]
    return "\n".join(lines) + "\n"


def format_word(word, n):
    if not word:
        return "-"
    return ("" if n <= 10 else ".").join(str(d) for d in word)


def format_signal(rows, k, coeffs):
    """Signal-file text: header 'N k', then 'word re im' in word order."""
    n = len(rows)
    lines = ["%d %d" % (n, k)]
    for w, c in zip(words(rows, k), coeffs):
        lines.append("%s %r %r" % (format_word(w, n), float(c.real), float(c.imag)))
    return "\n".join(lines) + "\n"


def trig_keane_defect(rows, level):
    """Worst pointwise Keane defect of the trigonometric potential.

    An independent evaluation of the formula the package documents:
    W(y) = (1 - cos(2 pi N y / N_1)) / N_1 with N_1 the column sum of y's
    second digit, summed over the admissible preimages (x + j) / N of every
    level-`level` left endpoint x.
    """
    n = len(rows)
    col = [sum(rows[i][j] for i in range(n)) for j in range(n)]
    worst = 0.0
    for w in words(rows, max(level, 1)):
        x = 0.0
        for d in reversed(w):
            x = (x + d) / n
        n1 = col[w[0]]
        s = 0.0
        for j in range(n):
            if rows[j][w[0]]:
                s += (1.0 - math.cos(2.0 * math.pi * n * ((x + j) / n) / n1)) / n1
        worst = max(worst, abs(s - 1.0))
    return worst
