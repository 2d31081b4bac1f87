"""Text file formats: matrices, signals, wavelet coefficients, graphs, PGM.

All formats are line-oriented ASCII; blank lines and `#` comments are ignored
on input.  Floats are written with repr() so files round-trip exactly.

matrix:        line 1: N; then N rows of space-separated 0/1.
signal:        line 1: "N k"; then one line per level-k word, "word re im",
               lexicographic; the empty word is written "-".  The line
               count is checked against |W_k| before any word table is built.
coefficients:  line 1: "N K"; then "S i re im" (scaling) and one line per
               wavelet key (a, l, r) in detail_keys order: "M r l re im" for
               a mother (a = (), written only when K >= 2), "D word l r re im"
               otherwise.  Both kinds parse into the one detail dict.  Only
               level-K keys are written: a scaling layer of the wrong length
               or a key of another level raises IndexOutOfRange.
graph:         line 1: "V E"; then E lines "source range" (0-based).
word syntax:   digits concatenated ("0121") when N <= 10; dot-separated
               ("11.3.0") when N > 10 (pair alphabets can exceed 10 letters),
               where a token without a dot is one letter ("10").  Dotted
               words parse for any N.
PGM:           P2 with header "P2\\nW H\\n255", one raster row per line.

Signal and coefficient files are written from arrays, each value through
repr().  format_words spells the rows of a digit array, such as the words of a
level or the x- and y-words of the planar cells: a level's word column is a
table in the matrix's memo, format_words of core's digit table, about 70 bytes
per word.  The level-K key column is one too: that of K - 1, then the keys
with |a| = K - 2 from the word column of K - 2; each level up to the finest
asked for is kept, with the word columns it read, at about 100 bytes per
level-K key.  Reading tries two ways, cheapest first.  A file with exactly
one data line per word or key, whose keys are the canonical column spelled and
ordered as written, has each line split once and its values taken in turn.
Any other file (shuffled lines, other spellings, extra whitespace inside a key,
repeated or stray keys, a sparse coefficient file) goes through the per-line
parser, which accepts lines in any order and names the line at fault; it finds
a signal word in the canonical column as written, or else as format_word
spells the digits it parses to, and a word found neither way is not admissible.
Values are read with float(); nan, inf and overflowing values such as 1e400
are refused.
"""

import math

import numpy as np

from . import core
from .core import CylinderFunction
from .errors import FileFormatError


def _data_lines(text):
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [line for line in map(str.strip, lines) if line]


def _float(tok, where):
    try:
        value = float(tok)
    except ValueError:
        raise FileFormatError("bad number %r in %s" % (tok, where))
    if not math.isfinite(value):
        raise FileFormatError("non-finite number %r in %s" % (tok, where))
    return value


def _int(tok, where):
    try:
        return int(tok)
    except ValueError:
        raise FileFormatError("bad integer %r in %s" % (tok, where))


# --- words ---------------------------------------------------------------------


def format_word(word, n):
    return ("" if n <= 10 else ".").join(map(str, word)) or "-"


def parse_word(s, n):
    s = s.strip()
    if s in ("", "-"):
        return ()
    if "." in s:
        digits = tuple(_int(t, "word %r" % s) for t in s.split("."))
    elif n > 10:  # format_word writes a lone letter without a dot
        digits = (_int(s, "word %r" % s),)
    else:
        digits = tuple(_int(ch, "word %r" % s) for ch in s)
    for d in digits:
        if not 0 <= d < n:
            raise FileFormatError("digit %d out of range for N = %d" % (d, n))
    return digits


def format_words(digits, n):
    """format_word of each row of a 2-d array of digits below n, as a tuple: the rows
    as glyphs (separator, letter padded), padding dropped."""
    if not digits.shape[1]:
        return ("-",) * len(digits)
    sep, width = b"" if n <= 10 else b".", len(str(n - 1))
    glyphs = np.array([list(b"%s%*d" % (sep, width, d)) for d in range(n)], np.uint8)
    rows = np.take(glyphs, digits, axis=0).reshape(-1, digits.shape[1] * len(glyphs[0]))
    rows[:, :len(sep)] = ord(" ")   # no separator before the first letter
    ends = np.full((len(rows), 1), ord("\n"), dtype=np.uint8)
    text = np.hstack((rows, ends)).tobytes().translate(None, b" ").decode()
    del rows   # freed before the strings are made
    return tuple(text.split())


# --- matrix ---------------------------------------------------------------------


def format_matrix(matrix):
    lines = [str(matrix.n)]
    for row in matrix.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_rows(text):
    """Raw 0-1 grid from matrix-format text (validation is the caller's)."""
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty matrix file")
    n = _int(lines[0], "matrix header")
    if len(lines) != n + 1:
        raise FileFormatError("expected %d matrix rows, found %d" % (n, len(lines) - 1))
    rows = []
    for line in lines[1:]:
        row = [_int(t, "matrix row") for t in line.split()]
        if len(row) != n:
            raise FileFormatError("matrix row %r has %d entries, expected %d"
                                  % (line, len(row), n))
        rows.append(row)
    return rows


# --- signal ----------------------------------------------------------------------


@core._table()
def word_column(matrix, k):
    """format_words of core's level-k digit table, kept in the matrix's memo."""
    return format_words(core._digit_table(matrix, k), matrix.n)


def _value_lines(head, column, values):
    """The text "head" then one "key re im" line per column entry."""
    re, im = map(repr, values.real.tolist()), map(repr, values.imag.tolist())
    return "\n".join([head] + list(map(" ".join, zip(column, re, im)))) + "\n"


_CHUNK = 2048   # lines split at a time: a parse holds one chunk's parts, not the file's


def _parse_column(lines, column):
    """Values of data lines "key re im" whose keys are `column`, spelled and ordered as
    written, or None.

    Lines are split in chunks of _CHUNK, each line once, and a chunk's keys are compared
    with the column before its values are converted.  Returns None at the first chunk
    whose keys differ, or that holds a line not of that form or a value that float()
    refuses or that is not finite; the per-line parser then reads the file.
    """
    values = np.empty(len(lines), dtype=np.complex128)
    try:
        for at in range(0, len(lines), _CHUNK):
            keys, re, im = zip(*[line.rsplit(None, 2) for line in lines[at:at + _CHUNK]])
            end = at + len(keys)
            if keys != column[at:end]:
                return None
            values.real[at:end], values.imag[at:end] = list(map(float, re)), list(map(float, im))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def format_signal(f):
    return _value_lines("%d %d" % (f.matrix.n, f.level),
                        word_column(f.matrix, f.level), f.coeffs)


def parse_signal(text, matrix):
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty signal file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError("signal header must be 'N k'")
    n, k = _int(head[0], "signal header"), _int(head[1], "signal header")
    if n != matrix.n:
        raise FileFormatError(
            "signal is over N = %d, matrix has N = %d" % (n, matrix.n))
    nlines = len(lines) - 1
    nwords = core.bounded_word_count(matrix, k, nlines)
    if nwords > nlines:
        total = core.bounded_word_count(matrix, k, 10 ** 15)   # more than a file holds
        raise FileFormatError("signal lists %d of the %s level-%d words" % (
            nlines, total if total <= 10 ** 15 else "over 10^15", k))
    coeffs, column = None, word_column(matrix, k)
    if nwords == nlines:
        coeffs = _parse_column(lines[1:], column)
    if coeffs is None:
        coeffs = _parse_signal_lines(lines[1:], matrix, k, column)
    return CylinderFunction(matrix, k, core._frozen(coeffs))


def _parse_signal_lines(lines, matrix, k, column):
    """Per-line parse of at least |W_k| data lines, in any order and spelling; a word is
    found in `column` as written, or else as format_word spells it."""
    # with at least one line per word, a missing word forces a repeat or a misspelling
    pos = dict(zip(column, range(len(column))))
    coeffs = np.zeros(len(column), dtype=np.complex128)
    seen = set()
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError("signal line %r needs 'word re im'" % line)
        slot = pos.get(parts[0])
        if slot is None:
            slot = pos.get(format_word(parse_word(parts[0], matrix.n), matrix.n))
            if slot is None:
                raise FileFormatError("word %r is not admissible at level %d" % (parts[0], k))
        if slot in seen:
            raise FileFormatError("word %r listed twice" % (parts[0],))
        seen.add(slot)
        coeffs[slot] = complex(_float(parts[1], line), _float(parts[2], line))
    return coeffs


# --- wavelet coefficients ---------------------------------------------------------


@core._table(levelled=True)
def _key_column(matrix, K, below):
    """The keys of a level-K coefficient file as written, kept in the matrix's memo:
    "S i" for each letter, then each wavelet key in detail_keys order.  Level K is
    level K - 1, then the keys with |a| = K - 2, spelled from the level-(K - 2) words."""
    d = matrix.row_sums
    if K < 2 or core.word_count(matrix, K) == core.word_count(matrix, K - 1):
        return below or tuple("S %d" % i for i in range(matrix.n))
    if K == 2:
        return below + tuple("M %d %d" % (r, l) for r in range(matrix.n) for l in range(1, d[r]))
    tails = [[" %d %d" % (l, r) for r in s for l in range(1, d[r])] for s in matrix.successors]
    last = core.last_digit_array(matrix, K - 2).tolist()
    return below + tuple("D " + w + tail for w, j in zip(word_column(matrix, K - 2), last)
                         for tail in tails[j])


def format_coefficients(wc, mw, level):
    """Serialize analyze() output (canonical order) for a level-`level` system.

    Raises IndexOutOfRange when wc holds a key that is not a level-`level`
    wavelet or a scaling layer of the wrong length, as synthesize does.
    """
    from . import wavelets
    scaling, detail = wavelets._flat_layers(wc, mw, level)
    return _value_lines("%d %d" % (mw.matrix.n, level), _key_column(mw.matrix, level),
                        np.concatenate([scaling, detail]))


def parse_coefficients(text, matrix):
    """Read a coefficient file; returns (WaveletCoefficients, level)."""
    from . import wavelets
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty coefficient file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError("coefficient header must be 'N K'")
    n, level = _int(head[0], "header"), _int(head[1], "header")
    if n != matrix.n:
        raise FileFormatError(
            "coefficients are over N = %d, matrix has N = %d" % (n, matrix.n))
    values, nlines = None, len(lines) - 1
    # the scaling letters and the level-K wavelets number |W_K| together
    if level >= 1 and core.bounded_word_count(matrix, level, nlines) == nlines:
        values = _parse_column(lines[1:], _key_column(matrix, level))
    if values is None:
        scaling, detail = _parse_coefficient_lines(lines[1:], n)
    else:
        scaling = values[:n].copy()
        detail = dict(zip(wavelets._keys(matrix, level), values[n:].tolist()))
    scaling.setflags(write=False)
    return wavelets.WaveletCoefficients(scaling=scaling, detail=detail), level


def _parse_coefficient_lines(lines, n):
    """Per-line parse of coefficient lines, in any order and spelling."""
    scaling = {}
    detail = {}
    for line in lines:
        parts = line.split()
        kind = parts[0]
        if kind == "S" and len(parts) == 4:
            i = _int(parts[1], line)
            if not 0 <= i < n:
                raise FileFormatError("scaling letter %d out of range" % i)
            layer, key = scaling, i
        elif kind == "M" and len(parts) == 5:
            layer, key = detail, ((), _int(parts[2], line), _int(parts[1], line))
        elif kind == "D" and len(parts) == 6:
            layer, key = detail, (parse_word(parts[1], n), _int(parts[2], line),
                                  _int(parts[3], line))
        else:
            raise FileFormatError("bad coefficient line %r" % line)
        if key in layer:
            raise FileFormatError("%s key %r listed twice" % (kind, key))
        layer[key] = complex(_float(parts[-2], line), _float(parts[-1], line))
    return np.array([scaling.get(i, 0j) for i in range(n)], dtype=np.complex128), detail


# --- graph -------------------------------------------------------------------------


def parse_graph(text):
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError("graph header must be 'V E'")
    v, e = _int(head[0], "header"), _int(head[1], "header")
    if len(lines) != e + 1:
        raise FileFormatError("expected %d edge lines, found %d" % (e, len(lines) - 1))
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError("edge line %r needs 'source range'" % line)
        edges.append((_int(parts[0], line), _int(parts[1], line)))
    from . import graphs
    return graphs.directed_graph(v, edges)


# --- PGM ----------------------------------------------------------------------------


def format_pgm(img):
    img = np.asarray(img)
    h, w = img.shape
    lines = ["P2", "%d %d" % (w, h), "255"]
    for row in img:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"
