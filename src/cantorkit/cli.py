"""Command line front end.

Structured output is one `key = value` per line with 15 significant digits;
bulk data uses the text formats of fileio (signals, matrices, PGM) or plain
line records (words, cells, walk probabilities, CSV for fourier).  Output is
byte-identical across runs for identical inputs and flags.

Every verb is one row of VERBS.  The dispatcher loads the row's matrix or
graph, computes Perron data when the row needs it, and calls the handler,
under a core.budget of `--cap` words per table when the row takes `--cap`.
Only core, errors, fileio and spectral, which the parser and the dispatcher
need, are imported here; each handler imports the modules it calls, so a
process loads the modules of its own verb and no others.

Exit codes: 0 success, 64 usage, 65 bad data, 66 cap exceeded,
70 no convergence.
"""

import argparse
import math
import sys
from collections import namedtuple

import numpy as np

from . import core, fileio, spectral
from .core import DEFAULT_CAP
from .errors import (
    CantorError,
    CapExceeded,
    DataError,
    FileFormatError,
    NoConvergence,
    UsageError,
)


def _fmt(x):
    return "%.15g" % float(x)


def _kv(key, value):
    print("%s = %s" % (key, value))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError("cannot read %s: %s" % (path, exc))


def _write(path, text):
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError("cannot write %s: %s" % (path, exc))


def _emit(args, text):
    """Write `text` to the file named by --out, or to stdout without one."""
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_signal(args, f):
    _emit(args, fileio.format_signal(f))


def _load_signal(path, matrix):
    return fileio.parse_signal(_read(path), matrix)


def _parse_cli_word(s, matrix):
    return core.check_word(matrix, fileio.parse_word(s, matrix.n))


def _number(kind, ok, why):
    """argparse type of a `kind` number x for which ok(x) holds."""
    def parse(text):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid %s value: %r" % (kind.__name__, text))
        if not ok(x):
            raise argparse.ArgumentTypeError("%s %s" % (x, why))
        return x
    return parse


_count = _number(int, lambda n: n >= 0, "is negative")
_real = _number(float, math.isfinite, "is not finite")


# --- command handlers: (args, matrix or graph, Perron data or None) -----------


def cmd_perron(args, matrix, pd):
    _kv("n", matrix.n)
    _kv("radius", _fmt(pd.radius))
    _kv("delta", _fmt(pd.delta))
    _kv("residual", _fmt(pd.tol))
    _kv("iterations", pd.iterations)
    for i in range(matrix.n):
        _kv("p_%d" % i, _fmt(pd.p[i]))
    for i in range(matrix.n):
        _kv("omega_%d" % i, _fmt(pd.omega[i]))


def cmd_words(args, matrix, pd):
    core.check_cap(matrix, args.level)   # a level under 0 or over the cap, before any table
    print("\n".join(fileio.word_column(matrix, args.level)))


def cmd_measure(args, matrix, pd):
    w = _parse_cli_word(args.word, matrix)
    _kv("measure", _fmt(spectral.cylinder_measure(pd, w)))


def cmd_op_s(args, matrix, pd):
    from . import operators
    _emit_signal(args, operators.apply_S(args.i, _load_signal(args.signal, matrix), pd))


def cmd_op_sstar(args, matrix, pd):
    from . import operators
    _emit_signal(args, operators.apply_S_star(args.i, _load_signal(args.signal, matrix), pd))


def cmd_op_word(args, matrix, pd):
    from . import operators
    f = _load_signal(args.signal, matrix)
    a = _parse_cli_word(args.word, matrix)
    _emit_signal(args, operators.apply_S_word(a, f, pd, adjoint=args.adjoint))


def cmd_op_pf(args, matrix, pd):
    from . import operators
    _emit_signal(args, operators.pf_operator(_load_signal(args.signal, matrix), pd))


def cmd_op_fixed_point(args, matrix, pd):
    from . import operators
    f = operators.pf_fixed_point(pd)
    residual = spectral.norm(operators.pf_operator(f, pd) - f, pd)
    _emit_signal(args, f)
    _kv("pf_residual", _fmt(residual))


def cmd_op_ck(args, matrix, pd):
    from . import operators
    _kv("residual", _fmt(operators.ck_relations_residual(pd, args.level)))


def cmd_fourier(args, matrix, pd):
    from . import operators
    f = _load_signal(args.signal, matrix)
    core._check_budget(lambda cap: args.tcount, "%d t values are over the cap of %d", args.tcount)
    ts = np.linspace(args.tmin, args.tmax, args.tcount).tolist()
    for t, v in zip(ts, operators.fourier_sweep(f, ts, args.level, pd)):
        print("%s, %s, %s" % (_fmt(t), _fmt(v.real), _fmt(v.imag)))


def cmd_kms(args, matrix, pd):
    from . import operators
    if args.letter is not None:
        if args.a is not None or args.b is not None:
            raise UsageError("kms takes either --letter or --a and --b, not both")
        _kv("ratio", _fmt(operators.kms_letter_ratio(args.letter, pd)))
        _kv("radius", _fmt(pd.radius))
        return
    if args.a is None or args.b is None:
        raise UsageError("kms needs either --letter or both --a and --b")
    a = _parse_cli_word(args.a, matrix)
    b = _parse_cli_word(args.b, matrix)
    value = operators.kms_state(a, b, pd)
    _kv("value_re", _fmt(value.real))
    _kv("value_im", _fmt(value.imag))


def cmd_wavelets_build(args, matrix, pd):
    from . import wavelets
    mw = wavelets.build_mother_wavelets(pd)
    for k in range(matrix.n):
        _kv("d_%d" % k, mw.d[k])
    keys = wavelets.detail_keys(mw, 2)
    for (_, l, k) in keys:
        _kv("c_%d_%d" % (k, l), " ".join(_fmt(v) for v in mw.c[k][l - 1]))
    _kv("total_mothers", len(keys))


def cmd_wavelets_analyze(args, matrix, pd):
    from . import wavelets
    f = _load_signal(args.signal, matrix)
    if args.level is not None:
        f = core.refine(f, args.level)
    mw = wavelets.build_mother_wavelets(pd)
    wc = wavelets.analyze(f, mw)
    _emit(args, fileio.format_coefficients(wc, mw, max(f.level, 1)))
    parseval = abs(wc.energy() - spectral.inner_product(f, f, pd).real)
    _kv("parseval_residual", _fmt(parseval))


def cmd_wavelets_synthesize(args, matrix, pd):
    from . import wavelets
    mw = wavelets.build_mother_wavelets(pd)
    wc, level = fileio.parse_coefficients(_read(args.coeffs), matrix)
    if args.level is not None:
        level = args.level
    f = wavelets.synthesize(wc, mw, level)
    _emit_signal(args, f)
    if args.compare:
        g = _load_signal(args.compare, matrix)
        m = max(f.level, g.level)
        diff = core.refine(f, m).coeffs - core.refine(g, m).coeffs
        _kv("max_error", _fmt(float(np.max(np.abs(diff)))))


def cmd_ruelle_apply(args, matrix, pd):
    from . import ruelle
    w_fn = _load_signal(args.potential, matrix)
    f = _load_signal(args.signal, matrix)
    _emit_signal(args, ruelle.ruelle_apply(w_fn, f, pd))


def cmd_ruelle_keane(args, matrix, pd):
    from . import ruelle
    w_fn = _load_signal(args.potential, matrix)
    _kv("residual", _fmt(ruelle.keane_residual(w_fn, pd)))


def cmd_ruelle_trig(args, matrix, pd):
    from . import ruelle
    cyl, pointwise = ruelle.trig_potential(pd, args.level)
    if args.out:   # samples W at level K + 1, so it may refuse: before any output
        pointwise_residual = ruelle.preimage_keane_residual(pointwise, pd, args.level)
    _emit_signal(args, cyl)
    if args.out:
        _kv("pointwise_keane_residual", _fmt(pointwise_residual))
        _kv("cylinder_keane_residual", _fmt(ruelle.keane_residual(cyl, pd)))


def cmd_walk(args, matrix, pd):
    from . import ruelle
    start = _parse_cli_word(args.x, matrix)
    if args.constant is not None:
        potential = ruelle.constant_potential(args.constant)
    else:
        potential = ruelle.trig_potential(pd, 1)[1]
    layer = ruelle.walk_layers(start, potential, matrix, args.depth)[-1]
    total = 0.0
    for word, v in zip(fileio.word_column(matrix.transpose, args.depth), layer.tolist()):
        total += v
        print("%s %s" % (word, _fmt(v)))
    print("# layer_mass = %s" % _fmt(total))


def cmd_sierpinski_info(args, matrix, pd):
    from . import sierpinski
    spec = sierpinski.sierpinski_spec(matrix)
    _kv("n", matrix.n)
    _kv("D", spec.D)
    _kv("pair_dimension", _fmt(spec.pair_dimension))
    _kv("similarity_dimension", _fmt(spec.similarity_dimension))


def cmd_sierpinski_cells(args, matrix, pd):
    from . import sierpinski
    spec = sierpinski.sierpinski_spec(matrix)
    cells = sierpinski.cells(spec, args.depth)
    xs, ys = (fileio.format_words(cells[:, axis], matrix.n) for axis in (0, 1))
    print("\n".join(map(" ".join, zip(xs, ys))))


def cmd_sierpinski_render(args, matrix, pd):
    from . import sierpinski
    spec = sierpinski.sierpinski_spec(matrix)
    img = sierpinski.render_pgm(spec, args.depth, args.res)
    _emit(args, fileio.format_pgm(img))
    if args.out:
        dark = int((img == 0).sum())
        _kv("dark_pixels", dark)
        _kv("total_pixels", img.size)
        _kv("dark_fraction", _fmt(dark / img.size))


def cmd_sierpinski_induced(args, matrix, pd):
    from . import sierpinski
    spec = sierpinski.sierpinski_spec(matrix)
    _emit(args, fileio.format_matrix(sierpinski.induced_matrix(spec)))


def cmd_graph_perron(args, g, pd):
    from . import graphs
    pd = graphs.graph_perron(g, tol=args.tol)
    _kv("edges", len(g.edges))
    _kv("radius", _fmt(pd.radius))
    _kv("residual", _fmt(pd.tol))
    for e in range(len(g.edges)):
        _kv("p_%d" % e, _fmt(pd.p[e]))


def cmd_graph_wavelets(args, g, pd):
    from . import graphs
    gw = graphs.build_graph_wavelets(g, args.v0, args.e0, tol=args.tol)
    rep = graphs.path_integrals(gw, args.depth)
    names = [",".join(map(str, t)) for t in rep.tuples.tolist()]
    for j in np.flatnonzero(rep.valid.any(axis=0)):   # path by path, each path's tuples in order
        pth = ",".join(map(str, rep.paths[j].tolist()))
        for i in np.flatnonzero(rep.valid[:, j]):
            print("%s %s %s" % (pth, names[i], _fmt(rep.psi[i, j])))
    _kv("n_paths", rep.n_paths)
    _kv("n_tuples", rep.n_tuples)
    _kv("max_mean_residual", _fmt(rep.max_mean_residual))
    _kv("max_gram_residual", _fmt(rep.max_gram_residual))


# --- the command table ------------------------------------------------------------

# One row per verb: its path, help and handler, then its own flags in order.
# reads: "matrix", "lax" (a matrix, with --lax) or "graph".  spectral: takes
# --tol (exit 70 over it), and a matrix verb gets Perron data.  cap: takes
# --cap, which the verb runs under as its word-table budget.
Verb = namedtuple("Verb", "path help handler flags reads spectral cap alias",
                  defaults=("matrix", True, False, None))

_OUT = ("--out", {})
_SIGNAL = ("--signal", {"required": True})


def _req(flag, type=None, **kw):
    return (flag, dict(kw, type=type, required=True))


def _opt(flag, type=None, help=None):
    return (flag, {"type": type, "help": help})


VERBS = (
    Verb(("perron",), "Perron eigendata and dimension", cmd_perron, (), reads="lax"),
    Verb(("words",), "enumerate admissible words", cmd_words, (_req("--level", int),),
         reads="lax", spectral=False, cap=True),
    Verb(("measure",), "cylinder measure of a word", cmd_measure, (_req("--word"),),
         reads="lax"),
    Verb(("op", "s"), "apply S_i", cmd_op_s, (_req("--i", int), _SIGNAL, _OUT)),
    Verb(("op", "sstar"), "apply S_i*", cmd_op_sstar, (_req("--i", int), _SIGNAL, _OUT)),
    Verb(("op", "word"), "apply S_a or S_a*", cmd_op_word,
         (_req("--word"), ("--adjoint", {"action": "store_true"}), _SIGNAL, _OUT),
         cap=True),
    Verb(("op", "pf"), "apply the transfer operator", cmd_op_pf, (_SIGNAL, _OUT)),
    Verb(("op", "fixed-point"), "the transfer operator's fixed function",
         cmd_op_fixed_point, (_OUT,)),
    Verb(("op", "ck"), "Cuntz-Krieger relation residual", cmd_op_ck, (_req("--level", int),),
         cap=True),
    Verb(("fourier",), "transform of the spectral measure, CSV", cmd_fourier,
         (_SIGNAL, _req("--level", int), _req("--tmin", _real), _req("--tmax", _real),
          _req("--tcount", _count)), cap=True),
    Verb(("kms",), "the canonical state on monomials", cmd_kms,
         (_opt("--a"), _opt("--b"),
          _opt("--letter", int, "print the state ratio for one letter instead"))),
    Verb(("wavelets", "build"), "construct the mother wavelets", cmd_wavelets_build, ()),
    Verb(("wavelets", "analyze"), "wavelet coefficients of a signal", cmd_wavelets_analyze,
         (_SIGNAL, _opt("--level", int, "refine the signal to this level first"), _OUT),
         cap=True),
    Verb(("wavelets", "synthesize"), "rebuild a signal from coefficients",
         cmd_wavelets_synthesize,
         (_req("--coeffs"), _opt("--level", int, "override the level recorded in the file"),
          _OUT, _opt("--compare", help="signal file to diff against")),
         cap=True),
    Verb(("ruelle", "apply"), "apply the weighted transfer operator", cmd_ruelle_apply,
         (_req("--potential", help="potential signal file"), _SIGNAL, _OUT)),
    Verb(("ruelle", "keane"), "Keane-condition residual of a potential", cmd_ruelle_keane,
         (_req("--potential"),)),
    Verb(("ruelle", "trig"), "the trigonometric Keane potential", cmd_ruelle_trig,
         (_req("--level", int, help="cylinder sampling level"), _OUT), cap=True),
    Verb(("ruelle", "walk"), "walk-measure probabilities per cylinder", cmd_walk,
         (_req("--x", help="digits of the starting point"),
          _req("--depth", int, help="walk depth k"),
          _opt("--constant", _real,
               "use a constant potential instead of the trigonometric one")),
         cap=True, alias=("walk", "alias of `ruelle walk`")),
    Verb(("sierpinski", "info"), "D and both dimension exponents", cmd_sierpinski_info, (),
         reads="lax", spectral=False),
    Verb(("sierpinski", "cells"), "enumerate depth-k cells", cmd_sierpinski_cells,
         (_req("--depth", int),), reads="lax", spectral=False, cap=True),
    Verb(("sierpinski", "render"), "rasterize to PGM", cmd_sierpinski_render,
         (_req("--depth", int), _req("--res", int), _OUT), reads="lax", spectral=False,
         cap=True),
    Verb(("sierpinski", "induced"), "the pair-shift matrix", cmd_sierpinski_induced, (_OUT,),
         reads="lax", spectral=False),
    Verb(("graph", "perron"), "edge-matrix Perron data", cmd_graph_perron, (), reads="graph"),
    Verb(("graph", "wavelets"), "path wavelets and their integrals", cmd_graph_wavelets,
         (_req("--v0", int, help="base vertex"), _req("--e0", int, help="base edge into v0"),
          _req("--depth", int)), reads="graph", cap=True),
)

# verb groups: help text and the dest naming the chosen subcommand
GROUPS = {
    "op": ("apply generators and related operators", "opverb"),
    "wavelets": ("mother wavelets, analyze, synthesize", "wverb"),
    "ruelle": ("transfer operator with potentials", "rverb"),
    "sierpinski": ("planar fractal data and rendering", "sverb"),
    "graph": ("edge-shift data and graph wavelets", "gverb"),
}


def _add_verb(sub, name, text, verb):
    p = sub.add_parser(name, help=text)
    if verb.reads == "graph":
        p.add_argument("--graph", required=True, help="graph file")
    else:
        p.add_argument("--matrix", required=True, help="matrix file")
    if verb.reads == "lax":
        p.add_argument("--lax", action="store_true",
                       help="accept non-strict matrices (no unit diagonal)")
    if verb.spectral:
        p.add_argument("--tol", type=_real, default=spectral.DEFAULT_TOL,
                       help="eigen-residual tolerance, > 0")
    if verb.cap:
        p.add_argument("--cap", type=_count, default=DEFAULT_CAP,
                       help="enumeration cap (default %d)" % DEFAULT_CAP)
    for flag, kw in verb.flags:
        p.add_argument(flag, **kw)
    p.set_defaults(verb_row=verb)


def build_parser():
    parser = _Parser(prog="cantorkit",
                     description="Harmonic analysis on matrix-defined Cantor sets.")
    top = parser.add_subparsers(dest="verb", required=True)
    groups = {}
    for verb in VERBS:
        if len(verb.path) == 1:
            _add_verb(top, verb.path[0], verb.help, verb)
            continue
        group = verb.path[0]
        if group not in groups:
            text, dest = GROUPS[group]
            p = top.add_parser(group, help=text)
            groups[group] = p.add_subparsers(dest=dest, required=True)
        _add_verb(groups[group], verb.path[1], verb.help, verb)
        if verb.alias:
            _add_verb(top, *verb.alias, verb)
    return parser


def _dispatch(args):
    verb = args.verb_row
    with core.budget(args.cap if verb.cap else None):
        if verb.reads == "graph":
            return verb.handler(args, fileio.parse_graph(_read(args.graph)), None)
        rows = fileio.parse_matrix_rows(_read(args.matrix))
        matrix = core.validate_matrix(rows, strict=not getattr(args, "lax", False))
        pd = spectral.perron_data(matrix, tol=args.tol) if verb.spectral else None
        return verb.handler(args, matrix, pd)


# the exit code and stderr label of an error: the first row whose class it is
EXITS = ((UsageError, 64, "usage error"), (CapExceeded, 66, "cap exceeded"),
         (NoConvergence, 70, "no convergence"), (DataError, 65, "data error"),
         (CantorError, 65, "error"))


def run(argv):
    """Parse and dispatch; returns the process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv)) or 0
    except CantorError as exc:
        code, label = next((c, l) for cls, c, l in EXITS if isinstance(exc, cls))
        print("%s: %s" % (label, exc), file=sys.stderr)
        return code
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
