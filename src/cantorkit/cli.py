"""Command line front end.

Structured output is one `key = value` per line with 15 significant digits;
bulk data uses the text formats of fileio (signals, matrices, PGM) or plain
line records (words, cells, walk probabilities, CSV for fourier).  Output is
byte-identical across runs for identical inputs and flags.

Exit codes: 0 success, 64 usage, 65 bad data, 66 cap exceeded,
70 no convergence.
"""

import argparse
import sys

import numpy as np

from . import core, fileio, graphs, operators, ruelle, sierpinski, spectral, wavelets
from .errors import (
    CantorError,
    CapExceeded,
    DataError,
    FileFormatError,
    NoConvergence,
    UsageError,
)

DEFAULT_CAP = 200000


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


def _load_matrix(args):
    rows = fileio.parse_matrix_rows(_read(args.matrix))
    return core.validate_matrix(rows, strict=not getattr(args, "lax", False))


def _pd(args, matrix):
    return spectral.perron_data(matrix, tol=args.tol, max_iter=args.max_iter)


def _load_signal(path, matrix):
    return fileio.parse_signal(_read(path), matrix)


def _emit_signal(args, f):
    text = fileio.format_signal(f)
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_cli_word(s, matrix):
    return core.check_word(matrix, fileio.parse_word(s, matrix.n))


# --- command handlers -----------------------------------------------------------


def cmd_perron(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    _kv("n", matrix.n)
    _kv("radius", _fmt(pd.radius))
    _kv("delta", _fmt(pd.delta))
    _kv("residual", _fmt(pd.tol))
    _kv("iterations", pd.iterations)
    for i in range(matrix.n):
        _kv("p_%d" % i, _fmt(pd.p[i]))
    for i in range(matrix.n):
        _kv("omega_%d" % i, _fmt(pd.omega[i]))
    return 0


def cmd_words(args):
    matrix = _load_matrix(args)
    for w in core.enumerate_words(matrix, args.level, cap=args.cap):
        print(fileio.format_word(w, matrix.n))
    return 0


def cmd_measure(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    w = _parse_cli_word(args.word, matrix)
    _kv("measure", _fmt(spectral.cylinder_measure(pd, w)))
    return 0


def cmd_op_s(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = _load_signal(args.signal, matrix)
    _emit_signal(args, operators.apply_S(args.i, f, pd))
    return 0


def cmd_op_sstar(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = _load_signal(args.signal, matrix)
    _emit_signal(args, operators.apply_S_star(args.i, f, pd))
    return 0


def cmd_op_word(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = _load_signal(args.signal, matrix)
    a = _parse_cli_word(args.word, matrix)
    _emit_signal(args, operators.apply_S_word(a, f, pd, adjoint=args.adjoint))
    return 0


def cmd_op_pf(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = _load_signal(args.signal, matrix)
    _emit_signal(args, operators.pf_operator(f, pd))
    return 0


def cmd_op_fixed_point(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = operators.pf_fixed_point(pd)
    residual = spectral.norm(operators.pf_operator(f, pd) - f, pd)
    _emit_signal(args, f)
    _kv("pf_residual", _fmt(residual))
    return 0


def cmd_op_ck(args):
    matrix = _load_matrix(args)
    # S_i raises level K to K + 1; a level below 2 is refused by the check itself
    core.check_cap(matrix, max(args.level, 1) + 1, args.cap)
    pd = _pd(args, matrix)
    _kv("residual", _fmt(operators.ck_relations_residual(pd, args.level)))
    return 0


def cmd_fourier(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = _load_signal(args.signal, matrix)
    for t in np.linspace(args.tmin, args.tmax, args.tcount):
        v = operators.fourier_approx(f, float(t), args.level, pd)
        print("%s, %s, %s" % (_fmt(t), _fmt(v.real), _fmt(v.imag)))
    return 0


def cmd_kms(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    if args.letter is not None:
        _kv("ratio", _fmt(operators.kms_letter_ratio(args.letter, pd)))
        _kv("radius", _fmt(pd.radius))
        return 0
    if args.a is None or args.b is None:
        raise UsageError("kms needs either --letter or both --a and --b")
    a = _parse_cli_word(args.a, matrix)
    b = _parse_cli_word(args.b, matrix)
    sv = operators.kms_state(a, b, pd)
    _kv("value_re", _fmt(sv.value.real))
    _kv("value_im", _fmt(sv.value.imag))
    return 0


def cmd_wavelets_build(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    mw = wavelets.build_mother_wavelets(pd)
    total = 0
    for k in range(matrix.n):
        _kv("d_%d" % k, mw.d[k])
        total += mw.d[k] - 1
    for (k, l) in mw.mother_keys():
        vec = mw.c[k][l - 1]
        _kv("c_%d_%d" % (k, l), " ".join(_fmt(v) for v in vec))
    _kv("total_mothers", total)
    return 0


def cmd_wavelets_analyze(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    f = _load_signal(args.signal, matrix)
    if args.level is not None:
        f = core.refine(f, args.level)
    mw = wavelets.build_mother_wavelets(pd)
    wc = wavelets.analyze(f, mw)
    level = max(f.level, 1)
    text = fileio.format_coefficients(wc, mw, level)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    parseval = abs(wc.energy() - spectral.inner_product(f, f, pd).real)
    _kv("parseval_residual", _fmt(parseval))
    return 0


def cmd_wavelets_synthesize(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
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
    return 0


def cmd_ruelle_apply(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    w_fn = _load_signal(args.potential, matrix)
    f = _load_signal(args.signal, matrix)
    _emit_signal(args, ruelle.ruelle_apply(w_fn, f, pd))
    return 0


def cmd_ruelle_keane(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    w_fn = _load_signal(args.potential, matrix)
    _kv("residual", _fmt(ruelle.keane_residual(w_fn, pd)))
    return 0


def cmd_ruelle_trig(args):
    matrix = _load_matrix(args)
    core.check_cap(matrix, args.level, args.cap)
    pd = _pd(args, matrix)
    cyl, pointwise = ruelle.trig_potential(pd, args.level)
    if args.out:
        _write(args.out, fileio.format_signal(cyl))
        _kv("pointwise_keane_residual",
            _fmt(ruelle.preimage_keane_residual(pointwise, pd, args.level)))
        _kv("cylinder_keane_residual", _fmt(ruelle.keane_residual(cyl, pd)))
    else:
        sys.stdout.write(fileio.format_signal(cyl))
    return 0


def _walk_potential(args, pd):
    if args.constant is not None:
        return ruelle.constant_potential(args.constant)
    _, pointwise = ruelle.trig_potential(pd, 1)
    return pointwise


def cmd_walk(args):
    matrix = _load_matrix(args)
    pd = _pd(args, matrix)
    x_word = _parse_cli_word(args.x, matrix)
    x = core.nadic_value(x_word, matrix.n)
    potential = _walk_potential(args, pd)
    total = 0.0
    for a in ruelle.enumerate_transpose_words(matrix, args.depth, cap=args.cap):
        v = ruelle.walk_measure(x, potential, a, matrix)
        total += v
        print("%s %s" % (fileio.format_word(a, matrix.n), _fmt(v)))
    print("# layer_mass = %s" % _fmt(total))
    return 0


def cmd_sierpinski_info(args):
    matrix = _load_matrix(args)
    spec = sierpinski.sierpinski_spec(matrix)
    _kv("n", matrix.n)
    _kv("D", spec.D)
    _kv("pair_dimension", _fmt(spec.pair_dimension))
    _kv("similarity_dimension", _fmt(spec.similarity_dimension))
    return 0


def cmd_sierpinski_cells(args):
    matrix = _load_matrix(args)
    spec = sierpinski.sierpinski_spec(matrix)
    for cell in sierpinski.cells(spec, args.depth, cap=args.cap):
        print("%s %s" % (fileio.format_word(cell.xword, matrix.n),
                         fileio.format_word(cell.yword, matrix.n)))
    return 0


def cmd_sierpinski_render(args):
    matrix = _load_matrix(args)
    spec = sierpinski.sierpinski_spec(matrix)
    img = sierpinski.render_pgm(spec, args.depth, args.res, cap=args.cap)
    text = fileio.format_pgm(img)
    if args.out:
        _write(args.out, text)
        dark = int((img == 0).sum())
        _kv("dark_pixels", dark)
        _kv("total_pixels", img.size)
        _kv("dark_fraction", _fmt(dark / img.size))
    else:
        sys.stdout.write(text)
    return 0


def cmd_sierpinski_induced(args):
    matrix = _load_matrix(args)
    spec = sierpinski.sierpinski_spec(matrix)
    text = fileio.format_matrix(sierpinski.induced_matrix(spec))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_graph_perron(args):
    g = fileio.parse_graph(_read(args.graph))
    pd = graphs.graph_perron(g, tol=args.tol, max_iter=args.max_iter)
    _kv("edges", len(g.edges))
    _kv("radius", _fmt(pd.radius))
    _kv("residual", _fmt(pd.tol))
    for e in range(len(g.edges)):
        _kv("p_%d" % e, _fmt(pd.p[e]))
    return 0


def cmd_graph_wavelets(args):
    g = fileio.parse_graph(_read(args.graph))
    gw = graphs.build_graph_wavelets(g, args.v0, args.e0,
                                     tol=args.tol, max_iter=args.max_iter)
    for pth in graphs.paths_from(gw, args.depth, cap=args.cap):
        for t in graphs.valid_level_tuples(gw, pth):
            value = graphs.psi_path(gw, pth, t)
            print("%s %s %s" % (",".join(str(e) for e in pth),
                                ",".join(str(l) for l in t),
                                _fmt(value.real)))
    rep = graphs.path_integrals(gw, args.depth, cap=args.cap)
    _kv("n_paths", rep.n_paths)
    _kv("n_tuples", rep.n_tuples)
    _kv("max_mean_residual", _fmt(rep.max_mean_residual))
    _kv("max_gram_residual", _fmt(rep.max_gram_residual))
    return 0


# --- parser wiring -----------------------------------------------------------


def _add_spectral_flags(p):
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL,
                   help="eigen-residual tolerance")
    p.add_argument("--max-iter", type=int, default=spectral.DEFAULT_MAX_ITER,
                   help="power iteration cap")


def _add_matrix_arg(p, lax_option=False):
    p.add_argument("--matrix", required=True, help="matrix file")
    if lax_option:
        p.add_argument("--lax", action="store_true",
                       help="accept non-strict matrices (no unit diagonal)")


def _add_cap(p):
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration cap (default %d)" % DEFAULT_CAP)


def _add_walk_flags(p):
    _add_matrix_arg(p)
    _add_spectral_flags(p)
    _add_cap(p)
    p.add_argument("--x", required=True, help="digits of the starting point")
    p.add_argument("--depth", type=int, required=True, help="walk depth k")
    p.add_argument("--constant", type=float, default=None,
                   help="use a constant potential instead of the trigonometric one")
    p.set_defaults(func=cmd_walk)


def build_parser():
    parser = _Parser(prog="cantorkit",
                     description="Harmonic analysis on matrix-defined Cantor sets.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("perron", help="Perron eigendata and dimension")
    _add_matrix_arg(p, lax_option=True)
    _add_spectral_flags(p)
    p.set_defaults(func=cmd_perron)

    p = sub.add_parser("words", help="enumerate admissible words")
    _add_matrix_arg(p, lax_option=True)
    _add_cap(p)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("measure", help="cylinder measure of a word")
    _add_matrix_arg(p, lax_option=True)
    _add_spectral_flags(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("op", help="apply generators and related operators")
    opsub = p.add_subparsers(dest="opverb", required=True)
    q = opsub.add_parser("s", help="apply S_i")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--signal", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_op_s)
    q = opsub.add_parser("sstar", help="apply S_i*")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--signal", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_op_sstar)
    q = opsub.add_parser("word", help="apply S_a or S_a*")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--word", required=True)
    q.add_argument("--adjoint", action="store_true")
    q.add_argument("--signal", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_op_word)
    q = opsub.add_parser("pf", help="apply the transfer operator")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--signal", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_op_pf)
    q = opsub.add_parser("fixed-point", help="the transfer operator's fixed function")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--out")
    q.set_defaults(func=cmd_op_fixed_point)
    q = opsub.add_parser("ck", help="Cuntz-Krieger relation residual")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    _add_cap(q)
    q.add_argument("--level", type=int, required=True)
    q.set_defaults(func=cmd_op_ck)

    p = sub.add_parser("fourier", help="transform of the spectral measure, CSV")
    _add_matrix_arg(p)
    _add_spectral_flags(p)
    p.add_argument("--signal", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--tcount", type=int, required=True)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("kms", help="the canonical state on monomials")
    _add_matrix_arg(p)
    _add_spectral_flags(p)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--letter", type=int, default=None,
                   help="print the state ratio for one letter instead")
    p.set_defaults(func=cmd_kms)

    p = sub.add_parser("wavelets", help="mother wavelets, analyze, synthesize")
    wsub = p.add_subparsers(dest="wverb", required=True)
    q = wsub.add_parser("build", help="construct the mother wavelets")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.set_defaults(func=cmd_wavelets_build)
    q = wsub.add_parser("analyze", help="wavelet coefficients of a signal")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--signal", required=True)
    q.add_argument("--level", type=int, default=None,
                   help="refine the signal to this level first")
    q.add_argument("--out")
    q.set_defaults(func=cmd_wavelets_analyze)
    q = wsub.add_parser("synthesize", help="rebuild a signal from coefficients")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--coeffs", required=True)
    q.add_argument("--level", type=int, default=None,
                   help="override the level recorded in the file")
    q.add_argument("--out")
    q.add_argument("--compare", help="signal file to diff against")
    q.set_defaults(func=cmd_wavelets_synthesize)

    p = sub.add_parser("ruelle", help="transfer operator with potentials")
    rsub = p.add_subparsers(dest="rverb", required=True)
    q = rsub.add_parser("apply", help="apply the weighted transfer operator")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--potential", required=True, help="potential signal file")
    q.add_argument("--signal", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_ruelle_apply)
    q = rsub.add_parser("keane", help="Keane-condition residual of a potential")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    q.add_argument("--potential", required=True)
    q.set_defaults(func=cmd_ruelle_keane)
    q = rsub.add_parser("trig", help="the trigonometric Keane potential")
    _add_matrix_arg(q)
    _add_spectral_flags(q)
    _add_cap(q)
    q.add_argument("--level", type=int, required=True,
                   help="cylinder sampling level")
    q.add_argument("--out")
    q.set_defaults(func=cmd_ruelle_trig)
    q = rsub.add_parser("walk", help="walk-measure probabilities per cylinder")
    _add_walk_flags(q)

    p = sub.add_parser("walk", help="alias of `ruelle walk`")
    _add_walk_flags(p)

    p = sub.add_parser("sierpinski", help="planar fractal data and rendering")
    ssub = p.add_subparsers(dest="sverb", required=True)
    q = ssub.add_parser("info", help="D and both dimension exponents")
    _add_matrix_arg(q, lax_option=True)
    q.set_defaults(func=cmd_sierpinski_info)
    q = ssub.add_parser("cells", help="enumerate depth-k cells")
    _add_matrix_arg(q, lax_option=True)
    _add_cap(q)
    q.add_argument("--depth", type=int, required=True)
    q.set_defaults(func=cmd_sierpinski_cells)
    q = ssub.add_parser("render", help="rasterize to PGM")
    _add_matrix_arg(q, lax_option=True)
    _add_cap(q)
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--res", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_sierpinski_render)
    q = ssub.add_parser("induced", help="the pair-shift matrix")
    _add_matrix_arg(q, lax_option=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_sierpinski_induced)

    p = sub.add_parser("graph", help="edge-shift data and graph wavelets")
    gsub = p.add_subparsers(dest="gverb", required=True)
    q = gsub.add_parser("perron", help="edge-matrix Perron data")
    q.add_argument("--graph", required=True, help="graph file")
    _add_spectral_flags(q)
    q.set_defaults(func=cmd_graph_perron)
    q = gsub.add_parser("wavelets", help="path wavelets and their integrals")
    q.add_argument("--graph", required=True, help="graph file")
    _add_spectral_flags(q)
    _add_cap(q)
    q.add_argument("--v0", type=int, required=True, help="base vertex")
    q.add_argument("--e0", type=int, required=True, help="base edge into v0")
    q.add_argument("--depth", type=int, required=True)
    q.set_defaults(func=cmd_graph_wavelets)

    return parser


def run(argv):
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or 0
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 64
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 66
    except NoConvergence as exc:
        print("no convergence: %s" % exc, file=sys.stderr)
        return 70
    except DataError as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 65
    except CantorError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 65
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
