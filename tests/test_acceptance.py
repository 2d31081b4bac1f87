"""The package's numbered acceptance checks, one test per guarantee.

Every check is anchored to a value known in closed form (exact dimensions,
Lebesgue measure, golden-ratio eigendata, identities that are theorems), so
each tolerance below measures floating-point error only.  Check 7 carries one
strict xfail: the cosine potential cannot satisfy the preimage-sum identity
on the Schottky matrix, whose column supports are never full residue systems
mod 3, so the identity genuinely fails there (residual 1/2 at x = 0).
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cantorkit import core, graphs, operators, ruelle, sierpinski, spectral, wavelets

T_SAMPLES = np.linspace(-20.0, 20.0, 50)


def _level_basis(matrix, k):
    nw = core.word_count(matrix, k)
    eye = np.eye(nw, dtype=np.complex128)
    return [core.CylinderFunction(matrix, k, eye[i]) for i in range(nw)]


def _maxdiff(f, g):
    m = max(f.level, g.level)
    d = core.refine(f, m).coeffs - core.refine(g, m).coeffs
    return float(np.max(np.abs(d)))


def _proj(a, f, pd):
    return operators.apply_S_word(
        a, operators.apply_S_word(a, f, pd, adjoint=True), pd)


def test_01_schottky_dimension_anchor(schottky4):
    t0 = time.perf_counter()
    pd = spectral.perron_data(schottky4)
    elapsed = time.perf_counter() - t0
    assert abs(pd.delta - 0.7924812503605781) <= 1e-10
    assert abs(pd.delta - math.log(3) / math.log(4)) <= 1e-10
    assert float(np.max(np.abs(pd.p - 0.25))) <= 1e-10
    assert elapsed < 0.1


def test_02_full_shift_lebesgue_oracle(full2_pd):
    assert abs(full2_pd.delta - 1.0) <= 1e-12
    for k in range(1, 9):
        masses = spectral.measure_array(full2_pd, k)
        assert len(masses) == 2 ** k
        assert float(np.max(np.abs(masses - 0.5 ** k))) <= 1e-12


def test_03_operator_relation_suite(full2_pd, tri3_pd, schottky4_pd):
    t0 = time.perf_counter()
    worst = 0.0
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        mat = pd.matrix
        for K in range(2, 6):
            worst = max(worst, operators.ck_relations_residual(pd, K))
        # projection nesting: P(a) P(ab) = P(ab) whenever a prefixes ab
        for f in _level_basis(mat, 3):
            for ab in core.enumerate_words(mat, 2):
                inner = _proj(ab, f, pd)
                worst = max(worst, _maxdiff(_proj(ab[:1], inner, pd), inner))
        # the transfer operator is the adjoint of (1/sqrt r) sum_i S_i
        rootr = math.sqrt(pd.radius)
        gs = _level_basis(mat, 1)
        summed = []
        for g in gs:
            acc = None
            for i in range(mat.n):
                term = operators.apply_S(i, g, pd)
                acc = term if acc is None else acc + term
            summed.append(acc)
        for f in _level_basis(mat, 2):
            pf_f = operators.pf_operator(f, pd)
            for g, sg in zip(gs, summed):
                lhs = spectral.inner_product(pf_f, g, pd)
                rhs = spectral.inner_product(f, sg, pd) / rootr
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-11
    assert time.perf_counter() - t0 < 5.0


def test_04_fixed_point_and_kms(full2_pd, tri3_pd, schottky4_pd):
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        h = operators.pf_fixed_point(pd)
        assert spectral.norm(operators.pf_operator(h, pd) - h, pd) <= 1e-10
        target = float(pd.matrix.n) ** pd.delta
        for i in range(pd.matrix.n):
            assert abs(operators.kms_letter_ratio(i, pd) - target) <= 1e-9


def test_05_wavelet_completeness(full2_pd, tri3_pd, schottky4_pd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        mat = pd.matrix
        mw = wavelets.build_mother_wavelets(pd)
        for K in range(1, 6):
            labels = wavelets.basis_labels(mw, K)
            assert len(labels) == core.word_count(mat, K)
            rows = np.array(
                [core.refine(wavelets.basis_function(mw, lab), K).coeffs
                 for lab in labels])
            gram = (rows * spectral.measure_array(pd, K)) @ rows.conj().T
            dev = gram - np.eye(len(labels))
            assert float(np.max(np.abs(dev))) <= 1e-10
        for trial in range(20):
            K = trial % 5 + 1
            nw = core.word_count(mat, K)
            coeffs = rng.standard_normal(nw) + 1j * rng.standard_normal(nw)
            f = core.CylinderFunction(mat, K, coeffs)
            back = wavelets.synthesize(wavelets.analyze(f, mw), mw, K)
            assert float(np.max(np.abs(back.coeffs - f.coeffs))) <= 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_06_fourier_scaling_law(full2_pd, tri3_pd, schottky4_pd):
    rng = np.random.default_rng(7)
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        mat, n = pd.matrix, pd.matrix.n
        nw = core.word_count(mat, 2)
        coeffs = rng.standard_normal(nw) + 1j * rng.standard_normal(nw)
        coeffs /= math.sqrt(float(
            np.sum(np.abs(coeffs) ** 2 * spectral.measure_array(pd, 2))))
        f = core.CylinderFunction(mat, 2, coeffs)
        pieces = [operators.apply_S_star(j, f, pd) for j in range(n)]
        for k in range(1, 7):
            for t in T_SAMPLES:
                lhs = operators.fourier_approx(f, t, k, pd)
                rhs = sum(
                    cmath.exp(1j * t * j / n)
                    * operators.fourier_approx(pieces[j], t / n, k - 1, pd)
                    for j in range(n))
                assert abs(lhs - rhs) <= 1e-12
    # on the full shift the transform of the constant telescopes to a product
    one = core.CylinderFunction.constant(full2_pd.matrix, 1.0)
    for k in range(1, 7):
        for t in T_SAMPLES:
            prod = 1.0 + 0.0j
            for m in range(1, k + 1):
                prod *= 0.5 * (1.0 + cmath.exp(1j * t * 2.0 ** -m))
            assert abs(operators.fourier_approx(one, t, k, full2_pd)
                       - prod) <= 1e-12
    # refining four more levels moves the transform by at most 2|t| N^-k
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        mass_one = core.CylinderFunction.constant(pd.matrix, 1.0)
        n = pd.matrix.n
        for k in range(1, 7):
            for t in T_SAMPLES:
                diff = abs(operators.fourier_approx(mass_one, t, k, pd)
                           - operators.fourier_approx(mass_one, t, k + 4, pd))
                assert diff <= operators.fourier_tail_bound(t, k, n)


def test_07_keane_suite(full2_pd, tri3_pd, schottky4_pd):
    # cosine potential: exact preimage-sum identity where the column
    # supports form complete residue systems (>= 100 sample points each)
    for pd, level in ((full2_pd, 7), (tri3_pd, 6)):
        assert core.word_count(pd.matrix, level) >= 100
        _, pointwise = ruelle.trig_potential(pd, 2)
        assert ruelle.preimage_keane_residual(pointwise, pd, level) <= 1e-12
    # the constant potential 1/r turns the weighted preimage sum into the
    # transfer operator, branch for branch
    rng = np.random.default_rng(11)
    for pd in (full2_pd, tri3_pd, schottky4_pd):
        mat = pd.matrix
        nw = core.word_count(mat, 3)
        f = core.CylinderFunction(
            mat, 3, rng.standard_normal(nw) + 1j * rng.standard_normal(nw))
        w_fn = core.CylinderFunction.constant(mat, 1.0 / pd.radius)
        assert _maxdiff(ruelle.ruelle_apply(w_fn, f, pd),
                        operators.pf_operator(f, pd)) <= 1e-14
    # walks under a Keane potential: each layer has unit mass and every
    # cylinder's mass is the sum over its one-step extensions
    cases = []
    for pd in (full2_pd, tri3_pd):
        cases.append((pd, ruelle.trig_potential(pd, 2)[1]))
    for pd in (full2_pd, schottky4_pd):  # constant column sums
        cases.append((pd, ruelle.constant_potential(1.0 / pd.radius)))
    for pd, potential in cases:
        mat = pd.matrix
        for start in core.enumerate_words(mat, 2)[:3]:
            x = core.nadic_value(start, mat.n)
            for k in range(1, 5):
                mass = ruelle.walk_layer_mass(x, potential, mat, k)
                assert abs(mass - 1.0) <= 1e-12
            for klen in range(1, 4):
                for a in core.enumerate_words(mat.transpose, klen):
                    whole = ruelle.walk_measure(x, potential, a, mat)
                    split = sum(
                        ruelle.walk_measure(x, potential, a + (d,), mat)
                        for d in range(mat.n) if mat.rows[d][a[-1]])
                    assert abs(whole - split) <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "the cosine potential cannot satisfy the preimage-sum identity on the "
    "Schottky matrix: its column supports have size 3 but are never full "
    "residue systems mod 3, so the three unit-circle samples do not cancel "
    "(the defect is exactly 1/2 at x = 0)"))
def test_07_trig_keane_schottky(schottky4_pd):
    assert core.word_count(schottky4_pd.matrix, 4) >= 100
    _, pointwise = ruelle.trig_potential(schottky4_pd, 2)
    assert ruelle.preimage_keane_residual(pointwise, schottky4_pd, 4) <= 1e-12


def test_08_sierpinski_counts(full2, tri3, schottky4):
    for mat, d_expect in ((full2, 4), (tri3, 7), (schottky4, 12)):
        spec = sierpinski.sierpinski_spec(mat)
        assert spec.D == d_expect
        for depth in range(1, 5):
            assert len(sierpinski.cells(spec, depth)) == d_expect ** depth
        # pixel counts are exact once the grid subdivides every cell
        n = mat.n
        res = 2 * n ** 2
        img = sierpinski.render_pgm(spec, 2, res)
        dark = int(np.count_nonzero(img == 0))
        assert Fraction(dark, res * res) == Fraction(d_expect, n * n) ** 2
        # pair-shift row sums follow the second letter of the pair
        induced = sierpinski.induced_matrix(spec)
        for t, (_, j) in enumerate(spec.letter_map):
            assert sum(induced.rows[t]) == mat.row_sums[j]
        # the diagonal embedding is a cell-valued injection on words
        w6 = core.enumerate_words(mat, 6)
        images = [sierpinski.embed_xi(w) for w in w6]
        assert all(sierpinski.cell_is_valid(spec, c) for c in images)
        assert len(set(images)) == len(w6)


def test_09_graph_wavelets():
    g = graphs.directed_graph(2, ((0, 1), (1, 0), (1, 1)))
    assert abs(graphs.graph_perron(g).radius - (1 + math.sqrt(5)) / 2) <= 1e-10
    # base vertex u = 0; its only incoming edge (1) has a single successor,
    # so every level range is empty and the sums are vacuous —
    # which the report must say out loud rather than hide behind a zero
    gw = graphs.build_graph_wavelets(g, 0, 1)
    for k in range(1, 4):
        rep = graphs.path_integrals(gw, k)
        assert rep.n_tuples == 0
        assert rep.max_mean_residual <= 1e-11
        assert rep.max_gram_residual <= 1e-11
    # a bouquet of three loops runs the same sums non-vacuously, with 2^k
    # level tuples per depth (constant out-degree keeps every tuple valid
    # on every path, which is what the product identity needs)
    g3 = graphs.directed_graph(1, ((0, 0), (0, 0), (0, 0)))
    gw3 = graphs.build_graph_wavelets(g3, 0, 0)
    for k in range(1, 4):
        rep = graphs.path_integrals(gw3, k)
        assert rep.n_tuples == 2 ** k
        assert rep.max_mean_residual <= 1e-11
        assert rep.max_gram_residual <= 1e-11
    # both modules must produce the same coefficient rows, bit for bit
    em = graphs.edge_matrix(g)
    for e in range(len(g.edges)):
        rows = wavelets.weighted_complement_basis(gw.pd.p, em.successors[e])
        assert len(rows) == len(gw.c[e])
        for mine, theirs in zip(gw.c[e], rows):
            assert np.array_equal(mine, theirs)


@pytest.mark.xfail(strict=True, reason=(
    "with base vertex v = 1 the level tuple (1, 1) is valid on the loop "
    "branch but not on the branch through the out-degree-1 edge, so the "
    "depth-2 Gram sum keeps only the loop branch's mass (exactly 2 - phi); "
    "the product identity needs every tuple valid on every branch, which "
    "only constant out-degree graphs guarantee"))
def test_09_three_edge_nonvacuous_gram():
    g = graphs.directed_graph(2, ((0, 1), (1, 0), (1, 1)))
    gw = graphs.build_graph_wavelets(g, 1, 0)
    rep = graphs.path_integrals(gw, 2)
    assert rep.n_tuples > 0
    assert rep.max_gram_residual <= 1e-11


def test_10_cli_determinism(tmp_path, capsys):
    from test_cli import FULL2, GRAPH3, LOOPS3, SCHOTTKY4, SIGNAL2, SIGNAL3, TRI3
    from cantorkit.cli import run

    def documented_commands(out):
        return [
            ["perron", "--matrix", TRI3],
            ["words", "--matrix", TRI3, "--level", "3"],
            ["measure", "--matrix", TRI3, "--word", "12"],
            ["op", "s", "--matrix", TRI3, "--i", "1", "--signal", SIGNAL3],
            ["op", "sstar", "--matrix", TRI3, "--i", "0", "--signal", SIGNAL3],
            ["op", "word", "--matrix", TRI3, "--word", "11", "--adjoint",
             "--signal", SIGNAL3],
            ["op", "pf", "--matrix", TRI3, "--signal", SIGNAL3],
            ["op", "fixed-point", "--matrix", TRI3],
            ["op", "ck", "--matrix", SCHOTTKY4, "--level", "3"],
            ["fourier", "--matrix", FULL2, "--signal", SIGNAL2,
             "--level", "6", "--tmin", "-20", "--tmax", "20", "--tcount", "11"],
            ["kms", "--matrix", TRI3, "--a", "12", "--b", "12"],
            ["kms", "--matrix", TRI3, "--letter", "1"],
            ["wavelets", "build", "--matrix", TRI3],
            ["wavelets", "analyze", "--matrix", TRI3, "--signal", SIGNAL3,
             "--out", str(out / "coeffs.txt")],
            ["wavelets", "synthesize", "--matrix", TRI3,
             "--coeffs", str(out / "coeffs.txt"), "--compare", SIGNAL3,
             "--out", str(out / "resynth.txt")],
            ["ruelle", "trig", "--matrix", TRI3, "--level", "3",
             "--out", str(out / "trig.txt")],
            ["ruelle", "keane", "--matrix", TRI3,
             "--potential", str(out / "trig.txt")],
            ["ruelle", "apply", "--matrix", TRI3,
             "--potential", str(out / "trig.txt"), "--signal", SIGNAL3,
             "--out", str(out / "applied.txt")],
            ["walk", "--matrix", TRI3, "--x", "1", "--depth", "3"],
            ["sierpinski", "info", "--matrix", SCHOTTKY4],
            ["sierpinski", "cells", "--matrix", TRI3, "--depth", "2"],
            ["sierpinski", "induced", "--matrix", FULL2],
            ["sierpinski", "render", "--matrix", SCHOTTKY4, "--depth", "2",
             "--res", "32", "--out", str(out / "carpet.pgm")],
            ["graph", "perron", "--graph", GRAPH3],
            ["graph", "wavelets", "--graph", LOOPS3, "--v0", "0",
             "--e0", "0", "--depth", "2"],
        ]

    def run_all(out):
        out.mkdir()
        transcript = []
        for argv in documented_commands(out):
            assert run(argv) == 0, argv
            transcript.append(capsys.readouterr().out)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return transcript, files

    first = run_all(tmp_path / "first")
    second = run_all(tmp_path / "second")
    assert first[0] == second[0]
    assert first[1] == second[1]
