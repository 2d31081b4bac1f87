import itertools
import math
import os

import numpy as np
import pytest

from cantorkit import cli, core, fileio, graphs, spectral, wavelets
from cantorkit.errors import (
    BaseEdgeMismatch,
    CapExceeded,
    IndexOutOfRange,
    LevelOutOfRange,
    NotComposable,
    SinkFound,
)
from conftest import tables_in
import oracles

GOLDEN = (1 + math.sqrt(5)) / 2


def three_edge_graph():
    # vertices u = 0, v = 1; edges e0: u->v, e1: v->u, e2: v->v
    return graphs.directed_graph(2, ((0, 1), (1, 0), (1, 1)))


def complete2_graph():
    return graphs.directed_graph(2, ((0, 0), (0, 1), (1, 0), (1, 1)))


def loops3_graph():
    return graphs.directed_graph(1, ((0, 0), (0, 0), (0, 0)))


def input_graph(name):
    inputs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "inputs")
    with open(os.path.join(inputs, name)) as fh:
        return fileio.parse_graph(fh.read())


def base_pairs(g):
    """Every (v0, e0) with e0 an edge into v0."""
    return [(g.range(e0), e0) for e0 in range(len(g.edges))]


def uneven_graph():
    # out-degrees 2, 3, 2, 1, 3: the tuple (1, 2) lives only below 0 -> 1, whose
    # next edges have at most one level, while 0 -> 2 -> 4 has two
    return graphs.directed_graph(5, ((0, 1), (0, 2), (1, 3), (1, 0), (1, 2), (3, 0),
                                     (2, 4), (2, 0), (4, 0), (4, 1), (4, 2)))


def valid_level_tuples(gw, path):
    """Level tuples usable on this path; empty when any position has d = 1."""
    ranges = []
    prev = gw.e0
    for e in path:
        if gw.d[prev] < 2:
            return []
        ranges.append(range(1, gw.d[prev]))
        prev = e
    return [tuple(t) for t in itertools.product(*ranges)]


def test_directed_graph_validation():
    with pytest.raises(SinkFound):
        graphs.directed_graph(2, ((0, 1),))  # vertex 1 has no way out
    with pytest.raises(IndexOutOfRange):
        graphs.directed_graph(2, ((0, 2), (1, 0)))


def test_out_edges_sorted():
    g = graphs.directed_graph(2, ((1, 0), (0, 1), (0, 0), (1, 1)))
    assert g.out_edges == ((1, 2), (0, 3))


def test_edge_matrix_three_edges():
    # A[e, e'] = 1 iff e' starts where e ends
    g = three_edge_graph()
    em = graphs.edge_matrix(g)
    assert em.rows == ((0, 1, 1), (1, 0, 0), (0, 1, 1))
    assert not em.strict


def test_edge_shift_counts_fibonacci():
    # paths in the 3-edge graph grow like the golden ratio
    g = three_edge_graph()
    em = graphs.edge_matrix(g)
    counts = [core.word_count(em, k) for k in range(1, 8)]
    assert counts == [3, 5, 8, 13, 21, 34, 55]


def test_graph_perron_golden_ratio():
    pd = graphs.graph_perron(three_edge_graph())
    assert pd.radius == pytest.approx(GOLDEN, abs=1e-10)
    # p is the edge eigenvector: p_e0 = p_e2, normalized to sum 1
    assert pd.p[0] == pytest.approx(pd.p[2], abs=1e-9)
    assert pd.p.sum() == pytest.approx(1.0, abs=1e-12)
    # closed form: p = (2-phi, 2 phi-3, 2-phi), the sum-1 eigenvector
    np.testing.assert_allclose(
        pd.p, [2 - GOLDEN, 2 * GOLDEN - 3, 2 - GOLDEN], atol=1e-9)


def test_vertex_measure_shortest_path():
    g = three_edge_graph()
    pd = graphs.graph_perron(g)
    vm = oracles.vertex_measure(g, 0, pd.p)
    assert vm[0] == 0.0
    # one step u -> v along e0
    assert vm[1] == pytest.approx(pd.p[0], abs=1e-10)
    vm_back = oracles.vertex_measure(g, 1, pd.p)
    assert vm_back[0] == pytest.approx(pd.p[1], abs=1e-10)


def test_vertex_measure_lex_min_tie_break():
    # two length-1 routes 0 -> 1 (edges 0 and 1): the smaller edge id wins
    g = graphs.directed_graph(2, ((0, 1), (0, 1), (1, 0)))
    vm = oracles.vertex_measure(g, 0, (0.2, 0.5, 0.3))
    assert vm[1] == pytest.approx(0.2)


def test_vertex_measure_unreachable_warns():
    g = graphs.directed_graph(2, ((0, 0), (1, 0)))
    with pytest.warns(UserWarning):
        vm = oracles.vertex_measure(g, 0, (0.5, 0.5))
    assert vm[1] == 0.0


def test_build_graph_wavelets_validates_base():
    g = three_edge_graph()
    with pytest.raises(BaseEdgeMismatch):
        graphs.build_graph_wavelets(g, 0, 0)  # e0 ends at vertex 1, not 0
    with pytest.raises(IndexOutOfRange):
        graphs.build_graph_wavelets(g, 2, 0)


def test_coefficients_bit_compatible_with_wavelet_module():
    # the graph module must call the same complement construction, on the
    # edge matrix successors, with the edge Perron weights — bit for bit
    g = complete2_graph()
    gw = graphs.build_graph_wavelets(g, 0, 0)
    em = graphs.edge_matrix(g)
    for e in range(len(g.edges)):
        vecs = wavelets.weighted_complement_basis(gw.pd.p, em.successors[e])
        assert len(vecs) == len(gw.c[e])
        for mine, theirs in zip(gw.c[e], vecs):
            assert np.array_equal(np.asarray(mine), np.asarray(theirs))


def test_graph_coefficients_need_no_level_two_tables(tmp_path, capsys):
    # the complement vectors alone: the line's mother functions would build level 2
    # (9 words on loops3), over a cap of 6 that depth 1 fits (2 tuples x 3 paths)
    g = loops3_graph()
    with core.budget(6):
        gw = graphs.build_graph_wavelets(g, 0, 0)
        with pytest.raises(CapExceeded):
            wavelets.build_mother_wavelets(gw.pd)
    assert [[v.tobytes() for v in vecs] for vecs in gw.c] == [
        [v.tobytes() for v in vecs] for vecs in wavelets.build_mother_wavelets(gw.pd).c]
    path = tmp_path / "loops3.txt"
    path.write_text(oracles.format_graph(g))
    argv = ["graph", "wavelets", "--graph", str(path), "--v0", "0", "--e0", "0", "--depth", "1"]
    assert cli.run(argv + ["--cap", "6"]) == 0
    assert cli.run(argv + ["--cap", "5"]) == 66
    capsys.readouterr()


def test_paths_from_enumeration():
    g = complete2_graph()
    gw = graphs.build_graph_wavelets(g, 0, 0)
    paths = oracles.paths_from(gw, 2)
    assert paths == [(0, 0), (0, 1), (1, 2), (1, 3)]
    assert len(oracles.paths_from(gw, 3)) == 8


def reference_paths_from(gw, k):
    """The per-level path loop that paths_from ran before paths were edge-shift words."""
    g = gw.graph
    paths = [()]
    for _ in range(k):
        paths = [pth + (e,)
                 for pth in paths
                 for e in g.out_edges[g.range(pth[-1]) if pth else gw.v0]]
    return paths


def test_path_count_matches_enumeration():
    for name in ("graph3.txt", "loops3.txt"):
        g = input_graph(name)
        for v0 in range(g.vertex_count):
            e0 = next(e for e in range(len(g.edges)) if g.range(e) == v0)
            gw = graphs.build_graph_wavelets(g, v0, e0)
            for k in range(7):
                paths = oracles.paths_from(gw, k)
                assert paths == reference_paths_from(gw, k)
                # the paths are read off W_k of the edge shift, which the budget counts
                n_words = core.word_count(gw.pd.matrix, k)
                with core.budget(n_words):
                    assert oracles.paths_from(gw, k) == paths
                with pytest.raises(CapExceeded), core.budget(n_words - 1):
                    oracles.paths_from(gw, k)


def test_psi_path_values_on_loops():
    gw = graphs.build_graph_wavelets(loops3_graph(), 0, 0)
    # uniform p = 1/3: the first complement vector is (sqrt2, -1/sqrt2, -1/sqrt2)
    c1 = gw.c[0][0]
    vals = [oracles.psi_path(gw, (e,), (1,)).real for e in range(3)]
    np.testing.assert_allclose(vals, c1, atol=1e-12)
    # depth 2 multiplies coefficients along the path
    v = oracles.psi_path(gw, (1, 2), (1, 2))
    assert v == pytest.approx(gw.c[0][0][1] * gw.c[1][1][2], abs=1e-12)


def test_psi_path_validation():
    gw = graphs.build_graph_wavelets(complete2_graph(), 0, 0)
    with pytest.raises(NotComposable):
        oracles.psi_path(gw, (2, 0), (1, 1))  # edge 2 starts at vertex 1
    with pytest.raises(NotComposable):
        oracles.psi_path(gw, (1, 0), (1, 1))  # e1 ends at 1, e0 starts at 0
    with pytest.raises(LevelOutOfRange):
        oracles.psi_path(gw, (0,), (2,))  # d = 2 allows only level 1
    with pytest.raises(LevelOutOfRange):
        oracles.psi_path(gw, (0,), ())
    with pytest.raises(IndexOutOfRange):
        oracles.psi_path(gw, (9,), (1,))


def test_valid_level_tuples():
    gw = graphs.build_graph_wavelets(loops3_graph(), 0, 0)
    assert valid_level_tuples(gw, (0, 1)) == [
        (1, 1), (1, 2), (2, 1), (2, 2)]
    # a position with d = 1 empties the whole tuple set
    g = three_edge_graph()
    gw2 = graphs.build_graph_wavelets(g, 1, 2)
    assert gw2.d[2] == 2 and gw2.d[1] == 1
    assert valid_level_tuples(gw2, (1, 0)) == []


def test_psi_levels_match_psi_path():
    # the level table against the per-path definitions, bit for bit
    cases = [(loops3_graph(), 0, 0)]
    # the out-edges of this graph's vertex 0 interleave with the others' (edges 0 and 2)
    interleaved = graphs.directed_graph(2, ((0, 0), (1, 0), (0, 1), (1, 1), (1, 1)))
    cases += [(g, v0, e0) for g in (input_graph("graph3.txt"), complete2_graph(), interleaved)
              for v0, e0 in base_pairs(g)]
    cases.append((uneven_graph(), 0, 5))
    assert len(cases) == 1 + 3 + 4 + 5 + 1
    for g, v0, e0 in cases:
        gw = graphs.build_graph_wavelets(g, v0, e0)
        for k in range(1, 6):
            tuples, paths, valid, psi, weights = graphs._psi_levels(gw, k)
            assert [tuple(pth) for pth in paths.tolist()] == oracles.paths_from(gw, k)
            paths = oracles.paths_from(gw, k)
            tuples = [tuple(t) for t in tuples.tolist()]
            assert tuples == sorted({t for pth in paths for t in valid_level_tuples(gw, pth)})
            assert valid.shape == psi.shape == (len(tuples), len(paths))
            for j, pth in enumerate(paths):
                weight = 1.0
                for e in pth:
                    weight *= gw.pd.p[e]
                assert weights[j] == weight
                on_path = valid_level_tuples(gw, pth)
                for i, t in enumerate(tuples):
                    assert valid[i, j] == (t in on_path)
                    expect = oracles.psi_path(gw, pth, t).real if t in on_path else 0.0
                    assert psi[i, j] == expect
                    assert math.copysign(1.0, psi[i, j]) == math.copysign(1.0, expect)


def test_graph_wavelets_prints_psi_on_every_valid_pair(tmp_path, capsys):
    # the CLI's lines, path by path and each path's tuples in order, against psi_path
    for g, v0, e0 in [(uneven_graph(), 0, 5), (input_graph("graph3.txt"), 1, 0)]:
        gw = graphs.build_graph_wavelets(g, v0, e0)
        path = tmp_path / "g.txt"
        path.write_text(oracles.format_graph(g))
        for k in range(1, 5):
            assert cli.run(["graph", "wavelets", "--graph", str(path), "--v0", str(v0),
                            "--e0", str(e0), "--depth", str(k)]) == 0
            lines = capsys.readouterr().out.splitlines()
            expect = ["%s %s %.15g" % (",".join(map(str, pth)), ",".join(map(str, t)),
                                       oracles.psi_path(gw, pth, t).real)
                      for pth in oracles.paths_from(gw, k) for t in valid_level_tuples(gw, pth)]
            assert lines[:len(expect)] == expect
            assert lines[len(expect)] == "n_paths = %d" % len(oracles.paths_from(gw, k))


def test_psi_budget_counts_paths_times_tuples():
    # depth 7 on loops3: 2,187 paths x 128 tuples = 279,936 psi entries
    gw = graphs.build_graph_wavelets(loops3_graph(), 0, 0)
    with core.budget(279936):
        assert graphs.path_integrals(gw, 7).n_paths == 2187
    with pytest.raises(CapExceeded, match="paths of length 7 are over the cap of 279935"), \
            core.budget(279935):
        graphs.path_integrals(gw, 7)
    with pytest.raises(CapExceeded, match="paths of length 10 "), core.budget(200000):
        graphs.path_integrals(gw, 10)
    # where the tuples outnumber the paths, the budget counts the Gram matrix:
    # 1,024 tuples over 53 paths at depth 5 here
    g = graphs.directed_graph(4, ((0, 0), (0, 2), (0, 2), (2, 1), (0, 3), (1, 0), (0, 3), (3, 2)))
    gw = graphs.build_graph_wavelets(g, 0, 0)
    with core.budget(1024 * 1024):
        rep = graphs.path_integrals(gw, 5)
        assert (rep.n_tuples, rep.n_paths) == (1024, 53)
    with pytest.raises(CapExceeded), core.budget(1024 * 1024 - 1):
        graphs.path_integrals(gw, 5)


def test_negative_depths_and_empty_levels_are_refused():
    gw = graphs.build_graph_wavelets(loops3_graph(), 0, 0)
    for k in (-1, -2):
        with pytest.raises(LevelOutOfRange):
            oracles.paths_from(gw, k)
        with pytest.raises(LevelOutOfRange):
            graphs.path_integrals(gw, k)
    with pytest.raises(LevelOutOfRange):
        graphs.path_integrals(gw, 0)
    with pytest.raises(LevelOutOfRange):
        oracles.psi_on_vertices(gw, ())
    assert oracles.paths_from(gw, 0) == [()]


def test_path_integrals_zero_mean_and_gram():
    for g, v0, e0 in ((loops3_graph(), 0, 0), (complete2_graph(), 0, 0)):
        gw = graphs.build_graph_wavelets(g, v0, e0)
        for k in (1, 2, 3):
            rep = graphs.path_integrals(gw, k)
            assert rep.n_tuples > 0
            assert rep.max_mean_residual <= 1e-11
            assert rep.max_gram_residual <= 1e-11


def test_path_integrals_vacuous_is_visible():
    # base edge e1 into vertex 0, whose single outgoing edge e0 has d = 1:
    # there are no wavelet levels at all, and the report must say so
    g = three_edge_graph()
    gw = graphs.build_graph_wavelets(g, 0, 1)
    assert gw.d[1] == 1
    rep = graphs.path_integrals(gw, 2)
    assert rep.n_tuples == 0
    assert rep.max_mean_residual == 0.0 and rep.max_gram_residual == 0.0


def test_psi_on_vertices_unique_paths():
    # 0 -> 1 and 0 -> 2 by distinct single edges; both target vertices are
    # reached exactly once, so the vertex-indexed values are well defined
    g = graphs.directed_graph(3, ((0, 1), (0, 2), (1, 0), (2, 0)))
    gw = graphs.build_graph_wavelets(g, 0, 2)
    vals = oracles.psi_on_vertices(gw, (1,))
    assert set(vals) == {1, 2}
    assert vals[1] == pytest.approx(oracles.psi_path(gw, (0,), (1,)))
    assert vals[2] == pytest.approx(oracles.psi_path(gw, (1,), (1,)))


def test_psi_on_vertices_detects_collisions():
    gw = graphs.build_graph_wavelets(complete2_graph(), 0, 0)
    with pytest.raises(oracles.MultiplePaths):
        oracles.psi_on_vertices(gw, (1, 1))


def test_vertex_projection_relation():
    # in the edge shift, S_e* S_e = sum over edges leaving r(e) of S_e' S_e'*;
    # check it via the generic relation residual on the edge matrix
    from cantorkit import operators

    pd = graphs.graph_perron(complete2_graph())
    assert operators.ck_relations_residual(pd, 3) <= 1e-11


def test_paths_grow_from_the_base_edge_with_no_word_table():
    # graph3 from v0 = 1: 55 of the 89 level-8 edge-shift words leave v0, and the paths
    # are grown from e0 alone, so the edge matrix's memo gains no table
    gw = graphs.build_graph_wavelets(input_graph("graph3.txt"), 1, 0)
    rep = graphs.path_integrals(gw, 8)
    assert tables_in(gw.pd.matrix._memo) == set()
    assert rep.n_paths == 55 and rep.paths.dtype == np.intp
    assert rep.max_mean_residual <= 1e-15
    assert rep.max_gram_residual == pytest.approx(0.9988137587103578, rel=1e-12)   # xfailed law
    paths = oracles.paths_from(gw, 8)
    assert [tuple(pth) for pth in rep.paths.tolist()] == paths
    tuples = [tuple(t) for t in rep.tuples.tolist()]
    for j, pth in enumerate(paths):
        on_path = valid_level_tuples(gw, pth)
        assert rep.valid[:, j].tolist() == [t in on_path for t in tuples]
        assert rep.psi[:, j].tolist() == [oracles.psi_path(gw, pth, t).real if t in on_path
                                          else 0.0 for t in tuples]
