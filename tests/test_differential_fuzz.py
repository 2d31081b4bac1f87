"""Derandomized differential fuzzing of the array kernels against their references.

Matrices are drawn with N = 1 to 5, strict (unit diagonal) or lax, and made
irreducible by a cycle through every letter; graphs with V = 1 to 4 and at
most 8 edges, made strongly connected the same way, so their edge matrices
are irreducible too.  On each, an array kernel is compared with the reference
form its own unit tests use, bit for bit wherever those tests compare bits:

- S_i, S_i* and pf against the batched loops of tests/test_operators.py;
- the Cuntz-Krieger residual against the whole level-K identity pushed through
  those batched loops, at K >= 2 with |W_K| at most MAX_DENSE_WORDS;
- the preimage sum behind R_W and the Keane residual against the prepend
  loops of tests/test_ruelle.py;
- the walk layers, started from a word, against `oracles.walk_measure` at the
  word's `oracles.nadic_value` point and the per-word loop;
- the cosine potential (its cylinder sampling, and the walk layers with its
  pointwise form), the pointwise Keane defect, the self-similarity residual and
  the inner product against the one-expression forms in tests/oracles.py;
- the psi table of `graphs.path_integrals` against `oracles.paths_from` and
  `oracles.psi_path`, its four tables and two residuals against those read
  through `oracles.stacked_psi_levels`, and each edge's coefficient vectors
  against a `wavelets.weighted_complement_basis` solve of its own;
- core's digit table, `fileio.word_column` and `core.rank` against the word
  tuples of `core.enumerate_words`;
- the Fourier sweep, regrouped by the last letter of each word's prefix, against
  one exp per level-k word, with k = 0, 1, 2 (an empty or one-letter suffix) and
  levels of f below, at and above k all drawn;
- the wavelet pyramid against the inner products with `oracles.basis_function`, its
  synthesis against the signal, and the coefficient and signal files, canonical
  and with their lines shuffled, against the values they were written from.

`hypothesis.event` names each example's input class.
"""

from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from cantorkit import core, fileio, graphs, operators, ruelle, spectral, wavelets
from test_fileio import _same_coefficients
from test_graphs import valid_level_tuples
from test_operators import (
    FOURIER_TS,
    batched_s,
    batched_sstar,
    dense_ck_residual,
    reference_fourier_approx,
    reference_pf,
)
from test_ruelle import (
    _three_input_potential,
    reference_keane_residual,
    reference_ruelle_apply,
    reference_walk_layer,
)

MAX_WALK_WORDS = 300    # the per-word references run one scalar call per word
MAX_PSI_ENTRIES = 1500  # and one psi_path call per (tuple, path) entry
MAX_RANKED = 200        # words ranked per example, evenly spaced, one scalar rank each
MAX_BASIS_WORDS = 500   # the inner products with every basis function are quadratic
MAX_DENSE_WORDS = 300   # and so is the dense identity of the CK residual's oracle


@st.composite
def irreducible_matrices(draw):
    n = draw(st.integers(1, 5))
    strict = n >= 2 and draw(st.booleans())
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rows = [[int(b) for b in bits[i * n:(i + 1) * n]] for i in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1   # the cycle 0 -> 1 -> ... -> N-1 -> 0
        rows[i][i] |= strict
    event("matrix N=%d %s" % (n, "strict" if strict else "lax"))
    return core.validate_matrix(rows, strict=strict)


@st.composite
def strongly_connected_graphs(draw):
    v = draw(st.integers(1, 4))
    vertex = st.integers(0, v - 1)
    edges = [(i, (i + 1) % v) for i in range(v)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=8 - v))
    edges = [edges[i] for i in draw(st.permutations(range(len(edges))))]
    event("graph V=%d E=%d" % (v, len(edges)))
    return graphs.directed_graph(v, edges)


def _bits(x):
    return np.asarray(x).tobytes()


def _signal(rng, matrix, k):
    size = core.word_count(matrix, k)
    return core.CylinderFunction(matrix, k, rng.normal(size=size) + 1j * rng.normal(size=size))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_generators_and_preimage_sums_match_their_loops(m, K, seed):
    pd, rng = spectral.perron_data(m), np.random.default_rng(seed)
    f = _signal(rng, m, K)
    g = core.refine(f, 2) if K <= 1 else f
    assert operators.pf_operator(f, pd).coeffs.tobytes() == reference_pf(f, pd).tobytes()
    for i in range(m.n):
        assert (operators.apply_S(i, f, pd).coeffs.tobytes()
                == batched_s(i, f.coeffs, K, pd).tobytes())
        assert (operators.apply_S_star(i, f, pd).coeffs.tobytes()
                == batched_sstar(i, g.coeffs, g.level, pd).tobytes())
    w_fn = core.CylinderFunction(m, K, rng.random(core.word_count(m, K)) / m.n)
    applied = ruelle.ruelle_apply(w_fn, f, pd)
    assert applied.coeffs.tobytes() == reference_ruelle_apply(w_fn, f, pd).tobytes()
    assert ruelle.keane_residual(w_fn, pd) == reference_keane_residual(w_fn, pd)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(2, 6))
def test_ck_residual_matches_the_dense_identity(m, K):
    K = max(k for k in range(2, K + 1) if core.word_count(m, k) <= MAX_DENSE_WORDS)
    pd = spectral.perron_data(m)
    assert operators.ck_relations_residual(pd, K) == dense_ck_residual(pd, K)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(0, 6))
def test_digit_table_and_word_column_match_the_word_tuples(m, K):
    words = core.enumerate_words(m, K)
    assert list(map(tuple, core._digit_table(m, K).tolist())) == list(words)
    assert fileio.word_column(m, K) == tuple(fileio.format_word(w, m.n) for w in words)
    step = -(-len(words) // MAX_RANKED)
    assert [core.rank(m, w) for w in words[::step]] == list(range(0, len(words), step))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(0, 6), st.data())
def test_walk_layers_match_walk_measure(m, K, data):
    pd, mt = spectral.perron_data(m), m.transpose
    start = data.draw(st.sampled_from(core.enumerate_words(m, 2)))
    x = oracles.nadic_value(start, m.n)
    depth = max(d for d in range(K + 1) if core.word_count(mt, d) <= MAX_WALK_WORDS)
    trig = ruelle.trig_potential(pd, 1)[1]
    for pot in (trig, ruelle.PointwisePotential(_three_input_potential)):
        layers = ruelle.walk_layers(start, pot, m, depth)
        for d, layer in enumerate(layers):
            assert layer.tolist() == reference_walk_layer(x, pot, m, d)
        assert [oracles.walk_measure(x, pot, a, m) for a in core.enumerate_words(mt, depth)] \
            == layers[depth].tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.data())
def test_potential_and_measure_kernels_match_their_one_expression_forms(m, K, seed, data):
    pd, rng = spectral.perron_data(m), np.random.default_rng(seed)
    cylinder, pointwise = ruelle.trig_potential(pd, K)
    assert cylinder.coeffs.tobytes() == oracles.trig_coefficients(pd, K).tobytes()
    start = data.draw(st.sampled_from(core.enumerate_words(m, 2)))
    once = ruelle.PointwisePotential(oracles.trig_evaluator(m))
    assert [_bits(layer) for layer in ruelle.walk_layers(start, pointwise, m, K)] \
        == [_bits(layer) for layer in ruelle.walk_layers(start, once, m, K)]
    for pot in (pointwise, ruelle.PointwisePotential(_three_input_potential)):
        for level in (0, K - 1, K):
            assert _bits(ruelle.preimage_keane_residual(pot, pd, level)) \
                == _bits(oracles.preimage_keane_residual(pot, pd, level))
    assert _bits(spectral.self_similarity_residual(pd, K)) \
        == _bits(oracles.self_similarity_residual(pd, K))
    f, g = _signal(rng, m, K), _signal(rng, m, data.draw(st.integers(0, K)))
    for a, b in ((f, g), (g, f), (f, f)):
        assert _bits(spectral.inner_product(a, b, pd)) == _bits(oracles.inner_product(a, b, pd))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(strongly_connected_graphs(), st.data())
def test_graph_psi_table_matches_psi_path(g, data):
    e0 = data.draw(st.integers(0, len(g.edges) - 1))
    gw = graphs.build_graph_wavelets(g, g.range(e0), e0)
    for e, succ in enumerate(gw.pd.matrix.successors):   # a solve of its own for each edge
        assert [v.tobytes() for v in gw.c[e]] \
            == [v.tobytes() for v in wavelets.weighted_complement_basis(gw.pd.p, succ)]
    for k in range(1, 5):
        rep = graphs.path_integrals(gw, k)
        with mock.patch.object(graphs, "_psi_levels", oracles.stacked_psi_levels):
            old = graphs.path_integrals(gw, k)   # the E x levels x E coefficient tensor
        for name in ("tuples", "paths", "valid", "psi"):
            new, was = getattr(rep, name), getattr(old, name)
            assert (new.dtype, new.shape, new.tobytes()) == (was.dtype, was.shape, was.tobytes())
        assert (rep.max_mean_residual, rep.max_gram_residual) \
            == (old.max_mean_residual, old.max_gram_residual)
        if rep.psi.size > MAX_PSI_ENTRIES:   # psi grows with k: the first level past it ends
            break
        paths = [tuple(pth) for pth in rep.paths.tolist()]
        assert paths == oracles.paths_from(gw, k)
        for j, pth in enumerate(paths):
            on_path = valid_level_tuples(gw, pth)
            for i, t in enumerate(map(tuple, rep.tuples.tolist())):
                assert rep.valid[i, j] == (t in on_path)
                expect = oracles.psi_path(gw, pth, t).real if t in on_path else 0.0
                assert rep.psi[i, j].tobytes() == np.float64(expect).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(0, 6), st.integers(0, 6),
       st.floats(-1e4, 1e4), st.integers(0, 2 ** 32 - 1))
def test_fourier_sweep_matches_one_exp_per_word(m, k, level, t, seed):
    event("fourier k=%s" % (k if k <= 2 else ">2"))
    event("f.level %s k" % ("<" if level < k else "=" if level == k else ">"))
    pd, rng = spectral.perron_data(m), np.random.default_rng(seed)
    f = _signal(rng, m, level)
    f = f * (1 / spectral.norm(f, pd))
    ts = FOURIER_TS + (t,)
    sweep = operators.fourier_sweep(f, ts, k, pd)
    # a fresh function per t, so each call bins its masses again rather than reading f's
    assert sweep == [operators.fourier_approx(core.CylinderFunction(m, level, f.coeffs), t, k, pd)
                     for t in ts]
    for t, fast in zip(ts, sweep):
        slow = reference_fourier_approx(f, t, k, pd)
        if t == 0:
            assert fast == slow
        assert abs(fast - slow) <= 1e-15 * max(1.0, abs(t))


def _shuffled(text, rng):
    head, *body = text.splitlines()
    order = rng.permutation(len(body))
    event("file lines %s" % ("shuffled" if (order != np.arange(len(body))).any() else "in order"))
    return "\n".join([head] + [body[i] for i in order]) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(irreducible_matrices(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_wavelet_round_trip_matches_the_basis_and_the_files(m, K, seed):
    event("wavelets K=%s" % (K if K <= 2 else ">2"))
    pd, rng = spectral.perron_data(m), np.random.default_rng(seed)
    mw = wavelets.build_mother_wavelets(pd)
    f = _signal(rng, m, K)
    wc = wavelets.analyze(f, mw)
    if core.word_count(m, K) <= MAX_BASIS_WORDS:
        basis = np.array([core.refine(oracles.basis_function(mw, label), K).coeffs
                          for label in oracles.basis_labels(mw, K)])
        flat = np.concatenate([wc.scaling, list(wc.detail.values())])   # basis_labels order
        oracle = np.conj(basis) @ (f.coeffs * spectral.measure_array(pd, K))
        assert np.max(np.abs(flat - oracle)) <= 1e-12
    assert np.max(np.abs(wavelets.synthesize(wc, mw, K).coeffs - f.coeffs)) <= 1e-12
    text = fileio.format_coefficients(wc, mw, K)
    for coefficients in (text, _shuffled(text, rng)):
        wc2, level = fileio.parse_coefficients(coefficients, m)
        assert level == K and _same_coefficients(wc2, wc)
    signal = fileio.format_signal(f)
    assert fileio.parse_signal(_shuffled(signal, rng), m).coeffs.tobytes() \
        == fileio.parse_signal(signal, m).coeffs.tobytes()
