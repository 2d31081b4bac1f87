"""Harmonic analysis on Cantor sets cut out by 0-1 admissibility matrices.

A matrix A picks the closed subset of [0,1] of n-adic expansions whose
consecutive digit pairs satisfy A[d_k, d_{k+1}] = 1.  The package computes
the Perron eigendata and measure of maximal entropy, represents the
Cuntz-Krieger generators on cylinder functions, builds the associated
wavelet bases, runs weighted transfer operators and their walk measures,
lifts matrices to planar fractals, and does the same constructions on the
edge shift of a finite directed graph.
"""

from .core import (
    AdmissibilityMatrix,
    CylinderFunction,
    Point,
    compose_shift,
    enumerate_words,
    is_admissible,
    multiply,
    nadic_value,
    prepend,
    refine,
    shift,
    validate_matrix,
    word_count,
    word_index,
)
from .errors import (
    CantorError,
    CapExceeded,
    DataError,
    NoConvergence,
    UsageError,
)
from .graphs import (
    DirectedGraph,
    GraphWaveletSet,
    build_graph_wavelets,
    directed_graph,
    edge_matrix,
    graph_perron,
    path_integrals,
    paths_from,
    psi_on_vertices,
    psi_path,
    vertex_measure,
)
from .operators import (
    BorelSet,
    apply_S,
    apply_S_star,
    apply_S_word,
    borel_set,
    ck_relations_residual,
    fourier_approx,
    fourier_tail_bound,
    kms_letter_ratio,
    kms_state,
    measure_mu_f,
    pf_fixed_point,
    pf_operator,
)
from .ruelle import (
    PointwisePotential,
    constant_potential,
    harmonic_truncated,
    keane_residual,
    preimage_keane_residual,
    ruelle_apply,
    trig_potential,
    walk_layer_mass,
    walk_measure,
)
from .sierpinski import (
    SierpinskiSpec,
    cells,
    embed_xi,
    induced_matrix,
    render_pgm,
    sierpinski_cuntz_rep,
    sierpinski_spec,
)
from .spectral import (
    PerronData,
    cylinder_measure,
    inner_product,
    measure_array,
    norm,
    perron_data,
    self_similarity_residual,
)
from .wavelets import (
    MotherWaveletSet,
    WaveletCoefficients,
    analyze,
    basis_function,
    basis_labels,
    build_mother_wavelets,
    detail_keys,
    scaling_function,
    synthesize,
    wavelet,
    weighted_complement_basis,
)

__version__ = "0.1.0"
