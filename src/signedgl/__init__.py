"""Semi-supervised node classification on signed graphs.

Diffuse-interface classifiers built on the Ginzburg-Landau functional
over eigenbases of signed-graph Laplacians, together with the Laplacian
family itself, classical unsigned baselines, dataset tooling and an
experiment harness with a CLI (``signedgl``).
"""

from .baselines import harmonic_functions, local_global
from .classifier import (
    BinaryLabelData,
    DivergenceError,
    GLConfig,
    GLDiagnostics,
    MulticlassLabelData,
    energy,
    energy_gradient,
    gl_binary,
    gl_multiclass,
    multiclass_energy,
    simplex_project,
)
from .data import (
    LabelData,
    SSBMParams,
    generate_ssbm,
    graph_digest,
    load_labels,
    load_signed_edge_list,
    sample_labeled_nodes,
    ssbm_label_data,
    write_signed_edge_list,
)
from .graph import (
    DegreeVectors,
    SignedGraph,
    degrees,
    largest_connected_component,
    split_signs,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    accuracy,
    emit_csv,
    run_experiment,
)
from .laplacians import (
    OperatorHandle,
    OperatorKind,
    OperatorSpec,
    arithmetic_mean_laplacian,
    balance_ratio_laplacian,
    build_operator,
    signed_ratio_laplacian,
    signless_laplacian,
    sponge_operator,
    unsigned_laplacian,
)
from .spectral import (
    Eigenbasis,
    EigenSolveError,
    full_dense_eigs,
    load_eigenbasis,
    save_eigenbasis,
    smallest_eigs,
)

__version__ = "0.1.0"
