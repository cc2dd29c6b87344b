"""Spectral bipartiteness measure vs odd girth: graphs, spectra, certificates,
bound formulas, and the exact k = 5 relaxation."""

from .bounds import (
    BoundEntry,
    CertificateReport,
    ChainCheck,
    broad_spectrum_bound,
    certify,
    csikvari_bound,
    cycle_lower_bound,
    gamma5_prime_value,
    high_lambda1_bound,
    main_bound,
)
from .errors import (
    ConvergenceError,
    GirthViolationError,
    Graph6ParseError,
    HypothesisError,
    InfeasibleError,
    UnsupportedSizeError,
)
from .gamma5prime import (
    ConstraintCheck,
    check_relaxed_constraints,
    extremal_sequence,
    f_of_s,
    maximize_objective,
    n_epsilon,
    objective_g,
    power_sum_max_closed_form,
    solve_simple,
)
from .graph_core import (
    INFINITE,
    Graph,
    LabeledGraphs,
    blow_up,
    complete_bipartite,
    cycle_graph,
    encode_graph6,
    odd_girth,
    parse_graph6,
    petersen_graph,
    read_graph6_lines,
)
from .odd_poly import chebyshev_T, chebyshev_T_recurrence
from .spectral import Spectrum, eigenvalues

__version__ = "0.1.0"
