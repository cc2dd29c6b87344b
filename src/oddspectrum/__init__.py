"""Spectral bipartiteness measure vs odd girth: graphs, spectra, certificates,
bound formulas, and the exact k = 5 relaxation."""

from .bounds import (
    BoundEntry,
    CertificateReport,
    ChainCheck,
    balogh_constant,
    broad_spectrum_bound,
    certify,
    csikvari_bound,
    cycle_lower_bound,
    gamma5_prime_value,
    high_lambda1_bound,
    main_bound,
    reports_to_csv,
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
    RelaxedSequence,
    check_relaxed_constraints,
    export_extremal_sequence,
    extremal_sequence,
    f_of_s,
    maximize_objective,
    n_epsilon,
    objective_g,
    power_sum_max_bruteforce,
    power_sum_max_closed_form,
    solve_simple,
)
from .graph_core import (
    INFINITE,
    Graph,
    blow_up,
    complete_bipartite,
    cycle_graph,
    encode_graph6,
    enumerate_labeled_graphs,
    is_bipartite,
    odd_girth,
    parse_graph6,
    petersen_graph,
    read_graph6_lines,
)
from .odd_poly import (
    FactoredOddPolynomial,
    OddPolynomial,
    ThresholdPartition,
    chebyshev_T,
    chebyshev_T_recurrence,
    high_lambda1_polynomial,
    odd_poly_spectrum_sum,
    threshold_partition,
)
from .spectral import (
    Spectrum,
    bipartiteness_measure,
    check_trace_identities,
    eigenvalues,
    power_sum,
    signless_laplacian_min_eig,
    trace_power,
    trace_powers,
)

__version__ = "0.1.0"
