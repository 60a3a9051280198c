"""Statistics of n indistinguishable bosons in an n-port Fourier multiport."""

from .arrangements import (
    Arrangement,
    ClassicalClass,
    QuantumClass,
    canonical_classical,
    canonical_quantum,
    count_arrangements,
    dihedral_class_count,
    dihedral_orbit,
    enumerate_arrangements,
    enumerate_classical_classes,
    enumerate_quantum_classes,
    partition_count,
    port_assignment,
    validate_arrangement,
)
from .cyclotomic import CyclotomicVector, cyclotomic_polynomial
from .errors import InvalidArrangementError, ResourceLimitError
from .scattering import (
    Amplitude,
    classical_probability,
    ck_decomposition,
    exact_integer_amplitude,
    exact_quantum_probability,
    fourier_unitary,
    is_suppressed_exact,
    permanent_naive,
    permanent_ryser,
    quantum_amplitude,
    quantum_probability,
    suppression_Q,
    verify_gamma_shift,
)
from .statistics import (
    ClassProbabilityRow,
    DistributionTable,
    Table1Row,
    class_probability_table,
    classical_class_distribution,
    distribution,
    enhancement,
    occupied_ports_distribution,
    port_occupancy_distribution,
    suppressed_fraction_estimate,
    table1,
)

__version__ = "0.1.0"
