"""Statistics of n indistinguishable bosons in an n-port Fourier multiport."""

from .arrangements import (
    Arrangement,
    count_arrangements,
    dihedral_class_count,
    dihedral_orbit,
    enumerate_arrangements,
    partition_count,
    port_assignment,
    validate_arrangement,
)
from .cyclotomic import CyclotomicVector, cyclotomic_polynomial
from .errors import InvalidArrangementError, ResourceLimitError
from .scattering import (
    classical_probability,
    ck_decomposition,
    exact_integer_amplitude,
    exact_quantum_probability,
    fourier_unitary,
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
    census_row,
    class_table,
    distribution,
    suppressed_fraction_estimate,
)

__version__ = "0.1.0"
