"""Central numerical tolerances.

Every comparison threshold used by the library lives here so that tests,
library code, and the CLI agree on what "equal" means.
"""

from ._record import Record


class Tolerances(Record):
    hermitian: float = 1e-12        # |M - M^dag| max-norm for Hermiticity
    trace: float = 1e-12            # |Tr(rho) - 1|
    positivity: float = 1e-10       # smallest density-matrix eigenvalue floor
    orthonormal: float = 1e-10      # |<v_i|v_j> - delta_ij|
    reconstruction: float = 1e-10   # |sum E_n |v_n><v_n| - M| per max(1, |E|max)
    imag_residue: float = 1e-10     # imaginary part allowed in real expectations
    population: float = 1e-10       # population range and sum checks
    population_snap: float = 1e-14  # sub-rounding measurement noise floor
    passivity: float = 1e-10        # slack in nonincreasing-population test
    channel: float = 1e-10          # trace-preserving / unital / stochastic sums
    unit_vector: float = 1e-12      # spin-direction normalization
    gap_ratio: float = 1e-10        # uniform gap-ratio comparison
    conservation: float = 1e-12     # W = -(Qh+Qc) and flux-sum identities
    identity_check: float = 1e-10   # efficiency-ratio identity
    theorem_slack: float = 1e-10    # energy-change floor for unital channels


TOL = Tolerances()
