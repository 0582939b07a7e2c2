"""Quantum Otto heat-engine simulator.

Small-dimension working substances (qubit, coupled qutrit, two-qubit
XXZ) cycled through the four-stroke Otto protocol, with the hot stroke
driven either by a thermal bath or by a non-selective quantum
measurement. Per-level heat fluxes expose how idle energy levels carry
heat between the strokes and move the efficiency away from 1 - Bi/Bf.
"""

from .channels import (KrausChannel, TransferMatrix, apply_channel,
                       channel_populations, damping_channel, energy_change,
                       is_minimally_disturbing, is_unital, kraus_channel,
                       projective_channel, transfer_matrix)
from .core import (BathSpec, DensityMatrix, HermitianOperator,
                   boltzmann_populations, energy_expectation, gibbs_state,
                   hermitian_eigensystem, is_passive, populations_in_basis)
from .cycle import (ClosedForm, CycleBatch, CycleConfig, CycleRecord,
                    Measurement, TwoBath, closed_form_two_bath_qutrit,
                    efficiency_ratio_identity, run_cycle, run_cycle_batch,
                    uniform_ratio_efficiency_check)
from .errors import (DimensionMismatch, DimensionTooLarge, InvalidField,
                     LengthMismatch, MeasurementCoolsWarning, NonUnitVector,
                     NotAnEngine, NotHermitian, NotTracePreserving,
                     OttoSimError)
from .measurements import (SpinDirection, Su3Angles, local_spin_channel,
                           su3_projective_channel, su3_projective_channels,
                           su3_states)
from .substances import (LabelledSpectrum, Level, SubstanceKind,
                         SubstanceSpec, build_hamiltonian,
                         check_uniform_gap_ratio, detect_level_crossing,
                         labelled_basis, labelled_spectrum)
from .sweeps import (EXTREME_ANGLES, SweepRange, SweepTable, format_value,
                     sweep_qutrit_contour, sweep_qutrit_extreme,
                     sweep_qutrit_measurement, sweep_qutrit_two_bath,
                     sweep_xxz, write_csv)
from .theorem1 import (Theorem1Report, random_unital_channel,
                       rearrangement_oracle, theorem1_suite)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "ClosedForm", "CycleBatch", "CycleConfig", "CycleRecord", "DensityMatrix",
    "DimensionMismatch", "DimensionTooLarge", "EXTREME_ANGLES",
    "HermitianOperator", "InvalidField", "KrausChannel", "LabelledSpectrum",
    "LengthMismatch", "Level", "Measurement", "MeasurementCoolsWarning",
    "NonUnitVector", "NotAnEngine", "NotHermitian", "NotTracePreserving",
    "OttoSimError", "SpinDirection", "Su3Angles", "SubstanceKind",
    "SubstanceSpec", "SweepRange", "SweepTable", "Theorem1Report", "TOL",
    "Tolerances", "TransferMatrix", "TwoBath", "apply_channel",
    "boltzmann_populations", "build_hamiltonian", "channel_populations",
    "check_uniform_gap_ratio", "closed_form_two_bath_qutrit",
    "damping_channel", "detect_level_crossing", "efficiency_ratio_identity",
    "energy_change", "energy_expectation", "format_value", "gibbs_state",
    "hermitian_eigensystem", "is_minimally_disturbing", "is_passive",
    "is_unital", "kraus_channel", "labelled_basis", "labelled_spectrum",
    "local_spin_channel", "populations_in_basis", "projective_channel",
    "random_unital_channel", "rearrangement_oracle", "run_cycle",
    "run_cycle_batch", "su3_projective_channel", "su3_projective_channels",
    "su3_states",
    "sweep_qutrit_contour",
    "sweep_qutrit_extreme", "sweep_qutrit_measurement",
    "sweep_qutrit_two_bath", "sweep_xxz", "theorem1_suite",
    "transfer_matrix", "uniform_ratio_efficiency_check", "write_csv",
]
