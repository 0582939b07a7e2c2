"""Engine and efficiency decisions where the measurement injects almost
no heat.

The channel {sqrt(1 - eps) I, sqrt(eps) U}, with U swapping the -B and -J
eigenvectors of the qutrit, moves a population of order eps between the
two levels. Across eps in [1e-17, 1e-11] the population snap zeroes
none, one or both of the moved levels, so Qh is exactly 0.0 on some
rows and of order eps on others.
"""

import numpy as np

import ottosim as o


def _swap_channel(eps):
    """{sqrt(1 - eps) I, sqrt(eps) U} with U = V P V^dag: V holds the
    eigenvectors in label order, P swaps the -B and -J columns."""
    basis = o.labelled_basis(o.SubstanceSpec.qutrit(1.0))
    v = np.column_stack([basis[label] for label in ("+B", "-J", "-B")])
    swap = v @ np.column_stack(list(basis.values())).conj().T
    return o.kraus_channel([np.sqrt(1.0 - eps) * np.eye(3),
                            np.sqrt(eps) * swap])


def test_eta_raw_and_engine_mode_follow_qh_and_w_exactly():
    specs = [o.SubstanceSpec.qutrit(float(J))
             for J in np.linspace(0.05, 2.95, 59)]
    zero_heat = engines = 0
    for eps in np.geomspace(1e-17, 1e-11, 400):
        batch = o.run_cycle_batch(specs, 3.0, 4.0, o.BathSpec(1.0),
                                  o.Measurement(_swap_channel(float(eps))))
        assert np.array_equal(np.isnan(batch.eta_raw), batch.Qh == 0.0)
        assert np.array_equal(batch.engine_mode,
                              (batch.W < 0.0) & (batch.Qh > 0.0))
        zero_heat += int(np.count_nonzero(batch.Qh == 0.0))
        engines += int(np.count_nonzero(batch.engine_mode))
    # both decisions are exercised on both sides
    assert 0 < zero_heat < 23_600 and 0 < engines < 23_600
