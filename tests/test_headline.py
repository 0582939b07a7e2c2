"""The paper's headline claim at the extreme measurement angles.

At EXTREME_ANGLES the measurement leaves +B alone and equalizes -B and
-J, so the qutrit moves heat only through the -B/-J pair: every point is
an engine with eta = (Bf - Bi)/(Bf - J). No two-bath cycle at the same
fields and coupling beats it; the two-bath efficiency approaches it only
as both baths freeze out the +B level.
"""

import numpy as np

import ottosim as o

BI, BF = 3.0, 4.0


def _pair_efficiency(J):
    return (BF - BI) / (BF - J)


def test_extreme_measurement_runs_at_the_pair_efficiency():
    for beta_c in (0.1, 0.5, 1.0, 2.0, 5.0):
        table = o.sweep_qutrit_extreme(BI, BF, beta_c,
                                       o.SweepRange(0.1, 2.9, 57))
        for row in table.rows:
            cells = dict(zip(table.header, row))
            assert cells["engine_mode"] == 1
            # largest gap seen: 2.7e-13
            assert abs(cells["eta_raw"] - _pair_efficiency(cells["J"])) \
                <= 1e-12


def test_no_two_bath_engine_beats_the_extreme_measurement():
    engines = 0
    for J in np.linspace(0.05, 2.95, 59):
        for beta_c in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            for ratio in (0.1, 0.5, 0.9):
                cf = o.closed_form_two_bath_qutrit(float(J), BI, BF, beta_c,
                                                   ratio * beta_c)
                if cf.W < 0.0 and cf.Qh > 0.0:
                    engines += 1
                    # the bound is tight: at beta_c = 10, beta_h = 5 the
                    # largest excess is -3.0e-13
                    assert cf.eta <= _pair_efficiency(J)
    assert engines > 500
