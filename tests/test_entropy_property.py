"""The entropy ledger of the cycle kernel over random batches.

Batches are drawn as tests/test_cycle_batch.py draws them: every kind,
every protocol, damping channels included. Each row must meet the cold
identity of tests/test_entropy_ledger.py, each two-bath row the two-bath
identity, and each row of a unital measurement batch must not lower the
Shannon entropy of the populations.
"""

import math
import warnings

import numpy as np

import ottosim as o
from test_cycle_batch import batches, given, hypothesis
from test_entropy_ledger import (LEDGER_ULPS, U, cold_terms, entropy_terms,
                                 hot_terms, residual)


def _log_z(beta, spec, B):
    """A bound on |ln Z| of the Gibbs weights of spec at field B:
    Z lies in [e^(-beta max|E|), d e^(beta max|E|)]."""
    energies = [level.energy for level in o.labelled_spectrum(spec, B).levels]
    return beta * max(map(abs, energies)) + math.log(len(energies))


@hypothesis.settings(max_examples=120)
@given(batches())
def test_entropy_ledger_of_random_batches(args):
    """Both identities rest on ln p = -beta E - ln Z, and each population
    cell is a rounded one: a state's cells sum to 1 within a few U, and
    that defect enters the residual times ln Z. A measurement row's level
    with dp = 0 may have been snapped back by up to TOL.population_snap,
    and moves the sum by that much. So a row must meet LEDGER_ULPS U of
    its terms' magnitudes plus |ln Z| times the states' mass, and
    |ln Z| TOL.population_snap for each level with dp = 0.

    A unital channel's transfer matrix is doubly stochastic, so
    p_post = T p_cold is majorized by p_cold and S(p_post) >= S(p_cold).
    A channel flagged unital may miss sum M M^dag = 1 by up to
    TOL.channel. With row sums of T of 1 + e_m, data processing against
    the uniform state gives S(p_post) - S(p_cold) >= -sum_m p_post,m
    ln(1 + e_m), within 2 max|e_m|, and |e_m| is at most the spectral
    norm of sum M M^dag - 1.
    """
    specs, Bi, Bf, cold, protocol = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", o.MeasurementCoolsWarning)
        batch = o.run_cycle_batch(specs, Bi, Bf, cold, protocol)
    measured = isinstance(protocol, o.Measurement)
    snap = o.TOL.population_snap
    if measured:
        ops = np.array(protocol.channel.operators)
        unital_defect = np.linalg.norm(
            (ops @ ops.conj().swapaxes(-1, -2)).sum(axis=0)
            - np.eye(ops.shape[-1]), 2)
    for k, spec in enumerate(specs):
        p_cold, p_post = batch.p_cold[k].tolist(), batch.p_hot[k].tolist()
        mass = math.fsum(p_cold + p_post)
        still = [n for n, dp in enumerate(batch.delta_p[k]) if dp == 0.0]
        log_zc = _log_z(cold.beta, spec, Bi)

        res, scale = residual(cold_terms(cold.beta, batch.Qc[k], p_cold,
                                         p_post))
        snapped = len(still) * snap if measured else 0.0
        assert res <= LEDGER_ULPS * U * (scale + log_zc * mass) \
            + log_zc * snapped, (k, res, scale)

        if not measured:
            beta_h = protocol.hot.beta
            log_z = log_zc + _log_z(beta_h, spec, Bf)
            res, scale = residual(hot_terms(beta_h, batch.Qh[k], cold.beta,
                                            batch.Qc[k], p_cold, p_post))
            assert res <= LEDGER_ULPS * U * (scale + log_z * mass), \
                (k, res, scale)
        elif protocol.channel.unital:
            gain = [*entropy_terms(p_post),
                    *(-t for t in entropy_terms(p_cold))]
            slack = (LEDGER_ULPS * U * residual(gain)[1]
                     + 2 * unital_defect
                     + snap * math.fsum(abs(math.log(p_cold[n])) + 1
                                        for n in still if p_cold[n] > 0))
            assert math.fsum(gain) >= -slack, (k, math.fsum(gain), slack)
