"""Shared test utilities: cycle shorthands and independent brute-force routes.

The oracle_* functions are deliberately plain numpy re-derivations that do
not touch the library's code paths, so tests can compare two routes.
"""

import numpy as np

import ottosim as o


def two_bath(spec, Bi=3.0, Bf=4.0, beta_c=1.0, beta_h=0.5):
    cfg = o.CycleConfig(spec=spec, Bi=Bi, Bf=Bf, cold=o.BathSpec(beta_c),
                        protocol=o.TwoBath(hot=o.BathSpec(beta_h)))
    return o.run_cycle(cfg)


def measurement(spec, channel, Bi=3.0, Bf=4.0, beta_c=1.0):
    cfg = o.CycleConfig(spec=spec, Bi=Bi, Bf=Bf, cold=o.BathSpec(beta_c),
                        protocol=o.Measurement(channel))
    return o.run_cycle(cfg)


def su3(theta, phi, chi, psi):
    return o.su3_projective_channel(
        o.Su3Angles(theta=theta, phi=phi, chi=chi, psi=psi))


def idle_flux_sum(rec):
    return sum(rec.per_level_flux_hot[label] for label in rec.idle_labels)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(rng, dim):
    """Random full-rank mixed state."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = a @ a.conj().T
    return p / np.trace(p).real


def random_direction(rng):
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    return o.SpinDirection(*v)


# Independent routes (no library calls).

def oracle_boltzmann(energies, beta):
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def oracle_apply(kraus_mats, rho):
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for m in kraus_mats:
        out += m @ rho @ np.asarray(m).conj().T
    return out


def oracle_transfer(kraus_mats, vectors):
    d = len(vectors)
    t = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            t[a, b] = sum(abs(vectors[a].conj() @ m @ vectors[b]) ** 2
                          for m in kraus_mats)
    return t


def oracle_qutrit_cycle(J, Bi, Bf, beta_c, beta_h=None, angles=None):
    """(Qh, Qc, W) of one qutrit Otto cycle from explicit 3x3 matrices.

    Stroke 3 is a hot bath at beta_h or, given angles (theta, phi, chi,
    psi), the non-selective measurement in the three SU(3) states
    written out below. H(Bi) and H(Bf) commute, so an adiabatic stroke
    keeps each eigenvector's population: it dephases the state in the
    eigenbasis of H(Bf), which needs J != +-Bf. Every energy is a trace
    Tr(rho H), and W is summed over the two adiabatic strokes rather
    than taken from conservation.
    """
    def ham(B):
        return np.array([[0, B, 0], [B, 0, 0], [0, 0, -J]], dtype=complex)

    def gibbs(h, beta):
        e, v = np.linalg.eigh(h)
        w = np.exp(-beta * (e - e.min()))
        return (v * (w / w.sum())) @ v.conj().T

    def energy(rho, h):
        return float(np.trace(rho @ h).real)

    hi, hf = ham(Bi), ham(Bf)
    _, v = np.linalg.eigh(hf)
    eigen_projectors = [np.outer(v[:, k], v[:, k].conj()) for k in range(3)]

    def adiabatic(rho):
        return sum(p @ rho @ p for p in eigen_projectors)

    rho_c = adiabatic(gibbs(hi, beta_c))
    if angles is None:
        rho_h = gibbs(hf, beta_h)
    else:
        theta, phi, chi, psi = angles
        ec, ep = np.exp(1j * chi), np.exp(1j * psi)
        states = [
            np.array([np.cos(theta) * np.sin(phi) * ec,
                      np.sin(theta) * np.sin(phi) * ep, np.cos(phi)]),
            np.array([np.cos(theta) * np.cos(phi) * ec,
                      np.sin(theta) * np.cos(phi) * ep, -np.sin(phi)]),
            np.array([np.sin(theta) * ec, -np.cos(theta) * ep, 0.0]),
        ]
        rho_h = sum(np.outer(s, s.conj()) @ rho_c @ np.outer(s, s.conj())
                    for s in states)
    rho_back = adiabatic(rho_h)

    Qh = energy(rho_h, hf) - energy(rho_c, hf)
    Qc = energy(rho_c, hi) - energy(rho_back, hi)
    W = (energy(rho_c, hf) - energy(rho_c, hi)
         + energy(rho_back, hi) - energy(rho_h, hf))
    return Qh, Qc, W


def oracle_theorem1_energies(dims, samples, seed):
    """Per-sample energy changes of theorem1_suite, one sample at a time.

    Unlike the routes above this one does call the library: it is the
    suite's scalar route, one validated object per sample
    (hermitian_eigensystem, gibbs_state or DensityMatrix,
    random_unital_channel, projective_channel or kraus_channel,
    damping_channel, energy_change), drawn from one generator in the
    suite's order on its schedule. dims must be sorted and distinct.
    Returns the unital and the control-group changes as lists.
    """
    sweeps = o.sweeps
    rng = np.random.default_rng(seed)

    def hamiltonian(dim):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return o.hermitian_eigensystem(0.5 * (a + a.conj().T))

    unital = []
    for dim, kind, gibbs in sweeps._theorem1_schedule(dims, samples):
        h = hamiltonian(dim)
        if gibbs:
            rho = o.gibbs_state(h, o.BathSpec(float(rng.uniform(0.05, 5.0))))
        else:
            pops = np.sort(rng.random(dim) + 1e-3)[::-1]
            pops = pops / pops.sum()
            v = h.eigenvectors
            rho = o.DensityMatrix((v * pops) @ v.conj().T)
        if kind == sweeps._MIXTURE:
            ch = o.random_unital_channel(dim, int(rng.integers(2 ** 31)),
                                         mix_count=int(rng.integers(1, 5)))
        elif kind == sweeps._PROJECTIVE:
            basis = hamiltonian(dim).eigenvectors
            ch = o.projective_channel([basis[:, k] for k in range(dim)])
        else:
            ch = o.kraus_channel([np.eye(dim)])
        unital.append(o.energy_change(ch, rho, h))

    control = []
    for i in range(max(10, samples // 20)):
        dim = dims[i % len(dims)]
        energies = np.sort(rng.uniform(-2.0, 2.0, size=dim))
        h = o.hermitian_eigensystem(np.diag(energies).astype(complex))
        rho = o.gibbs_state(h, o.BathSpec(float(rng.uniform(0.2, 1.0))))
        ch = o.damping_channel(dim, gamma=float(rng.uniform(0.3, 0.9)),
                               sink=int(np.argmin(energies)))
        control.append(o.energy_change(ch, rho, h))
    return unital, control
