"""Independent reference implementations used as test oracles.

Everything here is built from first principles (dense operators,
scipy's matrix exponential, explicit projector contractions) without
touching the package's plan machinery, so agreement is meaningful.
"""

import itertools

import numpy as np
import scipy.linalg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SPLUS = SX + 1j * SY
SMINUS = SX - 1j * SY


def kron(*mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def embed(op, dims, site):
    mats = [np.eye(d, dtype=complex) for d in dims]
    mats[site] = op
    return kron(*mats)


def swap_op(d, a, ap):
    c = np.eye(d, dtype=complex)
    c[a, a] = c[ap, ap] = 0
    c[a, ap] = c[ap, a] = 1
    return c


def reference_joint_state(rho, dims, s, sp, g):
    """U (rho (x) |0..0><0..0|) U^dag via expm of the full Hamiltonian."""
    dims = tuple(dims)
    coupled = [n for n in range(len(dims)) if s[n] != sp[n]]
    l = len(coupled)
    d_sys = int(np.prod(dims))
    ham = np.zeros((d_sys * 2 ** l, d_sys * 2 ** l), dtype=complex)
    for j, n in enumerate(coupled):
        c = embed(swap_op(dims[n], s[n], sp[n]), dims, n)
        sy = embed(SY, (2,) * l, j)
        ham += g * np.kron(c, sy)
    u = scipy.linalg.expm(-1j * ham)
    meter0 = np.zeros((2 ** l, 2 ** l), dtype=complex)
    meter0[0, 0] = 1.0
    return u @ np.kron(rho, meter0) @ u.conj().T, l


def reference_extract(rho, dims, s, sp, g):
    """The trace formula evaluated directly on the joint state."""
    dims = tuple(dims)
    jt, l = reference_joint_state(rho, dims, s, sp, g)
    d_sys = int(np.prod(dims))
    s_flat = int(np.ravel_multi_index(s, dims))
    sp_flat = int(np.ravel_multi_index(sp, dims))
    pi_s = np.zeros((d_sys, d_sys), dtype=complex)
    pi_s[s_flat, s_flat] = 1
    pi_sp = np.zeros((d_sys, d_sys), dtype=complex)
    pi_sp[sp_flat, sp_flat] = 1
    plus = np.kron(pi_sp, kron(*([SPLUS] * l)))
    minus = np.kron(pi_s, kron(*([SMINUS] * l)))
    return np.trace((plus + minus) @ jt) / (2.0 * np.sin(2.0 * g) ** l)


def reference_setting_probabilities(rho, dims, s, sp, g, bases):
    """Born probabilities from explicit product projectors."""
    jt, l = reference_joint_state(rho, dims, s, sp, g)
    d_sys = int(np.prod(dims))
    assert len(bases) == l
    eig = {
        "x": [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)],
        "y": [np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)],
    }
    probs = []
    for k in range(d_sys):
        pk = np.zeros((d_sys, d_sys), dtype=complex)
        pk[k, k] = 1
        for signs in itertools.product((0, 1), repeat=l):
            meter = kron(*[np.outer(eig[b][z], eig[b][z].conj()) for b, z in zip(bases, signs)])
            probs.append(np.trace(np.kron(pk, meter) @ jt).real)
    return np.array(probs)


def ks_critical_value(n, m, alpha=0.01):
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return c * np.sqrt((n + m) / (n * m))


def exact_haar_mean(plans):
    """Exact Haar mean of the per-state variance n_t*Delta^2 at unit exposure.

    Both precision state families are invariant under local Haar twirls,
    so E[rho] = 1/D and E[sum_o c_o^2 p_o] = sum_o c_o^2 |a_o|^2 / D.
    Averaged over the plans and over the Re and Im quadratures; built from
    the plans' coefficients and amplitudes only.
    """
    total = 0.0
    for plan in plans:
        for i, a in enumerate(plan.amplitudes):
            norms = np.sum(np.abs(a) ** 2, axis=1)
            weights = 0.5 * (plan.coeff_re[i] ** 2 + plan.coeff_im[i] ** 2)
            total += float(np.sum(weights * norms))
    return total / len(plans) / plans[0].element.dim
