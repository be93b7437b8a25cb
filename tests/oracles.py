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


EIGENBRAS = {
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2),
}  # rows: <+| and <-| of sigma_x / sigma_y


def reference_couplings(dims, s, sp, scheme):
    """(qudit, operator) per meter, in coupling order, from the element alone.

    res couples each differing qudit through its swap involution; seq
    couples it twice, through |s_n><s_n| and then the uniform projector.
    """
    out = []
    for n, d in enumerate(dims):
        if s[n] == sp[n]:
            continue
        if scheme == "res":
            out.append((n, swap_op(d, s[n], sp[n])))
        else:
            target = np.zeros((d, d), dtype=complex)
            target[s[n], s[n]] = 1
            out += [(n, target), (n, np.full((d, d), 1.0 / d, dtype=complex))]
    return out


def embedded_coupling(dims, n_meters, qudit, meter, op, g):
    """expm(-i g op (x) sigma_y) on (qudit, meter) as a joint-space matrix.

    The exponential is taken on its own 2d x 2d (qudit (x) meter)
    factor, tensored with the identity on every other factor and moved
    into the joint order (qudits, then meters) by an explicit
    permutation of rows and columns: the exponential stays 2d x 2d
    however large the joint space is.
    """
    shape = tuple(dims) + (2,) * n_meters
    joint = int(np.prod(shape))
    pair = (qudit, len(dims) + meter)
    order = list(pair) + [k for k in range(len(shape)) if k not in pair]
    # basis index of the joint order for each index of the (qudit, meter, rest) order
    perm = np.arange(joint).reshape(shape).transpose(order).reshape(-1)
    local = scipy.linalg.expm(-1j * g * np.kron(op, SY))
    moved = np.kron(local, np.eye(joint // local.shape[0]))
    out = np.zeros((joint, joint), dtype=complex)
    out[np.ix_(perm, perm)] = moved
    return out


def reference_plan_amplitudes(dims, s, sp, g, scheme):
    """(settings, outcomes, D) amplitudes <k, e_1..e_m| U |u, 0..0>.

    U is the product of expm(-i g op (x) sigma_y) over the couplings,
    first coupling applied first; settings and outcomes run in the
    plans' order (meter 0 most significant, + before -).
    """
    dims = tuple(dims)
    couplings = reference_couplings(dims, s, sp, scheme)
    m = len(couplings)
    d_sys = int(np.prod(dims))
    cols = np.eye(d_sys * 2 ** m, dtype=complex)[:, ::2 ** m]
    for j, (n, op) in enumerate(couplings):
        cols = embedded_coupling(dims, m, n, j, op, g) @ cols
    bras = (np.kron(np.eye(d_sys), kron(*[EIGENBRAS[b] for b in bases]))
            for bases in itertools.product("xy", repeat=m))
    return np.stack([r @ cols for r in bras])


def reference_plan_probabilities(rho, dims, s, sp, g, scheme):
    """(settings, outcomes) expectations of the explicit readout projectors
    |k, e><k, e| on the joint state U (rho (x) |0..0><0..0|) U^dag.

    The joint state is B rho B^dag with B the coupled columns, so each
    expectation is a rho a^dag for the amplitude row a = <k, e| B.
    """
    amps = reference_plan_amplitudes(dims, s, sp, g, scheme)
    return np.einsum("sou,uv,sov->so", amps, rho, amps.conj(), optimize=True).real


def hermitian_basis_element(dim, label):
    """One dense element of the seq calibration basis: (u, u, 'd'),
    (u, v, 're') = |u><v| + |v><u| or (u, v, 'im') = -i|u><v| + i|v><u|."""
    u, v, kind = label
    b = np.zeros((dim, dim), dtype=complex)
    if kind == "d":
        b[u, u] = 1
    elif kind == "re":
        b[u, v] = b[v, u] = 1
    else:
        b[u, v], b[v, u] = -1j, 1j
    return b


def hermitian_coordinates(hermitian):
    """Coefficients of a Hermitian matrix in the seq calibration basis, in
    ``hermitian_labels`` order: diagonal entries, then (Re, -Im) of each
    upper-triangle entry, so that sum_b c_b B_b recovers the matrix."""
    m = np.asarray(hermitian, dtype=complex)
    iu, iv = np.triu_indices(m.shape[0], 1)
    pairs = np.stack([m[iu, iv].real, -m[iu, iv].imag], axis=-1).reshape(-1)
    return np.concatenate([np.diagonal(m).real, pairs])


def basis_path_correlator_rows(plan, outcomes, base, labels):
    """Correlator response rows Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) with a
    dense Pauli product per setting and one explicit basis matrix at a time.
    A strength stack of ``base`` gives one row block per strength."""
    if base.ndim == 3:
        return np.stack([basis_path_correlator_rows(plan, outcomes, b, labels) for b in base])
    m = plan.n_meters
    pauli = {"x": SX, "y": SY}
    gmats = []
    for setting in plan.settings:
        sigma = kron(*[pauli[b] for b in setting.meter_bases])
        for k in outcomes:
            blk = base[k * 2 ** m:(k + 1) * 2 ** m]
            gmats.append(blk.conj().T @ sigma @ blk)
    gmats = np.array(gmats)
    dim = plan.element.dim
    rows = np.empty((len(gmats), len(labels)))
    for j, label in enumerate(labels):
        rows[:, j] = np.einsum("uv,nvu->n", hermitian_basis_element(dim, label), gmats).real
    return rows / np.sqrt(2 ** m)


def basis_path_targets(element, labels):
    """Re and Im of B[s, s'] for each explicit basis element B."""
    vals = np.array([hermitian_basis_element(element.dim, lab)[element.s_flat, element.s_prime_flat]
                     for lab in labels])
    return vals.real, vals.imag
