"""Independent reference implementations used as test oracles.

Everything here is built from first principles (dense operators,
scipy's matrix exponential, explicit projector contractions) without
touching the package's plan machinery, so agreement is meaningful.
The dense joint-space helpers (``dense_base_amplitudes``,
``joint_state``, ``coupling_unitary``, ``projector_coupling_unitary``,
``partial_trace``) are the exception: they expand the package's own
gates and plans into joint-space arrays for tests that read those
directly; ``flat_pairs``, ``element_stacks`` and ``shape_members`` only
turn element lists into the flat-index pairs the stack builders take.
"""

import hashlib
import itertools

import numpy as np
import scipy.linalg

from dmres.elements import ElementIndex, element_from_flat, shape_groups
from dmres.errors import InvalidCouplingError
from dmres.linalg import DensityMatrix, Ket, Observable, UnitaryMatrix, as_density, check_joint_dim
from dmres.operators import coupling_gate
from dmres.plans import check_state_dims, coefficient_tables
from dmres.res import configuration_stacks, extract_element, plan_res
from dmres.sampling import stream
from dmres.shots import element_variance, simulate_shots

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


# Dense joint-space forms of the package's objects.  The package applies
# only the meter-input-0 columns of each coupling's gate, since every
# coupling meets a fresh meter, and forms a joint system-meter matrix
# only in ``joint_unitary``, read off those columns; these helpers form
# joint-space arrays, so tests can read the joint state directly.


def dense_base_amplitudes(dims, couplings, g):
    """``dmres.plans.base_amplitudes`` by the full gates on every meter.

    Every meter axis is allocated up front in |0...0>, and each coupling
    is one batched matmul of its whole (G, 2d, 2d) gate stack on its
    (qudit, meter i) axis pair, moved in front and back by transposes:
    (d_sys * 2^m, d_sys), or (G, d_sys * 2^m, d_sys) for an array ``g``.
    """
    dims = tuple(dims)
    n, m, d_sys = len(dims), len(couplings), int(np.prod(dims))
    gs = np.asarray(g, dtype=float)
    stack = gs.reshape(-1)
    start = np.zeros((stack.size, d_sys, 2 ** m, d_sys), dtype=complex)
    start[:, np.arange(d_sys), 0, np.arange(d_sys)] = 1.0
    tensor = start.reshape((stack.size,) + dims + (2,) * m + (d_sys,))
    for i, c in enumerate(couplings):
        pair = (1 + c.qudit, 1 + n + i)
        order = (0,) + pair + tuple(k for k in range(1, tensor.ndim) if k not in pair)
        moved = tensor.transpose(order)
        gate = coupling_gate(c.kind, c.op, stack)
        moved = (gate @ moved.reshape(gate.shape[:2] + (-1,))).reshape(moved.shape)
        tensor = moved.transpose([order.index(k) for k in range(len(order))])
    return tensor.reshape(gs.shape + (d_sys * 2 ** m, d_sys))


def joint_state(rho: DensityMatrix | Ket, plan) -> DensityMatrix:
    """System-meter state after coupling: U (rho (x) |0><0|^l) U^dag.

    With B = ``plan.base`` (the columns U |u> (x) |0...0>) this is
    B rho B^dag.
    """
    check_state_dims(rho, plan)
    rho = as_density(rho)
    b = plan.base
    jt = b @ rho.entries @ b.conj().T
    return DensityMatrix.create(
        jt,
        plan.element.dims + (2,) * plan.n_meters,
        check_positive=rho.positive,
    )


def coupling_unitary(c: Observable | np.ndarray, g: float) -> UnitaryMatrix:
    """exp(-i g C (x) sigma_y) for an involution C (checked), via ``coupling_gate``."""
    mat = c.entries if isinstance(c, Observable) else np.asarray(c, dtype=complex)
    d = mat.shape[0]
    if np.max(np.abs(mat @ mat - np.eye(d))) > 1e-10:
        raise InvalidCouplingError("coupling operator is not an involution (C^2 != 1)")
    check_joint_dim(2 * d)
    return UnitaryMatrix.create(coupling_gate("involution", mat, g))


def projector_coupling_unitary(p: np.ndarray, g: float) -> UnitaryMatrix:
    """exp(-i g P (x) sigma_y) for a projector P (checked), via ``coupling_gate``."""
    p = np.asarray(p, dtype=complex)
    d = p.shape[0]
    if np.max(np.abs(p @ p - p)) > 1e-10:
        raise InvalidCouplingError("coupling operator is not a projector (P^2 != P)")
    check_joint_dim(2 * d)
    return UnitaryMatrix.create(coupling_gate("projector", p, g))


def partial_trace(mat, dims, keep):
    """Trace out every site not listed in ``keep`` (order preserved)."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    mat = np.asarray(mat, dtype=complex).reshape(dims + dims)
    # Trace highest-index discarded sites first so axis labels stay valid.
    for site in sorted(set(range(n)) - set(keep), reverse=True):
        mat = np.trace(mat, axis1=site, axis2=site + mat.ndim // 2)
    d_keep = int(np.prod([dims[s] for s in keep])) if keep else 1
    return mat.reshape(d_keep, d_keep)


def per_pair_characterize(rho, g, builder):
    """``characterize``'s entries from one ``builder`` call and one
    ``extract_element`` per upper-triangle pair, in row-major order."""
    est = np.diag(np.diag(rho.entries).real).astype(complex)
    for u, v in itertools.combinations(range(rho.dim), 2):
        value = extract_element(rho, builder(element_from_flat(rho.dims, u, v), g))
        est[u, v] = value
        est[v, u] = np.conj(value)
    return est


def per_pair_shots(rho, g, policy, seed):
    """``cli._characterize_shots`` from one ``plan_res`` build, one
    ``simulate_shots`` on the pair's keyed stream and one
    ``element_variance`` per upper-triangle pair, in row-major order.

    Returns the estimate's entries and n_t (var Re + var Im) per pair.
    """
    diag_counts = stream(seed, "cli/characterize/diag").poisson(
        policy.n_t * np.clip(np.diag(rho.entries).real, 0, None))
    est = np.diag(diag_counts / max(diag_counts.sum(), 1)).astype(complex)
    variances = {}
    for u, v in itertools.combinations(range(rho.dim), 2):
        plan = plan_res(element_from_flat(rho.dims, u, v), g)
        value = simulate_shots(plan, rho, policy, stream(seed, f"cli/characterize/{plan.element.label()}"))
        est[u, v] = value
        est[v, u] = np.conj(value)
        var_re, var_im = element_variance(plan, rho, policy)
        variances[u, v] = var_re + var_im
    return est, variances


def ks_critical_value(n, m, alpha=0.01):
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return c * np.sqrt((n + m) / (n * m))



def reference_normals(n_qudits, d, seed, index):
    """The n_qudits 2 d^2 normals of sample ``index`` of a precision family,
    read off the documented layout.

    The family key is the head of the SHA-256 digest of
    "seed|haar/{n}x{d}|", read as one little-endian 128-bit integer.
    Sample j reads the 4 B words a Philox at that key gives from counter
    j B, B = ceil(n 2 d^2 / 4).  Each (even, odd) word pair, as
    u = (w >> 11) / 2^53, gives r cos theta and r sin theta with
    r = sqrt(-2 ln(1 - u_even)) and theta = 2 pi u_odd.
    """
    digest = hashlib.sha256(f"{seed}|haar/{n_qudits}x{d}|".encode()).digest()
    size = n_qudits * 2 * d * d
    blocks = (size + 3) // 4
    philox = np.random.Philox(key=int.from_bytes(digest[:16], "little"), counter=index * blocks)
    u = np.array([(w >> 11) / 2 ** 53 for w in philox.random_raw(4 * blocks).tolist()])
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    pairs = zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist())
    return [x for pair in pairs for x in pair][:size]


def _sum_rows(terms):
    """Sum a 2-D array's rows from row 0 down."""
    total = terms[0]
    for row in terms[1:]:
        total = total + row
    return total


def reference_haar_unitary(normals):
    """Haar unitary from one (2, d, d) Ginibre draw X, Y by two-pass
    classical Gram-Schmidt on the columns z_k of Z = X + iY.

    For column k, v = z_k; twice, c_j = sum_i conj(q_ij) v_i for every
    j < k, then v = v - sum_j c_j q_j, sums taken in index order; then
    q_k = v / sqrt(sum_i (Re v_i^2 + Im v_i^2)).
    """
    d = normals.shape[-1]
    z = np.empty((d, d), dtype=complex)
    z.real, z.imag = normals[0], normals[1]
    q = np.empty((d, d), dtype=complex)
    for k in range(d):
        v = z[:, k]
        for _ in range(2 if k else 0):
            c = _sum_rows(q[:, :k].conj() * v[:, None])
            v = v - _sum_rows((q[:, :k] * c[None, :]).T)
        q[:, k] = v / np.sqrt(_sum_rows(v.real * v.real + v.imag * v.imag))
    return q


def reference_precision_state(n_qudits, d, seed, index):
    """Sample ``index`` of a precision family drawn qudit by qudit, as a (D, D) array.

    Qudit n's unitary U_n takes the n-th (2, d, d) run of the sample's
    normals.  One qudit gives V|0><0|V'.  More qudits give the local
    unitaries applied to the maximally entangled state (1/sqrt(d))
    sum_m |m,...,m>: psi[i_1 ... i_N] = sum_m prod_n U_n[i_n, m] / sqrt(d),
    the products taken from n = 1 up and m summed in order.
    """
    normals = np.array(reference_normals(n_qudits, d, seed, index)).reshape(n_qudits, 2, d, d)
    unitaries = [reference_haar_unitary(normals[n]) for n in range(n_qudits)]
    if n_qudits == 1:
        vec = unitaries[0][:, 0]
    else:
        terms = unitaries[0]
        for u in unitaries[1:]:
            terms = (terms[:, None, :] * u[None, :, :]).reshape(-1, d)
        vec = _sum_rows(terms.T) / np.sqrt(d)
    return np.outer(vec, vec.conj())


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


def mean_stderr(vals):
    """Mean and standard error of the mean of one 1-D array, as Python floats.

    The per-point statistic precision sweeps computed before they
    reduced a stack of points at once; the stacked reduction must equal
    it bit for bit.
    """
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return mean, stderr


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


def reference_class_probabilities(plan, rho):
    """(4 n_settings,) probabilities of the sign classes of ``plan``:
    per setting and post-selected block, s then s', the summed reference
    probability of its patterns of sign +1, then of sign -1.

    A pattern's sign is (-1)^(number of - outcomes), patterns in the
    plans' order (meter 0 most significant, + before -).
    """
    e = plan.element
    cells = reference_plan_probabilities(rho.entries, e.dims, e.s, e.s_prime, plan.g, plan.scheme)
    blocks = cells.reshape(plan.n_settings, e.dim, -1)[:, list(plan.post_selectors)]
    signs = np.array([(-1.0) ** bin(o).count("1") for o in range(2 ** plan.n_meters)])
    return np.stack([blocks[..., signs > 0].sum(-1), blocks[..., signs < 0].sum(-1)], axis=-1).reshape(-1)


def reference_cell_draws(plan, rho, rate, rng, count):
    """``count`` shot estimates of ``plan`` from one Poisson count per
    outcome cell of every setting.

    The means are rate * p, p the reference Born probabilities clipped
    at 0, and each count, over the rate, weighs in by its entry of the
    full coefficient tables.
    """
    e = plan.element
    p = reference_plan_probabilities(rho.entries, e.dims, e.s, e.s_prime, plan.g, plan.scheme).reshape(-1)
    tables = coefficient_tables(plan.weights, plan.post_selectors, e.dim).reshape(2, -1)
    re, im = tables @ (rng.poisson(rate * np.clip(p, 0.0, None), size=(count, p.size)) / rate).T
    return re + 1j * im


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


def basis_path_correlator_rows(plan, blocks, labels):
    """Correlator response rows Tr[B (A_k^dag Sigma_b A_k)] / sqrt(2^m) with a
    dense Pauli product per setting and one explicit basis matrix at a time.
    ``blocks`` are the unrotated rows (outcomes, 2^m, d) of the outcomes
    read; a strength stack of them gives one row block per strength."""
    if blocks.ndim == 4:
        return np.stack([basis_path_correlator_rows(plan, b, labels) for b in blocks])
    pauli = {"x": SX, "y": SY}
    gmats = []
    for setting in plan.settings:
        sigma = kron(*[pauli[b] for b in setting.meter_bases])
        for blk in blocks:
            gmats.append(blk.conj().T @ sigma @ blk)
    gmats = np.array(gmats)
    m, dim = plan.n_meters, blocks.shape[-1]
    rows = np.empty((len(gmats), len(labels)))
    for j, label in enumerate(labels):
        rows[:, j] = np.einsum("uv,nvu->n", hermitian_basis_element(dim, label), gmats).real
    return rows / np.sqrt(2 ** m)


def basis_path_targets(element, labels):
    """Re and Im of B[s, s'] for each explicit basis element B."""
    vals = np.array([hermitian_basis_element(element.dim, lab)[element.s_flat, element.s_prime_flat]
                     for lab in labels])
    return vals.real, vals.imag


def einsum_pauli_product(blocks):
    """Sigma_b A for every setting b, as m stages of one 2x2 Pauli per meter.

    ``blocks`` is (..., 2^m, cols) with meter 0 most significant; the
    result is (settings, ..., 2^m, cols), settings in ``x``/``y`` order
    with meter 0 most significant.  Each stage is an ``einsum`` that sums
    both entries of a Pauli row, zero included, so no entry of the result
    is -0.  This is the reference the exact pattern flip must match bit
    for bit.
    """
    stack = np.stack([SX, SY])
    n_patterns, cols = blocks.shape[-2:]
    rows = blocks.size // (n_patterns * cols)
    m = n_patterns.bit_length() - 1
    out = blocks.reshape(1, rows, n_patterns, cols)
    for i in range(m):
        tail = 2 ** (m - i - 1) * cols
        out = np.einsum("boi,spir->sbpor", stack, out.reshape(-1, rows * 2 ** i, 2, tail))
    return out.reshape((-1,) + blocks.shape)


def einsum_correlator_response(blocks):
    """Correlator response rows with the Pauli products from ``einsum_pauli_product``.

    ``blocks`` are unrotated block rows (..., outcomes, 2^m, d).  Every
    other step (the Gram product A_k^dag Sigma_b A_k, the trace read-off
    ``dmres.seq.basis_traces`` and the normalization) is the package's,
    in its order, so the rows must equal ``dmres.seq._correlator_response``
    byte for byte.
    """
    from dmres.seq import basis_traces

    n_patterns = blocks.shape[-2]
    lead = blocks.shape[:-3]
    gmat = blocks.conj().swapaxes(-1, -2) @ einsum_pauli_product(blocks)
    rows = basis_traces(gmat).real / np.sqrt(n_patterns)
    rows = np.moveaxis(rows, 0, len(lead))
    return rows.reshape(lead + (-1, rows.shape[-1]))


def own_block_rows(plan):
    """The plan's unrotated rows of blocks s and s', in that order, from its
    own full-space columns ``base_amplitudes(dims, couplings, g)``: (2, 2^m, D)."""
    from dmres.plans import base_amplitudes

    dim = plan.element.dim
    own = base_amplitudes(plan.element.dims, plan.couplings, plan.g).reshape(dim, -1, dim)
    return own[list(plan.post_selectors)]


def own_calibrated_weights(plan):
    """A seq plan's weights solved as one element of the full space: the
    correlator rows of its own block rows against the D x D Hermitian
    basis, the min-norm solve for its own (s, s') targets."""
    from dmres.seq import _correlator_response, _correlator_weights, _solve, _targets

    rows = _correlator_response(own_block_rows(plan))
    z, _ = _solve(rows[None], _targets(plan.element), (plan.g,))
    return _correlator_weights(z, plan.n_meters).reshape(2, -1, 2)


def own_block_grams(plan, weights):
    """Estimator pair G and variance pair W, each (2, D, D), of block
    weights (2, settings, 2), blocks s then s', from the plan's own block rows
    B_k: G_t = sum_k B_k^dag diag(phi_tk) J B_k, with phi_tk the weights
    summed against the Pauli phase table and J the pattern reversal, and
    W_t = sum_k alpha_tk B_k^dag B_k, alpha_tk the squared weights summed
    over settings."""
    from dmres.plans import _flip_phases

    own = own_block_rows(plan)
    adjoint = own.conj().swapaxes(-1, -2)
    phi = weights.swapaxes(-1, -2) @ _flip_phases(plan.n_meters)  # (2, blocks, patterns)
    grams = np.einsum("kvp,tkp,kpu->tvu", adjoint, phi, own[:, ::-1])
    variances = np.einsum("kvp,tk,kpu->tvu", adjoint, (weights ** 2).sum(1), own)
    return grams, variances


def _reference_level_orders(d):
    return np.array([[list(dict.fromkeys([a, b, *range(d)])) for b in range(d)] for a in range(d)])


def _reference_supports(members):
    """Each element's coupled-block support, one element at a time (see ``reference_shape_groups``)."""
    dims = members[0].dims
    shape = tuple(dims[n] for n in members[0].coupled_set)
    strides = [int(np.prod(dims[n + 1:])) for n in range(len(dims))]
    a, b, stride = np.array([[(e.s[n], e.s_prime[n], strides[n]) for n in e.coupled_set]
                             for e in members]).transpose(2, 0, 1)
    digits = np.indices(shape).reshape(len(shape), -1)
    index = (np.array([e.s for e in members]).reshape(len(members), -1) @ strides)[:, None]
    for j, d in enumerate(shape):
        levels = _reference_level_orders(d)[a[:, j], b[:, j]]
        index = index + (levels[:, digits[j]] - a[:, j, None]) * stride[:, j, None]
    return index


def reference_shape_groups(elements):
    """``elements`` grouped by coupled shape dims[C], one ``ElementIndex`` at a time.

    Groups come in the order of their first element and members in list
    order; each group is (member positions, supports (M, d_C)), the
    supports built per element from its indices and the row-major strides.
    """
    groups = {}
    for i, e in enumerate(elements):
        groups.setdefault(tuple(e.dims[n] for n in e.coupled_set), []).append(i)
    return [(np.array(pos), _reference_supports([elements[i] for i in pos])) for pos in groups.values()]


def reference_canonical(element):
    """(0...0, 1...1) on dims[C], C the element's coupled set: the element its plan's rows belong to."""
    shape = tuple(element.dims[n] for n in element.coupled_set)
    return ElementIndex(shape, (0,) * len(shape), (1,) * len(shape))


def flat_pairs(elements):
    """The (M, 2) flat indices (s, s') of elements on one dims, the form stack builders take."""
    return np.array([(e.s_flat, e.s_prime_flat) for e in elements]).reshape(-1, 2)


def element_stacks(elements, scheme, gs):
    """``res.configuration_stacks`` of a non-empty element list on one dims, grouped by the library."""
    dims, pairs = elements[0].dims, flat_pairs(elements)
    return configuration_stacks(dims, pairs, shape_groups(dims, *pairs.T), scheme, gs)


def shape_members(elements):
    """``elements`` grouped as ``reference_shape_groups`` groups them, one list of members per coupled shape."""
    return [[elements[i] for i in positions] for positions, _ in reference_shape_groups(elements)]
