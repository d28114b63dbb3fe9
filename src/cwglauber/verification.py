"""The property suite behind `cwglauber verify`.

Every structural fact the spectral-monotonicity argument leans on is checked
numerically at one parameter point: reversibility and locality of the full
chain, consistency of the Gibbs convention with the flip rule, the lumping
relations between the two chains, agreement of the perturbation identity with
its finite-difference oracle, and the shape of the second eigenvector.  Each
check reports a measured violation against its tolerance so failures carry
the offending quantity, not just a boolean.
"""

from dataclasses import dataclass

import numpy as np

from .ising import (ModelParams, N_MAX_FULL, all_plus_counts,
                    check_detailed_balance, full_transition_matrix,
                    log_weights_full, stationary_full)
from .magchain import (build_reduced_chain, derivative_matrix, lump_vector,
                       reduced_stationary, s_values)
from .perturbation import coupling_derivative, finite_difference_gap
from .spectral import (eigen_symmetric_tridiagonal,
                       eigenvector_structure_report, full_chain_spectrum,
                       second_eigenpair, symmetrize)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail" or "skip"
    value: float | None
    tol: float | None
    note: str = ""

    @classmethod
    def from_violation(cls, name, value, tol, note=""):
        status = "pass" if value <= tol else "fail"
        return cls(name=name, status=status, value=float(value), tol=tol, note=note)

    @classmethod
    def skipped(cls, name, note):
        return cls(name=name, status="skip", value=None, tol=None, note=note)


def run_verification(params: ModelParams, n_max_full: int = N_MAX_FULL) -> list:
    """Run every property check at one (n, J, H); returns CheckResults."""
    n, J, H = params.n, params.J, params.H
    if n > n_max_full:
        raise ValueError(f"verification needs the full chain: n={n} exceeds "
                         f"n_max_full={n_max_full}")
    # solved first: a point the reduced solve refuses (underflowed chain
    # entries) stops here, before the full-chain checks overflow on it
    res = second_eigenpair(params)
    out = []

    # --- full chain ------------------------------------------------------
    P = full_transition_matrix(params, n_max_full=n_max_full)
    pi_full = stationary_full(params, n_max_full=n_max_full)
    m = P.shape[0]
    out.append(CheckResult.from_violation(
        "full_row_sums", np.abs(P.sum(axis=1) - 1.0).max(), 1e-14))
    out.append(CheckResult.from_violation(
        "full_entry_range", max(0.0, -P.min(), P.max() - 1.0), 1e-15))
    levels = all_plus_counts(n)  # also the popcount of every index
    rows, cols = np.nonzero(P)
    off = rows != cols
    bad = np.count_nonzero(levels[rows[off] ^ cols[off]] != 1)
    out.append(CheckResult.from_violation(
        "full_locality", float(bad), 0.0,
        note="nonzeros beyond Hamming distance 1"))
    lw = log_weights_full(params)
    idx = np.arange(m)
    flip_cols = idx[:, None] ^ (1 << np.arange(n))[None, :]
    fwd = P[idx[:, None], flip_cols]
    bwd = P[flip_cols, idx[:, None]]
    expected = np.exp(lw[flip_cols] - lw[:, None])
    rel = np.abs(fwd / bwd - expected) / expected
    out.append(CheckResult.from_violation(
        "gibbs_flip_consistency", rel.max(), 1e-12,
        note="P(s->s^x)/P(s^x->s) vs Gibbs ratio"))
    out.append(CheckResult.from_violation(
        "full_detailed_balance", check_detailed_balance(P, pi_full), 1e-13))
    p = pi_full.probabilities
    out.append(CheckResult.from_violation(
        "full_stationarity", np.abs(p @ P - p).max(), 1e-12))
    if H == 0.0:
        flipped = lw[(m - 1) - idx]  # global spin flip is index complement
        out.append(CheckResult.from_violation(
            "spin_flip_symmetry", np.abs(lw - flipped).max(), 0.0,
            note="log-weights under global flip, H=0"))
    else:
        out.append(CheckResult.skipped("spin_flip_symmetry", "H != 0"))

    # --- reduced chain and lumping ---------------------------------------
    chain = build_reduced_chain(params)
    pi_red = reduced_stationary(params)
    row_sums = np.concatenate([chain.up, [0.0]]) \
        + np.concatenate([[0.0], chain.down]) + chain.diag
    out.append(CheckResult.from_violation(
        "reduced_row_sums", np.abs(row_sums - 1.0).max(), 1e-14))
    positivity = min(chain.up.min(), chain.down.min())
    out.append(CheckResult(
        name="reduced_positivity",
        status="pass" if positivity > 0 else "fail",
        value=float(positivity), tol=0.0, note="min up/down entry (must be > 0)"))
    flux = np.abs(pi_red.probabilities[:-1] * chain.up
                  - pi_red.probabilities[1:] * chain.down).max()
    out.append(CheckResult.from_violation(
        "reduced_detailed_balance", flux, 1e-13))
    lumped = np.bincount(levels, weights=pi_full.probabilities,
                         minlength=n + 1)
    out.append(CheckResult.from_violation(
        "stationary_lumping", np.abs(lumped - pi_red.probabilities).max(), 1e-12))
    worst_lump = 0.0
    for k in range(n):
        at_k = levels == k
        to_up = P[np.ix_(at_k, levels == k + 1)].sum(axis=1)
        worst_lump = max(worst_lump, np.abs(to_up - chain.up[k]).max())
    out.append(CheckResult.from_violation(
        "transition_lumping", worst_lump, 1e-14,
        note="level-k -> level-k+1 mass vs reduced up entry"))

    # --- spectra ----------------------------------------------------------
    full_spec = full_chain_spectrum(params, n_max_full=n_max_full)
    out.append(CheckResult.from_violation(
        "lumping_lambda2", abs(res.lambda2 - full_spec[1]), 1e-10))
    # the reduced chain's whole spectrum is needed only here
    red_spec = eigen_symmetric_tridiagonal(*symmetrize(chain))[0]
    dist = np.abs(red_spec[:, None] - full_spec[None, :]).min(axis=1)
    out.append(CheckResult.from_violation(
        "spectrum_subset", dist.max(), 1e-10,
        note="reduced eigenvalues inside the full spectrum"))
    out.append(CheckResult.from_violation(
        "eigenvalue_range", max(0.0, np.abs(red_spec).max() - 1.0), 1e-12))
    out.append(CheckResult.from_violation(
        "top_eigenvalue", abs(red_spec[0] - 1.0), 1e-10))
    lf = lump_vector(res.second_vector, n)
    out.append(CheckResult.from_violation(
        "lumped_eigenvector", np.abs(P @ lf - res.lambda2 * lf).max(), 1e-10))
    norm = float(np.sum(pi_red.probabilities * res.second_vector ** 2))
    out.append(CheckResult.from_violation(
        "eigenvector_normalization", abs(norm - 1.0), 1e-10))

    # --- derivative structure ---------------------------------------------
    dm = derivative_matrix(params)
    rs = np.concatenate([dm.d_up, [0.0]]) \
        + np.concatenate([[0.0], dm.d_down]) + dm.d_diag
    out.append(CheckResult.from_violation(
        "derivative_row_sums", np.abs(rs).max(), 1e-14))
    d = 1e-6
    hi = build_reduced_chain(ModelParams(n=n, J=J + d, H=H))
    lo = build_reduced_chain(ModelParams(n=n, J=max(J - d, 0.0), H=H))
    span = (J + d) - max(J - d, 0.0)
    fd_up = (hi.up - lo.up) / span
    fd_down = (hi.down - lo.down) / span
    worst_fd = max(np.abs(fd_up - dm.d_up).max(), np.abs(fd_down - dm.d_down).max())
    out.append(CheckResult.from_violation(
        "derivative_vs_fd_entries", worst_fd, 1e-8))
    s = s_values(params)
    k = np.arange(n + 1)
    sign_bad = max(0.0, float(-(s[2 * k <= n + 1].min())),
                   float(s[2 * k >= n + 1].max()))
    out.append(CheckResult.from_violation(
        "s_sign_pattern", sign_bad, 0.0))

    # --- perturbation identity and eigenvector shape ----------------------
    report = eigenvector_structure_report(res.second_vector, h=H,
                                          eigen_separation=res.separation)
    hf, terms = coupling_derivative(params, res)
    if report.reliable:
        fd = finite_difference_gap(params)
        out.append(CheckResult.from_violation(
            "hellmann_feynman_vs_fd", abs(hf - fd), max(1e-8, 1e-6 * abs(fd))))
        mininc = float(np.diff(res.second_vector).min())
        out.append(CheckResult(
            name="eigenvector_increasing",
            status="pass" if mininc > 0 else "fail",
            value=mininc, tol=0.0, note="min f_{k+1}-f_k (must be > 0)"))
    else:
        for name in ("hellmann_feynman_vs_fd", "eigenvector_increasing"):
            out.append(CheckResult.skipped(name, "lambda2 numerically degenerate"))
    if H == 0.0 and report.reliable:
        f = res.second_vector
        out.append(CheckResult.from_violation(
            "eigenvector_antisymmetry", np.abs(f + f[::-1]).max(), 1e-9))
        split_bad = max(0.0, float(f[2 * k <= n].max()),
                        float(-(f[2 * k >= n].min())))
        out.append(CheckResult.from_violation(
            "eigenvector_sign_split", split_bad, 1e-9))
        if n % 2 == 0:
            out.append(CheckResult.from_violation(
                "eigenvector_middle_zero", abs(f[n // 2]), 1e-9))
        out.append(CheckResult.from_violation(
            "sign_structure_terms", max(0.0, -(terms.min())), 1e-12))
        weighted = float(np.sum(pi_red.probabilities * terms))
        out.append(CheckResult.from_violation(
            "sign_terms_sum_vs_hf", abs(weighted - hf), 1e-12))
    elif H != 0.0:
        for name in ("eigenvector_antisymmetry", "eigenvector_sign_split",
                     "sign_structure_terms"):
            out.append(CheckResult.skipped(name, "H != 0"))
    return out
