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
                    full_transition_matrix, log_weights_full, stationary_full)
from .magchain import (add_shifted, build_reduced_chain, derivative_matrix,
                       lump_vector, s_values)
from .perturbation import analyse, difference_quotient, fd_stencil
from .spectral import (EigensolverError, full_chain_top_eigenvalues,
                       lifted_residual, shape_checks, symmetrized_full_chain)


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
    # solved first: a point the reduced solve refuses (underflowed chain
    # entries) stops here, before the full-chain checks overflow on it
    top, f, pi, hf, terms, fd, errors = (a[0] for a in analyse(
        ModelParams(n=n, J=np.array([[J]]), H=H)))
    solve_error, usability_error, stencil_error = errors
    if solve_error is not None:
        raise solve_error
    lambda2, fd = float(top[0]), float(fd)
    out = []

    # --- full chain, read one flipped bit at a time ----------------------
    P = full_transition_matrix(params, n_max_full=n_max_full)
    p = stationary_full(params, n_max_full=n_max_full)
    lw = log_weights_full(params)
    levels = all_plus_counts(n)  # also the popcount of every index
    idx = np.arange(P.shape[0])
    ratio_err, flux_err = [], []
    up_mass = np.zeros(P.shape[0])
    for x in range(n):
        nb = idx ^ (1 << x)
        fwd = P[idx, nb]
        rev = fwd[nb]  # P[nb, idx], so fwd holds every flip; ratios of
        # subnormal flip probabilities carry no relative precision
        if fwd.min() < np.finfo(float).tiny:
            raise EigensolverError(f"full chain has flip probabilities that "
                                   f"underflow at n={n}, J={J:g}, H={H:g}")
        expected = np.exp(lw[nb] - lw)
        ratio_err.append((np.abs(fwd / rev - expected) / expected).max())
        flux_err.append(np.abs(p * fwd - p[nb] * rev).max())
        up_mass += np.where(nb > idx, fwd, 0.0)  # the flips that set bit x
    out.append(CheckResult.from_violation(
        "full_row_sums", np.abs(P.sum(axis=1) - 1.0).max(), 1e-14))
    out.append(CheckResult.from_violation(
        "full_entry_range", max(0.0, -P.min(), P.max() - 1.0), 1e-15))
    # every stored entry: the popcount of row ^ column is the Hamming distance
    bad = np.count_nonzero(
        levels[np.repeat(idx, np.diff(P.indptr)) ^ P.indices] > 1)
    out.append(CheckResult.from_violation(
        "full_locality", float(bad), 0.0,
        note="nonzeros beyond Hamming distance 1"))
    out.append(CheckResult.from_violation(
        "gibbs_flip_consistency", np.max(ratio_err), 1e-12,
        note="P(s->s^x)/P(s^x->s) vs Gibbs ratio"))
    out.append(CheckResult.from_violation(
        "full_detailed_balance", np.max(flux_err), 1e-13))
    out.append(CheckResult.from_violation(
        "full_stationarity", np.abs(p @ P - p).max(), 1e-12))
    if H == 0.0:
        # the global spin flip complements the index, i.e. reverses lw
        out.append(CheckResult.from_violation(
            "spin_flip_symmetry", np.abs(lw - lw[::-1]).max(), 0.0,
            note="log-weights under global flip, H=0"))
    else:
        out.append(CheckResult.skipped("spin_flip_symmetry", "H != 0"))

    # --- reduced chain and lumping ---------------------------------------
    chain = build_reduced_chain(params)
    row_sums = add_shifted(chain.up, chain.down) + chain.diag
    out.append(CheckResult.from_violation(
        "reduced_row_sums", np.abs(row_sums - 1.0).max(), 1e-14))
    positivity = min(chain.up.min(), chain.down.min())
    out.append(CheckResult(
        name="reduced_positivity",
        status="pass" if positivity > 0 else "fail",
        value=float(positivity), tol=0.0, note="min up/down entry (must be > 0)"))
    flux = np.abs(pi[:-1] * chain.up - pi[1:] * chain.down).max()
    out.append(CheckResult.from_violation(
        "reduced_detailed_balance", flux, 1e-13))
    lumped = np.bincount(levels, weights=p, minlength=n + 1)
    out.append(CheckResult.from_violation(
        "stationary_lumping", np.abs(lumped - pi).max(), 1e-12))
    below = levels < n
    worst_lump = np.abs(up_mass[below] - chain.up[levels[below]]).max()
    out.append(CheckResult.from_violation(
        "transition_lumping", worst_lump, 1e-14,
        note="level-k -> level-k+1 mass vs reduced up entry"))

    # --- spectra ----------------------------------------------------------
    S = symmetrized_full_chain(P)
    full_top = full_chain_top_eigenvalues(S)
    out.append(CheckResult.from_violation(
        "lumping_lambda2", abs(lambda2 - full_top[1]), 1e-10))
    # the reduced chain's whole spectrum, needed only here (n <= n_max_full),
    # from numpy's dense solve of its symmetric form, apart from the grid core
    off = np.sqrt(chain.up * chain.down)
    try:
        w, v = np.linalg.eigh(np.diag(chain.diag) + np.diag(off, 1)
                              + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"reduced-chain eigensolver failed: {exc}") from exc
    red_spec, red_vecs = w[::-1], v[:, ::-1]
    out.append(CheckResult.from_violation(
        "spectrum_subset", lifted_residual(S, red_spec, red_vecs), 1e-10,
        note="lifted reduced eigenpairs; bounds the distance to the full spectrum"))
    out.append(CheckResult.from_violation(
        "eigenvalue_range", max(0.0, np.abs(red_spec).max() - 1.0), 1e-12))
    out.append(CheckResult.from_violation(
        "top_eigenvalue", abs(red_spec[0] - 1.0), 1e-10))
    lf = lump_vector(f, n)
    # f is pi-normalized, so |lf| reaches ~1e9 where pi is tiny; the rounding
    # floor of P @ lf (n+1 terms per row) then exceeds 1e-10
    lf_floor = 4 * (n + 1) * np.finfo(float).eps * float(np.abs(lf).max())
    with np.errstate(all="ignore"):  # an unusable f is NaN or inf
        out.append(CheckResult.from_violation(
            "lumped_eigenvector", np.abs(P @ lf - lambda2 * lf).max(),
            max(1e-10, lf_floor)))
        norm = float(np.sum(pi * f ** 2))
    out.append(CheckResult.from_violation(
        "eigenvector_normalization", abs(norm - 1.0), 1e-10))

    # --- derivative structure ---------------------------------------------
    dm = derivative_matrix(params)
    rs = add_shifted(dm.up, dm.down) + dm.diag
    out.append(CheckResult.from_violation(
        "derivative_row_sums", np.abs(rs).max(), 1e-14))

    c = build_reduced_chain(ModelParams(
        n=n, J=np.array([J, *fd_stencil(J, 1e-6)])[:, None], H=H))
    fd_entries = difference_quotient(J, 1e-6, *np.hstack([c.up, c.down]))
    worst_fd = np.abs(fd_entries - np.concatenate([dm.up, dm.down])).max()
    out.append(CheckResult.from_violation(
        "derivative_vs_fd_entries", worst_fd, 1e-8))
    s = s_values(params)
    k = np.arange(n + 1)
    sign_bad = max(0.0, float(-(s[2 * k <= n + 1].min())),
                   float(s[2 * k >= n + 1].max()))
    out.append(CheckResult.from_violation(
        "s_sign_pattern", sign_bad, 0.0))

    # --- perturbation identity and eigenvector shape ----------------------
    # an f that may not be read skips every check on it, with its reason
    reason = "" if usability_error is None else str(usability_error)
    if reason:
        out.append(CheckResult.skipped("hellmann_feynman_vs_fd", reason))
    elif stencil_error is not None:
        raise stencil_error
    else:
        out.append(CheckResult.from_violation(
            "hellmann_feynman_vs_fd", abs(hf - fd), max(1e-8, 1e-6 * abs(fd))))
    for name, check in shape_checks(f, terms, h=H).items():
        skip = "H != 0" if check is None else reason
        if skip:
            out.append(CheckResult.skipped(name, skip))
            continue
        value, tol, passed = check
        out.append(CheckResult(
            name, "pass" if passed else "fail", float(value), tol,
            "min f_{k+1}-f_k (must be > 0)"
            if name == "eigenvector_increasing" else ""))
    if H == 0.0 and not reason:
        weighted = float(np.sum(pi * terms))
        out.append(CheckResult.from_violation(
            "sign_terms_sum_vs_hf", abs(weighted - hf), 1e-12))
    return out
