"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion as it completes.  Grids and tolerances are pinned here, not
configurable: criterion 1/3/7 share the (n in 2..10) x (J in 0..0.5 step
0.05) x (H in {0, 0.1}) grid; criterion 2/4/5 use 61-point J sweeps on
[0, 0.6]; criterion 6 runs n = 1..12 against the sparse full-chain solver;
criterion 8 uses 10^6-sweep seeded simulations.

Criterion 9 asserts the growth-factor comparison exactly as specified; the
measured ratio sequence for this model decreases toward the asymptotic
exponential factor e^{4 dF} = 1.848 at J*n = 1.6 (dF the Curie-Weiss
free-energy barrier per spin), so the assertion fails; the table it reports
is still printed and written to CSV.
"""

import numpy as np
import pytest

from conftest import analyse_point, detailed_balance_violation
from cwglauber.ising import (ModelParams, full_transition_matrix,
                             stationary_full)
from cwglauber.magchain import build_reduced_chain, reduced_stationary
from cwglauber.mcmc import estimate_relaxation, simulate_reduced
from cwglauber.perturbation import sweep_monotonicity
from cwglauber.spectral import (DegenerateGapError, full_chain_top_eigenvalues,
                                second_eigenpair, symmetrized_full_chain)

GRID_N = range(2, 11)
GRID_J = [round(0.05 * i, 2) for i in range(11)]  # 0, 0.05, ..., 0.5
GRID_H = [0.0, 0.1]

SWEEP_N = range(2, 13)
SWEEP_GRID = np.linspace(0.0, 0.6, 61).tolist()


def supercritical_slowdown_table(ns=(4, 8, 12, 16, 20), coupling_times_n=1.6):
    """t_rel at fixed J*n for a ladder of sizes, plus consecutive ratios.

    Returns (rows, ratios): rows are (n, J, gap, t_rel) and ratios[i] is
    t_rel(ns[i+1]) / t_rel(ns[i]).  With J*n above the critical value 1 the
    relaxation time grows exponentially in n.
    """
    rows = []
    for n in ns:
        J = coupling_times_n / n
        res = second_eigenpair(ModelParams(n=n, J=J, H=0.0))
        rows.append((n, J, res.gap, res.t_rel))
    ratios = [rows[i + 1][3] / rows[i][3] for i in range(len(rows) - 1)]
    return rows, ratios


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def full_grid():
    """Per-point full-chain quantities over the criterion-1 grid."""
    rows = {}
    for n in GRID_N:
        for J in GRID_J:
            for H in GRID_H:
                params = ModelParams(n=n, J=J, H=H)
                P = full_transition_matrix(params)
                pi = stationary_full(params)
                chain = build_reduced_chain(params)
                pi_red = reduced_stationary(params)
                red_rows = (np.concatenate([chain.up, [0.0]])
                            + np.concatenate([[0.0], chain.down]) + chain.diag)
                rows[(n, J, H)] = {
                    "lambda2_full": float(full_chain_top_eigenvalues(
                        symmetrized_full_chain(P))[1]),
                    "lambda2_red": second_eigenpair(params).lambda2,
                    "db_full": detailed_balance_violation(P.toarray(), pi),
                    "db_red": float(np.abs(pi_red[:-1] * chain.up
                                           - pi_red[1:] * chain.down).max()),
                    "rowsum_full": float(np.abs(P.sum(axis=1) - 1.0).max()),
                    "rowsum_red": float(np.abs(red_rows - 1.0).max()),
                }
    return rows


@pytest.fixture(scope="module")
def h0_sweeps():
    """Criterion-2 sweeps, shared with criterion 5."""
    return {n: sweep_monotonicity(n, 0.0, SWEEP_GRID) for n in SWEEP_N}


def test_criterion_01_lumping_oracle_equivalence(full_grid):
    """Reduced-chain lambda_2 equals the full 2^n chain's within 1e-10."""
    worst = max(abs(r["lambda2_red"] - r["lambda2_full"])
                for r in full_grid.values())
    ok = verdict(1, "lumping-oracle equivalence", worst < 1e-10,
                 f"max |lambda2_red - lambda2_full| = {worst:.3e} "
                 f"over {len(full_grid)} points (tol 1e-10)")
    assert ok


def test_criterion_02_monotone_in_coupling(h0_sweeps):
    """lambda_2 nondecreasing along every H=0 sweep; HF derivative >= -1e-12."""
    worst_dec = max(r.max_violation for r in h0_sweeps.values())
    all_points = [p for r in h0_sweeps.values() for p in r.points]
    min_hf = min(p.hf_derivative for p in all_points)
    complete = all(not r.failures and len(r.points) == len(SWEEP_GRID)
                   for r in h0_sweeps.values())
    ok = verdict(2, "lambda2 monotone in J at H=0",
                 worst_dec < 1e-10 and min_hf >= -1e-12 and complete,
                 f"worst decrement = {worst_dec:.3e} (tol 1e-10), "
                 f"min HF derivative = {min_hf:.3e} (tol -1e-12), "
                 f"{len(all_points)} points")
    assert ok


def test_criterion_03_perturbation_identity():
    """|HF - central FD| <= max(1e-8, 1e-6 |FD|) where lambda_2 is simple."""
    worst = 0.0
    worst_pt = None
    skipped = 0
    total = 0
    for n in GRID_N:
        for J in GRID_J:
            for H in GRID_H:
                total += 1
                try:
                    point = analyse_point(ModelParams(n=n, J=J, H=H))
                except DegenerateGapError:
                    skipped += 1
                    continue
                hf, fd = point.hf, point.fd
                excess = abs(hf - fd) / max(1e-8, 1e-6 * abs(fd))
                if excess > worst:
                    worst, worst_pt = excess, (n, J, H)
    ok = verdict(3, "Hellmann-Feynman vs finite difference", worst <= 1.0,
                 f"worst |HF-FD|/allowed = {worst:.3f} at {worst_pt}, "
                 f"{total - skipped}/{total} simple points")
    assert ok


def test_criterion_04_eigenvector_structure():
    """Strict increase, antisymmetry, even-n middle zero, per-term signs
    at H = 0 (grid of criterion 1, where strictness is resolvable)."""
    min_inc = np.inf
    max_anti = 0.0
    max_mid = 0.0
    min_term = np.inf
    for n in GRID_N:
        for J in GRID_J:
            params = ModelParams(n=n, J=J, H=0.0)
            f = second_eigenpair(params).second_vector
            min_inc = min(min_inc, float(np.diff(f).min()))
            max_anti = max(max_anti, float(np.abs(f + f[::-1]).max()))
            if n % 2 == 0:
                max_mid = max(max_mid, abs(f[n // 2]))
            min_term = min(min_term,
                           float(analyse_point(params, raising=1).terms.min()))
    ok = verdict(4, "eigenvector structure at H=0",
                 min_inc > 0 and max_anti < 1e-9 and max_mid < 1e-9
                 and min_term >= -1e-12,
                 f"min increment = {min_inc:.3e} (> 0), "
                 f"max |f_k + f_(n-k)| = {max_anti:.3e} (tol 1e-9), "
                 f"max |f_(n/2)| = {max_mid:.3e} (tol 1e-9), "
                 f"min sign term = {min_term:.3e} (tol -1e-12)")
    assert ok


def test_criterion_05_relaxation_decreasing_in_temperature(h0_sweeps):
    """Logical-consequence check of the monotonicity result in temperature
    coordinates: along ascending T = 1/J, over the J > 0 points of each
    passing H=0 sweep, t_rel never increases."""
    checked = 0
    for n, report in h0_sweeps.items():
        if not report.monotone_in_J:
            continue
        view = [(1.0 / p.J, p.t_rel) for p in reversed(report.points) if p.J > 0]
        assert all(a[0] <= b[0] for a, b in zip(view, view[1:])), \
            f"T not ascending at n={n}"
        assert all(b[1] <= a[1] for a, b in zip(view, view[1:])), \
            f"t_rel increased along T at n={n}"
        checked += 1
    ok = verdict(5, "t_rel nonincreasing in temperature", checked == len(h0_sweeps),
                 f"{checked}/{len(h0_sweeps)} sweeps nonincreasing in T")
    assert ok


def test_criterion_06_free_chain_anchor():
    """gap = 1/n and t_rel = n at J = 0, against the sparse full-chain solver."""
    worst_red = 0.0
    worst_full = 0.0
    for n in range(1, 13):
        params = ModelParams(n=n, J=0.0, H=0.0)
        res = second_eigenpair(params)
        worst_red = max(worst_red, abs(res.gap - 1.0 / n),
                        abs(res.t_rel - n) / n)
        lam2_full = float(full_chain_top_eigenvalues(
            symmetrized_full_chain(full_transition_matrix(params)))[1])
        worst_full = max(worst_full, abs((1.0 - lam2_full) - 1.0 / n))
    ok = verdict(6, "closed-form anchor at J=0",
                 worst_red < 1e-10 and worst_full < 1e-10,
                 f"worst reduced deviation = {worst_red:.3e}, "
                 f"worst full-chain deviation = {worst_full:.3e} (tol 1e-10), "
                 f"n = 1..12")
    assert ok


def test_criterion_07_reversibility(full_grid):
    """Detailed balance < 1e-13 and row sums within 1e-14 for both chains."""
    worst_db = max(max(r["db_full"], r["db_red"]) for r in full_grid.values())
    worst_rows = max(max(r["rowsum_full"], r["rowsum_red"])
                     for r in full_grid.values())
    ok = verdict(7, "reversibility of both chains",
                 worst_db < 1e-13 and worst_rows < 1e-14,
                 f"max detailed-balance violation = {worst_db:.3e} (tol 1e-13), "
                 f"max row-sum deviation = {worst_rows:.3e} (tol 1e-14)")
    assert ok


def test_criterion_08_dynamics_cross_validation():
    """Seeded 10^6-sweep runs estimate t_rel within 20% of the spectral
    value (1/(1-lambda2))/n sweeps."""
    cases = [(8, 0.4, 20260810), (10, 0.8, 20260811)]
    details = []
    ok = True
    for n, beta, seed in cases:
        params = ModelParams(n=n, J=beta / n, H=0.0)
        spectral = second_eigenpair(params).t_rel / n
        traj = simulate_reduced(params, seed=seed, steps=1_000_000)
        est = estimate_relaxation(traj, method="exponential_fit")
        rel = abs(est.t_rel_hat - spectral) / spectral
        ok &= rel <= 0.20
        details.append(f"n={n} J*n={beta}: est {est.t_rel_hat:.3f} vs "
                       f"spectral {spectral:.3f} ({rel:.1%})")
    ok = verdict(8, "MCMC relaxation vs spectral", ok,
                 "; ".join(details) + " (tol 20%)")
    assert ok


def test_criterion_09_supercritical_slowdown(tmp_path):
    """Growth-factor comparison at J*n = 1.6 with the ratio table on CSV.

    The inequality asserted here (each t_rel(n+4)/t_rel(n) above its
    predecessor) is implemented exactly as specified.  Measured ratios for
    this chain decrease monotonically toward the asymptotic exponential
    growth factor, so this criterion records an honest failure; the
    decisions ledger carries the analysis.
    """
    ns = (4, 8, 12, 16, 20)
    rows, ratios = supercritical_slowdown_table(ns=ns, coupling_times_n=1.6)
    lines = ["n,J,gap,t_rel,ratio_to_prev"]
    for i, (n, J, gap, t_rel) in enumerate(rows):
        ratio = "" if i == 0 else format(ratios[i - 1], ".17g")
        lines.append(f"{n},{J:.17g},{gap:.17g},{t_rel:.17g},{ratio}")
    csv_path = tmp_path / "supercritical_slowdown.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"slowdown ratio table written to {csv_path}:")
    for line in lines:
        print(f"  {line}")
    growing = all(ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1))
    ok = verdict(9, "supercritical slowdown ratios increasing", growing,
                 "ratios " + ", ".join(f"{r:.3f}" for r in ratios)
                 + (" increase" if growing else
                    " decrease toward the asymptotic exponential factor"))
    assert ok, ("ratio sequence decreases (exponential, not super-exponential "
                "growth); see decisions ledger")


def test_criterion_10_field_sweeps_reported():
    """H != 0 sweeps complete and emit verdicts; nothing asserted beyond
    completion (documented scope limit of the sign argument)."""
    ok = True
    details = []
    for H in (0.1, 0.3):
        report = sweep_monotonicity(8, H, SWEEP_GRID)
        complete = (not report.failures
                    and len(report.points) == len(SWEEP_GRID)
                    and all(np.isfinite(p.lambda2) for p in report.points)
                    and all(p.sign_terms_ok is None for p in report.points))
        ok &= complete
        details.append(f"H={H}: monotone={report.monotone_in_J} "
                       f"(informational), max_violation={report.max_violation:.1e}")
    ok = verdict(10, "field sweeps complete with verdicts", ok, "; ".join(details))
    assert ok
