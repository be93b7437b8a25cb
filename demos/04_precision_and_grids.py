"""Haar-averaged precision: strength sweeps, optima and error histograms.

Reproduces the precision-comparison tables at reduced sample counts.
The full-size runs live behind the ``dmres scenario fig4a`` / ``fig4b``
commands.
"""

import numpy as np

from dmres import ShotPolicy, error_histogram, g_sweep
from dmres.precision import SystemSpec, default_g_grid

policy = ShotPolicy(n_t=1.0)
system = SystemSpec(1, 3)

# Mean precision at the single-coupling optimum: a sweep over one strength.
report = g_sweep(system, ["res"], [np.pi / 4], 2000, policy, seed=0)
row = report.rows[0]
print(f"qutrit res at pi/4: n_t*Delta^2 = {row.nt_delta2:.6f} +- {row.mc_stderr:.1e}")

# Sweep both schemes over a small grid with matched Haar samples.
grid = default_g_grid(9)
sweep = g_sweep(system, ["res", "seq"], grid, 1000, policy, seed=0)
print("\n  g        res nt*Delta^2    seq nt*Delta^2")
res_rows = {r.g: r for r in sweep.rows if r.scheme == "res"}
seq_rows = {r.g: r for r in sweep.rows if r.scheme == "seq"}
for g in grid:
    res = f"{res_rows[g].nt_delta2:12.4f}" if g in res_rows else "   (skipped)"
    seq = f"{seq_rows[g].nt_delta2:12.4f}" if g in seq_rows else "   (skipped)"
    print(f"{g:7.4f} {res}   {seq}")
print("optima:", {f"{k[0]}": f"{v:.4f}" for k, v in sweep.argmin.items()})

# Distribution of per-state standard errors at the sequential optimum.
hist = error_histogram(system, "seq", np.pi / 2, 2000, policy, bins=12, seed=0)
print(f"\nseq per-state errors at pi/2: mean {hist.mean_error:.4f}, max {hist.max_error:.4f}")
peak = hist.counts.max()
for left, right, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts):
    print(f"  [{left:.3f}, {right:.3f})  {'#' * int(40 * count / peak)}")
