"""Brachistochrone flow on su(2) against its closed form.

A transverse Hamiltonian H(0) = sigma_x constrained by F = -sigma_z / 2
sweeps out H(t) = cos(t) sigma_x + sin(t) sigma_y. The run shows the RK4
trajectory matching the closed form, the conserved monitors, and the
fourth-order convergence of the integrator.
"""
import numpy as np

from spinctl import OperatorPair, canonical_split, integrate

split = canonical_split("su2")
print("split:", split.hamiltonian_labels, "|", split.constraint_labels)

start = OperatorPair(h_coeffs=np.array([1.0, 0.0]), f_coeffs=np.array([-0.5]))
traj = integrate(start, split, h=1e-3, T=2 * np.pi, sample_stride=500)

print("\n  t        sx(t)      sy(t)     cos(t)     sin(t)")
for k, t in enumerate(traj.times):
    sx, sy = traj.h_coeffs[k]
    print(f"  {t:6.3f}  {sx:+.6f}  {sy:+.6f}  {np.cos(t):+.6f}  {np.sin(t):+.6f}")

closed = np.stack([np.cos(traj.times), np.sin(traj.times)], axis=1)
print("\nmax |integrated - closed form| =", np.max(np.abs(traj.h_coeffs - closed)))

drift = traj.monitor_drift()
print("monitor drift over one period: Tr H^2 {:.2e}, Tr F^2 {:.2e}".format(*drift))

print("\nRK4 order check (terminal error vs closed form):")
errors = {}
for h in (0.1, 0.05, 0.025):
    t2 = integrate(start, split, h=h, T=2 * np.pi, sample_stride=10 ** 9)
    t_end = t2.times[-1]
    errors[h] = np.max(np.abs(t2.h_coeffs[-1] - [np.cos(t_end), np.sin(t_end)]))
    print(f"  h = {h:5.3f}  error = {errors[h]:.3e}")
print(f"  halving ratios: {errors[0.1] / errors[0.05]:.1f}, {errors[0.05] / errors[0.025]:.1f} (expect ~16)")
