"""Step-product oracle vs closed-form propagators, plus speed diagnostics.

For each family the midpoint time-ordered product is compared against the
rotating-frame propagator (the true solution of i dU/dt = H(t) U), the
second-order convergence of the product is measured, and the projective
speed of an evolving state is checked against sqrt of the energy variance.
"""
import numpy as np

from spinctl import (
    DiracParameters,
    energy_variance,
    evolve_state,
    fs_speed_check,
    schrodinger_propagator,
    su2_family,
    su3_family,
    su4_family,
    time_ordered_exponential,
)

families = [
    su2_family(),
    su3_family(-np.pi / 2),
    su4_family(DiracParameters(m=1.0, p0=[0.4, -0.8, 1.1])),
]

print("closed-form propagator vs midpoint step product (10^4 steps):")
for fam in families:
    span = 2 * np.pi
    if fam.group_id == "su4":
        span = 2 * np.pi / fam.frame[0][0, 0].real  # one 2*pi phase interval
    u = time_ordered_exponential(fam.hamiltonian, 0.0, span, 10_000)
    v = schrodinger_propagator(fam, span, 0.0)
    print(f"  {fam.group_id}: span {span:6.3f}, max gap {np.max(np.abs(u - v)):.3e}")

print("\nmidpoint convergence (su2, halving the step):")
fam = su2_family()
ref = schrodinger_propagator(fam, 2 * np.pi, 0.0)
prev = None
for steps in (100, 200, 400, 800):
    err = np.max(np.abs(time_ordered_exponential(fam.hamiltonian, 0.0, 2 * np.pi, steps) - ref))
    note = f"  ratio {prev / err:.2f}" if prev else ""
    print(f"  steps = {steps:4d}  error = {err:.3e}{note}")
    prev = err

print("\nprojective speed vs sqrt(energy variance), dt = 1e-4:")
dt, steps = 1e-4, 200
for fam in families:
    psi0 = np.zeros(fam.dim, dtype=complex)
    psi0[0] = 1.0
    states = evolve_state(psi0, fam.hamiltonian, 0.0, steps * dt, steps)
    Vs = energy_variance(states, fam.hamiltonian(np.arange(steps + 1) * dt))
    rows = fs_speed_check(states, dt, Vs)
    print(f"  {fam.group_id}: fs speed {rows[0, 0]:.6f}, sqrt variance {rows[0, 1]:.6f}, "
          f"max residual {np.max(rows[:, 2]):.2e}")
