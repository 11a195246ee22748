"""su(4) eigenframes, the diagonal conjugator, and constraint transport.

Demonstrates the non-unitary eigenframe W(t) realizing H(t) = W D0 W^-1,
shows why the conjugator's phase sign is fixed by the isometry (the other
sign visibly fails), and transports a constraint operator, whose diagonal
blocks stay frozen while the off-diagonal blocks rotate at 2E.
"""
import numpy as np

from spinctl import (
    DiracParameters,
    build_basis,
    dirac_hamiltonian,
    reconstruct,
    su4_constraint_t,
    su4_eigenframe,
    su4_propagator,
)
from spinctl.matrixcore import dagger

np.set_printoptions(precision=4, suppress=True, linewidth=120)

params = DiracParameters(m=1.0, p0=[0.4, -0.8, 1.1])
print(f"m = {params.m}, p0 = {params.p0}, E = {params.energy:.6f}")

t = 0.7
frame = su4_eigenframe(params, t)
print("\n|W W^-1 - 1| max:", np.max(np.abs(frame.w @ frame.w_inv - np.eye(4))))
print("|W D0 W^-1 - H(t)| max:",
      np.max(np.abs(frame.hamiltonian() - dirac_hamiltonian(params, t))))
print("|W^dag W - 1| max (W is NOT unitary):",
      np.max(np.abs(dagger(frame.w) @ frame.w - np.eye(4))))

print("\nIsometry residual |U H(s) U^dag - H(t)| for both phase signs:")
s = -0.3
u = su4_propagator(params, t, s)  # the audited sign, -1; its conjugate carries +1
for sign, u in ((-1, u), (+1, u.conj())):
    resid = np.max(np.abs(u @ dirac_hamiltonian(params, s) @ dagger(u)
                          - dirac_hamiltonian(params, t)))
    print(f"  phase_sign = {sign:+d}: {resid:.3e}")

basis = build_basis("su4")
rng = np.random.default_rng(1)
f0 = rng.uniform(-1, 1, 15)
for label in ("s30", "s11", "s12", "s13"):
    f0[basis.index(label)] = 0.0  # keep the constraint off the Hamiltonian span
f_start = reconstruct(f0, basis)

print("\nConstraint transport F(t) = U(t,0) F(0) U(t,0)^dag:")
for t in (0.0, 0.4, 1.2):
    ft = su4_constraint_t(f0, params, t)
    diag_drift = max(np.max(np.abs(ft[:2, :2] - f_start[:2, :2])),
                     np.max(np.abs(ft[2:, 2:] - f_start[2:, 2:])))
    phase = np.exp(-2j * params.energy * t)
    offdiag = np.max(np.abs(ft[:2, 2:] - phase * f_start[:2, 2:]))
    print(f"  t = {t:3.1f}: diagonal blocks drift {diag_drift:.1e}, "
          f"off-diagonal vs e^(-2iEt) rotation {offdiag:.1e}")
