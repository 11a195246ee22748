"""The qutrit family and its eigenstate-representation gate Q(t).

Q(0) is a Hadamard-like 3x3 unitary mixing the first two levels; the whole
propagator family factorizes as U(t, s) = Q(t) Q(s)^dag, so Q serves both
as a diagonalizing map and as a logic gate.
"""
import numpy as np

from spinctl import su3_family, su3_gate
from spinctl.matrixcore import dagger

np.set_printoptions(precision=4, suppress=True, linewidth=100)

print("Q(0):")
print(su3_gate(0.0).real)

theta = -np.pi / 2
fam = su3_family(theta)

print("\nQ(t) is unitary for all t; spot checks:")
for t in (0.0, 0.9, 2.2):
    q = fam.gate(t)
    print(f"  t = {t:3.1f}: unitary deviation {np.max(np.abs(q @ dagger(q) - np.eye(3))):.2e}")

print("\nU(t, s) = Q(t) Q(s)^dag:")
for t, s in ((0.8, 0.0), (1.7, -0.4)):
    gap = np.max(np.abs(fam.gate(t) @ dagger(fam.gate(s)) - fam.propagator(t, s)))
    print(f"  t = {t}, s = {s}: max gap {gap:.2e}")

print("\nQ(t) diagonalizes H(t) with a static spectrum (1, -1, 0):")
for t in (0.0, 1.1):
    d = dagger(fam.gate(t)) @ fam.hamiltonian(t) @ fam.gate(t)
    print(f"  t = {t}: Q^dag H Q =", np.round(np.diag(d).real, 12))

print("\naction of Q(0) on the computational basis:")
for k in range(3):
    e = np.zeros(3)
    e[k] = 1.0
    print(f"  |{k}> ->", np.round(su3_gate(0.0) @ e, 4))
