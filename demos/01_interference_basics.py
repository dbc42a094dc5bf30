"""Measuring interference: one gate at a time.

The interference of a channel counts how strongly computational basis
states are coherently fanned out.  For a unitary U it is N - sum |U|^4,
bounded by N - 1; its logarithm (i-bits) makes the Hadamard the unit:
one Hadamard = one i-bit.
"""

import math

import numpy as np

from qimeter import (
    KrausChannel,
    circuit_unitary,
    ibits,
    interference_kraus,
    interference_superoperator,
    interference_unitary,
    perturbed_hadamard,
    superoperator_from_kraus,
    walsh_layer,
)
from qimeter.linalg import HADAMARD, PAULI_Z, identity

print("-- single gates --")
for label, u in [
    ("identity", identity(2)),
    ("Hadamard", HADAMARD),
    ("sigma_z ", PAULI_Z),
]:
    value = interference_unitary(u)
    print(f"{label}: I = {value:.4f}   i-bits = {ibits(value):.4f}")

print()
print("-- Walsh-Hadamard layers: I = 2^n - 1, so n qubits give n i-bits --")
for n in range(1, 7):
    u = circuit_unitary(walsh_layer([math.pi / 4] * n))
    value = interference_unitary(u)
    print(f"n = {n}:  I = {value:10.4f}   i-bits = {ibits(value):.4f}")

print()
print("-- the perturbed Hadamard H(theta): I = sin^2(2 theta) --")
for theta in np.linspace(0, math.pi / 2, 9):
    value = interference_unitary(perturbed_hadamard(theta))
    bar = "#" * int(40 * value)
    print(f"theta = {theta:6.4f}   I = {value:.4f}  {bar}")

print()
print("-- three equivalent routes to the same number --")
ch = KrausChannel(np.array([np.sqrt(0.5) * identity(2), np.sqrt(0.5) * PAULI_Z]))
print("channel: full dephasing {sqrt(1/2) I, sqrt(1/2) sigma_z}")
print("  operator-sum form:   ", interference_kraus(ch))
print("  superoperator form:  ", interference_superoperator(superoperator_from_kraus(ch)))
print("  (a purely classical map carries zero interference)")
