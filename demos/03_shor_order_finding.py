"""Exact Shor order finding at desk scale.

Order finding for f(x) = a^x mod R on registers of 2L and L qubits: a
Hadamard layer on the first register, the modular-exponentiation
permutation, then the QFT on the first register.  Measuring register 1
yields peaks at multiples of 2^{2L} / r, from which the period r of f
follows.
"""


from qimeter import (
    ShorSpec,
    circuit_unitary,
    final_probabilities,
    interference_unitary,
    register1_marginal,
    shor_unitaries,
)

for R, a in [(3, 2), (7, 3)]:
    spec = ShorSpec.for_modulus(R, a)
    period = next(r for r in range(1, R + 1) if pow(a, r, R) == 1)
    print(f"== R = {R}, a = {a}  (n = {spec.n} qubits, true period r = {period}) ==")

    unitaries = shor_unitaries(spec)
    reg1 = register1_marginal(final_probabilities(unitaries.circuit), spec)
    dim1 = 1 << (2 * spec.L)

    print(f"register-1 distribution over {dim1} outcomes (peaks near k * {dim1}/{period}):")
    for k, p in enumerate(reg1):
        if p > 0.01:
            print(f"  outcome {k:3d}: probability {p:.4f}")

    i_pa = interference_unitary(circuit_unitary(unitaries.circuit))
    i_au = interference_unitary(circuit_unitary(unitaries.rest_circuit))
    print(f"potentially available interference: {i_pa:9.3f}  (bound {1 << spec.n} - 1)")
    print(f"actually used interference:         {i_au:9.3f}  (grows exponentially with n)")
    print()

print("The actually-used interference is dominated by the QFT: a permutation")
print("of basis states adds none, so I_au = N - 2^L exactly for these circuits.")
