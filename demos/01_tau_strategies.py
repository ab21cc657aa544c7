"""Ramanujan's tau four ways.

The discriminant cusp form has the expansion q*prod(1-q^n)^24 = sum tau(n) q^n.
The same numbers fall out of E12 - E6^2 = (762048/691) Delta, as
(65520 sigma11(n) - 691 (E6^2)_n)/762048, of a sigma3-convolution of van der
Pol type, and of Niebur's formula that needs nothing beyond sigma(n).
All four routes are exact integer arithmetic and must agree to the last digit.
"""

from tauforms import TAU_STRATEGIES, tau, tau_cross_check, tau_range

print("tau(n) for n = 1..10, by strategy")
print(f"{'n':>4} " + " ".join(f"{s:>12}" for s in TAU_STRATEGIES))
for n in range(1, 11):
    row = [tau(n, s) for s in TAU_STRATEGIES]
    assert len(set(row)) == 1
    print(f"{n:>4} " + " ".join(f"{v:>12}" for v in row))

print()
print("cross-checking every strategy up to n = 500 ...")
values = tau_cross_check(500)
print(f"agreed; tau(500) = {values[500]}")

print()
print("multiplicativity at coprime arguments (a Hecke fact, used as a probe):")
for a, b in ((2, 3), (3, 4), (4, 5), (5, 7)):
    assert values[a * b] == values[a] * values[b]
    print(f"  tau({a})*tau({b}) = tau({a * b}) = {values[a * b]}")

print()
print("the bulk table sieves sigma3 once and takes the van der Pol sum")
print("as one squaring of m*sigma3(m); tau(1..10^4) that way:")
bulk = tau_range(10 ** 4, "vdp")
print(f"  tau(9999)  = {bulk[9999]}")
print(f"  tau(10000) = {bulk[10000]}")
