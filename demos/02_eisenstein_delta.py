"""Eisenstein series and the two roads to the discriminant form.

The level-one spaces below weight 12 are one-dimensional, which forces
E4^2 = E8 and E4*E6 = E10 coefficient by coefficient.  In weight 12 the
cusp line appears, and the difference E12 - E8*E4 is a rational multiple
of Delta.  The Eisenstein route to Delta reads it off E12 - E6^2: with
E12 = 1 + (65520/691) sum sigma11(n) q^n, each coefficient is
(65520 sigma11(n) - 691 (E6^2)_n) / 762048, from one squaring.  Everything
here is an exact identity of integer (or 691-adic rational) coefficients,
checked to truncation 300.
"""

from fractions import Fraction

from tauforms import delta_from_eisenstein, delta_product, eisenstein

N = 300

e4 = eisenstein(4, N)
e6 = eisenstein(6, N)
e8 = eisenstein(8, N)
e10 = eisenstein(10, N)
e12 = eisenstein(12, N)

print("leading terms:")
for k, form in ((2, eisenstein(2, N)), (4, e4), (6, e6), (12, e12)):
    print(f"  E{k} = {form.series.to_text(max_terms=4)}")

print()
assert (e4 * e4).series == e8.series
print("E4^2  == E8   coefficient-wise to truncation", N)
assert (e4 * e6).series == e10.series
print("E4*E6 == E10  coefficient-wise to truncation", N)

delta = delta_product(N)
assert (e12 - e8 * e4).series == delta.series.scale(Fraction(65520, 691) - 720)
assert (e12 - e6 * e6).series == delta.series.scale(Fraction(65520, 691) + 1008)
print("E12 - E8*E4 == (65520/691 - 720) * Delta")
print("E12 - E6^2  == (65520/691 + 1008) * Delta")

print()
print("Delta itself, product route vs Eisenstein route:")
assert delta.series == delta_from_eisenstein(N).series
print("  q*prod(1-q^n)^24 == (65520 sigma11(n) - 691 (E6^2)_n)/762048, truncation", N)
assert (e4 * e4 * e4 - e6 * e6).series == delta.series.scale(1728)
print("  q*prod(1-q^n)^24 == (E4^3 - E6^2)/1728, truncation", N)
print("  Delta =", delta.series.to_text(max_terms=6))
