"""
Admissible signatures for groups of order 4g
============================================

A finite group acting on a genus-g surface acts through a quotient
orbifold, recorded as a signature.  When the group order is exactly 4g,
exact area arithmetic pins down the handful of signatures that can occur.
"""

from fractions import Fraction

# parse_signature reads the standard notation (genus; sign; periods; cycles)
from fourg import enumerate_4g_signatures, normalized_area, parse_signature, sporadic_genera

# The quotient of the main genus-2 family: a sphere with four cone points.
s = parse_signature("(0;+;[2,2,2,4];{-})")
print("signature:", s)
print("normalized area:", normalized_area(s))

# The covering relation fixes the area: a genus-g surface over an order-4g
# group needs quotient area (2g - 2)/4g.  Genus 2 gives 1/4.
g = 2
print("required area at genus 2:", Fraction(2 * g - 2, 4 * g))

# Enumerating all solutions is exact arithmetic, no search heuristics.
for g in (2, 3, 5, 8):
    print(f"\ngenus {g}:")
    for sig, tag in enumerate_4g_signatures(g):
        print(f"  {sig}  [{tag}]")

# Triangle signatures ("sporadic" tag) only pass the sieve at special
# genera.  Up to 100 they are:
print("\nsporadic genera up to 100:", sporadic_genera(100))

# Genus 5 appears via periods (5,5,5) -- a later demo shows that no
# order-20 group actually realizes it.
