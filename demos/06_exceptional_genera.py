"""
Beyond the families: sporadic genera and exceptional surfaces
=============================================================

Three of the admissible signatures are rigid (zero-dimensional) and a
case-by-case argument removes them: their actions either extend to a
larger group or do not exist.  At a thin set of genera, however, triangle
signatures pass the arithmetic sieve, and at a few of those an actual
exceptional surface exists.
"""

from fourg import eliminate_cases, exceptional_search, recognize, small_groups, sporadic_genera

# The rigid signatures at genus 4 and how each one falls.
cases = eliminate_cases(4)
for case in cases:
    print(f"family {case['family']} on periods {case['periods']}: {case['verdict']}")

# The family-3 analysis keeps only one twisted product and rejects the
# rest by element orders or missing smooth vectors.
fam3 = cases[2]["details"]
print("surviving twist exponent:", fam3["surviving_twist"])
print("rejected twists:", dict(fam3["rejected_twists"]))

# Genus 3 is the first sporadic genus.  A search over the complete list of
# order-12 groups finds candidate actions on both special signatures.
print("\ngenus 3 search:")
for signature, cls in exceptional_search(3, small_groups(12)):
    print(f"  {signature} via {recognize(cls.group)}"
          f" (orbit {cls.size})")

# Genus 5 also passes the sieve -- via periods (5,5,5) -- but the complete
# order-20 catalog realizes nothing, so the census rightly skips it.
print("genus 5 search:", exceptional_search(5, small_groups(20)))
print("sporadic sieve up to 30:", sporadic_genera(30))
