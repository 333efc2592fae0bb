"""
Extending the action by anticonformal symmetries
================================================

Surfaces in the main family are real: the order-4g action extends to an
order-8g group containing orientation-reversing elements.  There are two
shapes of extension, one with a mirror quotient and one with a cone-point
quotient, and finitely many classes of each.
"""

from fourg import build_extensions, main_action_class, recognize, restrict_to_index2

g = 5

# One list of the three classes [a1, a2, b].  Kind "a" (a1, a2): the
# quotient orbifold is a disc with mirror boundary; the target group is
# dihedral x C2.  Kind "b": the quotient keeps a cone point; a single
# class exists.  The extensions are certified against the unique class of
# the order-4g action, so they are built from it.
main = main_action_class(g)
extended = build_extensions(main)
for e in extended:
    print(e.label, "on", e.signature, "->", recognize(e.group))

# The target of kind b depends on the parity of g: dihedral of order 8g
# for even g, dihedral x C2 for odd g.
for g2 in (4, 5, 6, 7):
    *_, b2 = build_extensions(main_action_class(g2))
    print(f"genus {g2}: kind-b target is {recognize(b2.group)}")

# Sanity anchor: restricting any extension to its orientation-preserving
# half lands back in the unique dihedral class.
for e in extended:
    print(e.label, "restricts into the main class:",
          main.contains(restrict_to_index2(e)))
