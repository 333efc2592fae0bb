"""
Real forms, ovals, and species
==============================

Each anticonformal involution of a surface is a real form of the curve;
its fixed curves ("ovals") are counted and signed into a species.  The
multiset of species over all conjugacy classes of involutions is the
symmetry type of the family.
"""

from fourg import (
    build_extensions,
    main_action_class,
    species_set,
    symmetry_classes_with_ovals,
)

# Each extension class determines the symmetry type of the surfaces on its
# arc of the family.
for g in (4, 5):
    print(f"genus {g}:")
    for e in build_extensions(main_action_class(g)):
        classes = symmetry_classes_with_ovals(e)
        print(f"  {e.label}: species {list(species_set(e, classes))}")

# The species come from conjugacy classes of symmetries; the oval count of
# each class is a centralizer-index computation.
g = 5
e = build_extensions(main_action_class(g))[0]
print(f"genus {g}, class {e.label}:")
for rep, ovals in symmetry_classes_with_ovals(e):
    print(f"  symmetry {rep.name}: {ovals} oval(s),"
          f" class of {e.group.class_size(rep.idx)} involution(s)")

# A species of 0 is a fixed-point-free symmetry; negative species are
# non-separating real forms.  Harnack's bound caps every count at g + 1,
# and the engine validates it whenever it signs a species:
from fourg import signed_species

try:
    signed_species(5, 9, True)
except Exception as err:
    print("rejected:", err)
