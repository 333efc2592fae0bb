"""
The unique dihedral action on (2, 2, 2, 2g)
===========================================

Among the admissible signatures, the four-period one (0;+;[2,2,2,2g];{-})
carries the uniparametric family: the dihedral group of order 4g acts, and
all of its smooth actions are topologically the same.
"""

# family_group(g) is the dihedral group of order 4g with generators D, A
from fourg import braid_move, canonical_vector, classify, family_group

g = 3
G = family_group(g)
print("group:", G.name, "of order", G.order)

# A smooth action is encoded by a generating vector: images of the four
# cone generators, with orders matching the periods and product one.
v = canonical_vector(g)
print("canonical vector:", v)

# classify() gathers generating vectors into orbits under braid moves and
# group automorphisms.  Automorphisms act freely on generating vectors, so a
# class is held as the Cayley-graph keys of its automorphism classes: its
# size is |Aut(G)| times the key count.  The search starts vectors only at
# conjugacy-class minima and counts the rest by class size; the classes'
# sizes must add up to that count, which certifies that none was missed.
classes = classify(G, (2, 2, 2, 2 * g))
print("number of action classes:", len(classes))
print("orbit size:", classes[0].size)

# Braid moves shuffle the vector inside its class; position i swaps the
# i-th and (i+1)-st images, conjugating one by the other.
moved = braid_move(v, 1)
print("after one braid move:", moved)
print("still in the class:", classes[0].contains(moved.images))

# The same uniqueness holds for every genus in 2..10 (and beyond); the
# acceptance tests sweep the range.
for g in range(2, 7):
    n = len(classify(family_group(g), (2, 2, 2, 2 * g)))
    print(f"genus {g}: {n} class(es)")
