"""
Nodal limits at the boundary of moduli space
============================================

Pinching curves on the surfaces of the family produces stable surfaces
with nodes.  Which nodal surfaces arise is a finite computation: collapse
a cone generator of the quotient, read off the subgroup the rest still
generates, and rebuild the dual graph of the limit.
"""

from fourg import (
    boundary_description,
    build_extensions,
    canonical_vector,
    main_action_class,
    nodal_graph,
)

# Two degeneration systems exist for the four-period quotient.  The first
# pinches between the handles: the limit is a dipole graph.  Each genus
# builds its family vector once; the boundary below reads it again.
vectors = {g: canonical_vector(g) for g in (4, 5, 6, 7)}
for g, v in vectors.items():
    graph = nodal_graph(v, 1)
    print(f"genus {g}: {graph.label} with vertex genera {graph.vertex_genera}"
          f" and {len(graph.edges)} edge(s)")

# The second crushes everything onto one rational component with g loops.
g = 5
v = vectors[g]
rose = nodal_graph(v, 2)
print(f"\ngenus {g}, second system: {rose.label},"
      f" vertex genera {rose.vertex_genera}, {len(rose.edges)} loop(s)")

# Both graphs reassemble the genus: sum of vertex weights + first Betti
# number of the graph.
print("dipole total genus:", nodal_graph(v, 1).total_genus)
print("rose total genus:", rose.total_genus)

# The three real arcs of the family join three limit surfaces in a cycle:
# the dipole limit X_D, the rose limit X_R, and the smooth curve X_8g with
# twice as many automorphisms (Wiman's curve of type II).  The nodal
# endpoints are pinched from the family vector v.
description = boundary_description(v, build_extensions(main_action_class(g)))
for arc in description.arcs:
    print(f"arc {arc.label}: species {list(arc.species_values)}, joins"
          f" {sorted(arc.endpoints)}")
print("Wiman curve:", description.wiman_curve.equation,
      "with", description.wiman_curve.automorphism_count, "automorphisms")

# Genus 2 is the lone exception: there |Aut| = 48.
genus_two = boundary_description(
    canonical_vector(2), build_extensions(main_action_class(2))
)
print("at genus 2:", genus_two.wiman_curve.automorphism_count)
