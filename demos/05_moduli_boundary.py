"""
Nodal limits at the boundary of moduli space
============================================

Pinching curves on the surfaces of the family produces stable surfaces
with nodes.  Which nodal surfaces arise is a finite computation: collapse
a cone generator of the quotient, read off the subgroup the rest still
generates, and rebuild the dual graph of the limit.
"""

from fourg import build_report, canonical_vector, nodal_graph


def genera(graph):
    """Vertex genera of a dual-graph record, as a tuple."""
    return tuple(vertex["genus"] for vertex in graph["vertices"])


def total_genus(graph):
    """Sum of (vertex genus - 1) over the vertices, plus edges, plus one."""
    return sum(h - 1 for h in genera(graph)) + len(graph["edges"]) + 1


# Two degeneration systems exist for the four-period quotient.  The first
# pinches between the handles: the limit is a dipole graph.  Each genus
# builds its family vector once.
vectors = {g: canonical_vector(g) for g in (4, 5, 6, 7)}
for g, v in vectors.items():
    graph = nodal_graph(v, 1)
    print(f"genus {g}: {graph['label']} with vertex genera {genera(graph)}"
          f" and {len(graph['edges'])} edge(s)")

# The second crushes everything onto one rational component with g loops.
g = 5
v = vectors[g]
rose = nodal_graph(v, 2)
print(f"\ngenus {g}, second system: {rose['label']},"
      f" vertex genera {genera(rose)}, {len(rose['edges'])} loop(s)")

# Both graphs reassemble the genus: sum of vertex weights + first Betti
# number of the graph.
print("dipole total genus:", total_genus(nodal_graph(v, 1)))
print("rose total genus:", total_genus(rose))

# The three real arcs of the family join three limit surfaces in a cycle:
# the dipole limit X_D, the rose limit X_R, and the smooth curve X_8g with
# twice as many automorphisms (Wiman's curve of type II).  The report of
# the genus carries that loop as its "boundary" record.
boundary = build_report(g)["boundary"]
for arc in boundary["arcs"]:
    print(f"arc {arc['label']}: species {arc['species']}, joins"
          f" {arc['endpoints']}")
wiman = boundary["endpoints"]["X_8g"]
print("Wiman curve:", wiman["equation"],
      "with", wiman["automorphisms"], "automorphisms")

# Genus 2 is the lone exception: there |Aut| = 48.
print("at genus 2:", build_report(2)["boundary"]["endpoints"]["X_8g"]["automorphisms"])
