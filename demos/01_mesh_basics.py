"""Build torus triangulations and inspect their combinatorics.

A mesh is a list of oriented triangles plus a lattice shift per directed
edge saying how the edge wraps around the torus. The validator checks
orientability, manifoldness, the Euler count, and that the shifts close
up around every face; generator loops certify the shifts actually span
both wrap directions.
"""

import numpy as np

from torustutte import gen_grid, gen_k7, generator_loops

mesh, placement = gen_grid(4)
print("4x4 grid torus")
print(f"  vertices {mesh.vertex_count}, edges {mesh.edge_count}, "
      f"faces {len(mesh.faces)}")
print(f"  Euler characteristic "
      f"{mesh.vertex_count - mesh.edge_count + len(mesh.faces)}")

# the rotation system lists the outgoing edges of each vertex in cyclic
# order: those of v are rotation_edges[rotation_offsets[v]:rotation_offsets[v + 1]]
start, end = mesh.rotation_offsets[0:2]
ring = mesh.directed_edges[mesh.rotation_edges[start:end], 1].tolist()
print(f"  neighbours of vertex 0 in cyclic order: {ring}")

# loops list vertices cyclically, the edge back to the start is implicit
loops = generator_loops(mesh)
print(f"  horizontal generator ({len(loops.horizontal)} edges): "
      f"{loops.horizontal}")
print(f"  vertical generator   ({len(loops.vertical)} edges): "
      f"{loops.vertical}")

# K7 is the smallest triangulation of the torus: every pair of its
# seven vertices is an edge
k7, k7_placement = gen_k7()
print("\nK7, the complete graph on 7 vertices")
print(f"  vertices {k7.vertex_count}, edges {k7.edge_count}, "
      f"faces {len(k7.faces)}")
degrees = [k7.degree(v) for v in range(k7.vertex_count)]
print(f"  vertex degrees: {degrees}")
k7_loops = generator_loops(k7)
print(f"  generator lengths: {len(k7_loops.horizontal)} and "
      f"{len(k7_loops.vertical)}")

# seam edges carry nonzero shifts; interior edges carry none
wrapping = int(np.count_nonzero(np.any(mesh.shifts != 0, axis=1)))
print(f"\ngrid seam (wrapping) directed edges: {wrapping} of "
      f"{2 * mesh.edge_count}")
