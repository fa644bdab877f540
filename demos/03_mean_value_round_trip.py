"""Recover an embedding from its own mean value weights.

Mean value weights are computed per directed edge from the two angles
at its source corner. They are balanced by construction, so feeding
them back through the balance solver reproduces the embedding that
generated them, up to solver roundoff. This is the section property:
weights -> placement -> weights is the identity on embeddings.
"""

import numpy as np

from torustutte import gen_grid, mean_value_weights, perturb, tutte_map

mesh, regular = gen_grid(5)

for seed in (1, 2, 3):
    bumpy = perturb(mesh, regular, 0.3 / 5, seed=seed)
    weights = mean_value_weights(mesh, bumpy)
    recovered = tutte_map(mesh, weights)
    sup = np.abs(recovered.coords - bumpy.coords).max()
    print(f"seed {seed}: perturbed 5x5 grid, round trip sup error {sup:.3e}")

# the weights themselves are strictly positive and scale-sensitive:
# shrinking the picture scales every weight up by the same factor
bumpy = perturb(mesh, regular, 0.3 / 5, seed=1)
weights = mean_value_weights(mesh, bumpy)
print(f"\nweight range on seed 1: [{weights.values.min():.4f}, "
      f"{weights.values.max():.4f}]")

i, j = map(int, mesh.directed_edges[0])
row = int(mesh.edge_ids(i, j))
print(f"weight of edge ({i}, {j}): {weights.values[row]:.6f}")
