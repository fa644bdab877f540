"""Render placements to SVG, wrapping edges across the torus seams.

Each edge is drawn as one line under every unit translate that meets
the fundamental square, and the SVG viewport clips the lines to it, so
a seam edge shows up as the usual split segments. Faces with negative
signed area are filled as highlighted polygons, which makes folded
placements easy to spot.
"""

from pathlib import Path

from torustutte import Placement, gen_grid, perturb, render_svg, verify_embedding

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

mesh, regular = gen_grid(4)
bumpy = perturb(mesh, regular, 0.3 / 4, seed=3)

good = OUT / "grid4_embedded.svg"
good.write_text(render_svg(mesh, bumpy, size=600, labels=True))
print(f"wrote {good} (labeled, no flipped faces)")

# pull one vertex far enough to fold its star
coords = bumpy.coords.copy()
coords[5] += (0.3, 0.3)
folded = Placement(coords)
report = verify_embedding(mesh, folded)
flipped = int((report.face_areas < 0).sum())
print(f"after moving vertex 5: embedding={report.is_embedding}, "
      f"{flipped} flipped faces")

bad = OUT / "grid4_folded.svg"
bad.write_text(render_svg(mesh, folded, size=600))
print(f"wrote {bad} (flipped faces highlighted)")
