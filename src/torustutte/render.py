"""SVG rendering of placements on the fundamental square [0,1]^2.

Every edge is drawn from its lift under the nine unit translates and
clipped to the square, so edges crossing the seam show up on both
sides. Edges go in blocks of 4096: per block, one vectorized
Liang-Barsky pass clips the (edge, translate) rows whose translate can
reach the square, in (edge, translate) order, so the output is that of
clipping all nine edge by edge, and one ``%`` writes the block's edge
groups. Faces with negative signed area are filled as a warning layer
under the edges.
"""

import numpy as np

from .geometry import _signed_areas, edge_vectors

_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
_SHIFTS = np.array(_OFFSETS, dtype=float)
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#27496d" stroke-width="1.4"/>'
# The template of an edge drawn in n pieces, n = 0 to 9
_GROUPS = ['<g class="edge" data-edge="%d-%d">' + _LINE * n + "</g>" for n in range(10)]
_BLOCK = 4096


def _clip_segments(p, q):
    """Liang-Barsky clip of the segments p[k] -> q[k], (N, 2) arrays, to the unit square.

    Returns the clipped endpoints (a, b) and a keep mask that is false
    where the intersection is empty or a single point. t0 only grows and
    t1 only shrinks, so one t0 < t1 check at the end suffices; the updates
    keep Python's max/min choice between 0.0 and -0.0.
    """
    d = q - p
    t0 = np.zeros(len(p))
    t1 = np.ones(len(p))
    keep = np.ones(len(p), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in (0, 1):
            # x >= 0 boundary, then x <= 1 boundary.
            for num, den in ((-p[:, axis], d[:, axis]), (p[:, axis] - 1.0, -d[:, axis])):
                keep &= ~((den == 0.0) & (num > 0.0))
                t = num / den
                t0 = np.where((den > 0.0) & (t > t0), t, t0)
                t1 = np.where((den < 0.0) & (t < t1), t, t1)
    a = p + t0[:, None] * d
    b = p + t1[:, None] * d
    keep &= (t0 < t1) & (np.abs(a - b) >= 1e-12).any(axis=1)
    return a, b, keep


def _clip_polygon(points):
    """Sutherland-Hodgman clip of a polygon to the unit square."""
    for axis in (0, 1):
        for bound, keep_ge in ((0.0, True), (1.0, False)):
            clipped = []
            for k, cur in enumerate(points):
                prev = points[k - 1]
                cur_in = cur[axis] >= bound if keep_ge else cur[axis] <= bound
                prev_in = prev[axis] >= bound if keep_ge else prev[axis] <= bound
                if cur_in != prev_in:
                    t = (bound - prev[axis]) / (cur[axis] - prev[axis])
                    clipped.append(
                        (
                            prev[0] + t * (cur[0] - prev[0]),
                            prev[1] + t * (cur[1] - prev[1]),
                        )
                    )
                if cur_in:
                    clipped.append(cur)
            points = clipped
    return points


def render_svg(mesh, placement, size=800, labels=False, highlight_flipped=True):
    """Render a placement to an SVG string.

    Parameters
    ----------
    size : pixel width and height of the output square, at least 1.
    labels : draw vertex ids at their wrapped positions.
    highlight_flipped : fill faces with negative signed area.
    """
    if size < 1:
        raise ValueError("size must be a positive integer")
    vecs = edge_vectors(mesh, placement)
    pos = np.mod(placement.coords, 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#fdfdfb" '
        'stroke="#888" stroke-width="1"/>',
    ]

    if highlight_flipped:
        for fi in np.flatnonzero(_signed_areas(vecs[mesh.face_edges]) < 0):
            base = pos[mesh.faces[fi][0]]
            e_ij, e_jk, _ = mesh.face_edges[fi]
            tri = [tuple(base), tuple(base + vecs[e_ij]), tuple(base + vecs[e_ij] + vecs[e_jk])]
            for ox, oy in _OFFSETS:
                poly = _clip_polygon([(x + ox, y + oy) for x, y in tri])
                if len(poly) >= 3:
                    pts = " ".join(f"{x * size:.3f},{(1.0 - y) * size:.3f}" for x, y in poly)
                    parts.append(
                        f'<polygon class="flipped" data-face="{int(fi)}" '
                        f'points="{pts}" fill="#e4572e" fill-opacity="0.45" stroke="none"/>'
                    )

    # Edges go in blocks, which keep the clip arrays and the boxed
    # arguments of each % small.
    drawn = np.flatnonzero(mesh.directed_edges[:, 0] <= mesh.directed_edges[:, 1])
    for start in range(0, len(drawn), _BLOCK):
        edges = drawn[start : start + _BLOCK]
        a = pos[mesh.directed_edges[edges, 0]]
        b = a + vecs[edges]
        # Clip only the translates whose shifted closed x and y ranges meet
        # [0, 1]. lo + o and hi + o round as the clip's a + offset does, so
        # each row left out is one the clip rejects; rows stay in (edge,
        # translate) order.
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        meets = np.stack([(lo + o <= 1.0) & (hi + o >= 0.0) for o in (-1.0, 0.0, 1.0)], axis=1)
        reach = meets[:, :, None, 0] & meets[:, None, :, 1]
        row, k = np.divmod(np.flatnonzero(reach), len(_OFFSETS))
        p, q, keep = _clip_segments(a[row] + _SHIFTS[k], b[row] + _SHIFTS[k])
        ends = np.hstack([p[keep], q[keep]])
        # Pixel x is x * size and pixel y is (1 - y) * size.
        px = np.where([True, False, True, False], ends, 1.0 - ends) * size
        n = np.bincount(row[keep], minlength=len(edges))
        # Each edge's ids as ints, then the pixel floats of its pieces.
        ids = mesh.directed_edges[edges].ravel()
        args = np.insert(px.ravel().astype(object), np.repeat(4 * (np.cumsum(n) - n), 2), ids)
        parts.append("\n".join(map(_GROUPS.__getitem__, n.tolist())) % tuple(args))

    if labels:
        # np.mod gives exactly 1.0 for tiny negative coordinates; that is 0.0
        for v, p in enumerate(np.where(pos < 1.0, pos, 0.0)):
            parts.append(
                f'<text x="{p[0] * size + 4:.1f}" y="{(1.0 - p[1]) * size - 4:.1f}" '
                f'font-size="{max(10, size // 60)}" fill="#b33">{v}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts)
