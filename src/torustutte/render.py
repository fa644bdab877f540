"""SVG rendering of placements on the fundamental square [0,1]^2.

Every edge is drawn from its lift under all nine unit translates and
clipped to the square, so edges crossing the seam show up on both
sides. Clipping is vectorized: one Liang-Barsky pass over all edges per
translate, with the pieces put back in (edge, translate) order, so the
output is the same as clipping edge by edge. Faces with negative signed
area are filled as a warning layer under the edges.
"""

from itertools import islice

import numpy as np

from .geometry import _signed_areas, edge_vectors

_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#27496d" stroke-width="1.4"/>'


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

    src, dst = mesh.directed_edges.T
    drawn = np.flatnonzero(src <= dst)
    a = pos[src[drawn]]
    b = a + vecs[drawn]
    pieces, owners = [], []
    # One translate at a time: a 9E-row tile would hold nine copies of every array.
    for k, offset in enumerate(_OFFSETS):
        p, q, keep = _clip_segments(a + offset, b + offset)
        ends = np.hstack([p[keep], q[keep]])
        # Pixel x is x * size and pixel y is (1 - y) * size.
        pieces.append(np.where([True, False, True, False], ends, 1.0 - ends) * size)
        owners.append(np.flatnonzero(keep) * len(_OFFSETS) + k)
    owners = np.concatenate(owners)
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners[order] // len(_OFFSETS), minlength=len(drawn))
    px = np.concatenate(pieces)[order]
    lines = map(_LINE.__mod__, zip(*px.T.tolist()))
    parts.extend(
        f'<g class="edge" data-edge="{i}-{j}">{"".join(islice(lines, n))}</g>'
        for i, j, n in zip(src[drawn].tolist(), dst[drawn].tolist(), counts.tolist())
    )

    if labels:
        for v, p in enumerate(pos):
            parts.append(
                f'<text x="{p[0] * size + 4:.1f}" y="{(1.0 - p[1]) * size - 4:.1f}" '
                f'font-size="{max(10, size // 60)}" fill="#b33">{v}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts)
