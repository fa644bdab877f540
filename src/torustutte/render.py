"""SVG rendering of placements on the fundamental square [0,1]^2.

Every edge is drawn as one line under each unit translate whose box
meets the square, and the SVG viewport clips it, so edges crossing the
seam show up on both sides. An edge longer than 3 is first cut to
length 3 along itself: its drawn start lies in [-1, 2]^2, within
2 sqrt(2) of every point of the square, so the picture does not change,
and every pixel value stays in [-4 size, 5 size]. Edges go in blocks of
4096, written as byte-string records with the digits of every number
looked up in tables; the bytes are those ``%.3f`` and ``%d`` write.
Faces with negative signed area are filled as a warning layer under the
edges, clipped one (face, translate) pair at a time where the pair's
bounding box meets the square.
"""

import numbers
import re

import numpy as np

from .geometry import _signed_areas, edge_vectors

_SHIFTS = np.array([(ox, oy) for ox in (-1.0, 0.0, 1.0) for oy in (-1.0, 0.0, 1.0)])
_LINE = (
    '<line class="edge" data-edge="%d-%d" x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
    'stroke="#27496d" stroke-width="1.4"/>'
)
_BLOCK = 4096
MAX_SIZE = 10**15  # keeps every pixel value, at most 5 * size, times 1000 inside int64
# Three-digit chunks as S3 strings: "000" to "999"; then unpadded, with 0
# as "" for a leading chunk; then unpadded, with 0 as "0" for a lone one.
_CHUNKS = np.array([b"%03d" % k for k in range(1000)] + [b"%d" % k for k in range(1000)] * 2)
_CHUNKS[1000] = b""
_FRACS = np.array([b".%03d" % k for k in range(1000)])


def _decimal(values):
    """``%d`` of the non-negative int64 ``values`` as byte strings of one
    width, a multiple of 3, with 0 bytes in place of leading zeros."""
    chunks = -(-len(str(int(values.max(initial=0)))) // 3)
    out = np.empty((len(values), chunks), "S3")
    for k in range(chunks - 1, -1, -1):
        values, low = np.divmod(values, 1000)
        out[:, k] = _CHUNKS[low + np.where(values == 0, 2000 if k == chunks - 1 else 1000, 0)]
    return out.view(f"S{3 * chunks}").ravel()


def _write_lines(ids, px, id_digits):
    """Edge lines as bytes, each followed by a newline, from the (i, j) rows
    ``ids``, the pixel values ``px`` (x1, y1, x2, y2) of every line and the
    :func:`_decimal` table ``id_digits``."""
    # q = |x| * 1000 rounded as %.3f rounds: rint of the product, or %.3f
    # itself where the product's error, at most scaled * 2**-53, may cross a tie.
    scaled = np.abs(px) * 1000.0
    rounded = np.rint(scaled)
    near = 0.5 - np.abs(scaled - rounded) <= scaled * 2.0**-52
    q = rounded.astype(np.int64)
    q[near] = [int(("%.3f" % x).replace(".", "")) for x in np.abs(px[near]).tolist()]
    whole, frac = np.divmod(q, 1000)
    whole = _decimal(whole.ravel()).reshape(whole.shape)
    signs = np.where(np.signbit(px), b"-", b"")

    values = [[id_digits[ids[:, 0]]], [id_digits[ids[:, 1]]]]
    values += [[signs[:, k], whole[:, k], _FRACS[frac[:, k]]] for k in range(4)]
    fields = []
    for text, value in zip(re.split(r"%d|%\.3f", _LINE), values + [[b"\n"]]):
        fields += [text, *value]
    dtype = [(f"f{k}", np.asarray(value, "S").dtype) for k, value in enumerate(fields)]
    out = np.zeros(len(px), dtype)
    for k, value in enumerate(fields):
        out[f"f{k}"] = value
    raw = out.view(np.uint8)  # unused bytes are 0
    return raw[raw != 0].tobytes()


def _meeting_translates(lo, hi):
    """(row, k) of every row's unit translate ``_SHIFTS[k]`` under which the
    closed box [lo, hi], (N, 2) arrays, meets [0, 1]^2, in (row, k) order.
    lo + o rounds as x + ox does for the box's points, so a row left out
    is one that shows nothing in the square."""
    meets = np.stack([(lo + o <= 1.0) & (hi + o >= 0.0) for o in (-1.0, 0.0, 1.0)], axis=1)
    reach = meets[:, :, None, 0] & meets[:, None, :, 1]
    return np.divmod(np.flatnonzero(reach), len(_SHIFTS))


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

    Each edge i-j is drawn as ``<line class="edge" data-edge="i-j" .../>``
    under every unit translate whose box meets the square, unclipped; the
    root's viewport clips them. Pixel values lie in [-4 size, 5 size].

    Parameters
    ----------
    size : pixel width and height of the output square, an integer from
        1 to ``MAX_SIZE``; a bool is not a size.
    labels : draw vertex ids at their wrapped positions.
    highlight_flipped : fill faces with negative signed area.
    """
    if isinstance(size, bool) or not isinstance(size, numbers.Integral) or not 0 < size <= MAX_SIZE:
        raise ValueError(f"size must be a positive integer, at most {MAX_SIZE}")
    size = int(size)
    vecs = edge_vectors(mesh, placement)
    pos = np.mod(placement.coords, 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" overflow="hidden">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#fdfdfb" '
        'stroke="#888" stroke-width="1"/>',
    ]

    if highlight_flipped:
        flipped = np.flatnonzero(_signed_areas(vecs[mesh.face_edges]) < 0)
        base = pos[mesh.faces[flipped, 0]]
        mid = base + vecs[mesh.face_edges[flipped, 0]]
        tris = np.stack([base, mid, mid + vecs[mesh.face_edges[flipped, 1]]], axis=1)
        # Clip only the (face, translate) pairs whose bounding box meets the
        # square. Rounding is monotone, so the box of the shifted points is
        # the shifted box; a box that only touches the square is still clipped.
        for row, k in zip(*_meeting_translates(tris.min(axis=1), tris.max(axis=1))):
            poly = _clip_polygon((tris[row] + _SHIFTS[k]).tolist())
            if len(poly) >= 3:
                pts = " ".join(f"{x * size:.3f},{(1.0 - y) * size:.3f}" for x, y in poly)
                parts.append(
                    f'<polygon class="flipped" data-face="{int(flipped[row])}" '
                    f'points="{pts}" fill="#e4572e" fill-opacity="0.45" stroke="none"/>'
                )

    # Edges go in blocks, which keep the line arrays and the records small.
    id_digits = _decimal(np.arange(mesh.vertex_count))
    drawn = np.flatnonzero(mesh.directed_edges[:, 0] <= mesh.directed_edges[:, 1])
    for start in range(0, len(drawn), _BLOCK):
        edges = drawn[start : start + _BLOCK]
        a = pos[mesh.directed_edges[edges, 0]]
        # Cut an edge longer than 3 to length 3; the factor is 1.0 for the others.
        d = vecs[edges]
        b = a + d * (3.0 / np.maximum(np.hypot(d[:, 0], d[:, 1]), 3.0))[:, None]
        # Draw only the translates under which the edge's box meets [0, 1]^2.
        row, k = _meeting_translates(np.minimum(a, b), np.maximum(a, b))
        ends = np.hstack([a[row] + _SHIFTS[k], b[row] + _SHIFTS[k]])
        # Pixel x is x * size and pixel y is (1 - y) * size.
        px = np.where([True, False, True, False], ends, 1.0 - ends) * size
        parts.append(_write_lines(mesh.directed_edges[edges][row], px, id_digits)[:-1].decode())

    if labels:
        # np.mod gives exactly 1.0 for tiny negative coordinates; that is 0.0
        for v, p in enumerate(np.where(pos < 1.0, pos, 0.0)):
            parts.append(
                f'<text x="{p[0] * size + 4:.1f}" y="{(1.0 - p[1]) * size - 4:.1f}" '
                f'font-size="{max(10, size // 60)}" fill="#b33">{v}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts)
