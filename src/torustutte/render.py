"""SVG rendering of placements on the fundamental square [0,1]^2.

Every edge is drawn from its lift under the nine unit translates and
clipped to the square, so edges crossing the seam show up on both
sides. Edges go in blocks of 4096: per block, one vectorized
Liang-Barsky pass clips the (edge, translate) rows whose translate can
reach the square, in (edge, translate) order, so the output is that of
clipping all nine edge by edge. The block's edge groups are then
written as one array of byte-string records, one per piece, with the
digits of every number looked up in tables; the bytes are those
``%.3f`` and ``%d`` write. Faces with negative signed area are filled as a warning layer
under the edges, clipped one (face, translate) pair at a time where
the pair's bounding box meets the square.
"""

import numbers

import numpy as np

from .geometry import _signed_areas, edge_vectors

_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
_SHIFTS = np.array(_OFFSETS, dtype=float)
_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#27496d" stroke-width="1.4"/>'
_HEAD, _TAIL = '<g class="edge" data-edge="', "</g>\n"
_BLOCK = 4096
MAX_SIZE = 10**15  # keeps every pixel value times 1000 inside int64
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


def _write_groups(ids, n, px, id_digits):
    """Edge groups of one block as bytes, each followed by a newline, from
    the (i, j) rows ``ids``, the pieces ``n`` of each edge, the pixel values
    ``px`` of every piece and the :func:`_decimal` table ``id_digits``. A
    record holds a piece, the head of its group if first and the tail if
    last; an edge without pieces gets one record with neither."""
    rows = np.maximum(n, 1)
    last = np.cumsum(rows) - 1
    first = last - rows + 1
    lines = slice(None) if n.all() else np.repeat(n > 0, rows)
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

    fields = [(_HEAD, first), (id_digits[ids[:, 0]], first), ("-", first),
              (id_digits[ids[:, 1]], first), ('">', first)]
    for k, text in enumerate(_LINE.split("%.3f")):
        fields.append((text, lines))
        if k < 4:
            fields += [(signs[:, k], lines), (whole[:, k], lines), (_FRACS[frac[:, k]], lines)]
    fields.append((_TAIL, last))
    dtype = [(f"f{k}", np.asarray(value, "S").dtype) for k, (value, _) in enumerate(fields)]
    out = np.zeros(last[-1] + 1, dtype)
    for k, (value, at) in enumerate(fields):
        out[f"f{k}"][at] = value
    raw = out.view(np.uint8)  # unused bytes are 0
    return raw[raw != 0].tobytes()


def _clip_segments(p, q):
    """Liang-Barsky clip of the segments p[k] -> q[k], (N, 2) arrays, to the unit square.

    Returns the clipped endpoints (a, b) and a keep mask that is false
    where the intersection is empty or a single point. t0 only grows and
    t1 only shrinks, so one t0 < t1 check at the end suffices; the updates
    keep Python's max/min choice between 0.0 and -0.0. No den is divided
    by where |num| >= |den|: ±2 of the quotient's sign clips as it would.
    """
    d = q - p
    t0 = np.zeros(len(p))
    t1 = np.ones(len(p))
    keep = np.ones(len(p), dtype=bool)
    for axis in (0, 1):
        # x >= 0 boundary, then x <= 1 boundary.
        for num, den in ((-p[:, axis], d[:, axis]), (p[:, axis] - 1.0, -d[:, axis])):
            keep &= ~((den == 0.0) & (num > 0.0))
            far = np.where((num > 0.0) == (den > 0.0), 2.0, -2.0)
            t = np.divide(num, den, out=far, where=np.abs(num) < np.abs(den))
            t0 = np.where((den > 0.0) & (t > t0), t, t0)
            t1 = np.where((den < 0.0) & (t < t1), t, t1)
    a = p + t0[:, None] * d
    b = p + t1[:, None] * d
    keep &= (t0 < t1) & (np.abs(a - b) >= 1e-12).any(axis=1)
    return a, b, keep


def _meeting_translates(lo, hi):
    """(row, k) of every row's unit translate ``_OFFSETS[k]`` under which the
    closed box [lo, hi], (N, 2) arrays, meets [0, 1]^2, in (row, k) order.
    lo + o rounds as the clip's x + ox does, so a row left out is one whose
    clip keeps nothing."""
    meets = np.stack([(lo + o <= 1.0) & (hi + o >= 0.0) for o in (-1.0, 0.0, 1.0)], axis=1)
    reach = meets[:, :, None, 0] & meets[:, None, :, 1]
    return np.divmod(np.flatnonzero(reach), len(_OFFSETS))


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
        f'viewBox="0 0 {size} {size}">',
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
            ox, oy = _OFFSETS[k]
            poly = _clip_polygon([(x + ox, y + oy) for x, y in tris[row].tolist()])
            if len(poly) >= 3:
                pts = " ".join(f"{x * size:.3f},{(1.0 - y) * size:.3f}" for x, y in poly)
                parts.append(
                    f'<polygon class="flipped" data-face="{int(flipped[row])}" '
                    f'points="{pts}" fill="#e4572e" fill-opacity="0.45" stroke="none"/>'
                )

    # Edges go in blocks, which keep the clip arrays and the records small.
    id_digits = _decimal(np.arange(mesh.vertex_count))
    drawn = np.flatnonzero(mesh.directed_edges[:, 0] <= mesh.directed_edges[:, 1])
    for start in range(0, len(drawn), _BLOCK):
        edges = drawn[start : start + _BLOCK]
        a = pos[mesh.directed_edges[edges, 0]]
        b = a + vecs[edges]
        # Clip only the translates under which the edge's box meets [0, 1]^2.
        row, k = _meeting_translates(np.minimum(a, b), np.maximum(a, b))
        p, q, keep = _clip_segments(a[row] + _SHIFTS[k], b[row] + _SHIFTS[k])
        ends = np.hstack([p[keep], q[keep]])
        # Pixel x is x * size and pixel y is (1 - y) * size.
        px = np.where([True, False, True, False], ends, 1.0 - ends) * size
        n = np.bincount(row[keep], minlength=len(edges))
        parts.append(_write_groups(mesh.directed_edges[edges], n, px, id_digits)[:-1].decode())

    if labels:
        # np.mod gives exactly 1.0 for tiny negative coordinates; that is 0.0
        for v, p in enumerate(np.where(pos < 1.0, pos, 0.0)):
            parts.append(
                f'<text x="{p[0] * size + 4:.1f}" y="{(1.0 - p[1]) * size - 4:.1f}" '
                f'font-size="{max(10, size // 60)}" fill="#b33">{v}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts)
