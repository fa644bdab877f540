"""Command line interface.

Exit codes: 0 success, 2 validation failure (bad mesh, non-embedded
placement, non-admissible weights, malformed input), 3 numerical
failure (step budget spent, stalled flow, certificate violation,
overflow, out of memory).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import serialize, tutte
from .errors import (
    DegenerateVertexError,
    MeshError,
    NonPositiveWeightError,
    NotAdmissibleError,
    NotEmbeddedError,
    TorusTutteError,
)
from .fixtures import gen_grid, perturb
from .flow import CONVERGED, ALREADY_ADMISSIBLE, retract
from .geometry import verify_embedding
from .mesh import generator_loops
from .morph import max_displacement, morph
from .mvc import check_balanced, mean_value_weights
from .oneform import direction_form, generic_direction_form, index_theorem_check
from .render import render_svg

VALIDATION_ERRORS = (
    MeshError,
    NotEmbeddedError,
    NotAdmissibleError,
    NonPositiveWeightError,
    DegenerateVertexError,
    ValueError,
    KeyError,
    OSError,
)
# Every other deliberate error is numerical, and so are Python's own
# overflow, allocation and floating point failures.
NUMERICAL_ERRORS = (TorusTutteError, OverflowError, MemoryError, FloatingPointError)


def _emit(args, obj):
    if not args.quiet:
        sys.stdout.write(serialize.dump_json(obj))


def _load(path, parse, *context):
    """Read a JSON file and ``parse(*context, document)`` it. A value of the
    wrong type, such as null faces or a number for a list, and a missing
    key, such as a placement read as weights, are input errors that name the file."""
    try:
        return parse(*context, serialize.load_json(path))
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: value of the wrong type: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from exc


def cmd_validate(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    loops = generator_loops(mesh)
    out = {
        "valid": True,
        "vertex_count": mesh.vertex_count,
        "edge_count": mesh.edge_count,
        "face_count": len(mesh.faces),
        "generator_lengths": [len(loops.horizontal), len(loops.vertical)],
    }
    if args.placement:
        report = verify_embedding(mesh, _load(args.placement, serialize.placement_from_json))
        out["embedding"] = {
            "is_embedding": report.is_embedding,
            "degree": report.degree,
            "min_area": report.min_area,
            "total_area": report.total_area,
        }
    _emit(args, out)
    return 0


def cmd_gen(args):
    mesh, placement = gen_grid(args.size)
    if args.perturb != 0:
        placement = perturb(mesh, placement, args.perturb, args.seed)
    serialize.dump_json(serialize.mesh_to_json(mesh), args.out_mesh)
    out = {"vertex_count": mesh.vertex_count, "mesh": args.out_mesh}
    if args.out_placement:
        serialize.dump_json(serialize.placement_to_json(placement), args.out_placement)
        out["placement"] = args.out_placement
    _emit(args, out)
    return 0


def cmd_embed(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    weights = _load(args.weights, serialize.weights_from_json, mesh)
    placement, report = tutte._certified_map(mesh, weights)
    serialize.dump_json(serialize.placement_to_json(placement), args.out_placement)
    out = {
        "placement": args.out_placement,
        "is_embedding": report.is_embedding,
        "min_area": report.min_area,
        "total_area": report.total_area,
    }
    if args.report:
        serialize.dump_json(out, args.report)
    _emit(args, out)
    return 0


def cmd_mvc(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    placement = _load(args.placement, serialize.placement_from_json)
    weights = mean_value_weights(mesh, placement)
    serialize.dump_json(serialize.weights_to_json(mesh, weights), args.out_weights)
    _emit(
        args,
        {
            "weights": args.out_weights,
            "imbalance": check_balanced(mesh, placement, weights),
        },
    )
    return 0


def cmd_energy(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    weights = _load(args.weights, serialize.weights_from_json, mesh)
    report = tutte.residual_structure(mesh, weights)
    out = {"energy": report.energy, "admissible": report.zero_residual, "tol": tutte.ADMISSIBLE_TOL}
    sys.stdout.write(serialize.dump_json(out))
    return 0


def cmd_retract(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    weights = _load(args.weights, serialize.weights_from_json, mesh)
    trace = retract(mesh, weights, max_steps=args.max_steps)
    if args.trace:
        serialize.trace_to_jsonl(trace, args.trace)
    if args.out_weights:
        serialize.dump_json(
            serialize.weights_to_json(mesh, trace.final_weights), args.out_weights
        )
    _emit(
        args,
        {
            "status": trace.status,
            "steps": trace.steps,
            "energy": trace.samples[-1].energy,
            "t": trace.samples[-1].t,
        },
    )
    return 0 if trace.status in (CONVERGED, ALREADY_ADMISSIBLE) else 3


def cmd_morph(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    start = _load(args.from_path, serialize.placement_from_json)
    end = _load(args.to_path, serialize.placement_from_json)
    frames = morph(mesh, start, end, args.steps, max_steps=args.max_steps)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(frames):
        serialize.dump_json(
            serialize.placement_to_json(frame), out_dir / f"frame_{k:03d}.json"
        )
        if args.svg:
            (out_dir / f"frame_{k:03d}.svg").write_text(render_svg(mesh, frame))
    # morph certified every frame, or raised
    _emit(
        args,
        {
            "frames": len(frames),
            "out_dir": str(out_dir),
            "passed": True,
            "max_displacement": max_displacement(frames),
        },
    )
    return 0


def cmd_index(args):
    if args.direction is not None and not np.isfinite(args.direction):
        raise ValueError(f"--direction must be a finite angle in radians, got {args.direction}")
    mesh = _load(args.mesh, serialize.mesh_from_json)
    placement = _load(args.placement, serialize.placement_from_json)
    if args.direction is not None:
        angle = args.direction
        form = direction_form(mesh, placement, np.array([np.cos(angle), np.sin(angle)]))
    else:
        form, angle = generic_direction_form(mesh, placement)
    report = index_theorem_check(mesh, form)
    sys.stdout.write(
        serialize.dump_json(
            {
                "angle": angle,
                "nonvanishing": report.nonvanishing,
                "total": report.total,
                "vertex_indices": report.vertex_indices,
                "face_indices": report.face_indices,
                "degenerate_edges": [list(e) for e in report.degenerate_edges],
                "degenerate_vertices": report.degenerate_vertices,
                "degenerate_faces": report.degenerate_faces,
            }
        )
    )
    return 0


def cmd_render(args):
    mesh = _load(args.mesh, serialize.mesh_from_json)
    placement = _load(args.placement, serialize.placement_from_json)
    svg = render_svg(
        mesh,
        placement,
        size=args.size,
        labels=args.labels,
        highlight_flipped=not args.no_highlight,
    )
    Path(args.out).write_text(svg)
    _emit(args, {"out": args.out, "size": args.size})
    return 0


def main(argv=None):
    # each flag goes only on the commands that read it
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress summary output")

    parser = argparse.ArgumentParser(
        prog="torustutte",
        description="Tutte embeddings, retraction flow, and morphs on the flat torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[quiet], help="validate a mesh file")
    p.add_argument("--mesh", required=True)
    p.add_argument("--placement")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", parents=[quiet], help="generate a grid fixture")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out-mesh", required=True)
    p.add_argument("--out-placement")
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="seed of the perturbation")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", parents=[quiet], help="balanced placement of admissible weights")
    p.add_argument("--mesh", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out-placement", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("mvc", parents=[quiet], help="mean value weights of an embedding")
    p.add_argument("--mesh", required=True)
    p.add_argument("--placement", required=True)
    p.add_argument("--out-weights", required=True)
    p.set_defaults(func=cmd_mvc)

    p = sub.add_parser("energy", help="balance energy of weights")
    p.add_argument("--mesh", required=True)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("retract", parents=[quiet], help="flow weights to admissibility")
    p.add_argument("--mesh", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--trace", help="JSONL trace output path")
    p.add_argument("--out-weights")
    p.set_defaults(func=cmd_retract)

    p = sub.add_parser("morph", parents=[quiet], help="morph between two embeddings")
    p.add_argument("--mesh", required=True)
    p.add_argument("--from", dest="from_path", required=True)
    p.add_argument("--to", dest="to_path", required=True)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--max-steps", type=int, default=200_000)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("index", help="one-form index report")
    p.add_argument("--mesh", required=True)
    p.add_argument("--placement", required=True)
    p.add_argument("--direction", type=float, help="direction angle in radians")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("render", parents=[quiet], help="render a placement to SVG")
    p.add_argument("--mesh", required=True)
    p.add_argument("--placement", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=800)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--no-highlight", action="store_true")
    p.set_defaults(func=cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
