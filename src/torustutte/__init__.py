"""Tutte embeddings of torus triangulations and the retraction flow.

The package covers the full pipeline: validated torus triangulations
with lattice shifts (:mod:`.mesh`), geodesic placements and embedding
certificates (:mod:`.geometry`), the weighted balance solver and its
residual structure (:mod:`.tutte`), mean value weights inverting the
solver on embeddings (:mod:`.mvc`), the energy-dissipating retraction
flow onto admissible weights (:mod:`.flow`), index certificates from
discrete one-forms (:mod:`.oneform`), embedding-preserving morphs
(:mod:`.morph`), plus fixtures, JSON serialization, SVG rendering, and
a CLI.
"""

from . import errors
from .fixtures import gen_grid, gen_k7, perturb
from .flow import (
    ALREADY_ADMISSIBLE,
    BUDGET_EXCEEDED,
    CONVERGED,
    FlowConstants,
    FlowSample,
    FlowTrace,
    asymmetry_gate,
    flow_constants,
    loop_gap,
    projection_gate,
    retract,
)
from .geometry import (
    EmbeddingReport,
    Placement,
    edge_vectors,
    face_signed_areas,
    verify_embedding,
)
from .mesh import (
    GeneratorLoops,
    TorusTriangulation,
    build_mesh,
    generator_loops,
    rotation_order,
)
from .morph import MorphReport, morph, verify_morph
from .mvc import check_balanced, mean_value_weights
from .oneform import (
    DiscreteOneForm,
    IndexReport,
    direction_form,
    generic_direction_form,
    index_theorem_check,
    one_form_from_values,
)
from .render import render_svg
from .tutte import (
    ResidualReport,
    WeightAssignment,
    balance_energy,
    residual_structure,
    solve_balance,
    tutte_map,
    uniform_weights,
    weights_from_dict,
)

__version__ = "0.1.0"
