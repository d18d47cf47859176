"""Every ``raise`` in the package, accounted for.

The sites are read from the source with ``ast``.  Each is keyed by its
module, its enclosing qualified name and the constant text of its
message, with ``{}`` for every formatted field; a message that is not
a string literal is keyed by the exception's expression instead.  Sites
that share a key share a row.  Each key maps to one row of ``PATHS``:

- ``("cli", "file::test")``: the test drives ``cli.main`` to the raise
  and checks the exit code;
- ``("unit", "file::test")``: the test calls the library and meets the
  raise;
- ``("unreachable", reason)``: no input reaches it, for the given reason.

A new ``raise`` fails the test until it has a row; so does a row whose
raise is gone, and a row citing a test its file does not define.
"""

import ast
from pathlib import Path

import pytest

from hyperbasis import bounds, families, hypmodel
from hyperbasis import spheremap as sm
from hyperbasis.errors import DomainError, EmbeddingError, InputError
from mapfactory import sibling_loops

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hyperbasis"

INVARIANT = "internal invariant, exit 4 if it ever fails: "
# An internal invariant that a corrupted table reaches has a unit or CLI
# row; the comment above such a row says why it holds on every input.

PATHS = {
    # -- bounds
    ("bounds", "_check_genus", "genus must be an integer >= 2, got {}"):
        ("cli", "test_cli.py::test_genus_one_prune_exits_2_before_pruning"),
    ("bounds", "radius_bound", "consumed count must lie in [0, 2g+1], got {}"):
        ("unit", "test_bounds.py::test_radius_bound_domain"),
    ("bounds", "alpha_length_bound", "consumed count must lie in [0, 2g+1], got {}"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    ("bounds", "theorem_bound", "index must lie in [1, kappa(g)={}], got {}"):
        ("unit", "test_bounds.py::test_theorem_bound_domain"),
    ("bounds", "_check_ratio", "ratio must lie in (0, 1), got {}"):
        ("cli", "test_cli.py::test_pipeline_bad_lambda_exits_2_before_growth"),
    # -- cli
    ("cli", "_load_model", "--genus is required with the regular model"):
        ("cli", "test_cli.py::test_regular_model_genus_errors_exit_2"),
    ("cli", "_load_model", "--genus {} differs from the model file's genus {}"):
        ("cli", "test_cli.py::test_model_file_genus_must_match"),
    ("cli", "cmd_bounds", "genus must be at least 2"):
        ("cli", "test_cli.py::test_bounds_bad_genus"),
    ("cli", "_read_map", "map file is not UTF-8: {}"):
        ("cli", "test_cli.py::test_map_file_not_utf8_exits_2"),
    ("cli", "_parse_subset", "ValueError"):
        ("cli", "test_cli.py::test_verify_bad_subset_exits_2"),
    ("cli", "_parse_subset", "--subset entries must be arc ids, got {}"):
        ("cli", "test_cli.py::test_verify_bad_subset_exits_2"),
    # -- cover
    ("cover", "MasterComplex._scaffold_connectivity",
     "no face joins two components of the reduced complex"):
        ("cli", "test_cli.py::test_disconnected_reduced_complex_exits_4"),
    # scaffold edges join components in a region and chords split faces: V - E + F = 2
    ("cover", "MasterComplex._check_euler", "refined complex has Euler characteristic {}"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # the chord pass connects the complex minus H or raises first
    ("cover", "MasterComplex._t_join", "reduced complex is not connected"):
        ("cli", "test_cli.py::test_skipped_chord_pass_exits_4"),
    ("cover", "MasterComplex._t_join", "odd number of branch points"):
        ("unreachable", INVARIANT + "the map constructor admits only an even number of cone points; "
                                    "no one corrupted table reaches it, since a vertex added to the "
                                    "rotations is bare and fails the connectivity check first, and "
                                    "one removed leaves its darts and edges without a vertex"),
    # the T-join is taken among the edges outside H
    ("cover", "CoverComplex._lift_arcs", "branch cut runs along arc {}"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # an alpha-hat orbit holds one lift of each dart, so a dart's two lifts are two edges
    ("cover", "CoverComplex._lift_arcs", "edge arc {} lifted to one edge"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # both lifts join the single lifts of the arc's two distinct cone points
    ("cover", "CoverComplex._lift_arcs", "edge arc {} lift is not a bigon"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # as for an edge arc
    ("cover", "CoverComplex._lift_arcs", "loop arc {} lifted to one edge"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # the base is a cone point, whose single lift both loop lifts start and end at
    ("cover", "CoverComplex._lift_arcs", "loop arc {} lift is not a figure eight"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # Riemann-Hurwitz gives 4 - n for n branch points on the sphere
    ("cover", "CoverComplex._validate", "cover Euler characteristic {}, expected {}"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # a branch point joins the two sheets of the connected master complex
    ("cover", "CoverComplex._validate", "cover is disconnected"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # the T-join is odd at every vertex, and every vertex is a cone point
    ("cover", "CoverComplex._validate", "sheet swap does not fix exactly the cone points"):
        ("unit", "test_cover.py::test_a_corrupted_table_fails_its_check"),
    # both lift tables flip the sheet by a bit that ignores the sheet
    ("cover", "CoverComplex._validate", "sheet swap is not a map automorphism"):
        ("unit", "test_cover.py::test_a_corrupted_lift_table_fails_its_check_and_the_per_lift_one"),
    # alpha is an involution and both darts of a cut edge are on the cut
    ("cover", "CoverComplex._validate", "edge pairing is not an involution"):
        ("unit", "test_cover.py::test_a_corrupted_lift_table_fails_its_check_and_the_per_lift_one"),
    ("cover", "z2_cycle_rank", "unknown cover edge {}"):
        ("unit", "test_cover.py::test_z2_rank_names_the_smallest_unknown_edge"),
    ("cover", "z2_cycle_rank", "input chain is not a cycle"):
        ("unit", "test_cover.py::test_z2_rank_rejects_non_cycle"),
    ("cover", "verdict", "connected complement but rank {} != {} curves"):
        ("unreachable", INVARIANT + "curves with a connected complement are independent in homology"),
    ("cover", "verdict", "more independent curves than 2*genus"):
        ("unreachable", INVARIANT + "first homology of a genus-g cover has rank 2g"),
    ("cover", "verdict", "oracles disagree on arcs {}: parity {}, cover {}"):
        ("cli", "test_cli.py::test_prune_oracles_disagreeing_exits_4"),
    # -- families
    ("families", "block_family", "need at least two blocks"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    # -- growth
    ("growth", "GrowthLog.validate", "genus must be >= 2, got {}"):
        ("unit", "test_growth.py::test_validate_rejects_genus_one"),
    ("growth", "GrowthLog.validate", "M = {} outside [{}, {}]"):
        ("unit", "test_growth.py::test_validate_checks_each_event"),
    ("growth", "GrowthLog.validate", "events consume {} disks, expected {}"):
        ("unit", "test_growth.py::test_log_roundtrip_and_validation"),
    ("growth", "GrowthLog.validate", "final consumed count {} invalid"):
        ("unit", "test_growth.py::test_validate_rejects_a_changed_event"),
    ("growth", "GrowthLog.validate", "event {} misnumbered as {}"):
        ("unit", "test_growth.py::test_validate_checks_each_event"),
    ("growth", "GrowthLog.validate", "event {} has j_before {} != {}"):
        ("unit", "test_growth.py::test_validate_rejects_a_changed_event"),
    ("growth", "GrowthLog.validate", "event {} radius decreases"):
        ("unit", "test_growth.py::test_validate_rejects_a_changed_event"),
    ("growth", "GrowthLog.validate", "self event {} malformed"):
        ("unit", "test_growth.py::test_validate_rejects_a_changed_event"),
    ("growth", "GrowthLog.validate", "pair event {} malformed"):
        ("unit", "test_growth.py::test_validate_rejects_a_changed_event"),
    ("growth", "GrowthLog.validate", "unknown event kind {}"):
        ("unit", "test_growth.py::test_validate_rejects_a_changed_event"),
    ("growth", "GrowthLog.validate", "event {} refreezes vertex {}"):
        ("unit", "test_growth.py::test_validate_checks_each_event"),
    ("growth", "GrowthLog.validate", "some vertices never froze"):
        ("unreachable", "implied: the events consume 2g+2 disks, one per frozen vertex, and none refreezes"),
    ("growth", "simulate", "loop radius of vertex {} is {}"):
        ("cli", "test_cli.py::test_nonfinite_oracle_value_exits_2"),
    ("growth", "simulate", "distance between {} and {} is {}"):
        ("unit", "test_growth.py::test_nonfinite_oracle_value_is_invalid_metric"),
    ("growth", "simulate", "event radius {} decreases below {} at step {}"):
        ("cli", "test_cli.py::test_radius_decrease_past_the_tie_window_exits_2"),
    ("growth", "simulate", "nonpositive event radius {}"):
        ("cli", "test_cli.py::test_nonpositive_oracle_value_exits_2"),
    ("growth", "verify_radius_bounds", "BoundViolation"):
        ("unit", "test_growth.py::test_tampered_log_violates_bound"),
    # -- hypmodel
    ("hypmodel", "MetricModel.pair_distance", "NotImplementedError"):
        ("unreachable", "abstract: both models override it"),
    ("hypmodel", "MetricModel.loop_radius", "NotImplementedError"):
        ("unreachable", "abstract: both models override it"),
    ("hypmodel", "MetricModel.realize_arc", "NotImplementedError"):
        ("unreachable", "abstract: both models override it"),
    ("hypmodel", "MetricModel.build_arc_graph", "vertex {} has no corner on the region of {}"):
        ("cli", "test_cli.py::test_edge_out_of_a_loop_exits_2"),
    ("hypmodel", "MetricModel.build_arc_graph",
     "event {} joins two occupied vertices; not a growth arc"):
        ("unreachable", "a pair event always touches an active disk, whose vertex is still bare"),
    ("hypmodel", "MetricModel._check_vertex", "vertex {} out of range 1..{}"):
        ("unit", "test_hypmodel.py::test_loop_radius_checks_the_vertex"),
    ("hypmodel", "RegularDoubledPolygonModel.__init__", "genus must be an integer >= 2, got {}"):
        ("cli", "test_cli.py::test_regular_model_genus_errors_exit_2"),
    ("hypmodel", "RegularDoubledPolygonModel.realize_arc",
     "the regular model only realizes boundary-side arcs; cannot place a {} event"):
        ("unit", "test_hypmodel.py::test_realize_arc_rejects_chords_and_loops"),
    ("hypmodel", "RegularDoubledPolygonModel.realize_arc",
     "arc {}-{} is not a polygon side; the growth process on the regular model only "
     "touches adjacent vertices"):
        ("unit", "test_hypmodel.py::test_realize_arc_rejects_chords_and_loops"),
    ("hypmodel", "SyntheticModel.__init__", "synthetic model must be a JSON object"):
        ("cli", "test_cli.py::test_synthetic_model_errors_exit_2"),
    ("hypmodel", "SyntheticModel.__init__", "genus must be >= 2, got {}"):
        ("unit", "test_hypmodel.py::test_synthetic_validation"),
    ("hypmodel", "SyntheticModel.__init__", "distances must be a {}x{} matrix"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    ("hypmodel", "SyntheticModel.__init__", "distance matrix has nonzero diagonal"):
        ("unit", "test_hypmodel.py::test_synthetic_validation"),
    ("hypmodel", "SyntheticModel.__init__", "distance matrix is not symmetric"):
        ("unit", "test_hypmodel.py::test_synthetic_validation"),
    ("hypmodel", "SyntheticModel.__init__", "off-diagonal distances must be positive"):
        ("cli", "test_cli.py::test_synthetic_model_errors_exit_2"),
    ("hypmodel", "SyntheticModel.__init__", "loop_radii must list {} values"):
        ("unit", "test_hypmodel.py::test_synthetic_validation"),
    ("hypmodel", "SyntheticModel.__init__", "loop radii must be positive"):
        ("unit", "test_hypmodel.py::test_synthetic_validation"),
    ("hypmodel", "SyntheticModel.__init__", "arcs must be a list"):
        ("cli", "test_cli.py::test_arcs_not_a_list_exits_2"),
    ("hypmodel", "SyntheticModel._arc_entry", "arc entry {} must be an object, got {}"):
        ("cli", "test_cli.py::test_malformed_arc_entry_exits_2"),
    ("hypmodel", "SyntheticModel._arc_entry", "arc entry {}: kind must be edge or loop, got {}"):
        ("cli", "test_cli.py::test_malformed_arc_entry_exits_2"),
    ("hypmodel", "SyntheticModel._arc_entry.vertex", "arc entry {}: missing {}"):
        ("cli", "test_cli.py::test_malformed_arc_entry_exits_2"),
    ("hypmodel", "SyntheticModel._arc_entry", "arc entry {}: 'enclosed' must be a list, got {}"):
        ("cli", "test_cli.py::test_malformed_arc_entry_exits_2"),
    ("hypmodel", "SyntheticModel.realize_arc", "no arc descriptor for event {} ({}, {})"):
        ("unit", "test_growth.py::test_missing_arc_descriptor"),
    ("hypmodel", "_finite_floats", "{} must hold numbers, got {}"):
        ("cli", "test_cli.py::test_nonfinite_model_values_exit_2"),
    ("hypmodel", "_finite_floats", "{} must be finite, got {}"):
        ("cli", "test_cli.py::test_nonfinite_model_values_exit_2"),
    ("hypmodel", "load_synthetic", "cannot read model file: {}"):
        ("unit", "test_hypmodel.py::test_load_synthetic_file"),
    ("hypmodel", "load_synthetic", "bad model JSON: {}"):
        ("cli", "test_cli.py::test_json_the_parser_refuses_exits_2"),
    # -- jacobian
    ("jacobian", "collar_width", "geodesic length must be positive, got {}"):
        ("unit", "test_jacobian.py::test_collar_width_value_and_blowup"),
    ("jacobian", "energy_bound", "geodesic length must be positive, got {}"):
        ("unit", "test_jacobian.py::test_energy_bound_domain"),
    ("jacobian", "energy_bound", "collar width must be positive, got {}"):
        ("unit", "test_jacobian.py::test_energy_bound_domain"),
    ("jacobian", "energy_bound", "energy denominator {} below precision floor for width {}"):
        ("cli", "test_cli.py::test_bounds_lambda_near_one_exits_2"),
    # -- jsonio
    ("jsonio", "json_int", "{} must be an integer, got {}"):
        ("cli", "test_cli.py::test_non_integer_model_genus_exits_2"),
    ("jsonio", "_round", "non-finite value {} in report"):
        ("unit", "test_jsonio.py::test_non_finite_value_raises_the_reference_error"),
    ("jsonio", "_write", "keys must be str, not {}"):
        ("unit", "test_jsonio.py::test_unsupported_values_and_keys_raise_the_stdlib_type_error"),
    ("jsonio", "_write", "Object of type {} is not JSON serializable"):
        ("unit", "test_jsonio.py::test_unsupported_values_and_keys_raise_the_stdlib_type_error"),
    # -- prune
    ("prune", "preliminary_steps",
     "component at vertex {} ({} loops, {} edges, {} vertices) is outside the growth shapes"):
        ("cli", "test_cli.py::test_prune_shape_error_names_the_component"),
    ("prune", "prune.pair_with_loop", "loop {} would join two paired blocks"):
        ("unreachable", "a loop is inner to one region, which pairs at most once: every merge "
                        "into a region leaves a bare base there, and it is skipped from then on"),
    ("prune", "prune.pair_with_bone", "region {} offers no bone to pair with"):
        ("unit", "test_prune_reference.py::test_random_growth_maps_match_reference"),
    ("prune", "prune", "outermost region has one inner loop, no bones, and no isolated vertex"):
        ("unit", "test_prune.py::test_random_growth_maps_prune_clean"),
    ("prune", "prune",
     "disk region {} holds no cone points; not realizable by disk growth on a hyperbolic cone "
     "sphere"):
        ("cli", "test_cli.py::test_pipeline_bad_model_exits_3"),
    ("prune", "prune", "sphere-level state is not {} disjoint bones"):
        ("unreachable", "with no loop and no bare vertex left, every vertex lies on a bone, "
                        "so 2g+2 vertices make g+1 bones"),
    ("prune", "verify", "kept arcs disagree with deletions"):
        ("unit", "test_prune.py::test_arc_split_mismatch_fails_verification"),
    ("prune", "verify", "region {} contains no isolated vertex"):
        ("unit", "test_prune.py::test_corrupted_result_fails_verification"),
    ("prune", "verify", "only {} arcs kept, guaranteed {}"):
        ("unit", "test_prune.py::test_corrupted_accounting_fails_verification"),
    ("prune", "verify", "blocks do not partition the kept arcs"):
        ("unit", "test_prune.py::test_corrupted_accounting_fails_verification"),
    ("prune", "verify", "block {} has ratio below one third"):
        ("unit", "test_prune.py::test_corrupted_accounting_fails_verification"),
    ("prune", "verify", "cover oracle reports a separating system"):
        ("unreachable", "every region holds a bare vertex, an odd unit, so parity says "
                        "nonseparating and verdict raises on any disagreement first"),
    # -- spheremap
    ("spheremap", "Arc.base", "arc {} is not a loop"):
        ("unit", "test_spheremap.py::test_arc_base_and_endpoints"),
    ("spheremap", "RotationSystem.__init__", "dart {} listed twice in rotations"):
        ("cli", "test_cli.py::test_map_constructor_errors_exit_2"),
    ("spheremap", "SphereMap.__init__", "need an even number >= 4 of cone vertices, got {}"):
        ("cli", "test_cli.py::test_map_constructor_errors_exit_2"),
    ("spheremap", "SphereMap.__init__", "declared genus {} but {} cone vertices"):
        ("cli", "test_cli.py::test_map_constructor_errors_exit_2"),
    ("spheremap", "SphereMap._pair_darts", "arc {} pairs a dart with itself"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "SphereMap._pair_darts", "arc {} uses unknown dart {}"):
        ("cli", "test_cli.py::test_map_constructor_errors_exit_2"),
    ("spheremap", "SphereMap._pair_darts", "dart {} belongs to two arcs"):
        ("cli", "test_cli.py::test_map_constructor_errors_exit_2"),
    ("spheremap", "SphereMap._pair_darts", "arc {} kind/endpoint mismatch"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "SphereMap._pair_darts", "rotation darts and arc darts differ"):
        ("cli", "test_cli.py::test_map_constructor_errors_exit_2"),
    ("spheremap", "SphereMap._check_component_euler",
     "component at vertex {} has Euler characteristic {}, not a sphere embedding"):
        ("unit", "test_spheremap.py::test_from_json_rejects_nonplanar_k5"),
    ("spheremap", "SphereMap._build_regions", "disconnected arrangement requires explicit regions"):
        ("unit", "test_spheremap.py::test_disconnected_requires_regions"),
    ("spheremap", "SphereMap._build_regions", "region lists unknown face key {}"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._build_regions", "face assigned to two regions"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._build_regions", "vertex {} is not isolated"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._build_regions", "isolated vertex {} placed twice"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._build_regions", "every face must belong to exactly one region"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._build_regions", "every isolated vertex needs a region"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._check_region_tree", "arc-free map must have a single region"):
        ("unit", "test_spheremap.py::test_from_json_nesting_errors"),
    ("spheremap", "SphereMap._check_region_tree", "two faces of one component bound the same region"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._check_region_tree", "region incidence is not a tree (count)"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap._check_region_tree", "region incidence is not connected"):
        ("unit", "test_spheremap.py::test_region_nesting_matches_tuple_keyed_reference"),
    ("spheremap", "SphereMap.arc_set", "unknown arc id {}"):
        ("cli", "test_cli.py::test_verify_bad_subset_exits_2"),
    ("spheremap", "from_json", "bad JSON: {}"):
        ("cli", "test_cli.py::test_verify_malformed_map"),
    ("spheremap", "from_json", "map description must be an object"):
        ("cli", "test_cli.py::test_map_file_not_an_object_exits_2"),
    ("spheremap", "from_json", "vertices[{}] repeats vertex id {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "from_json", "vertices[{}].cone must be a boolean, got {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "from_json", 'vertex {} is not a cone point ("cone": false)'):
        ("cli", "test_cli.py::test_non_cone_vertex_exits_2"),
    ("spheremap", "from_json", "arcs[{}] repeats arc id {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "from_json", "malformed map description: {}"):
        ("unit", "test_spheremap.py::test_from_json_rejects_garbage"),
    ("spheremap", "from_json", "arc {}: kind must be edge or loop, got {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "from_json", "arc {}: darts must list two darts"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "_json_ints", "{} must be a list, got {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "_json_ints", "{} must hold integers, got {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "_check_regions", "regions must be a list, got {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "_check_regions", "regions[{}] must be an object, got {}"):
        ("cli", "test_cli.py::test_malformed_map_exits_2"),
    ("spheremap", "region_tree", "bad_shape"):
        ("unit", "test_region_tree_reference.py::test_each_bad_shape_is_rejected_like_the_reference"),
    ("spheremap", "region_tree", "loop {} does not separate the sphere"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    ("spheremap", "region_tree", "regions and loops do not form a tree"):
        ("unreachable", "k disjoint loops cut a sphere into k + 1 regions (Jordan), and "
                        "loops on distinct bases are disjoint"),
    ("spheremap", "region_tree", "region adjacency is not connected"):
        ("unreachable", "the sphere is connected, so the regions its loops bound are "
                        "joined across them"),
    ("spheremap", "MapBuilder.__init__", "need at least two vertices"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    ("spheremap", "MapBuilder.region_of_vertex", "vertex {} is not isolated"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder.add_bone", "vertices {} and {} lie in different regions"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder.add_bone", "a bone needs distinct endpoints"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    ("spheremap", "MapBuilder.attach_edge", "host vertex {} has no darts"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder.attach_edge", "vertex {} is not bare"):
        ("unit", "test_error_paths.py::test_guard_raises"),
    ("spheremap", "MapBuilder.attach_edge", "vertex {} is not in the region behind that corner"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder.add_loop", "a loop cannot enclose its own base"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder.add_loop", "item with vertices {} straddles the new loop"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder.add_loop", "vertices {} are not in this region"):
        ("unit", "test_mapbuilder.py::test_rejected_insertions_match_reference"),
    ("spheremap", "MapBuilder._add_arc", "duplicate arc id {}"):
        ("unit", "test_mapbuilder.py::test_rejected_duplicate_arc_id_changes_nothing"),
}


def message_key(node: ast.Raise) -> str:
    """The constant text of the raised message, ``{}`` per formatted
    field, or the exception's expression when there is no literal."""
    exc = node.exc
    if exc is None:
        return "raise"
    if isinstance(exc, ast.Call) and exc.args:
        first = exc.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
        if isinstance(first, ast.JoinedStr):
            return "".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in first.values
            )
    return ast.unparse(exc.func if isinstance(exc, ast.Call) else exc)


def raise_sites() -> list[tuple[str, str, str]]:
    """(module, qualified name, message key) of every raise, in file order."""
    sites = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise):
                sites.append((module, ".".join(scope) or "<module>", message_key(child)))
            walk(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def test_every_raise_has_one_row():
    sites = set(raise_sites())
    assert sorted(sites - PATHS.keys()) == [], "unlisted raise sites"
    assert sorted(PATHS.keys() - sites) == [], "rows whose raise is gone"


def test_every_row_cites_a_defined_test_or_a_reason():
    defined: dict[str, set[str]] = {}
    for key, (kind, what) in PATHS.items():
        assert kind in ("cli", "unit", "unreachable"), key
        if kind == "unreachable":
            assert what.strip(), key
            continue
        filename, _, name = what.partition("::")
        if filename not in defined:
            tree = ast.parse((TESTS / filename).read_text(encoding="utf-8"))
            defined[filename] = {
                n.name for n in tree.body if isinstance(n, ast.FunctionDef)
            }
        assert name.startswith("test_") and name in defined[filename], (key, what)


def bone_builder():
    builder = sm.MapBuilder(range(1, 5))
    builder.add_bone(1, 1, 2)
    return builder


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: bounds.alpha_length_bound(2, 6), DomainError,
         "consumed count must lie in [0, 2g+1], got 6"),
        (lambda: families.block_family(1), InputError, "need at least two blocks"),
        (lambda: hypmodel.SyntheticModel({"genus": 2, "distances": []}), InputError,
         "distances must be a 6x6 matrix"),
        (lambda: sm.region_tree(sibling_loops(4), [1], erased=[1]), EmbeddingError,
         "loop 1 does not separate the sphere"),
        (lambda: sm.MapBuilder([1]), InputError, "need at least two vertices"),
        (lambda: sm.MapBuilder(range(1, 5)).add_bone(1, 3, 3), EmbeddingError,
         "a bone needs distinct endpoints"),
        (lambda: bone_builder().attach_edge(2, 2, 1, 0), EmbeddingError, "vertex 2 is not bare"),
    ],
    ids=["alpha bound domain", "one block", "distance table", "erased loop",
         "one vertex", "bone at one vertex", "attach from an occupied vertex"],
)
def test_guard_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
