"""dpcharge: exact DP-coloring solvers and a rational discharging engine
for embedded plane graphs."""

from .catalog import DEFAULT_CATALOG, PlanePatch, generate
from .cover import (Cover, cover_from_json, cover_to_json, enumerate_covers,
                    identity_cover, random_cover, validate_cover)
from .cycles import cycles_of_length
from .discharge import (AuditReport, ChargeLedger, RuleSet, audit, beta,
                        initial_charges, run_rules)
from .hunt import HuntReport, hunt, replay_cover
from .lemmas import (LemmaReport, SpecialVertexRecord, Verdict,
                     check_structural_lemmas, special_vertex_analysis)
from .oracle import brute_ba, brute_defective
from .planegraph import (AdjacencyKind, EmbeddingError, Face, PlaneGraph,
                         build_plane_graph)
from .rotfile import (RotationFileError, load_rotation_file,
                      parse_rotation_file, serialize_rotation_file)
from .solver import (BAOutcome, BAReport, DefectOutcome, DefectVector,
                     OrderedTransversal, SearchStatus, TransversalStructure,
                     find_ba, find_defective_dp, structure_of_transversal,
                     verify_ba, verify_defective)
from .structure import (HypothesisReport, Profile, ReducibleConfiguration,
                        VertexClassification, check_profile, classify_vertices,
                        find_reducible)

__version__ = "0.1.0"
