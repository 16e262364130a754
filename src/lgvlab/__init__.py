"""Refined enumeration of bounded plane partitions through lattice paths.

The package ties together three independent routes to the same refined
generating function — exhaustive enumeration, a binomial determinant, and
a sign-reversing involution on path families — plus the explicit
bijections obtained by carrying word-level symmetries through the
cancellation.  Everything is exact integer arithmetic; exhaustive
enumerations are size-guarded.
"""

from .algebra import (
    MultiPoly,
    PolyMatrix,
    UniPoly,
    binomial,
    det_division_free,
    det_int,
    lgv_matrix,
)
from .bijections import (
    SwapCertificate,
    lgv_sijection,
    reverse_paths,
    tail_swap,
    weight_permutation_map,
    weight_permutation_sijection,
    zero_to_max_map,
    zero_to_max_sijection,
)
from .guards import DEFAULT_GUARD_LIMIT, GuardExceeded, resolve_guard_limit
from .objects import (
    Partition,
    PlanePartition,
    Tableau,
    count_plane_partitions,
    count_tableaux,
    enumerate_partitions,
    enumerate_plane_partitions,
    enumerate_tableaux,
    genfun_by_enumeration,
    refined_determinant,
    refined_genfuns_by_enumeration,
    schur_by_enumeration,
)
from .paths import (
    Endpoints,
    Path,
    SignedPathFamily,
    count_families,
    count_ni_families,
    enumerate_families,
    enumerate_ni_families,
    first_step_east_count,
    is_nonintersecting,
    last_step_east_count,
    plane_partition_endpoints,
    pp_decode,
    pp_encode,
    ssyt_decode,
    ssyt_encode,
    tableau_endpoints,
)
from .sijections import (
    SignedSet,
    Sijection,
    SijectionError,
    check_compatibility,
    check_sijection,
    trace_to_json,
)
from .verify import (
    report_passed,
    sweep,
    verify_bijection,
    verify_lgv,
    verify_schur,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "MultiPoly", "PolyMatrix", "UniPoly", "binomial", "det_division_free",
    "det_int", "lgv_matrix",
    "SwapCertificate", "lgv_sijection", "reverse_paths", "tail_swap",
    "weight_permutation_map", "weight_permutation_sijection",
    "zero_to_max_map", "zero_to_max_sijection",
    "DEFAULT_GUARD_LIMIT", "GuardExceeded", "resolve_guard_limit",
    "Partition", "PlanePartition", "Tableau", "count_plane_partitions",
    "count_tableaux", "enumerate_partitions", "enumerate_plane_partitions",
    "enumerate_tableaux", "genfun_by_enumeration", "refined_determinant",
    "refined_genfuns_by_enumeration", "schur_by_enumeration",
    "Endpoints", "Path", "SignedPathFamily", "count_families",
    "count_ni_families", "enumerate_families", "enumerate_ni_families",
    "first_step_east_count", "is_nonintersecting", "last_step_east_count",
    "plane_partition_endpoints", "pp_decode", "pp_encode", "ssyt_decode",
    "ssyt_encode", "tableau_endpoints",
    "SignedSet", "Sijection", "SijectionError", "check_compatibility",
    "check_sijection", "trace_to_json",
    "report_passed", "sweep", "verify_bijection", "verify_lgv",
    "verify_schur", "verify_theorem1",
]
