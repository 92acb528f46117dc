"""Exact invariants and existence certificates for links of weighted
homogeneous hypersurface singularities and their cyclic branched covers.

Everything is exact arithmetic over arbitrary-precision integers and
rationals: Betti numbers and torsion orders of the links, the genus of the
orbit curve in three variables, Fano/klt/Kähler-Einstein certificate
inequalities, effective parameter counts, and bounded enumeration scans
that regenerate the known families as machine-checkable catalogs.
"""

__version__ = "0.1.0"

from .arith import (
    FactoredPower,
    Rational,
    binomial,
    count_monomials,
    gcd_many,
    lcm_many,
    reduced_fraction,
)
from .errors import IntegrityError, ResourceBudgetError, UsageError
from .ke_cert import (
    BpData,
    BpVerdict,
    HyperbolicWindow,
    KeCertificate,
    bp_data,
    bp_sufficient_ke,
    certify_cover,
    euclidean_k_threshold,
    hyperbolic_k_window,
    is_fano,
    necessary_klt,
    spherical_never_klt,
)
from .links import (
    CaseClass,
    CoverData,
    WeightSystem,
    branched_cover,
    classify_case,
    quasi_smooth_generic,
    torsion_hypothesis,
)
from .moduli import ModuliCount, fermat_cy_moduli, hyperbolic_moduli, moduli_count
from .survey import (
    EuclideanRow,
    FamilyRecord,
    IngestResult,
    ScanConfig,
    generate_mixed_canonical,
    generate_theorem2_family,
    ingest_weight_list,
    scan_all,
    scan_euclidean_classification,
    scan_fermat_cy,
    scan_hyperbolic,
)
from .topology import (
    TorsionOrder,
    betti_bp_oracle,
    fermat_betti,
    fermat_cy_betti,
    genus,
    genus_one_criterion,
    milnor_orlik_betti,
    reduced_ratios,
    torsion_order,
)

__all__ = [
    "__version__",
    # arith
    "Rational",
    "FactoredPower",
    "gcd_many",
    "lcm_many",
    "reduced_fraction",
    "binomial",
    "count_monomials",
    # errors
    "UsageError",
    "IntegrityError",
    "ResourceBudgetError",
    # links
    "WeightSystem",
    "CaseClass",
    "CoverData",
    "classify_case",
    "branched_cover",
    "quasi_smooth_generic",
    "torsion_hypothesis",
    # topology
    "TorsionOrder",
    "reduced_ratios",
    "milnor_orlik_betti",
    "betti_bp_oracle",
    "fermat_cy_betti",
    "fermat_betti",
    "genus",
    "genus_one_criterion",
    "torsion_order",
    # ke_cert
    "BpData",
    "BpVerdict",
    "HyperbolicWindow",
    "KeCertificate",
    "bp_data",
    "bp_sufficient_ke",
    "certify_cover",
    "euclidean_k_threshold",
    "hyperbolic_k_window",
    "is_fano",
    "necessary_klt",
    "spherical_never_klt",
    # moduli
    "ModuliCount",
    "moduli_count",
    "fermat_cy_moduli",
    "hyperbolic_moduli",
    # survey
    "ScanConfig",
    "EuclideanRow",
    "FamilyRecord",
    "IngestResult",
    "scan_euclidean_classification",
    "generate_theorem2_family",
    "scan_fermat_cy",
    "scan_hyperbolic",
    "generate_mixed_canonical",
    "scan_all",
    "ingest_weight_list",
]
