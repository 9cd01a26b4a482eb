"""Small quasi-kernels in (split) digraphs.

A quasi-kernel of a digraph is an independent vertex set that every
vertex reaches by a directed path of at most two arcs.  This package
provides constructive solvers with provable size bounds and verified
certificates, exact searches, two fixed-parameter algorithms,
a parameterized-hardness reduction gadget, instance generators, and a
text-based instance/certificate toolchain (CLI: ``qkdg``).
"""

from .construct import (
    dominate_two_serf,
    quasi_kernel_cl,
    quasi_kernel_rooted,
)
from .digraph import (
    Arc,
    Digraph,
    Induced,
    NotQuasiKernelError,
    PreconditionError,
    QkCertificate,
    SplitDigraph,
    SplitError,
    SplitFlags,
    VerificationError,
)
from .exact import (
    CapExceededError,
    SolveReport,
    fpt_by_clique,
    fpt_by_independent,
    has_qk_of_size_at_most,
    is_dominating,
    min_dominating_set,
    min_quasi_kernel,
)
from .files import (
    CertificateParseError,
    InstanceParseError,
    certificate_document,
    check_certificate,
    instance_digest,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    to_dot,
)
from .instances import (
    GenerationError,
    ReductionArtifact,
    family_labels,
    gen_dn,
    gen_dpn,
    gen_random_complete_split,
    gen_random_split,
    lift_domset,
    project_qk,
    reduce_dds_to_qk,
)
from .split_qk import (
    complete_split_min_qk,
    one_way_qk,
    peel_sinks,
    peel_split,
    two_thirds_qk,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "CapExceededError",
    "CertificateParseError",
    "Digraph",
    "GenerationError",
    "Induced",
    "InstanceParseError",
    "NotQuasiKernelError",
    "PreconditionError",
    "QkCertificate",
    "ReductionArtifact",
    "SolveReport",
    "SplitDigraph",
    "SplitError",
    "SplitFlags",
    "VerificationError",
    "certificate_document",
    "check_certificate",
    "complete_split_min_qk",
    "dominate_two_serf",
    "family_labels",
    "fpt_by_clique",
    "fpt_by_independent",
    "gen_dn",
    "gen_dpn",
    "gen_random_complete_split",
    "gen_random_split",
    "has_qk_of_size_at_most",
    "instance_digest",
    "is_dominating",
    "lift_domset",
    "min_dominating_set",
    "min_quasi_kernel",
    "one_way_qk",
    "parse_certificate",
    "parse_instance",
    "peel_sinks",
    "peel_split",
    "project_qk",
    "quasi_kernel_cl",
    "quasi_kernel_rooted",
    "reduce_dds_to_qk",
    "serialize_certificate",
    "serialize_instance",
    "to_dot",
    "two_thirds_qk",
]
