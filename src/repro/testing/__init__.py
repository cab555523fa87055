"""Public verification toolkit for reverse-skyline implementations.

Public surface: :func:`verify_algorithm`, :func:`verify_executor`,
:func:`verify_chaos_equivalence`, :func:`verify_maint_equivalence`,
:func:`random_workload`, :class:`WorkloadCase`,
:class:`VerificationReport`, :class:`VerificationFailure`,
:class:`ChaosReport`, :class:`ChaosFailure`, :class:`MaintReport`.
"""

from repro.testing.chaos import (
    ChaosFailure,
    ChaosReport,
    verify_chaos_equivalence,
)
from repro.testing.maintenance import MaintReport, verify_maint_equivalence
from repro.testing.verify import (
    VerificationFailure,
    VerificationReport,
    WorkloadCase,
    random_workload,
    verify_algorithm,
    verify_executor,
)

__all__ = [
    "ChaosFailure",
    "ChaosReport",
    "MaintReport",
    "VerificationFailure",
    "VerificationReport",
    "WorkloadCase",
    "random_workload",
    "verify_algorithm",
    "verify_chaos_equivalence",
    "verify_executor",
    "verify_maint_equivalence",
]
