"""Algorithm registry: name -> class, for the experiment harness and CLI.

Scalar algorithms and their numpy variants live side by side; the
scalar/vector pairing itself is declared with
:func:`repro.kernels.register_variant`, so every backend-aware entry
point (``make_algorithm``'s ``backend=``, the engine, the CLI) resolves
names through one shared dispatch table.
"""

from __future__ import annotations

from repro.core.base import ReverseSkylineAlgorithm
from repro.core.brs import BRS
from repro.core.naive import NaiveRS
from repro.core.numeric import NumericTRS
from repro.core.srs import SRS
from repro.core.tiled import TSRS, TTRS
from repro.core.trs import TRS
from repro.core.vector_trs import VectorTRS
from repro.core.vectorized import VectorBRS
from repro.errors import AlgorithmError
from repro.kernels import register_variant, resolve_algorithm

__all__ = ["ALGORITHMS", "get_algorithm", "make_algorithm"]

ALGORITHMS: dict[str, type[ReverseSkylineAlgorithm]] = {
    cls.name: cls
    for cls in (
        NaiveRS,
        BRS,
        SRS,
        TRS,
        TSRS,
        TTRS,
        NumericTRS,
        VectorBRS,
        VectorTRS,
    )
}

def _vector_brs_profitable(dataset) -> bool:
    """Shape gate for VectorBRS under ``auto`` dispatch.

    The code-table rewrite (see :mod:`repro.core.vectorized`) benches
    VectorBRS at 1.5-3.7x of scalar BRS across the measured workloads
    (BENCH_core.json), reversing the ~0.46x regression that originally
    demoted it. Its per-(candidate, value) tables pay per *distinct
    value* rather than per object, so the win is only established while
    every attribute's cardinality stays within the phase-1 column-block
    width; beyond that the tables outgrow the pair blocks they replace
    and the measurement no longer covers the shape.
    """
    from repro.core.vectorized import _COL_BLOCK

    return max(dataset.schema.cardinalities(), default=0) <= _COL_BLOCK


# Scalar/vector pairings for backend dispatch (idempotent). VectorBRS
# is re-admitted to `auto` dispatch behind the shape gate above; an
# explicit backend="numpy" always selects it regardless of shape.
register_variant("BRS", "VectorBRS", auto=_vector_brs_profitable)
register_variant("TRS", "VectorTRS")


def get_algorithm(name: str) -> type[ReverseSkylineAlgorithm]:
    """Look an algorithm class up by its paper name (e.g. ``"TRS"``)."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise AlgorithmError(f"unknown algorithm {name!r}; known: {known}") from None


def make_algorithm(
    name: str,
    dataset,
    *,
    backend: str | None = None,
    **kwargs,
) -> ReverseSkylineAlgorithm:
    """Instantiate an algorithm by name.

    ``backend`` (``python`` / ``numpy`` / ``auto``) resolves ``name``
    through the kernels dispatch table first: ``python`` maps vector
    names back to their scalar family, ``numpy`` requires a vectorised
    variant, ``auto`` upgrades to it when the dataset qualifies.
    """
    cls = get_algorithm(resolve_algorithm(name, backend, dataset))
    return cls(dataset, **kwargs)
