"""Backend registry and dispatch.

One small, dependency-free mapping answers "which algorithm class should
actually run?" for every entry point (CLI ``--backend``, the engine's
``backend=`` parameter, ``make_algorithm``): scalar algorithm names pair
with their vectorised variants, and :func:`resolve_algorithm` picks a
side based on the requested backend and — for ``auto`` — whether the
dataset qualifies for array kernels at all.

The registry is name-based on purpose: backends never change *answers*
(the differential suites enforce bit-identical results), so everything
downstream — result caches, layouts, persisted files — keys on the
scalar family name and stays valid whichever backend computed it.
"""

from __future__ import annotations

from repro.errors import AlgorithmError

__all__ = [
    "BACKENDS",
    "available_backends",
    "normalize_backend",
    "numpy_ready",
    "register_variant",
    "resolve_algorithm",
    "scalar_variant",
    "vector_variant",
]

#: The backend names every ``--backend`` / ``backend=`` site accepts.
BACKENDS = ("python", "numpy", "auto")

#: scalar algorithm name -> numpy-variant algorithm name.
_VECTOR_OF: dict[str, str] = {}
#: numpy-variant algorithm name -> scalar algorithm name.
_SCALAR_OF: dict[str, str] = {}
#: vector name -> when ``auto`` may pick it: ``True`` always, or a
#: predicate(dataset) gating it by workload shape. VectorBRS, for
#: example, pays per-page batch overheads that only amortise on dense
#: low-cardinality schemas, so ``auto`` upgrades BRS only there
#: (BENCH_core.json records both the demotion measurement and the shape
#: on which it now wins). A predicate variant with no dataset in hand
#: stays scalar (conservative: shape unknown).
_AUTO: dict[str, object] = {}


def register_variant(scalar: str, vector: str, *, auto=True) -> None:
    """Declare ``vector`` as the numpy-backend variant of ``scalar``.

    Called at import time by :mod:`repro.core.registry` for each pair;
    idempotent so re-imports are harmless. ``auto`` is ``True`` (``auto``
    dispatch may always pick the variant) or a callable
    ``predicate(dataset) -> bool`` (``auto`` picks the variant exactly
    when the predicate accepts the dataset's shape).
    """
    _VECTOR_OF[scalar] = vector
    _SCALAR_OF[vector] = scalar
    _AUTO[vector] = auto


def vector_variant(name: str) -> str | None:
    """The numpy-variant name for ``name`` (``None`` if it has none).
    A name that already *is* a numpy variant maps to itself."""
    if name in _SCALAR_OF:
        return name
    return _VECTOR_OF.get(name)


def scalar_variant(name: str) -> str:
    """The scalar-family name for ``name`` (itself when already scalar)."""
    return _SCALAR_OF.get(name, name)


def numpy_ready() -> bool:
    """Whether the numpy backend can run in this interpreter."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        return False
    return True


def normalize_backend(backend: str | None) -> str | None:
    """Validate a backend name (``None`` means "leave the choice alone")."""
    if backend is None:
        return None
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise AlgorithmError(f"unknown backend {backend!r}; known: {known}")
    return backend


def available_backends(name: str) -> tuple[str, ...]:
    """The backends algorithm ``name`` can honour."""
    if vector_variant(name) is not None and numpy_ready():
        return BACKENDS
    return ("python", "auto")


def resolve_algorithm(name: str, backend: str | None, dataset=None) -> str:
    """Map an algorithm name + backend request to the class name to run.

    - ``None``     — no preference: ``name`` unchanged (legacy behaviour).
    - ``python``   — the scalar family member (vector names are mapped
      back to their scalar counterparts).
    - ``numpy``    — the vector variant; an explicit request for an
      algorithm with no vectorised implementation is an error.
    - ``auto``     — the vector variant when one exists, numpy imports,
      ``dataset`` (when given) is fully categorical, and the variant is
      either registered ``auto=True`` or its shape predicate accepts the
      dataset; else ``name``.
    """
    backend = normalize_backend(backend)
    if backend is None:
        return name
    if backend == "python":
        return scalar_variant(name)
    vector = vector_variant(name)
    if backend == "numpy":
        if vector is None:
            raise AlgorithmError(
                f"algorithm {name!r} has no {backend} backend; "
                f"available backends: {', '.join(available_backends(name))}"
            )
        if not numpy_ready():  # pragma: no cover - numpy is a hard dep today
            raise AlgorithmError(
                f"{backend} backend requested but numpy is not importable"
            )
        return vector
    # auto: upgrade when it is guaranteed safe AND a known win, fall
    # back silently otherwise (explicit backend="numpy" still honours
    # demoted variants).
    if vector is None or not numpy_ready():
        return scalar_variant(name)
    if dataset is not None and not dataset.space.is_fully_categorical():
        return scalar_variant(name)
    rule = _AUTO[vector]
    if rule is True or (dataset is not None and rule(dataset)):
        return vector
    return scalar_variant(name)
