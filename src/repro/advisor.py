"""Algorithm advisor: pick an algorithm + configuration for a dataset.

The paper's conclusion says TRS "is the algorithm of choice for virtually
all possible scenarios"; this module encodes that plus the documented
exceptions, and can optionally *calibrate* — run the candidates on a
sample of the data and pick by measured cost — instead of trusting
heuristics.

Heuristics encoded (with their paper sources):

- numeric attributes present → ``NumericTRS`` (Section 6);
- attribute-subset queries expected → ``T-TRS`` over the tiled layout
  (Section 5.6: the tiled layout is fair to all dimensions);
- dataset small enough to fit the memory budget in one batch → ``TRS``
  still (group reasoning also wins in memory);
- otherwise ``TRS`` with attributes ordered by ascending observed
  cardinality (Section 5.1's ordering heuristic);
- an expected ``write_rate`` adds a maintenance verdict: delta-tree
  maintenance (:mod:`repro.maint`) for read-dominated categorical
  workloads, rebuild-per-batch when writes dominate or the dataset is
  small enough that rebuilds are noise (BENCH_maint.json records the
  measured crossover).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registry import make_algorithm
from repro.data.dataset import Dataset
from repro.data.queries import query_batch
from repro.data.stats import DatasetProfile, profile_dataset
from repro.errors import ExperimentError
from repro.sorting.keys import observed_cardinality_order

__all__ = ["Recommendation", "brs_shape", "recommend"]

#: BRS-family recommendations are only honoured on *dense* shapes:
#: records outnumber the distinct value cells (density >= 1), so block
#: pruning eliminates most of phase 1 and the scan family can compete
#: with group reasoning. BENCH_core.json's dense [4,4,4,4] cell records
#: the measurement behind the threshold.
_BRS_MIN_DENSITY = 1.0
#: Below this a from-scratch rebuild is cheap enough that delta
#: bookkeeping (tiers, tombstones, wire shipping) is pure overhead.
_MAINT_MIN_RECORDS = 500
#: Above this write fraction the base churns faster than compactions
#: amortise; rebuilding per batch keeps the read path static instead.
_MAINT_MAX_WRITE_RATE = 0.5


def brs_shape(profile: DatasetProfile) -> bool:
    """Whether the dataset is the dense low-cardinality shape on which
    the BRS family is allowed to be recommended."""
    return profile.density is not None and profile.density >= _BRS_MIN_DENSITY


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict."""

    algorithm: str
    attribute_order: tuple[int, ...]
    memory_fraction: float
    rationale: tuple[str, ...]
    profile: DatasetProfile
    calibration: dict[str, float] | None = None
    #: Update strategy when a ``write_rate`` was supplied: ``"static"``
    #: (no writes), ``"maintained"`` (delta trees via
    #: :class:`repro.maint.MaintainedEngine`) or ``"rebuild"``
    #: (rebuild per batch). ``None`` when no write rate was given.
    maintenance: str | None = None

    def build(self, dataset: Dataset, **overrides):
        """Instantiate the recommended algorithm."""
        kwargs = {"memory_fraction": self.memory_fraction}
        if self.algorithm in ("TRS", "T-TRS", "NumericTRS"):
            kwargs["attribute_order"] = list(self.attribute_order)
        kwargs.update(overrides)
        return make_algorithm(self.algorithm, dataset, **kwargs)


def recommend(
    dataset: Dataset,
    *,
    subset_queries_expected: bool = False,
    memory_fraction: float = 0.10,
    calibrate: bool = False,
    calibration_sample: int = 600,
    calibration_queries: int = 2,
    seed: int = 7,
    write_rate: float | None = None,
) -> Recommendation:
    """Recommend an algorithm and configuration for ``dataset``.

    With ``calibrate=True``, the advisor also measures BRS/SRS/TRS on a
    record sample and reports their check counts; the cheapest measured
    candidate wins if it disagrees with the heuristic choice.

    ``write_rate`` is the expected fraction of operations that are
    updates (inserts + deletes); supplying it adds a ``maintenance``
    verdict to the recommendation (module docstring).
    """
    if len(dataset) == 0:
        raise ExperimentError("cannot advise on an empty dataset")
    profile = profile_dataset(dataset)
    rationale: list[str] = []
    order = tuple(observed_cardinality_order(dataset))
    rationale.append(
        "attribute order by ascending observed cardinality "
        f"{list(order)} (Section 5.1 heuristic: large groups near the root)"
    )

    maintenance = None
    if write_rate is not None:
        if (
            not isinstance(write_rate, (int, float))
            or isinstance(write_rate, bool)
            or not 0.0 <= write_rate <= 1.0
        ):
            raise ExperimentError(
                f"write_rate must be a number in [0, 1], got {write_rate!r}"
            )
        write_rate = float(write_rate)
        if write_rate == 0.0:
            maintenance = "static"
            rationale.append("write_rate=0: no updates expected -> static engine")
        elif not dataset.schema.is_fully_categorical():
            maintenance = "rebuild"
            rationale.append(
                "updates on a numeric schema -> rebuild per batch "
                "(delta AL-Trees need categorical domains)"
            )
        elif len(dataset) < _MAINT_MIN_RECORDS:
            maintenance = "rebuild"
            rationale.append(
                f"n={len(dataset)} < {_MAINT_MIN_RECORDS}: from-scratch "
                "rebuilds are cheaper than delta bookkeeping"
            )
        elif write_rate > _MAINT_MAX_WRITE_RATE:
            maintenance = "rebuild"
            rationale.append(
                f"write-dominated workload ({write_rate:.0%} writes > "
                f"{_MAINT_MAX_WRITE_RATE:.0%}): the base churns faster than "
                "compactions amortise -> rebuild per batch"
            )
        else:
            maintenance = "maintained"
            rationale.append(
                f"read-dominated workload ({write_rate:.0%} writes) on "
                f"n={len(dataset):,} -> delta-tree maintenance "
                "(repro.maint.MaintainedEngine): caches and plans stay warm "
                "across batches (BENCH_maint measures >= 3x over "
                "rebuild-per-batch at 10% writes)"
            )

    if not dataset.schema.is_fully_categorical():
        rationale.append("numeric attributes present -> NumericTRS (Section 6)")
        return Recommendation(
            algorithm="NumericTRS",
            attribute_order=order,
            memory_fraction=memory_fraction,
            rationale=tuple(rationale),
            profile=profile,
            maintenance=maintenance,
        )

    if subset_queries_expected:
        rationale.append(
            "attribute-subset queries expected -> T-TRS over the Z-order "
            "tiled layout (Section 5.6)"
        )
        return Recommendation(
            algorithm="T-TRS",
            attribute_order=order,
            memory_fraction=memory_fraction,
            rationale=tuple(rationale),
            profile=profile,
            maintenance=maintenance,
        )

    algorithm = "TRS"
    rationale.append(
        "TRS: group-level reasoning wins across densities "
        "(paper conclusion: the algorithm of choice for virtually all scenarios)"
    )
    if profile.duplicate_rate > 0.5:
        rationale.append(
            f"high duplicate rate ({profile.duplicate_rate:.0%}): TRS resolves "
            "duplicates in O(1) per object"
        )

    calibration = None
    if calibrate:
        sample_n = min(calibration_sample, len(dataset))
        sample = dataset.with_records(
            dataset.records[:sample_n], name=f"{dataset.name}[sample]"
        )
        queries = query_batch(sample, calibration_queries, seed=seed)
        calibration = {}
        for name in ("BRS", "SRS", "TRS"):
            algo = make_algorithm(
                name, sample, memory_fraction=memory_fraction, page_bytes=256
            )
            checks = sum(algo.run(q).stats.checks for q in queries)
            calibration[name] = checks / len(queries)
        cheapest = min(calibration, key=calibration.get)
        if cheapest != algorithm:
            if cheapest == "BRS" and not brs_shape(profile):
                rationale.append(
                    f"calibration favours BRS ({calibration['BRS']:,.0f} "
                    "checks/query) but the dataset is not dense "
                    f"low-cardinality (density {profile.density}); the BRS "
                    "family is only recommended when records outnumber "
                    f"value cells (density >= {_BRS_MIN_DENSITY:g}) — "
                    "keeping TRS"
                )
            else:
                rationale.append(
                    f"calibration override: {cheapest} measured cheapest "
                    f"({calibration[cheapest]:,.0f} checks/query)"
                )
                algorithm = cheapest
        else:
            rationale.append(
                f"calibration confirms {algorithm} "
                f"({calibration[algorithm]:,.0f} checks/query)"
            )

    return Recommendation(
        algorithm=algorithm,
        attribute_order=order,
        memory_fraction=memory_fraction,
        rationale=tuple(rationale),
        profile=profile,
        calibration=calibration,
        maintenance=maintenance,
    )
