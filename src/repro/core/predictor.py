"""Online prediction facade (paper Section 3.5, "online prediction").

Bundles the profile database with trained CM/RM models behind a
colocation-level API: given any :class:`ColocationSpec`, returns per-game
QoS verdicts, degradation ratios or frame rates instantaneously — the
operation a cloud-gaming request dispatcher performs at every arrival.

Beyond the single-colocation calls, the ``*_batch`` methods evaluate many
candidate colocations in one model invocation: feature rows for every
entry of every candidate are assembled into one matrix and pushed through
the CM/RM exactly once, which is what makes scanning a whole server pool
per request-arrival cheap (the serving hot path of
:mod:`repro.serving`).

Admission asks less — does *every* member meet QoS (Section 5.1)? — and a
conjunction is settled by its first failure, so
:meth:`InterferencePredictor.colocations_feasible` evaluates one *pivot*
row per colocation first (the member with the lowest solo FPS, hence the
largest required ratio ``qos / solo_fps``) and the other members only
where it passed: exactly ``all(predict_feasible(spec, qos))`` whatever
the model, in at most two model invocations.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.classification import GAugurClassifier
from repro.core.features import (
    AGGREGATE_DIM,
    aggregate_rows,
    cm_head_rows,
    feature_rows,
)
from repro.core.regression import GAugurRegressor
from repro.core.training import ColocationSpec
from repro.obs.tracing import NOOP_TRACER

if TYPE_CHECKING:  # avoid the core <-> profiling import cycle
    from repro.profiling.database import ProfileDatabase

__all__ = ["InterferencePredictor", "MissingProfileError"]


class MissingProfileError(KeyError):
    """A colocation references game(s) absent from the profile database.

    Raised up front, before any feature assembly, so callers (and the
    serving layer's fallback path) see one clear error naming every
    missing game instead of a bare ``KeyError`` from deep inside
    :meth:`repro.profiling.database.ProfileDatabase.get`.
    """

    def __init__(self, missing: Sequence[str]):
        self.missing = tuple(missing)
        super().__init__(self.missing)

    def __str__(self) -> str:
        names = ", ".join(repr(n) for n in self.missing)
        return f"no profile for game(s) {names}"


class InterferencePredictor:
    """Real-time interference predictor over a profiled game population."""

    def __init__(
        self,
        db: ProfileDatabase,
        classifier: GAugurClassifier | None = None,
        regressor: GAugurRegressor | None = None,
    ):
        if classifier is None and regressor is None:
            raise ValueError("provide at least one of classifier / regressor")
        self.db = db
        self.classifier = classifier
        self.regressor = regressor
        self.telemetry = None
        self.tracer = NOOP_TRACER
        # The entry table: (game, width, height) -> row of three parallel
        # arrays — intensity (E, 7), solo FPS (E,), sensitivity (E, d).
        # Profiles are immutable once loaded and the derivations are
        # pure, so rows never invalidate; E is bounded by games x
        # resolutions ever seen.  A colocation is a list of row ids, so
        # featurizing a batch is a few dict lookups per spec and three
        # gathers per stage.  Growing rebinds the arrays: resolve ids
        # first, read the arrays after.
        self._rows: dict[tuple, int] = {}
        self._intensity = self._solo = self._sens = None
        # The CM head block: row e holds [qos, solo, qos/solo, sens...] of
        # entry e for the qos it was built for — the leading columns of
        # every CM row targeting e.  A derived cache, keyed by qos and the
        # solo array it was built from (growing the table rebinds it).
        self._head_key, self._head = None, None

    def instrument(self, telemetry=None, tracer=None) -> "InterferencePredictor":
        """Attach observability sinks (both optional, chainable).

        ``telemetry`` (a :class:`repro.obs.Telemetry`) receives the
        per-stage profiling histograms — feature assembly vs. model
        evaluation — that the batch prediction paths record; ``tracer``
        (a :class:`repro.obs.Tracer`) receives matching nested spans.
        Un-instrumented predictors skip both with near-zero overhead.
        """
        if telemetry is not None:
            self.telemetry = telemetry
        if tracer is not None:
            self.tracer = tracer
        return self

    def _stage(self, stage: str, model: str, call, *args, **attributes):
        """``call(*args)`` inside a ``stage`` span, timed into the telemetry."""
        start = time.perf_counter()
        with self.tracer.span(stage, model=model, **attributes):
            result = call(*args)
        if self.telemetry is not None:
            seconds = time.perf_counter() - start
            self.telemetry.histogram(f"predict_{stage}_s").observe(seconds)
            self.telemetry.counter("predict_stage_calls", stage=stage, model=model).inc()
        return result

    def _evaluate(self, model: str, X: np.ndarray) -> np.ndarray:
        """``model``'s prediction for each row of ``X``: one ``model_eval`` stage."""
        estimator = self.regressor if model == "rm" else self.classifier
        predict = estimator.predict_from_features
        return self._stage("model_eval", model, predict, X, rows=X.shape[0])

    # ------------------------------------------------------------------

    def validate_spec(self, spec: ColocationSpec) -> None:
        """Raise :class:`MissingProfileError` if any game lacks a profile."""
        missing = tuple(
            dict.fromkeys(name for name, _ in spec.entries if name not in self.db)
        )
        if missing:
            raise MissingProfileError(missing)

    def _entry_ids(self, specs: Sequence[ColocationSpec]) -> list[int]:
        """Entry-table row of every entry of every spec, flat; a spec with an
        entry never seen before is validated whole, then its rows are added."""
        rows = self._rows
        try:
            return [
                rows[name, res.width, res.height]
                for spec in specs
                for name, res in spec.entries
            ]
        except KeyError:
            pass
        for spec in specs:
            self.validate_spec(spec)
            for name, res in spec.entries:
                key = (name, res.width, res.height)
                if key not in rows:
                    profile = self.db.get(name)
                    new = (
                        profile.intensity_at(res).values[None],
                        np.asarray([profile.solo_fps_at(res)], dtype=float),
                        profile.sensitivity_vector()[None],
                    )
                    if rows:
                        old = (self._intensity, self._solo, self._sens)
                        new = [np.concatenate(pair) for pair in zip(old, new)]
                    self._intensity, self._solo, self._sens = new
                    rows[key] = len(rows)
        return self._entry_ids(specs)

    def _solo_fps(self, spec: ColocationSpec) -> np.ndarray:
        """Solo FPS per entry of ``spec``, shape ``(n,)``."""
        ids = self._entry_ids((spec,))
        return self._solo[ids]

    def _members(self, specs: Sequence[ColocationSpec]):
        """The batch as one padded id matrix: ``ids[s, :sizes[s]]`` are spec
        ``s``'s entry-table rows in entry order and ``real`` marks those
        slots; the pads after them hold row 0 and every reader masks them."""
        flat = self._entry_ids(specs)
        lengths = [len(spec.entries) for spec in specs]
        sizes = np.asarray(lengths)
        real = np.arange(max(lengths)) < sizes[:, None]
        ids = np.zeros(real.shape, dtype=np.intp)
        ids[real] = flat
        return ids, sizes, real

    def _cm_head(self, qos: float) -> np.ndarray:
        """The ``(E, 3 + d)`` CM head block for ``qos`` (see ``__init__``)."""
        key = self._head_key
        if key is None or key[0] != qos or key[1] is not self._solo:
            self._head = cm_head_rows(qos, self._solo, self._sens)
            self._head_key = (qos, self._solo)
        return self._head

    def _featurize(self, ids, sizes, spec, member, qos: float | None) -> np.ndarray:
        """One row (CM given ``qos``, else RM) per ``(spec[r], member[r])``: a
        member's co-runners are its spec's other slots, ascending — the
        real ones, then pads, which :func:`feature_rows` ignores.  A CM
        row's head is one gather from the head block; only its Eq. 5
        columns are computed, by :func:`feature_rows`' own arithmetic."""
        base = np.arange(ids.shape[1] - 1)
        others = base + (base >= member[:, None])
        target = ids[spec, member]
        co = self._intensity[ids[spec[:, None], others]]
        if qos is None:
            return feature_rows(self._sens[target], co, sizes[spec] - 1)
        head = self._cm_head(qos)
        width = head.shape[1]
        X = np.empty((target.shape[0], width + AGGREGATE_DIM), dtype=float)
        np.take(head, target, axis=0, out=X[:, :width])
        aggregate_rows(co, sizes[spec] - 1, out=X[:, width:])
        return X

    def _grouped_matrix(self, specs: Sequence[ColocationSpec], qos: float | None):
        """Feature rows for every entry of every size->=2 spec, grouped by spec.

        Returns ``(X, slots)`` where ``X`` stacks one feature row per
        entry (CM rows when ``qos`` is given, RM rows otherwise) and
        ``slots`` lists the ``(spec_index, row_start, size)`` block of each
        spec.  All sizes share the one matrix: no per-row or per-size Python.
        """
        where = [si for si, spec in enumerate(specs) if spec.size >= 2]
        if not where:
            return None, []
        ids, sizes, real = self._members([specs[si] for si in where])
        starts = np.cumsum(sizes) - sizes
        slots = list(zip(where, starts.tolist(), sizes.tolist()))
        return self._featurize(ids, sizes, *np.nonzero(real), qos), slots

    def predict_degradations(self, spec: ColocationSpec) -> np.ndarray:
        """RM degradation ratio per entry of the colocation."""
        return self.predict_degradations_batch([spec])[0]

    def predict_fps(self, spec: ColocationSpec) -> np.ndarray:
        """Predicted colocated FPS per entry (RM degradation x solo FPS)."""
        return self.predict_fps_batch([spec])[0]

    def predict_feasible(self, spec: ColocationSpec, qos: float) -> np.ndarray:
        """CM verdict per entry: does each game meet ``qos`` FPS?"""
        return self.predict_feasible_batch([spec], qos)[0]

    def colocation_feasible(self, spec: ColocationSpec, qos: float) -> bool:
        """True iff every game in the colocation is predicted to meet QoS."""
        return bool(np.all(self.predict_feasible(spec, qos)))

    # ------------------------------------------------------------------
    # Batched prediction: evaluate many candidate colocations with one
    # model invocation per attached model.  Outputs are bitwise identical
    # to the equivalent sequence of single-spec calls (standardization and
    # tree evaluation are row-independent, and the row builder of
    # :mod:`repro.core.features` reproduces the per-row builders
    # bitwise); only the number of model invocations changes.

    def _per_entry(self, model: str, specs, qos: float | None, out: list) -> list:
        """Put ``model``'s prediction per entry of each size->=2 spec in ``out``."""
        X, slots = self._stage(
            "featurize", model, self._grouped_matrix, specs, qos, specs=len(specs)
        )
        if X is not None:
            predictions = self._evaluate(model, X)
            for si, row, size in slots:
                out[si] = predictions[row : row + size]
        return out

    def predict_degradations_batch(
        self, specs: Sequence[ColocationSpec]
    ) -> list[np.ndarray]:
        """RM degradation ratios for each spec, one model invocation total."""
        if self.regressor is None:
            raise RuntimeError("no regression model attached")
        alone = [np.ones(spec.size, dtype=float) for spec in specs]
        return self._per_entry("rm", specs, None, alone)

    def predict_fps_batch(self, specs: Sequence[ColocationSpec]) -> list[np.ndarray]:
        """Predicted colocated FPS per entry for each spec (batched RM)."""
        degradations = self.predict_degradations_batch(specs)
        return [deg * self._solo_fps(spec) for spec, deg in zip(specs, degradations)]

    def predict_feasible_batch(
        self, specs: Sequence[ColocationSpec], qos: float
    ) -> list[np.ndarray]:
        """CM verdict per entry for each spec, one model invocation total."""
        if self.classifier is None:
            raise RuntimeError("no classification model attached")
        # A game running alone is feasible iff its solo FPS meets QoS.
        alone = [self._solo_fps(s) >= qos if s.size < 2 else None for s in specs]
        return [v.astype(bool) for v in self._per_entry("cm", specs, qos, alone)]

    def _pivot_rows(self, specs: Sequence[ColocationSpec], qos: float):
        """Stage 1 of :meth:`colocations_feasible`: the solo specs' answers,
        the pivot row ``X[r]`` = member ``member[r]`` of each other spec
        ``spec[r]``, and the builder of stage 2 over the same layout."""
        ids, sizes, real = self._members(specs)
        solo = np.where(real, self._solo[ids], np.inf)
        spec = np.flatnonzero(sizes >= 2)
        member = solo.argmin(axis=1)[spec]  # lowest solo FPS, first on ties

        def rest(spec, member):
            """Rows of all members of ``spec[r]`` but ``member[r]``, and their ``r``."""
            others = real[spec]
            others[np.arange(spec.size), member] = False
            of, member = np.nonzero(others)
            return self._featurize(ids, sizes, spec[of], member, qos), of

        X = self._featurize(ids, sizes, spec, member, qos) if spec.size else None
        return X, solo[:, 0] >= qos, spec, member, rest

    def colocations_feasible(
        self, specs: Sequence[ColocationSpec], qos: float
    ) -> np.ndarray:
        """Whole-colocation CM verdict for each spec, pivot first.

        Equals ``[all(v) for v in predict_feasible_batch(specs, qos)]``
        for any model, in at most two model invocations: stage 1 judges
        one row per size->=2 spec — its *pivot*, the member with the
        lowest solo FPS (first on ties), the likeliest to fail — and
        stage 2 the other members of the specs whose pivot passed.
        """
        if self.classifier is None:
            raise RuntimeError("no classification model attached")
        if not len(specs):
            return np.zeros(0, dtype=bool)
        start = time.perf_counter()
        with self.tracer.span("predict_batch", specs=len(specs)):
            X, out, spec, member, rest = self._stage(
                "featurize", "cm", self._pivot_rows, specs, qos, specs=len(specs)
            )
            if X is not None:
                passed = self._evaluate("cm", X) != 0
                out[spec] = passed
                spec, member = spec[passed], member[passed]
                if spec.size:  # some pivot passed: judge the rest of those specs
                    X, of = self._stage(
                        "featurize", "cm", rest, spec, member, specs=spec.size
                    )
                    failed = self._evaluate("cm", X) == 0
                    out[spec[of[failed]]] = False  # any failing member sinks its spec
        if self.telemetry is not None:
            self.telemetry.histogram("predict_batch_s").observe(
                time.perf_counter() - start
            )
        return out

    # ------------------------------------------------------------------
    # RM-as-classifier (the paper's GAugur(RM) classification variant)

    def predict_feasible_rm(self, spec: ColocationSpec, qos: float) -> np.ndarray:
        """QoS verdict per entry by thresholding the RM's predicted FPS."""
        return self.predict_fps(spec) >= qos

    def colocation_feasible_rm(self, spec: ColocationSpec, qos: float) -> bool:
        """True iff the RM predicts every game's FPS meets ``qos``."""
        return bool(np.all(self.predict_feasible_rm(spec, qos)))

    # ------------------------------------------------------------------
    # Deployment bundle: profiles + trained models in one artifact.

    def save(self, path) -> None:
        """Write the predictor (profile DB + fitted models) as one JSON file."""
        from repro.utils.serialization import dump_json

        bundle = {
            "db": self.db.to_dict(),
            "classifier": self.classifier.to_dict() if self.classifier else None,
            "regressor": self.regressor.to_dict() if self.regressor else None,
        }
        dump_json(bundle, path)

    @classmethod
    def load(cls, path) -> "InterferencePredictor":
        """Load a predictor bundle written by :meth:`save`."""
        from repro.core.classification import GAugurClassifier
        from repro.core.regression import GAugurRegressor
        from repro.profiling.database import ProfileDatabase
        from repro.utils.serialization import load_json

        bundle = load_json(path)
        if not isinstance(bundle, dict) or "db" not in bundle:
            raise ValueError(
                f"{path}: not a predictor bundle (expected an object with a "
                "'db' key; was this written by InterferencePredictor.save?)"
            )
        return cls(
            ProfileDatabase.from_dict(bundle["db"]),
            classifier=(
                GAugurClassifier.from_dict(bundle["classifier"])
                if bundle.get("classifier")
                else None
            ),
            regressor=(
                GAugurRegressor.from_dict(bundle["regressor"])
                if bundle.get("regressor")
                else None
            ),
        )
