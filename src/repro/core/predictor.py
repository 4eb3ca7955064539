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
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.classification import GAugurClassifier
from repro.core.features import cm_feature_matrix, rm_feature_matrix
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
        # gathers per size group.  Growing rebinds the arrays: resolve
        # ids first, read the arrays after.
        self._rows: dict[tuple, int] = {}
        self._intensity = self._solo = self._sens = None

    def instrument(self, telemetry=None, tracer=None) -> "InterferencePredictor":
        """Attach observability sinks (both optional, chainable).

        ``telemetry`` (a :class:`repro.serving.Telemetry`) receives the
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

    def _observe_stage(self, stage: str, model: str, seconds: float) -> None:
        """Record one profiling stage into the attached telemetry."""
        if self.telemetry is not None:
            self.telemetry.histogram(f"predict_{stage}_s").observe(seconds)
            self.telemetry.counter("predict_stage_calls", stage=stage, model=model).inc()

    # ------------------------------------------------------------------

    def validate_spec(self, spec: ColocationSpec) -> None:
        """Raise :class:`MissingProfileError` if any game lacks a profile."""
        missing = tuple(
            dict.fromkeys(name for name, _ in spec.entries if name not in self.db)
        )
        if missing:
            raise MissingProfileError(missing)

    def _entry_ids(self, spec: ColocationSpec) -> list[int]:
        """Entry-table row of each entry of ``spec``; a spec with an entry
        never seen before is validated whole, then its new rows are added."""
        rows = self._rows
        try:
            return [rows[name, res.width, res.height] for name, res in spec.entries]
        except KeyError:
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
        return [rows[name, res.width, res.height] for name, res in spec.entries]

    def _solo_fps(self, spec: ColocationSpec) -> np.ndarray:
        """Solo FPS per entry of ``spec``, shape ``(n,)``."""
        ids = self._entry_ids(spec)
        return self._solo[ids]

    def _grouped_matrix(self, specs: Sequence[ColocationSpec], qos: float | None):
        """Feature rows for every entry of every size->=2 spec, grouped by size.

        Returns ``(X, slots)`` where ``X`` stacks one feature row per
        entry (CM rows when ``qos`` is given, RM rows otherwise) and
        ``slots`` lists ``(spec_index, row_start, size)`` blocks mapping
        contiguous row ranges of ``X`` back to their spec.  Grouping
        specs by size keeps the construction free of per-row Python:
        each distinct colocation size costs one ``(g, n)`` id array and
        one set of numpy ops.
        """
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for si, spec in enumerate(specs):
            if spec.size >= 2:
                members, ids = groups.setdefault(spec.size, ([], []))
                members.append(si)
                ids += self._entry_ids(spec)
        if not groups:
            return None, []
        blocks, slots, row = [], [], 0
        for size, (members, ids) in groups.items():
            idx = np.asarray(ids).reshape(-1, size)
            if qos is None:
                block = rm_feature_matrix(self._sens[idx], self._intensity[idx])
            else:
                block = cm_feature_matrix(
                    qos, self._solo[idx], self._sens[idx], self._intensity[idx]
                )
            blocks.append(block)
            for si in members:
                slots.append((si, row, size))
                row += size
        X = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        return X, slots

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
    # tree evaluation are row-independent, and the grouped matrix builders
    # of :mod:`repro.core.features` reproduce the per-row builders
    # bitwise); only the number of model invocations changes.

    def predict_degradations_batch(
        self, specs: Sequence[ColocationSpec]
    ) -> list[np.ndarray]:
        """RM degradation ratios for each spec, one model invocation total."""
        if self.regressor is None:
            raise RuntimeError("no regression model attached")
        out: list[np.ndarray] = [np.ones(spec.size, dtype=float) for spec in specs]
        start = time.perf_counter()
        with self.tracer.span("featurize", model="rm", specs=len(specs)):
            X, slots = self._grouped_matrix(specs, None)
        self._observe_stage("featurize", "rm", time.perf_counter() - start)
        if X is not None:
            start = time.perf_counter()
            with self.tracer.span("model_eval", model="rm", rows=X.shape[0]):
                predictions = self.regressor.predict_from_features(X)
            self._observe_stage("model_eval", "rm", time.perf_counter() - start)
            for si, row, size in slots:
                out[si] = predictions[row : row + size]
        return out

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
        out: list[np.ndarray] = []
        start = time.perf_counter()
        with self.tracer.span("featurize", model="cm", specs=len(specs)):
            for spec in specs:
                # A game running alone is feasible iff its solo FPS meets
                # QoS; colocations are filled in from ``slots`` below.
                out.append(self._solo_fps(spec) >= qos if spec.size < 2 else None)
            X, slots = self._grouped_matrix(specs, qos)
        self._observe_stage("featurize", "cm", time.perf_counter() - start)
        if X is not None:
            start = time.perf_counter()
            with self.tracer.span("model_eval", model="cm", rows=X.shape[0]):
                verdicts = self.classifier.predict_from_features(X)
            self._observe_stage("model_eval", "cm", time.perf_counter() - start)
            for si, row, size in slots:
                out[si] = verdicts[row : row + size].astype(bool)
        return out

    def colocations_feasible(
        self, specs: Sequence[ColocationSpec], qos: float
    ) -> np.ndarray:
        """Whole-colocation CM verdict for each spec (batched)."""
        return np.asarray(
            [bool(np.all(v)) for v in self.predict_feasible_batch(specs, qos)],
            dtype=bool,
        )

    def predict_batch(
        self,
        specs: Sequence[ColocationSpec],
        qos: float | None = None,
        *,
        models: Sequence[str] | None = None,
    ) -> list[dict]:
        """Evaluate the attached models over ``specs`` in batched form.

        Returns one dict per spec with keys ``"fps"`` / ``"degradations"``
        (present when a regressor is attached) and ``"feasible"`` (present
        when a classifier is attached and ``qos`` is given).  Values equal
        the corresponding single-spec calls exactly, but the whole batch
        costs one model invocation per attached model.

        ``models`` restricts evaluation to a subset of ``("rm", "cm")``;
        the default runs every attached model.  Single-model callers (the
        CM admission policy scans a whole candidate pool per arrival)
        use it to skip work whose outputs they would discard.

        When instrumented (:meth:`instrument`), the whole call is timed
        into ``predict_batch_s`` and the featurize/model-eval stages into
        ``predict_featurize_s`` / ``predict_model_eval_s``, giving the
        per-decision latency attribution the serving layer reports.
        """
        unknown = set(models or ()) - {"rm", "cm"}
        if unknown:
            raise ValueError(
                f"models must be drawn from ('rm', 'cm'), got {sorted(unknown)}"
            )
        start = time.perf_counter()
        run_rm = self.regressor is not None and (models is None or "rm" in models)
        run_cm = (
            self.classifier is not None
            and qos is not None
            and (models is None or "cm" in models)
        )
        with self.tracer.span("predict_batch", specs=len(specs)):
            results: list[dict] = [{} for _ in specs]
            if run_rm:
                degradations = self.predict_degradations_batch(specs)
                for spec, result, deg in zip(specs, results, degradations):
                    result["degradations"] = deg
                    result["fps"] = deg * self._solo_fps(spec)
            if run_cm:
                for result, verdicts in zip(
                    results, self.predict_feasible_batch(specs, qos)
                ):
                    result["feasible"] = verdicts
        if self.telemetry is not None:
            self.telemetry.histogram("predict_batch_s").observe(
                time.perf_counter() - start
            )
        return results

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
