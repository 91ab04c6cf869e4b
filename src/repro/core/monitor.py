"""The FlowPulse monitor: model + detection + localization, end to end.

One :class:`FlowPulseMonitor` watches one job across the whole fabric.
Per collective iteration it receives the per-leaf
:class:`~repro.simnet.counters.IterationRecord` measurements (from the
packet simulator's collectors or from the fast simulator), updates the
load model if it is a learning one, runs every leaf's threshold
detector independently — there is no inter-switch coordination, as in
the paper — and localizes any deficit alarms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..simnet.counters import IterationRecord
from .blocks import IterationSegment, as_floats
from .detection import DetectionConfig, DetectionResult, ThresholdDetector, _prediction_state
from .localization import LocalizationResult, Localizer
from .prediction.base import LoadPredictor
from .prediction.learning import LearningEvent


class IterationVerdict:
    """Outcome of monitoring one collective iteration.

    A plain slotted class with the former frozen dataclass's
    constructor, fields, equality, hash and repr, so the vectorized
    block pass can hand an iteration over in columnar form and defer
    the per-leaf :class:`DetectionResult` tuple until someone reads
    ``results`` — the fleet's quiet majority never does.  ``_dense`` is
    ``((leaves, ports, expected), observed, scores, scalar)``: the
    plan's shared layout with its ``(m, p)`` expected matrix, this
    iteration's ``(m, p)`` observed matrix, the worst |deviation| per
    leaf, and the scalar-oracle results of alarm-bearing leaves by row.
    Per-port deviations are recomputed on first read (the same float64
    subtraction and division, so the same bits).  That state is also
    what pickles: a verdict crosses a process boundary as float64
    blocks, not per-port Python floats.
    """

    __slots__ = (
        "iteration", "learning_event", "skipped", "localizations", "_results", "_dense",
    )

    def __init__(
        self,
        iteration: int,
        learning_event: LearningEvent,
        skipped: bool,  # True while the learning predictor warms up / relearns
        results: tuple[DetectionResult, ...] = (),
        localizations: tuple[LocalizationResult, ...] = (),
        _dense: tuple | None = None,
    ) -> None:
        self.iteration = iteration
        self.learning_event = learning_event
        self.skipped = skipped
        self.localizations = localizations
        self._results = results if _dense is None else None
        self._dense = _dense

    @property
    def results(self) -> tuple[DetectionResult, ...]:
        results = self._results
        if results is None:
            (leaves, ports, expected), observed, scores, scalar = self._dense
            iteration = self.iteration
            deviations = ((observed - expected) / expected).tolist()
            expected = expected.tolist()
            observed = observed.tolist()
            results = self._results = tuple(
                scalar[j]
                if j in scalar
                else DetectionResult(
                    leaf,
                    iteration,
                    alarms=(),
                    max_abs=scores[j],
                    _lazy=(leaf, ports, expected[j], observed[j], deviations[j]),
                )
                for j, leaf in enumerate(leaves)
            )
        return results

    @property
    def triggered(self) -> bool:
        dense = self._dense
        results = self._results if dense is None else dense[3].values()
        return any(r.triggered for r in results)

    @property
    def max_score(self) -> float:
        """The iteration's classifier score: worst |deviation| anywhere."""
        if self._dense is not None:
            return max(self._dense[2], default=0.0)
        return max((r.max_abs_deviation for r in self._results), default=0.0)

    def suspected_links(self) -> frozenset[str]:
        return frozenset(
            link for loc in self.localizations for link in loc.suspected_links()
        )

    def _fields(self) -> tuple:
        return (
            self.iteration, self.learning_event, self.skipped,
            self.results, self.localizations,
        )

    def __reduce__(self):
        results = self._results if self._dense is None else ()
        return type(self), (
            self.iteration, self.learning_event, self.skipped,
            results, self.localizations, self._dense,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IterationVerdict):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"IterationVerdict(iteration={self.iteration!r}, "
            f"learning_event={self.learning_event!r}, skipped={self.skipped!r}, "
            f"results={self.results!r}, localizations={self.localizations!r})"
        )


class _DensePlan(NamedTuple):
    """What the vectorized pass needs from one prediction, built once."""

    prediction: object  # strong reference: its identity is the cache key
    min_port_bytes: float
    leaves: np.ndarray  # the segment leaf order the plan was built for
    pattern: np.ndarray  # the sorted port pattern every leaf predicts
    leaf_predictions: list  # per-row PortPrediction, for the scalar oracle
    layout: tuple  # (leaves, ports, expected (m, p)): what verdicts carry


@dataclass
class RunVerdict:
    """Aggregate over a monitored run (many iterations)."""

    verdicts: list[IterationVerdict] = field(default_factory=list)

    @property
    def triggered(self) -> bool:
        return any(v.triggered for v in self.verdicts)

    @property
    def first_detection_iteration(self) -> int | None:
        for verdict in self.verdicts:
            if verdict.triggered:
                return verdict.iteration
        return None

    @property
    def max_score(self) -> float:
        scored = [v.max_score for v in self.verdicts if not v.skipped]
        return max(scored, default=0.0)

    def suspected_links(self) -> frozenset[str]:
        return frozenset(
            link for v in self.verdicts for link in v.suspected_links()
        )

    def suspicion_counts(self) -> dict[str, int]:
        """How many iteration-leaf observations implicated each link."""
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            for localization in verdict.localizations:
                for suspicion in localization.suspicions:
                    counts[suspicion.link] = counts.get(suspicion.link, 0) + 1
        return counts


class FlowPulseMonitor:
    """Fabric-wide FlowPulse instance for one monitored job."""

    def __init__(
        self,
        predictor: LoadPredictor,
        config: DetectionConfig | None = None,
        localizer: Localizer | None = None,
        telemetry=None,
    ) -> None:
        self.predictor = predictor
        self.config = config or DetectionConfig()
        self.detector = ThresholdDetector(self.config)
        self.localizer = localizer or Localizer(
            sender_threshold=self.config.threshold
        )
        #: Optional telemetry session (duck-typed; see
        #: :mod:`repro.telemetry.audit` for the emitted schema).  The
        #: audit trail is observation-only: it reads finished verdicts,
        #: so enabling it cannot change any detection outcome.
        self.telemetry = telemetry
        self._plan: _DensePlan | None = None

    # ------------------------------------------------------------------
    def process_iteration(
        self, records: list[IterationRecord]
    ) -> IterationVerdict:
        """Monitor one iteration; records must be ordered by leaf."""
        event = self.predictor.update(records)
        if self._skips(event):
            iteration = records[0].tag.iteration if records else -1
            verdict = IterationVerdict(
                iteration=iteration, learning_event=event, skipped=True
            )
            if self.telemetry is not None:
                self._audit(verdict)
            return verdict
        verdict = self._score_iteration(records, event, self.predictor.predict())
        if self.telemetry is not None:
            self._audit(verdict)
        return verdict

    def _skips(self, event: LearningEvent) -> bool:
        """Whether this iteration's records must not be detected on:
        predictor not ready, or the baseline was built *from* these
        records (checking them against it would be circular)."""
        return (
            not self.predictor.ready
            or event is LearningEvent.HEALING_DETECTED
            or event in (LearningEvent.BASELINE_READY, LearningEvent.REBASELINED)
        )

    def _score_iteration(
        self, records: list[IterationRecord], event: LearningEvent, prediction
    ) -> IterationVerdict:
        """The scalar scoring oracle: detect + localize one iteration
        against a ready prediction.  Every other scoring path (including
        the vectorized block pass) must match this bit for bit."""
        iteration = records[0].tag.iteration if records else -1
        results = []
        localizations = []
        for record in records:
            leaf_prediction = prediction.for_leaf(record.leaf)
            result = self.detector.evaluate(record, leaf_prediction)
            results.append(result)
            if result.triggered:
                localizations.append(
                    self.localizer.localize(record, leaf_prediction, result)
                )
        return IterationVerdict(
            iteration=iteration,
            learning_event=event,
            skipped=False,
            results=tuple(results),
            localizations=tuple(localizations),
        )

    # ------------------------------------------------------------------
    def process_block(self, block) -> list[IterationVerdict]:
        """Score a batch of iterations in one pass; bit-identical to
        sequential :meth:`process_iteration` calls.

        ``block`` is a sequence of iteration entries, each either a
        plain record list or a columnar
        :class:`~repro.core.blocks.IterationSegment`.  This is
        :func:`process_blocks` for one monitor: predictor updates run
        in iteration order (learning predictors stay correct), and the
        segments that fit the prediction's dense plan are scored as one
        vectorized numpy pass over their ``(iterations, leaves, ports)``
        value block.  The arithmetic is the same float64 arithmetic as
        the scalar detector's, so quiet iterations produce identical
        results; triggered or irregular leaves are re-evaluated through
        the scalar oracle, which makes parity exact everywhere.
        """
        return process_blocks([(self, block)])[0]

    def _prepare(self, block) -> tuple[list, list]:
        """This monitor's own part of :func:`process_blocks`, in
        iteration order: predictor updates, skipped iterations, the
        dense-plan lookup (once per prediction, from its first entry)
        and the scalar oracle for every entry no plan covers.

        Returns the block's verdict list, ``None`` where a dense
        candidate goes, and the candidates as ``(monitor, index, plan,
        segment, event)``.
        """
        predictor = self.predictor
        stateless = type(predictor).update is LoadPredictor.update
        verdicts: list[IterationVerdict | None] = [None] * len(block)
        groups: dict[int, list] = {}
        predictions: dict[int, object] = {}
        for index, entry in enumerate(block):
            segment = entry if isinstance(entry, IterationSegment) else None
            if stateless:
                # The base update ignores its records and returns NONE;
                # skipping it avoids materializing columnar records.
                event = LearningEvent.NONE
            else:
                records = entry if segment is None else segment.records()
                event = predictor.update(records)
            if self._skips(event):
                if segment is not None:
                    iteration = segment.iteration
                else:
                    iteration = entry[0].tag.iteration if entry else -1
                verdicts[index] = IterationVerdict(
                    iteration=iteration, learning_event=event, skipped=True
                )
                continue
            prediction = predictor.predict()
            key = id(prediction)
            predictions[key] = prediction
            groups.setdefault(key, []).append((index, entry, segment, event))
        dense = []
        for key, members in groups.items():
            prediction = predictions[key]
            plan = self._dense_plan(prediction, members[0][2])
            for index, entry, segment, event in members:
                if plan is not None and segment is not None:
                    dense.append((self, index, plan, segment, event))
                else:
                    records = entry if segment is None else segment.records()
                    verdicts[index] = self._score_iteration(records, event, prediction)
        return verdicts, dense

    def _dense_plan(self, prediction, segment) -> _DensePlan | None:
        """The vectorized-scoring plan for ``prediction``, or ``None``.

        Cached per prediction object and ``min_port_bytes`` (a learned
        predictor that rebaselines hands out a new prediction, hence a
        new plan), built from the first columnar segment scored against
        it.  A plan exists when that segment has one sorted port pattern
        and every leaf's prediction covers exactly that pattern with all
        expected volumes at or above ``min_port_bytes`` (and positive, so
        the division is the same operation the scalar fast path
        performs).
        """
        plan = self._plan
        min_port_bytes = self.config.min_port_bytes
        if (
            plan is not None
            and plan.prediction is prediction
            and plan.min_port_bytes == min_port_bytes
        ):
            return plan
        pattern = None if segment is None else segment.port_pattern()
        if pattern is None:
            return None
        ports = pattern.tolist()
        leaves = tuple(segment.leaves.tolist())
        leaf_predictions = []
        expected = []
        for leaf in leaves:
            leaf_prediction = prediction.for_leaf(leaf)
            leaf_ports, expected_floats, any_small = _prediction_state(
                leaf_prediction, min_port_bytes
            )
            if any_small or leaf_ports != ports or min(expected_floats) <= 0.0:
                return None
            leaf_predictions.append(leaf_prediction)
            expected.append(expected_floats)
        layout = (leaves, ports, np.array(expected))
        plan = self._plan = _DensePlan(
            prediction, min_port_bytes, segment.leaves, pattern, leaf_predictions, layout
        )
        return plan

    # ------------------------------------------------------------------
    def _audit(self, verdict: IterationVerdict) -> None:
        """Emit the iteration's audit trail (schema:
        :mod:`repro.telemetry.audit`).  Pure observation — reads the
        finished verdict, mutates nothing."""
        t = self.telemetry
        t.emit(
            "audit.iteration",
            iteration=verdict.iteration,
            learning_event=verdict.learning_event.name,
            skipped=verdict.skipped,
            triggered=verdict.triggered,
            max_score=verdict.max_score,
            leaves=len(verdict.results),
        )
        t.counter("audit.iterations").inc()
        if verdict.skipped:
            t.counter("audit.skipped_iterations").inc()
            return
        for result in verdict.results:
            t.emit(
                "audit.leaf",
                iteration=verdict.iteration,
                leaf=result.leaf,
                triggered=result.triggered,
                max_abs_deviation=result.max_abs_deviation,
                ports=result.audit_ports(),
            )
            for alarm in result.alarms:
                t.emit(
                    "audit.alarm",
                    iteration=verdict.iteration,
                    leaf=alarm.leaf,
                    spine=alarm.spine,
                    predicted=alarm.predicted,
                    observed=alarm.observed,
                    deviation=alarm.deviation,
                    deficit=alarm.is_deficit,
                )
                t.counter("audit.alarms").inc()
        for localization in verdict.localizations:
            t.emit(
                "audit.localization",
                iteration=verdict.iteration,
                leaf=localization.leaf,
                suspicions=[
                    {
                        "link": s.link,
                        "kind": s.kind,
                        "spine": s.spine,
                        "affected_senders": list(s.affected_senders),
                        "deviation": s.deviation,
                    }
                    for s in localization.suspicions
                ],
            )
            t.counter("audit.localizations").inc()

    def process_run(self, run) -> RunVerdict:
        """Monitor a sequence of iterations, each a record list or an
        :class:`~repro.core.blocks.IterationSegment` — one
        :meth:`process_block` over the whole run."""
        return RunVerdict(self.process_block(list(run)))


def process_blocks(pairs, catch: tuple[type[BaseException], ...] = ()) -> list:
    """Score several monitors' blocks in one pass: the verdict list of
    every ``(monitor, block)`` pair, in pair order, each bit-identical
    to that monitor's own :meth:`FlowPulseMonitor.process_iteration`
    calls.

    Each monitor first runs its own part (:meth:`FlowPulseMonitor._prepare`):
    predictor updates in iteration order, skip handling, the dense-plan
    lookup and the scalar oracle for entries no plan covers.  Every
    dense candidate of every monitor is then fit-checked and scored
    together, one numpy pass per ``(leaves, ports)`` shape
    (:func:`_score_dense`) — the fleet worker hands over a whole flush
    of jobs at once, so its one-iteration-per-job blocks still share
    one pass.  Audit trails are emitted per monitor, in iteration
    order, once every verdict is built.

    An exception of a type in ``catch`` raised while handling a pair
    takes that pair's place in the result and costs no other pair;
    any other exception propagates.
    """
    results: list = []
    by_shape: dict[tuple, list] = {}
    for owner, (monitor, block) in enumerate(pairs):
        try:
            verdicts, dense = monitor._prepare(block)
        except catch as exc:
            results.append(exc)
            continue
        results.append(verdicts)
        for candidate in dense:
            shape = candidate[2].layout[2].shape
            by_shape.setdefault(shape, []).append((owner,) + candidate)
    for shape, members in by_shape.items():
        _score_dense(shape, members, results, catch)
    for (monitor, _block), verdicts in zip(pairs, results):
        if monitor.telemetry is not None and isinstance(verdicts, list):
            for verdict in verdicts:
                monitor._audit(verdict)
    return results


def _score_dense(shape, members, results, catch) -> None:
    """Fit-check and score the dense candidates of one ``(m, p)`` plan
    shape in one numpy pass over their concatenated columns.

    A candidate fits its plan when its CSR port offsets are
    ``arange(m + 1) * p``, its port keys repeat the plan's pattern on
    every row and its leaves are the plan's leaves — a uniform port
    pattern equal to the plan's, in the plan's leaf order.  Fitting
    candidates leave as columnar verdicts, their alarm-bearing leaves
    re-scored and localized by the scalar oracle; misfits go to the
    oracle whole.  When one plan serves every candidate its pattern,
    leaves and expected matrix broadcast, so a monitored run's
    iterations copy nothing of the plan.
    """
    m, p = shape
    rows, misfits = [], []
    for member in members:
        segment = member[4]
        fits_shape = segment.n_records == m and len(segment.port_keys) == m * p
        (rows if fits_shape else misfits).append(member)
    if rows:
        n = len(rows)
        segments = [member[4] for member in rows]
        plans = [member[3] for member in rows]
        first = plans[0]
        if all(plan is first for plan in plans):
            leaves, pattern, expected = first.leaves, first.pattern, first.layout[2]
        else:
            leaves = _joined([plan.leaves for plan in plans]).reshape(n, m)
            pattern = _joined([plan.pattern for plan in plans]).reshape(n, 1, p)
            expected = _joined([plan.layout[2] for plan in plans]).reshape(n, m, p)
        fits = (
            (_joined([s.leaves for s in segments]).reshape(n, m) == leaves).all(axis=1)
            & (
                _joined([s.port_offsets for s in segments]).reshape(n, m + 1)
                == np.arange(0, (m + 1) * p, p)
            ).all(axis=1)
            & (_joined([s.port_keys for s in segments]).reshape(n, m, p) == pattern).all(
                axis=(1, 2)
            )
        ).tolist()
        observed = as_floats(
            _joined([s.port_raw for s in segments]), _joined([s.port_flags for s in segments])
        ).reshape(n, m, p)
        magnitudes = observed - expected
        magnitudes /= expected
        worst = np.abs(magnitudes, out=magnitudes).max(axis=2)
        threshold = rows[0][1].config.threshold
        if any(member[1].config.threshold != threshold for member in rows):
            threshold = np.array([member[1].config.threshold for member in rows]).reshape(n, 1)
        # Inclusive boundary, as in the scalar detector: a leaf alarms
        # when its worst port reaches the threshold.
        alarming = worst >= threshold
        alarmed = alarming.any(axis=1).tolist()
        worst = worst.tolist()
        for position, member in enumerate(rows):
            if not fits[position]:
                misfits.append(member)
                continue
            owner, monitor, index, plan, segment, event = member
            verdicts = results[owner]
            if not isinstance(verdicts, list):
                continue  # the pair already failed
            scores = worst[position]
            scalar = {}
            localizations = []
            if alarmed[position]:
                # Alarm-bearing leaves go through the scalar oracle:
                # identical detection plus the localization pass.
                try:
                    for j in np.flatnonzero(alarming[position]).tolist():
                        record = segment.record(j)
                        leaf_prediction = plan.leaf_predictions[j]
                        result = scalar[j] = monitor.detector.evaluate(record, leaf_prediction)
                        scores[j] = result.max_abs_deviation
                        if result.triggered:
                            localizations.append(
                                monitor.localizer.localize(record, leaf_prediction, result)
                            )
                except catch as exc:
                    results[owner] = exc
                    continue
            verdicts[index] = IterationVerdict(
                segment.iteration, event, False, (), tuple(localizations),
                _dense=(plan.layout, observed[position], scores, scalar),
            )
    for owner, monitor, index, plan, segment, event in misfits:
        verdicts = results[owner]
        if not isinstance(verdicts, list):
            continue
        try:
            verdicts[index] = monitor._score_iteration(
                segment.records(), event, plan.prediction
            )
        except catch as exc:
            results[owner] = exc


def _joined(arrays: list) -> np.ndarray:
    """``np.concatenate(arrays)``, without the copy for a single array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def score_for_roc(verdict: RunVerdict, cap: float = 10.0) -> float:
    """Collapse a run verdict to a finite ROC score.

    Infinite deviations (traffic on a port predicted idle) are capped so
    ROC sweeps stay numerically well-behaved.
    """
    score = verdict.max_score
    return min(score, cap) if math.isfinite(score) else cap
