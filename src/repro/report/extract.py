"""Stage 1 of the forensics pipeline: evidence → typed fact tables.

Three kinds of evidence feed the extractor, in any combination:

- **telemetry JSONL logs** (``--metrics-out`` / ``--events-out``): the
  detection audit trail (``audit.*``), remediation lifecycle
  (``closedloop.*``), packet-level drops and transport failures, and
  the ``scenario.start``/``scenario.end`` markers a chaos batch brackets
  each scenario with;
- **incident streams** (``--incidents-out``): the fleet aggregator's
  ``incident.opened``/``incident.reopened``/``incident.closed``
  lifecycle;
- **``.fprec`` replay files**: raw capture with no telemetry at all —
  verdicts are re-derived through the same golden monitor path the
  fleet uses, and each monitor's audit trail folds in like a log's,
  so a recording alone yields the full fact set.

Reading is tolerant by default (:func:`repro.telemetry.events.read_jsonl_tolerant`):
a log truncated mid-line by a killed run still yields every intact
event, and the dropped-line count lands in ``FactTables.malformed_lines``
so the report can disclose the data loss.  Non-finite deviations,
serialized by strict-JSON sanitization as the strings ``"Infinity"`` /
``"-Infinity"`` / ``"NaN"``, are restored to floats here — fact tables
carry numbers, never their string stand-ins.
"""

from __future__ import annotations

import json
import pathlib

from ..telemetry.events import desanitize_float, read_jsonl, read_jsonl_tolerant
from ..telemetry.registry import NULL_INSTRUMENT
from .tables import FactTables, ReportError

_num = desanitize_float  # local alias; applied to every numeric field


class _Suspicion:
    """Duck-typed stand-in for a LinkSuspicion rebuilt from an event."""

    __slots__ = ("link", "kind", "deviation", "affected_senders")

    def __init__(self, link, kind, deviation, affected_senders) -> None:
        self.link = link
        self.kind = kind
        self.deviation = deviation
        self.affected_senders = affected_senders


class _RunContext:
    """Mutable per-run extraction state within one source stream."""

    def __init__(self, run: str, job_id: int, quiet_gap: int) -> None:
        from ..fleet.aggregate import FleetAggregator

        self.run = run
        self.job_id = job_id
        self.drops: dict[tuple[int, str], dict] = {}  # (job, link) -> agg
        self.opened: set[tuple[int, str]] = set()
        self.closed: set[tuple[int, str]] = set()
        #: Folds audit-trail localizations so an audit-only stream (no
        #: ``--incidents-out`` beside it) still yields incident facts.
        self.aggregator = FleetAggregator(quiet_gap=quiet_gap)


class _Extractor:
    """Folds one source's event stream into fact rows."""

    def __init__(
        self,
        facts: FactTables,
        source: str,
        default_job_id: int,
        quiet_gap: int | None = None,
    ) -> None:
        from ..fleet.aggregate import DEFAULT_QUIET_GAP

        self.facts = facts
        self.source = source
        self.default_job_id = default_job_id
        self.quiet_gap = DEFAULT_QUIET_GAP if quiet_gap is None else quiet_gap
        self.context = _RunContext(source, default_job_id, self.quiet_gap)
        self._runs_row: dict | None = None

    # ------------------------------------------------------------------
    def consume(self, events) -> None:
        for event in events:
            handler = self._HANDLERS.get(event.get("type"))
            if handler is not None:
                handler(self, event)
        self._finish_run()

    def _finish_run(self) -> None:
        context = self.context
        for (job_id, link), agg in sorted(context.drops.items()):
            self.facts.add(
                "link_drops",
                run=context.run,
                job_id=job_id,
                link=link,
                n_drops=agg["n"],
                dropped_bytes=agg["bytes"],
                first_ns=agg["first"],
                last_ns=agg["last"],
            )
        for key in sorted(context.closed - context.opened):
            if context.opened:
                self.facts.issues.append(
                    f"{context.run}: incident.closed for job {key[0]} link "
                    f"{key[1]} without a matching incident.opened"
                )
        if not context.closed:
            # No incident stream rode along with this run's audit trail:
            # the localization fold stands in for the fleet aggregator.
            for incident in context.aggregator.incidents:
                self._add_incident(incident)
        self._runs_row = None

    def _add_incident(self, incident, n_iterations: int | None = None) -> None:
        _incident_row(self.facts, self.context.run, incident, n_iterations)

    # A monitor's telemetry session (duck-typed): each audit event folds
    # in as it is emitted, the way a log line of it would.
    def emit(self, type_: str, **fields) -> None:
        self._HANDLERS[type_](self, {"type": type_, **fields})

    @staticmethod
    def counter(name: str):
        return NULL_INSTRUMENT

    # ------------------------------------------------------------------
    # Run boundaries
    # ------------------------------------------------------------------
    def _on_scenario_start(self, event: dict) -> None:
        self._finish_run()
        seed = event.get("seed")
        run = f"{self.source}#seed{seed}" if seed is not None else self.source
        self.context = _RunContext(
            run, int(event.get("job_id", self.default_job_id)), self.quiet_gap
        )
        self._runs_row = self.facts.add(
            "runs",
            run=run,
            source=self.source,
            job_id=self.context.job_id,
            kind=event.get("kind"),
            n_leaves=event.get("n_leaves"),
            n_spines=event.get("n_spines"),
            threshold=_num(event.get("threshold")),
            fault_link=event.get("fault_link"),
            fault_iteration=event.get("fault_iteration"),
            detectable=event.get("detectable"),
            # Gray-failure study context; absent (-> None cells) in
            # logs recorded before the congestion layer existed.
            conditional=event.get("conditional"),
            spray=event.get("spray"),
            remediation=event.get("remediation"),
            congested=event.get("congested"),
            background_jobs=event.get("background_jobs"),
        )

    def _on_scenario_end(self, event: dict) -> None:
        row = self._runs_row
        if row is None:
            return
        row["detection_iteration"] = event.get("detection_iteration")
        row["remediation_iteration"] = event.get("remediation_iteration")
        row["iterations_completed"] = event.get("iterations_completed")
        row["failed_messages"] = event.get("failed_messages")
        row["stalled"] = event.get("stalled")
        row["recovered"] = event.get("recovered")
        row["ok"] = event.get("ok")
        row["digest"] = event.get("digest")

    # ------------------------------------------------------------------
    # Audit trail
    # ------------------------------------------------------------------
    def _on_iteration(self, event: dict) -> None:
        self.facts.add(
            "iterations",
            run=self.context.run,
            job_id=self.context.job_id,
            iteration=event["iteration"],
            learning_event=event.get("learning_event"),
            skipped=bool(event.get("skipped")),
            triggered=bool(event.get("triggered")),
            max_score=_num(event.get("max_score")),
            leaves=event.get("leaves"),
        )

    def _on_leaf(self, event: dict) -> None:
        for port in event.get("ports", ()):
            self.facts.add(
                "leaf_observations",
                run=self.context.run,
                job_id=self.context.job_id,
                iteration=event["iteration"],
                leaf=event["leaf"],
                spine=port.get("spine"),
                predicted=_num(port.get("predicted")),
                observed=_num(port.get("observed")),
                deviation=_num(port.get("deviation")),
                alarm=bool(port.get("alarm")),
                leaf_triggered=bool(event.get("triggered")),
                leaf_max_abs_deviation=_num(event.get("max_abs_deviation")),
            )

    def _on_alarm(self, event: dict) -> None:
        self.facts.add(
            "alarms",
            run=self.context.run,
            job_id=self.context.job_id,
            iteration=event["iteration"],
            leaf=event["leaf"],
            spine=event.get("spine"),
            predicted=_num(event.get("predicted")),
            observed=_num(event.get("observed")),
            deviation=_num(event.get("deviation")),
            deficit=bool(event.get("deficit")),
        )

    def _on_localization(self, event: dict) -> None:
        for suspicion in event.get("suspicions", ()):
            deviation = _num(suspicion.get("deviation"))
            senders = tuple(suspicion.get("affected_senders", ()))
            self.facts.add(
                "localizations",
                run=self.context.run,
                job_id=self.context.job_id,
                iteration=event["iteration"],
                leaf=event["leaf"],
                link=suspicion.get("link"),
                kind=suspicion.get("kind"),
                spine=suspicion.get("spine"),
                affected_senders=senders,
                deviation=deviation,
            )
            self.context.aggregator._fold(
                self.context.job_id,
                event["iteration"],
                event["leaf"],
                _Suspicion(
                    suspicion.get("link"),
                    suspicion.get("kind"),
                    deviation if deviation is not None else 0.0,
                    senders,
                ),
            )

    # ------------------------------------------------------------------
    # Remediation, transport, drops
    # ------------------------------------------------------------------
    def _on_remediation(self, event: dict) -> None:
        outcome = event.get("outcome")
        if outcome is None:  # pre-linkage writers: infer from the type
            outcome = "vetoed" if event["type"] == "closedloop.veto" else "applied"
        self.facts.add(
            "remediations",
            run=self.context.run,
            job_id=int(event.get("job_id", self.context.job_id)),
            iteration=event.get("iteration"),
            time_ns=event.get("time_ns"),
            outcome=outcome,
            links=tuple(event.get("links", ())),
        )

    def _on_transport_failed(self, event: dict) -> None:
        self.facts.add(
            "transport_failures",
            run=self.context.run,
            job_id=self.context.job_id,
            time_ns=event.get("time_ns"),
            host=event.get("host"),
            dst_host=event.get("dst_host"),
            msg_id=event.get("msg_id"),
            seq=event.get("seq"),
            retransmissions=event.get("retransmissions"),
        )

    def _on_link_drop(self, event: dict) -> None:
        key = (self.context.job_id, event.get("link"))
        agg = self.context.drops.get(key)
        time_ns = event.get("time_ns", 0)
        size = event.get("size", 0)
        if agg is None:
            self.context.drops[key] = {
                "n": 1,
                "bytes": size,
                "first": time_ns,
                "last": time_ns,
            }
        else:
            agg["n"] += 1
            agg["bytes"] += size
            agg["first"] = min(agg["first"], time_ns)
            agg["last"] = max(agg["last"], time_ns)

    # ------------------------------------------------------------------
    # Incident lifecycle
    # ------------------------------------------------------------------
    def _on_incident_opened(self, event: dict) -> None:
        self.context.opened.add((event.get("job_id"), event.get("link")))

    def _on_incident_closed(self, event: dict) -> None:
        from ..fleet.aggregate import incident_from_event

        incident = incident_from_event(event)
        self.context.closed.add((incident.job_id, incident.link))
        self._add_incident(
            incident, n_iterations=event.get("n_iterations", incident.n_iterations)
        )

    _HANDLERS = {
        "scenario.start": _on_scenario_start,
        "scenario.end": _on_scenario_end,
        "audit.iteration": _on_iteration,
        "audit.leaf": _on_leaf,
        "audit.alarm": _on_alarm,
        "audit.localization": _on_localization,
        "closedloop.remediation": _on_remediation,
        "closedloop.veto": _on_remediation,
        "transport.failed": _on_transport_failed,
        "link.drop": _on_link_drop,
        "incident.opened": _on_incident_opened,
        "incident.reopened": _on_incident_opened,
        "incident.closed": _on_incident_closed,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def extract_events(
    path: str | pathlib.Path,
    facts: FactTables | None = None,
    *,
    label: str | None = None,
    default_job_id: int = 0,
    strict: bool = False,
    quiet_gap: int | None = None,
) -> FactTables:
    """Fold one JSONL event log (telemetry or incident stream) into
    fact tables."""
    facts = facts if facts is not None else FactTables()
    path = pathlib.Path(path)
    if not path.exists():
        raise ReportError(f"no such event log: {path}")
    if strict:
        try:
            events = read_jsonl(path)
        except json.JSONDecodeError as exc:
            raise ReportError(f"malformed JSONL in {path}: {exc}") from None
        malformed = 0
    else:
        events, malformed = read_jsonl_tolerant(path)
    facts.malformed_lines += malformed
    source = label if label is not None else path.name
    if malformed:
        facts.issues.append(
            f"{source}: skipped {malformed} malformed JSONL line(s)"
        )
    facts.sources.append(source)
    _Extractor(facts, source, default_job_id, quiet_gap).consume(events)
    return facts


def extract_fprec(
    path: str | pathlib.Path,
    facts: FactTables | None = None,
    *,
    label: str | None = None,
    quiet_gap: int | None = None,
) -> FactTables:
    """Re-derive the full fact set from a raw ``.fprec`` capture.

    Every job's records run through the same monitor construction the
    fleet's shards use (bit-identical verdicts by the fleet's golden
    parity guarantee).  Each monitor audits into its job's extractor,
    so the fact rows come from the audit trail through the handlers a
    telemetry log goes through, and the localization fold yields the
    incidents as it does for an audit-only stream.
    """
    from ..fleet.codec import CodecError, read_fprec
    from ..fleet.shard import build_monitor

    facts = facts if facts is not None else FactTables()
    path = pathlib.Path(path)
    if not path.exists():
        raise ReportError(f"no such capture: {path}")
    try:
        content = read_fprec(path)
    except CodecError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from None
    source = label if label is not None else path.name
    facts.sources.append(source)
    monitors = {}
    run_rows: dict[int, dict] = {}
    jobs = {job.job_id: job for job in content.jobs}
    for job_id, job in sorted(jobs.items()):
        # Each job of a multi-job capture is its own run, so per-run
        # analysis (latency, timelines) never mixes jobs.
        run = f"{source}#job{job_id}"
        run_rows[job_id] = facts.add(
            "runs",
            run=run,
            source=source,
            job_id=job_id,
            kind="fleet",
            n_leaves=job.experiment.n_leaves,
            n_spines=job.experiment.n_spines,
            threshold=job.experiment.threshold,
            fault_link=job.fault_link,
            detectable=job.faulted,
        )
        monitor = monitors[job_id] = build_monitor(job)
        monitor.telemetry = _Extractor(facts, run, job_id, quiet_gap)
    for batch in content.batches:
        monitor = monitors.get(batch.job_id)
        if monitor is None:
            facts.issues.append(
                f"{source}: records for unregistered job {batch.job_id}"
            )
            continue
        verdict = monitor.process_iteration(list(batch.records))
        row = run_rows[batch.job_id]
        if verdict.triggered and row["detection_iteration"] is None:
            row["detection_iteration"] = verdict.iteration
    for monitor in monitors.values():
        monitor.telemetry._finish_run()
    return facts


def _incident_row(
    facts: FactTables, run: str, incident, n_iterations: int | None = None
) -> dict:
    """One incidents-table row from a rebuilt :class:`Incident`."""
    return facts.add(
        "incidents",
        run=run,
        job_id=incident.job_id,
        link=incident.link,
        kind=incident.kind,
        first_seen=incident.first_seen,
        last_seen=incident.last_seen,
        duration=incident.duration,
        n_iterations=(
            incident.n_iterations if n_iterations is None else n_iterations
        ),
        reopened=incident.reopened,
        worst_deviation=incident.worst_deviation,
        leaves=sorted(incident.leaves),
        senders=dict(sorted(incident.senders.items())),
        iterations=sorted(incident.iterations),
    )
