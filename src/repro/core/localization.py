"""Fault localization (paper Fig. 4).

Reduced traffic at a leaf's ingress port from spine *S* has two
possible causes: a fault on the *local* link S->this-leaf, or a fault
on a *remote* link between a sending leaf and S (either direction of
that leaf's cable to S).  The two are distinguished by the per-sender
breakdown: if every sender's share through the port is depressed, the
local link is suspect; if only some senders are affected, their own
leaf-to-spine links are.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simnet.counters import IterationRecord
from ..topology.graph import down_link, up_link
from .detection import DetectionResult, PortDeviation
from .prediction.base import PortPrediction


@dataclass(frozen=True)
class LinkSuspicion:
    """One suspected faulty link with its supporting evidence."""

    link: str
    kind: str  # "local" or "remote"
    leaf: int  # the observing leaf
    spine: int  # the spine whose ingress port alarmed
    affected_senders: tuple[int, ...]
    deviation: float  # the port-level deviation that triggered this


@dataclass(frozen=True)
class LocalizationResult:
    """All suspicions derived from one leaf's detection result."""

    leaf: int
    iteration: int
    suspicions: tuple[LinkSuspicion, ...]

    def suspected_links(self) -> frozenset[str]:
        return frozenset(s.link for s in self.suspicions)


class Localizer:
    """Implements the sender-comparison rule of Fig. 4.

    ``sender_threshold`` is the relative per-sender deficit that marks
    a sender as affected; it defaults to the detection threshold.  A
    fabric with other link names overrides the two naming methods.
    """

    local_link = staticmethod(down_link)  # (spine, observing leaf) -> name
    remote_link = staticmethod(up_link)  # (sender, spine) -> name

    def __init__(self, sender_threshold: float = 0.01) -> None:
        if sender_threshold <= 0:
            raise ValueError("sender threshold must be positive")
        self.sender_threshold = sender_threshold

    def localize(
        self,
        record: IterationRecord,
        prediction: PortPrediction,
        detection: DetectionResult,
    ) -> LocalizationResult:
        """Attribute each deficit alarm to a local or remote link."""
        suspicions: list[LinkSuspicion] = []
        for alarm in detection.deficit_alarms():
            suspicions.extend(self._attribute(alarm, record, prediction))
        return LocalizationResult(
            leaf=record.leaf,
            iteration=record.tag.iteration,
            suspicions=tuple(suspicions),
        )

    def _attribute(
        self,
        alarm: PortDeviation,
        record: IterationRecord,
        prediction: PortPrediction,
    ) -> list[LinkSuspicion]:
        spine = alarm.spine
        expected_senders = {
            src: size
            for (s, src), size in prediction.sender_bytes.items()
            if s == spine and size > 0
        }
        if not expected_senders:
            return []
        affected = []
        for src, expected in sorted(expected_senders.items()):
            observed = float(record.sender_bytes.get((spine, src), 0))
            deficit = (observed - expected) / expected
            if deficit < -self.sender_threshold:
                affected.append(src)
        if not affected:
            # Port-level deficit without a clearly-affected sender: the
            # loss is spread thinly; blame the local link (the only
            # element common to every sender's path into this port).
            affected = sorted(expected_senders)
        local = []
        if len(affected) == len(expected_senders):
            # Every sender suffers: the shared local link is at fault (a
            # remote fault could not hit all senders at once).
            local = [
                LinkSuspicion(
                    link=self.local_link(spine, record.leaf),
                    kind="local",
                    leaf=record.leaf,
                    spine=spine,
                    affected_senders=tuple(affected),
                    deviation=alarm.deviation,
                )
            ]
            if len(affected) >= 2:
                return local
            # A single sender uses this port (the ring case): Fig. 4's
            # sender comparison has nothing to compare against, so the
            # fault is narrowed to two candidate cables — the local
            # downstream link and the sender's upstream link.
        # Some senders suffer (or the single one): their own leaf-spine
        # cables are at fault, in the upstream direction that carries
        # their data toward this spine.
        return local + [
            LinkSuspicion(
                link=self.remote_link(src, spine),
                kind="remote",
                leaf=record.leaf,
                spine=spine,
                affected_senders=(src,),
                deviation=alarm.deviation,
            )
            for src in affected
        ]
