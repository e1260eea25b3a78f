"""The rewriting engine: obligation checking, application, fixpoints.

The engine drives rewrites the way figure 1 of the paper describes: pick a
rewrite, run its matcher on the ExprHigh graph, apply it through ExprLow,
lift the result back, repeat.  Every application is logged; rewrites whose
refinement obligation has been discharged are tagged ``verified`` in the
log, so a pipeline's output carries the same guarantee structure as the
paper's (a verified core rewrite within a partially-unverified pipeline).

``apply_exhaustively`` re-scans the whole graph after every application:
the indexed matcher makes a full scan cheap, so restricting it to the
region an application touched buys nothing measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

from .. import obs
from ..core.exprhigh import ExprHigh
from ..errors import RewriteError
from ..refinement.checker import check_rewrite
from .apply import Application, apply_rewrite
from .matcher import MatchStats, first_match
from .rewrite import Match, Rewrite


@dataclass
class RewriteStats:
    """Per-rewrite counters within one engine's lifetime."""

    applied: int = 0
    matches_tried: int = 0  # candidate bindings attempted by the matcher
    match_seconds: float = 0.0

    def merge(self, other: "RewriteStats") -> None:
        self.applied += other.applied
        self.matches_tried += other.matches_tried
        self.match_seconds += other.match_seconds

    def to_dict(self) -> dict:
        return {
            "applied": self.applied,
            "matches_tried": self.matches_tried,
            "match_seconds": self.match_seconds,
        }


@dataclass
class EngineStats:
    """Counters describing a rewriting run (cf. section 6.3)."""

    rewrites_applied: int = 0
    matches_tried: int = 0  # total candidate bindings attempted
    seconds: float = 0.0
    per_rewrite: dict[str, RewriteStats] = field(default_factory=dict)

    def for_rewrite(self, name: str) -> RewriteStats:
        entry = self.per_rewrite.get(name)
        if entry is None:
            entry = self.per_rewrite[name] = RewriteStats()
        return entry

    def merge(self, other: "EngineStats") -> None:
        """Fold *other* into this accumulator (session-level aggregation)."""
        self.rewrites_applied += other.rewrites_applied
        self.matches_tried += other.matches_tried
        self.seconds += other.seconds
        for name, entry in other.per_rewrite.items():
            self.for_rewrite(name).merge(entry)

    def to_dict(self) -> dict:
        return {
            "rewrites_applied": self.rewrites_applied,
            "matches_tried": self.matches_tried,
            "seconds": self.seconds,
            "per_rewrite": {
                name: entry.to_dict() for name, entry in sorted(self.per_rewrite.items())
            },
        }


class RewriteEngine:
    """Applies rewrites and tracks provenance and statistics."""

    def __init__(self, check_obligations: bool = False, cache=None):
        self.check_obligations = check_obligations
        self.cache = cache  # a repro.exec cache (ResultCache/NullCache), or None
        self.log: list[Application] = []
        self.stats = EngineStats()
        self._discharged: set[str] = set()

    # -- obligation discharge -------------------------------------------------

    def verify_rewrite(self, rewrite: Rewrite) -> bool:
        """Discharge the rewrite's refinement obligation on its instances.

        Returns True when every bounded instance of ``rhs ⊑ lhs`` holds;
        raises :class:`RefinementError` on a counterexample.  Each rewrite
        is checked once per engine; across engines the obligation goes
        through :func:`~repro.refinement.checker.check_rewrite` with the
        engine's result cache, so a warm run re-validates the stored
        certificates instead of re-solving the simulation game — and never
        trusts a stored verdict.
        """
        if rewrite.name not in self._discharged:
            check_rewrite(rewrite, cache=self.cache)
            self._discharged.add(rewrite.name)
        return True

    # -- application ----------------------------------------------------------

    def apply_once(self, graph: ExprHigh, rewrite: Rewrite) -> ExprHigh | None:
        """Apply *rewrite* at its first match; None when it does not match."""
        start = perf_counter()
        entry = self.stats.for_rewrite(rewrite.name)
        with obs.span(f"rewrite:{rewrite.name}", scope="full") as sp:
            try:
                if self.check_obligations and rewrite.verified and rewrite.obligation is not None:
                    self.verify_rewrite(rewrite)
                mstats = MatchStats()
                match_start = perf_counter()
                with obs.span("match"):
                    match = first_match(graph, rewrite, stats=mstats)
                entry.match_seconds += perf_counter() - match_start
                entry.matches_tried += mstats.candidates
                self.stats.matches_tried += mstats.candidates
                sp.set(matches_tried=mstats.candidates, applied=match is not None)
                if match is None:
                    return None
                with obs.span("apply"):
                    new_graph, application = apply_rewrite(graph, rewrite, match)
                self.log.append(application)
                self.stats.rewrites_applied += 1
                entry.applied += 1
                return new_graph
            finally:
                self.stats.seconds += perf_counter() - start

    def apply_at(self, graph: ExprHigh, rewrite: Rewrite, match: Match) -> ExprHigh:
        """Apply *rewrite* at a specific, externally chosen match."""
        start = perf_counter()
        with obs.span(f"rewrite:{rewrite.name}", scope="at", applied=True):
            try:
                if self.check_obligations and rewrite.verified and rewrite.obligation is not None:
                    self.verify_rewrite(rewrite)
                new_graph, application = apply_rewrite(graph, rewrite, match)
                self.log.append(application)
                self.stats.rewrites_applied += 1
                self.stats.for_rewrite(rewrite.name).applied += 1
                return new_graph
            finally:
                self.stats.seconds += perf_counter() - start

    def apply_exhaustively(
        self,
        graph: ExprHigh,
        rewrites: Sequence[Rewrite],
        max_steps: int = 10_000,
    ) -> ExprHigh:
        """Apply the given rewrites to fixpoint, first-match-first order.

        This is the "exhaustively apply the applicable rewrites in that
        phase" strategy of section 3.1: after every application the scan
        restarts from the highest-priority rewrite.  Raises
        :class:`RewriteError` when *max_steps* applications do not reach a
        fixpoint (a diverging rule set).
        """
        for _ in range(max_steps):
            for rewrite in rewrites:
                new_graph = self.apply_once(graph, rewrite)
                if new_graph is not None:
                    graph = new_graph
                    break
            else:
                return graph
        raise RewriteError(
            f"no fixpoint after {max_steps} rewrite applications; "
            f"rule set {[r.name for r in rewrites]} may diverge"
        )

    def verified_fraction(self) -> float:
        """Fraction of logged applications that used verified rewrites."""
        if not self.log:
            return 1.0
        return sum(1 for a in self.log if a.verified) / len(self.log)
