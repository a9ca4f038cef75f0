"""The strategy stack: attack strategies dispatched around a receiver.

An adversarial receiver is the ordinary protocol receiver
(:class:`~repro.multicast_cc.flid_dl.FlidDlReceiver` or
:class:`~repro.multicast_cc.flid_ds.FlidDsReceiver`) with a
:class:`StrategyStack` passed as its ``strategies=`` argument.  The receiver
owns the stack and hands it every evaluated slot; the stack runs its
:class:`~repro.adversary.strategy.AttackStrategy` hooks around the receiver's
honest decision.  The honest pipeline stays available — most attackers keep
playing it for the access it guarantees — and each strategy decides per slot
whether to augment, rewrite or suppress the honest subscription decision.

A receiver standing for N members mounts the stack once: the shared
:class:`~repro.adversary.context.AttackContext` books every counter, IGMP
report and SIGMA ``member_count`` stamp **per member**, so N aggregated
attackers report exactly what N one-member attackers would (per-slot
randomness is drawn once per receiver from the strategy's named seeded
stream; collusion pools take member-weighted contributions — see
``docs/threat-model.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from .context import AttackContext, COUNTER_KEYS
from .strategy import AttackStrategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only (import cycle guard)
    from ..multicast_cc.receiver_base import LayeredReceiverBase, SlotRecord

__all__ = ["StrategyStack"]


class StrategyStack:
    """The attack strategies one receiver mounts, in declaration order."""

    def __init__(self, strategies: Sequence[AttackStrategy]) -> None:
        self.strategies: List[AttackStrategy] = list(strategies)
        self.ctx: Optional[AttackContext] = None

    def attach(self, receiver: "LayeredReceiverBase") -> None:
        """Bind the stack to ``receiver`` once it has joined its session."""
        self.ctx = AttackContext(receiver)
        for strategy in self.strategies:
            strategy.on_attach(self.ctx)

    @property
    def attacking(self) -> bool:
        """True while at least one strategy's attack window is open."""
        return any(s.started and not s.stopped for s in self.strategies)

    def stats(self) -> Dict[str, int]:
        """Attack counters (zeroes before the receiver joined the session)."""
        if self.ctx is None:
            return dict.fromkeys(COUNTER_KEYS, 0)
        return self.ctx.stats()

    # ------------------------------------------------------------------
    def evaluate(self, evaluated_slot: int, record: "SlotRecord", congested: bool) -> None:
        """Run one evaluated slot: strategy hooks around the honest decision."""
        ctx = self.ctx
        receiver = ctx.receiver
        now = ctx.now
        active: List[AttackStrategy] = []
        for strategy in self.strategies:
            if not strategy.started and strategy.active(now):
                strategy.started = True
                strategy.on_start(ctx)
            elif (
                strategy.started
                and not strategy.stopped
                and strategy.stop_s is not None
                and now >= strategy.stop_s
            ):
                strategy.stopped = True
                strategy.on_stop(ctx)
            if strategy.started and not strategy.stopped:
                active.append(strategy)

        effective = congested
        for strategy in active:
            effective = strategy.filter_congestion(ctx, evaluated_slot, record, effective)

        # Loss classification is only recomputed when some active strategy
        # actually listens for it (the sets are rebuilt per call site).
        listeners = [
            s for s in active if type(s).on_loss is not AttackStrategy.on_loss
        ]
        if listeners:
            # The same loss signal the honest pipeline classifies on.
            lost = receiver._lost_groups(record, congested)
            if lost:
                for strategy in listeners:
                    strategy.on_loss(ctx, evaluated_slot, set(lost))

        suppress = False
        for strategy in active:
            if strategy.on_slot(ctx, evaluated_slot, record, effective):
                suppress = True
        if suppress:
            # One suppressed honest decision per represented attacker, so the
            # counter reads the same for N aggregated members as for N
            # one-member receivers.
            ctx.suppressed_slots += ctx.member_count
        else:
            receiver._apply_decision(evaluated_slot, record, effective)

        for strategy in active:
            strategy.after_slot(ctx, evaluated_slot, record, effective)

    def on_keys(self, governed_slot: int, keys: Dict[int, int]) -> None:
        """Hand the honest pipeline's DELTA keys to every active strategy."""
        ctx = self.ctx
        now = ctx.now
        for strategy in self.strategies:
            if strategy.started and not strategy.stopped and strategy.active(now):
                strategy.on_keys(ctx, governed_slot, dict(keys))
