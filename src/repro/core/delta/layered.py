"""DELTA instantiation for cumulative layered multicast (Figure 4).

This is the instantiation the paper derives in §3.1.1 for FLID-DL, RLC and
similar unreliable layered protocols that treat a *single packet loss* as
congestion.  Groups carry cumulative layers: group 1 is the base layer and a
subscription level ``g`` means groups ``1..g``.

Keys per group ``g`` for the governed slot (Figure 3):

* **top key**  ``τ_g = ⊕_{j≤g} ⊕_{p∈S_j} c_{j,p}``  — only a receiver that got
  *every* packet of groups ``1..g`` can compute it (Equation 3);
* **decrease key** ``δ_g = d_{g+1}`` — the nonce carried in the decrease field
  of every packet of group ``g+1``; one received packet of group ``g+1``
  suffices (Equation 4);
* **increase key** ``ι_g = τ_{g-1}`` — generated only when the protocol
  authorises an upgrade to group ``g`` (Equation 5).

The sender precomputes the keys before the slot starts (it does not need to
know how many packets will be sent) and then emits component fields in real
time: a fresh nonce on every packet except the last of the group, and a
closing value on the last packet so that the XOR over the whole slot equals
the precomputed per-group constant ``C_g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ...crypto.nonce import NonceGenerator
from ...crypto.xorkeys import KeyAccumulator, xor_fold
from .base import (
    DeltaPacketFields,
    GroupKeys,
    ReceiverSlotObservation,
    ReconstructionResult,
    SlotKeyMaterial,
)

__all__ = ["LayeredDeltaSender", "LayeredDeltaReceiver"]


@dataclass
class _GroupSlotState:
    """Sender-side per-group state for the current distribution slot."""

    accumulator: KeyAccumulator
    decrease_field: Optional[int]  # d_g: the decrease key of group g-1
    packets_emitted: int = 0
    closed: bool = False


class LayeredDeltaSender:
    """Sender-side algorithm of Figure 4 (layered multicast, single-loss)."""

    def __init__(self, group_count: int, nonces: NonceGenerator) -> None:
        if group_count < 1:
            raise ValueError("a session needs at least one group")
        self.group_count = group_count
        self.nonces = nonces
        self._slot_state: Dict[int, _GroupSlotState] = {}
        self._current_material: Optional[SlotKeyMaterial] = None
        self._distribution_slot: Optional[int] = None

    # ------------------------------------------------------------------
    def begin_slot(
        self, distribution_slot: int, upgrade_authorized: Sequence[int]
    ) -> SlotKeyMaterial:
        """Precompute keys and decrease fields for ``distribution_slot + 2``.

        Follows the precomputation phase of Figure 4: per-group constants
        ``C_g``, top keys ``τ_g`` as cumulative XOR of the constants, decrease
        keys ``δ_{g-1}`` as fresh nonces carried in decrease fields ``d_g``,
        and increase keys ``ι_g = τ_{g-1}`` for authorised groups.
        """
        authorized = frozenset(
            g for g in upgrade_authorized if 2 <= g <= self.group_count
        )
        constants = {g: self.nonces.next() for g in range(1, self.group_count + 1)}
        top: Dict[int, int] = {}
        decrease: Dict[int, int] = {}
        fields_d: Dict[int, int] = {}
        running = 0
        for g in range(1, self.group_count + 1):
            running ^= constants[g]
            top[g] = running
        for g in range(2, self.group_count + 1):
            delta = self.nonces.next()
            decrease[g - 1] = delta  # δ_{g-1}
            fields_d[g] = delta  # d_g carried on group g packets

        keys: Dict[int, GroupKeys] = {}
        for g in range(1, self.group_count + 1):
            increase = top[g - 1] if (g in authorized and g >= 2) else None
            keys[g] = GroupKeys(
                top=top[g],
                decrease=decrease.get(g),
                increase=increase,
            )

        self._slot_state = {
            g: _GroupSlotState(
                accumulator=KeyAccumulator(constants[g], self.nonces.bits),
                decrease_field=fields_d.get(g),
            )
            for g in range(1, self.group_count + 1)
        }
        self._distribution_slot = distribution_slot
        self._current_material = SlotKeyMaterial(
            governed_slot=distribution_slot + 2,
            keys=keys,
            upgrade_authorized=authorized,
        )
        return self._current_material

    # ------------------------------------------------------------------
    def fields_for_packet(self, group: int, is_last_in_slot: bool) -> DeltaPacketFields:
        """Generate the component (and decrease) field of one data packet."""
        if self._current_material is None:
            raise RuntimeError("begin_slot must be called before emitting packets")
        state = self._slot_state.get(group)
        if state is None:
            raise ValueError(f"group {group} outside 1..{self.group_count}")
        if state.closed:
            # The protocol marked an earlier packet as last; any straggler in
            # the same slot gets an ordinary nonce.  Receivers that see the
            # closing packet ignore later components of the group for key
            # purposes, so this keeps the algebra consistent.
            component = self.nonces.next()
            return DeltaPacketFields(
                group=group,
                component=component,
                decrease=state.decrease_field,
                closing=False,
            )
        if is_last_in_slot:
            component = state.accumulator.closing_component()
            state.closed = True
        else:
            component = state.accumulator.emit_component(self.nonces.next())
        state.packets_emitted += 1
        return DeltaPacketFields(
            group=group,
            component=component,
            decrease=state.decrease_field,
            closing=is_last_in_slot,
        )

class LayeredDeltaReceiver:
    """Receiver-side algorithm of Figure 4."""

    def __init__(self, group_count: int) -> None:
        if group_count < 1:
            raise ValueError("a session needs at least one group")
        self.group_count = group_count

    # ------------------------------------------------------------------
    def reconstruct(self, observation: ReceiverSlotObservation) -> ReconstructionResult:
        """Derive the keys the receiver is entitled to for the governed slot.

        Implements the right-hand column of Figure 4, including the
        resolution of the (r)/(ι) contradiction described in §3.1.1: a
        receiver congested *only* in its top group ``g`` keeps group ``g``
        when the protocol authorises an upgrade to ``g`` and groups
        ``1..g-1`` are loss-free.
        """
        g = observation.subscription_level
        if g <= 0:
            return ReconstructionResult(next_level=0, keys={})
        g = min(g, self.group_count)

        # u_{j-1} <- decrease field from R_j   (unconditional loop of Fig. 4)
        decrease_keys: Dict[int, int] = {}
        for j in range(2, g + 1):
            fields = observation.decrease_fields.get(j, [])
            if fields:
                decrease_keys[j - 1] = fields[0]

        if observation.congested:
            return self._reconstruct_congested(observation, g, decrease_keys)
        return self._reconstruct_uncongested(observation, g, decrease_keys)

    # ------------------------------------------------------------------
    def _top_key_candidate(self, observation: ReceiverSlotObservation, level: int) -> int:
        """XOR of every received component of groups 1..level (Equation 3).

        If any packet was lost the result differs from the true key; the
        receiver cannot tell locally, but the edge router will reject it.
        """
        value = 0
        for j in range(1, level + 1):
            value ^= xor_fold(observation.components.get(j, []))
        return value

    def _contiguous_prefix(self, keys: Dict[int, int], limit: int) -> int:
        """Largest L <= limit such that keys 1..L are all available."""
        level = 0
        for j in range(1, limit + 1):
            if j in keys:
                level = j
            else:
                break
        return level

    def _reconstruct_congested(
        self,
        observation: ReceiverSlotObservation,
        g: int,
        decrease_keys: Dict[int, int],
    ) -> ReconstructionResult:
        keys: Dict[int, int] = dict(decrease_keys)
        # Exception clause: keep group g when only group g lost packets, the
        # protocol authorises an upgrade to g, and groups 1..g-1 are clean.
        only_top_lost = observation.lost_groups <= frozenset({g})
        lower_clean = not any(j in observation.lost_groups for j in range(1, g))
        if (
            g >= 2
            and g in observation.upgrade_authorized
            and only_top_lost
            and lower_clean
        ):
            keys[g] = self._top_key_candidate(observation, g - 1)
            next_level = self._contiguous_prefix(keys, g)
            return ReconstructionResult(next_level=next_level, keys={
                j: keys[j] for j in range(1, next_level + 1)
            })
        # Normal congested path: drop the top group, keep 1..g-1 via decrease keys.
        next_level = self._contiguous_prefix(keys, g - 1)
        return ReconstructionResult(
            next_level=next_level,
            keys={j: keys[j] for j in range(1, next_level + 1)},
        )

    def _reconstruct_uncongested(
        self,
        observation: ReceiverSlotObservation,
        g: int,
        decrease_keys: Dict[int, int],
    ) -> ReconstructionResult:
        keys: Dict[int, int] = dict(decrease_keys)
        keys[g] = self._top_key_candidate(observation, g)
        upgrade_target = g + 1
        if (
            upgrade_target in observation.upgrade_authorized
            and upgrade_target <= self.group_count
        ):
            # ι_{g+1} = τ_g: the key already computed opens the next group too.
            keys[upgrade_target] = keys[g]
            next_level = self._contiguous_prefix(keys, upgrade_target)
        else:
            next_level = self._contiguous_prefix(keys, g)
        return ReconstructionResult(
            next_level=next_level,
            keys={j: keys[j] for j in range(1, next_level + 1)},
        )
