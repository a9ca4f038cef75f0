"""SIGMA — Secure Internet Group Management Architecture.

Generic, protocol-independent key-based group access control at edge routers:
key announcements from the sender, a per-slot key table, receiver-facing
session-join / subscription / unsubscription messages, grace windows for new
receivers and newly joined groups, and slot-boundary enforcement.
"""

from .distributor import SYMBOLS_PER_PACKET, SigmaKeyDistributor
from .host_interface import SigmaHostInterface
from .key_table import RETAINED_SLOTS, RouterKeyTable
from .messages import (
    ANNOUNCEMENT_HEADER,
    KeyAnnouncement,
    KeyAnnouncementEntry,
    SessionJoinMessage,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from .router_agent import (
    GUESS_ALARM_THRESHOLD,
    NEW_GROUP_GRACE_SLOTS,
    SESSION_JOIN_GRACE_SLOTS,
    AccessRecord,
    SigmaRouterAgent,
)

__all__ = [
    "SigmaKeyDistributor",
    "SigmaHostInterface",
    "RouterKeyTable",
    "ANNOUNCEMENT_HEADER",
    "KeyAnnouncement",
    "KeyAnnouncementEntry",
    "SessionJoinMessage",
    "SubscriptionMessage",
    "UnsubscriptionMessage",
    "AccessRecord",
    "SigmaRouterAgent",
    "SESSION_JOIN_GRACE_SLOTS",
    "NEW_GROUP_GRACE_SLOTS",
    "GUESS_ALARM_THRESHOLD",
    "RETAINED_SLOTS",
    "SYMBOLS_PER_PACKET",
]
