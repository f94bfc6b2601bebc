"""Physical registers for the detailed core.

The paper assumes an unlimited pool of physical registers (Sec 2.2), so
tags are simply objects.  Selective reissue makes a tag a *write-many*
cell: the same physical register receives a new value each time its
producer reissues, and consumers registered on the tag are woken to
reissue whenever the broadcast value actually changes (the broadcast
is inlined in the completion loop of ``Processor.run``).

Consumers and the producer are recorded as *packed pool references*
(``InstrPool.ref`` values, ``(uid << 32) | handle``), not handles: a
consumer entry can outlive its instruction (retire/squash does not scrub
registration lists), and a packed ref self-invalidates once the slot is
recycled (``pool.ref[ref & REF_MASK] != ref``).

A rename map is a plain list indexed by architectural register.  Recovery
never undoes it backward: ``RecoveryStage._map_after`` rebuilds a map
forward from the commit-side map over the live window.
"""

from __future__ import annotations


class PhysReg:
    """One physical register: value + readiness + registered consumers."""

    __slots__ = ("value", "ready", "consumers", "producer")

    def __init__(self, producer=None):
        self.value = 0
        self.ready = False
        self.consumers: list = []  # packed refs to wake on broadcast
        self.producer = producer  # packed ref of the owner (None = arch)
