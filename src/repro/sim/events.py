"""What an event is, for the discrete-event kernel and its callers.

An event is the list ``[time, priority, seq, callback, args]``, its own
heap entry in :class:`~repro.sim.simulator.Simulator`: a push builds one
object and runs no Python constructor. ``seq`` is a monotonically
increasing tie-breaker so that two events scheduled for the same instant
at the same priority always fire in the order they were scheduled —
this is what makes simulations reproducible. It is also unique, so list
comparison (done in C by ``heapq``) never reaches the callback.
"""

from __future__ import annotations

#: Default priority for ordinary events.
PRIORITY_NORMAL = 100
#: Priority for events that must run before ordinary ones at the same time
#: (e.g. link-state changes should be visible to packets arriving "now").
PRIORITY_HIGH = 10
#: Priority for bookkeeping that should run after everything else.
PRIORITY_LOW = 1000


#: A scheduled callback: ``[time, priority, seq, callback, args]``,
#: read through the indices below; an opaque handle outside the kernel.
#: ``callback`` is ``None`` once it is cancelled, or taken to run.
Event = list
TIME, PRIORITY, SEQ, CALLBACK, ARGS = range(5)
