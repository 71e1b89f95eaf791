"""Per-client stream sessions on a served model.

A :class:`Session` is the unit of statefulness in the serving layer: one
client's live spike stream, carried by one row of its server's resident
:class:`~repro.core.engine.StreamState` slab.  Sessions are created and
owned by a :class:`~repro.serve.server.ModelServer`; each tick gathers
its sessions' rows into one batched state and scatters the advanced rows
back, so a session never notices whose chunks shared its batch (every
stream runs the fused engine, whose gather/scatter is
bitwise-transparent — see ``docs/serving.md``).
"""

from __future__ import annotations

from ..common.errors import StateError
from ..core.engine import StreamState

__all__ = ["Session"]


class Session:
    """One client's resident stream on a served model.

    Attributes
    ----------
    session_id:
        Server-assigned identifier (``"s000001"``-style).
    slab, row:
        The server's resident :class:`~repro.core.engine.StreamState`
        and this stream's row in it (under the server's *primary*
        weights — ideal, or the hardware realization in hardware mode;
        a shadow-mode server carries the hardware shadow stream in the
        same row of a second slab).  ``row`` is ``None`` once the server
        has taken it back: after the session was closed or reaped, its
        last queued chunk settled and a new session reclaimed the row,
        or the server closed.
    created_at, last_active:
        Server-clock timestamps of creation and the last completed chunk.
    chunks:
        Number of chunks completed for this session.
    divergence_sum:
        Accumulated per-chunk ideal-vs-hardware output divergence
        (shadow mode only; mean it over ``chunks`` for the session rate).
    """

    __slots__ = ("session_id", "slab", "row", "created_at", "last_active",
                 "chunks", "divergence_sum")

    def __init__(self, session_id: str, slab: StreamState, row: int,
                 now: float):
        self.session_id = session_id
        self.slab = slab
        self.row = row
        self.created_at = now
        self.last_active = now
        self.chunks = 0
        self.divergence_sum = 0.0

    @property
    def steps(self) -> int:
        """Total time steps this stream has consumed; a
        :class:`~repro.common.errors.StateError` once its row is freed."""
        if self.row is None:
            raise StateError(f"session {self.session_id!r} is closed")
        return int(self.slab.steps[self.row])

    def __repr__(self) -> str:
        steps = "closed" if self.row is None else self.steps
        return (f"Session({self.session_id}, chunks={self.chunks}, "
                f"steps={steps})")
