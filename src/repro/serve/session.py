"""Per-client stream sessions on a served model.

A :class:`Session` is the unit of statefulness in the serving layer: one
client's live spike stream, carried by a batch-1
:class:`~repro.core.engine.StreamState`.  Sessions are created and owned
by a :class:`~repro.serve.server.ModelServer`; the micro-batcher gathers
many sessions' states into one batched state per tick and scatters the
advanced rows back, so a session never notices whose chunks shared its
batch (every stream runs the fused engine, whose gather/scatter is
bitwise-transparent — see ``docs/serving.md``).
"""

from __future__ import annotations

from ..core.engine import StreamState

__all__ = ["Session"]


class Session:
    """One client's resident stream on a served model.

    Attributes
    ----------
    session_id:
        Server-assigned identifier (``"s000001"``-style).
    state:
        The batch-1 :class:`~repro.core.engine.StreamState` carrying the
        stream across chunks (under the server's *primary* weights —
        ideal, or the hardware realization in hardware mode).
    shadow_state:
        A second batch-1 state carried only by shadow-mode servers: the
        same input stream advanced under the hardware realization, so
        every chunk yields an ideal/hardware output pair to diff.
        ``None`` otherwise.
    created_at, last_active:
        Server-clock timestamps of creation and the last completed chunk.
    chunks:
        Number of chunks completed for this session.
    divergence_sum:
        Accumulated per-chunk ideal-vs-hardware output divergence
        (shadow mode only; mean it over ``chunks`` for the session rate).
    """

    __slots__ = ("session_id", "state", "shadow_state", "created_at",
                 "last_active", "chunks", "divergence_sum")

    def __init__(self, session_id: str, state: StreamState, now: float,
                 shadow_state: StreamState | None = None):
        self.session_id = session_id
        self.state = state
        self.shadow_state = shadow_state
        self.created_at = now
        self.last_active = now
        self.chunks = 0
        self.divergence_sum = 0.0

    @property
    def steps(self) -> int:
        """Total time steps this stream has consumed."""
        return int(self.state.steps[0])

    def __repr__(self) -> str:
        return (f"Session({self.session_id}, chunks={self.chunks}, "
                f"steps={self.steps})")
