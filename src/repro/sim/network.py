"""The simulated interconnect: cost models with and without contention.

:class:`Network` decides *when a message arrives* given when it was
injected.  Two models are supported:

``"alpha-beta"`` (compatibility mode, the default)
    The flat single-ported model of paper Section II-B that this repo
    has always used: the wire itself is infinitely capacious, both
    endpoints pay ``alpha + beta * l``, and a message becomes visible
    at the sender's post-send clock.  Simulated times under this model
    replay a strict round-robin polling schedule bit-identically (the
    golden fingerprints in ``tests/test_sim.py`` cover all eight
    algorithm variants), so the committed BENCH baseline migrates
    unchanged.

``"contended"``
    A two-level, link-capacitated hierarchy.  PEs are grouped into
    *nodes* of ``node_size`` consecutive ranks; every node owns one
    full-duplex **uplink** (node -> fabric) and one **downlink**
    (fabric -> node), each able to carry one message at a time at
    ``link_alpha + link_beta * l`` per message.  An inter-node message
    first occupies the source node's uplink, then the destination
    node's downlink; a message finding a link busy *queues* behind the
    traffic already granted it (``start = max(inject, busy_until)``).
    Intra-node messages bypass the links (the endpoint alpha-beta
    charges already model the NIC).  This is the effect the paper's
    grid-based indirection (Section IV-B) trades against: funnelling a
    PE row's traffic through one proxy serializes it on that proxy
    node's links, which the flat model cannot see.

The network mutates link occupancy as messages are injected, so it is
part of the simulation state: :meth:`Network.bind` (called by
``Machine.run``) rebinds the constants from the machine spec and clears
every link, making one :class:`Network` object reusable across runs
while keeping each run a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Link", "Network", "NetworkStats"]

#: Supported cost models.
MODELS = ("alpha-beta", "contended")


@dataclass
class Link:
    """Occupancy state of one directed link (an uplink or a downlink)."""

    #: Simulated time at which the link finishes its granted traffic.
    busy_until: float = 0.0
    #: Messages carried.
    messages: int = 0
    #: Words carried.
    words: int = 0
    #: Total seconds messages spent queued waiting for this link.
    queue_seconds: float = 0.0


@dataclass(frozen=True)
class NetworkStats:
    """Machine-wide totals over all links of one run."""

    model: str
    links_used: int
    messages: int
    words: int
    #: Total link-queueing delay suffered by all messages (seconds);
    #: always 0.0 under the alpha-beta model.
    queue_seconds: float
    #: Largest queueing delay on any single link (the hot spot).
    max_link_queue_seconds: float


class Network:
    """First-class interconnect model, attached to a ``Machine``.

    Parameters
    ----------
    model:
        ``"alpha-beta"`` (flat, uncontended — the compatibility cost
        model) or ``"contended"`` (two-level link hierarchy).
    node_size:
        PEs per node in the contended hierarchy; ranks ``[k *
        node_size, (k+1) * node_size)`` share node ``k``'s links.
    link_alpha / link_beta:
        Per-link transit constants.  Default to the machine spec's
        ``alpha`` / ``beta`` at :meth:`bind` time, so an uncontended
        message pays one extra wire transit per hop relative to the
        flat model — the price of modelling the wire at all.
    oversubscription:
        Multiplier (>= 1) on the effective per-word link time: an
        oversubscribed fabric (fewer fabric ports than node ports, as
        on most fat-tree deployments) carries each word proportionally
        slower.  Applied on top of ``link_beta``.
    """

    def __init__(
        self,
        model: str = "alpha-beta",
        *,
        node_size: int = 16,
        link_alpha: float | None = None,
        link_beta: float | None = None,
        oversubscription: float = 1.0,
    ):
        if model not in MODELS:
            raise ValueError(f"unknown network model {model!r}; expected one of {MODELS}")
        if node_size < 1:
            raise ValueError("node_size must be >= 1")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        self.model = model
        self.node_size = int(node_size)
        self._link_alpha_arg = link_alpha
        self._link_beta_arg = link_beta
        self.oversubscription = float(oversubscription)
        #: Effective constants, set by :meth:`bind`.
        self.link_alpha = link_alpha if link_alpha is not None else 0.0
        self.link_beta = (link_beta if link_beta is not None else 0.0) * self.oversubscription
        self.num_pes = 0
        self._links: dict[tuple[str, int], Link] = {}

    # ------------------------------------------------------------------
    def bind(self, spec, num_pes: int) -> None:
        """Bind spec-derived constants and reset all link state for a run."""
        la = self._link_alpha_arg if self._link_alpha_arg is not None else spec.alpha
        lb = self._link_beta_arg if self._link_beta_arg is not None else spec.beta
        self.link_alpha = float(la)
        self.link_beta = float(lb) * self.oversubscription
        self.num_pes = int(num_pes)
        self._links = {}

    def node_of(self, rank: int) -> int:
        """The node (link-sharing group) a PE belongs to."""
        return rank // self.node_size

    def transit_time(self, words: int) -> float:
        """One link transit: ``link_alpha + link_beta * l``."""
        return self.link_alpha + self.link_beta * float(words)

    def _link(self, kind: str, node: int) -> Link:
        key = (kind, node)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = Link()
        return link

    def arrival_time(self, src: int, dest: int, words: int, t: float) -> float:
        """When a message injected at ``t`` becomes visible at ``dest``.

        Under the contended model this *claims* link capacity: the
        message is granted the source uplink, then the destination
        downlink, each no earlier than the link frees up, and the
        links' ``busy_until`` advance past it.  Call exactly once per
        wire transmission, in injection order (the event engine's
        time-ordered execution guarantees this).
        """
        if self.model == "alpha-beta":
            return t
        nsrc = self.node_of(src)
        ndst = self.node_of(dest)
        if nsrc == ndst:
            return t
        transit = self.transit_time(words)
        up = self._link("up", nsrc)
        start = max(t, up.busy_until)
        up.queue_seconds += start - t
        end = start + transit
        up.busy_until = end
        up.messages += 1
        up.words += int(words)
        down = self._link("down", ndst)
        start2 = max(end, down.busy_until)
        down.queue_seconds += start2 - end
        end2 = start2 + transit
        down.busy_until = end2
        down.messages += 1
        down.words += int(words)
        return end2

    def stats(self) -> NetworkStats:
        """Aggregate link counters of the run so far."""
        links = list(self._links.values())
        return NetworkStats(
            model=self.model,
            links_used=len(links),
            messages=sum(l.messages for l in links),
            words=sum(l.words for l in links),
            queue_seconds=sum(l.queue_seconds for l in links),
            max_link_queue_seconds=max((l.queue_seconds for l in links), default=0.0),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.model == "alpha-beta":
            return "Network(model='alpha-beta')"
        return (
            f"Network(model='contended', node_size={self.node_size}, "
            f"link_alpha={self.link_alpha}, link_beta={self.link_beta})"
        )
