"""Gossip-coordinated analyzer fleet (DESIGN.md §16).

The sharded analyzer (:mod:`repro.shard`) scales the paper's detector
across worker *processes* behind one coordinator; this package scales it
across analyzer *nodes*.  Three layers, each usable alone:

* :mod:`repro.fleet.membership` / :mod:`repro.fleet.gossip` — a
  dependency-free SWIM-flavored membership protocol: periodic
  heartbeats piggybacking full membership digests, timeout-based
  failure detection (alive → suspect → dead), and incarnation numbers
  so a falsely accused node squashes the rumor by re-asserting itself.
* :mod:`repro.fleet.ring` — a consistent-hash ring with virtual nodes:
  the deterministic ``stage byte -> analyzer`` placement the fleet and
  the sharded pool both route by.  A join or leave moves only ~1/N of
  the stage space, and every rebuild bumps ``ring_version`` so routes
  are attributable to a membership epoch.
* :mod:`repro.fleet.router` / :mod:`repro.fleet.node` — the rerouting
  glue: a watermark-pruned retention buffer per stage, replay of a dead
  or disowned analyzer's open-window tail to the stage's new owner, and
  the in-process loopback harness (:class:`AnalyzerFleet`) whose merged
  event feed is provably identical to a single-process detector across
  joins and mid-stream node deaths.
"""

from .membership import ALIVE, DEAD, LEFT, SUSPECT, Member, MembershipTable
from .ring import HashRing
from .gossip import Gossip, LoopbackHub, UDPTransport
from .router import FleetRouter
from .node import AnalyzerFleet, FleetNode

__all__ = [
    "ALIVE",
    "SUSPECT",
    "LEFT",
    "DEAD",
    "Member",
    "MembershipTable",
    "HashRing",
    "Gossip",
    "LoopbackHub",
    "UDPTransport",
    "FleetRouter",
    "AnalyzerFleet",
    "FleetNode",
]
