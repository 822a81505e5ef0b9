"""Signature interning (hot-path optimization).

A run of the analyzer sees millions of tasks but only a handful of
distinct signatures per stage (paper Fig. 6: the top few signatures cover
>99 % of tasks).  Building a fresh ``frozenset`` per task therefore
allocates millions of identical objects and re-hashes the same element
sets over and over in every dict/set lookup.

The intern table maps the *canonical tuple* of a signature (its sorted
log-point ids) to one shared :class:`InternedSignature` instance.  The
shared instance

* is a ``frozenset`` subclass, so it compares and hashes exactly like the
  plain frozensets used throughout the tests and public API;
* caches its canonical tuple, so sorting signatures (reporting, window
  close) never re-sorts the elements;
* benefits from CPython's internal frozenset hash caching: the hash is
  computed once for the whole run instead of once per task.

The table is process-global on purpose — synopsis decoding, feature
extraction, model training, and detection all funnel through it so that
equal signatures are *identity*-equal across layers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "InternedSignature",
    "SignatureIdSpace",
    "canonical_tuple",
    "clear_intern_table",
    "intern_signature",
    "intern_table_size",
    "signature_of_entries",
]

#: Safety valve: beyond this many distinct signatures the table stops
#: growing (an instrumentation bug emitting per-task ids would otherwise
#: leak unboundedly).  Real workloads have a few dozen signatures.
MAX_INTERNED_SIGNATURES = 1 << 16

_table: Dict[Tuple[int, ...], "InternedSignature"] = {}


class InternedSignature(frozenset):
    """A frozenset of log-point ids with its sorted tuple precomputed."""

    __slots__ = ("canonical",)

    canonical: Tuple[int, ...]


def intern_signature(log_points: Iterable[int]) -> InternedSignature:
    """Return the shared signature for this set of log-point ids.

    Accepts any iterable of ids (typically a synopsis's ``log_points``
    dict, whose iteration yields the keys); an id it repeats counts
    once.  Two calls with equal id sets return the *same* object while
    the table has room.
    """
    key = tuple(sorted(log_points))
    signature = _table.get(key)
    if signature is None:
        # Only a miss pays for deduplication: keys are stored without
        # repeats, so a repeating iterable never hits on its first probe.
        key = tuple(sorted(set(key)))
        signature = _table.get(key)
    if signature is None:
        signature = InternedSignature(key)
        signature.canonical = key
        if len(_table) < MAX_INTERNED_SIGNATURES:
            # setdefault keeps interning race-free: concurrent first
            # encounters agree on one canonical instance.
            signature = _table.setdefault(key, signature)
    return signature


def signature_of_entries(entry_bytes: bytes) -> InternedSignature:
    """The shared signature behind one synopsis's packed log-point entries.

    ``entry_bytes`` is the raw wire payload of the entries
    (``len(entry_bytes) % 6 == 0``; see
    :data:`repro.core.synopsis.SYNOPSIS_ENTRY`) — the one place wire
    ingest turns entry bytes into a signature, so every byte-keyed
    cache maps a pattern to what the object decoder would produce.  An
    lpid the entries repeat counts once, as in the decoder's dict.
    """
    from .synopsis import entry_struct  # synopsis imports this module

    n = len(entry_bytes) // 6
    flat = entry_struct(n).unpack(entry_bytes) if n else ()
    return intern_signature(flat[0::2])


def canonical_tuple(signature: Iterable[int]) -> Tuple[int, ...]:
    """Sorted element tuple; free for interned signatures."""
    canonical = getattr(signature, "canonical", None)
    if canonical is not None:
        return canonical
    return tuple(sorted(signature))


#: Bound on one :class:`SignatureIdSpace`'s dense id range.  Ids must fit
#: the columnar path's packed (stage, sig-id) cell keys, and a workload
#: that mints this many distinct signatures is emitting per-task ids —
#: the space refuses new ids instead of corrupting the packing.
MAX_SIGNATURE_IDS = 1 << 17


class SignatureIdSpace:
    """Append-only dense ``signature <-> small int`` mapping.

    The columnar detect path replaces per-task signature objects with
    integer ids so compiled per-stage tables can be flat arrays.  Ids
    are assigned on first encounter and never reused; the reverse list
    turns an id back into the shared :class:`InternedSignature` when a
    window bucket needs the real object (reports, new-signature sets).

    A space also memoizes the *wire entry bytes* of each signature
    pattern (the packed log-point entries of a synopsis), so batch
    decoding resolves raw byte patterns straight to ids without
    unpacking or set construction per task.
    """

    __slots__ = ("ids", "signatures", "_by_entry")

    def __init__(self) -> None:
        self.ids: Dict["InternedSignature", int] = {}
        self.signatures: List["InternedSignature"] = []
        self._by_entry: Dict[bytes, int] = {}

    def __len__(self) -> int:
        """Number of ids assigned so far."""
        return len(self.signatures)

    @property
    def full(self) -> bool:
        """True when the id range is exhausted (see MAX_SIGNATURE_IDS)."""
        return len(self.signatures) >= MAX_SIGNATURE_IDS

    def id_of(self, signature: Iterable[int]) -> Optional[int]:
        """The dense id for ``signature``, assigning one on first sight.

        Returns None when the space is full and the signature has no id
        yet — callers fall back to the object path for that task.
        """
        interned = (
            signature
            if isinstance(signature, InternedSignature)
            else intern_signature(signature)
        )
        sig_id = self.ids.get(interned)
        if sig_id is None:
            if len(self.signatures) >= MAX_SIGNATURE_IDS:
                return None
            sig_id = len(self.signatures)
            self.ids[interned] = sig_id
            self.signatures.append(interned)
        return sig_id

    def signature_of(self, sig_id: int) -> "InternedSignature":
        """The shared signature object behind ``sig_id``."""
        return self.signatures[sig_id]

    def resolve_entry(self, entry_bytes: bytes) -> Optional[int]:
        """Dense id for a packed log-point entry byte pattern.

        ``entry_bytes`` is as for :func:`signature_of_entries`.  The
        pattern -> id mapping is memoized, so steady-state resolution
        is one dict probe.  Returns None when the space is full (new
        pattern only).
        """
        sig_id = self._by_entry.get(entry_bytes)
        if sig_id is None:
            sig_id = self.id_of(signature_of_entries(entry_bytes))
            if sig_id is not None:
                self._by_entry[entry_bytes] = sig_id
        return sig_id


def intern_table_size() -> int:
    """Number of distinct signatures currently interned."""
    return len(_table)


def clear_intern_table() -> None:
    """Drop all interned signatures (tests / long-lived process hygiene)."""
    _table.clear()
