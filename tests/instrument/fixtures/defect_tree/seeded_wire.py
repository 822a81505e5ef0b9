"""A seeded bad suppression (SL001) on a small wire codec.

Planted defect (asserted line-exactly by TestSeededDefectTree):

* SL001 — the ``FOOTER`` line carries a suppression naming the
  nonexistent rule WP999.  An unknown id suppresses nothing, so the
  directive only hides the author's intent.

Everything else here is clean.
"""

import struct

RECORD = struct.Struct("<IHB")
FOOTER = struct.Struct("<4s")  # saadlint: disable=WP999


def decode(blob):
    return RECORD.unpack_from(blob, 0)
