"""Wire helpers for tests.

:class:`~repro.core.messages.Sync` takes its window as packed cells, the
form the sync layer's encode cache holds; tests that think in input words
pack them here.  The declared layouts are listed here too, with a way to
write one field's bytes by hand.
"""

from repro.core.messages import (
    _REGISTRY,
    Sync,
    append_svarint,
    append_uvarint,
    cell_width,
    compact_bits,
)

#: Every message whose body is a declared layout (``Message.BODY``).
LAYOUTS = [klass for klass in _REGISTRY.values() if "_decode_body" not in vars(klass)]


def field_bytes(field, value):
    """``value`` as layout ``field`` encodes it, with no bound check."""
    out = bytearray()
    (append_svarint if field.kind == "svarint" else append_uvarint)(out, value)
    return bytes(out)


def words_mask(inputs):
    """The narrowest mask that holds every word of ``inputs``."""
    mask = 0
    for word in inputs:
        mask |= word
    return mask


def sync_of(sender_site, session_id, ack, first_frame, inputs, mask=None):
    """A SYNC carrying ``inputs`` packed against ``mask`` (by default
    :func:`words_mask`); no inputs make a pure ack."""
    if mask is None:
        mask = words_mask(inputs)
    width = cell_width(mask)
    packed = b"".join(compact_bits(word, mask).to_bytes(width, "little") for word in inputs)
    return Sync(sender_site, session_id, ack, first_frame, packed, len(inputs), mask)
