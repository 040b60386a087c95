"""Copies of library records with some fields changed, for tamper tests."""


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, built by its own constructor,
    so derived slots are recomputed and nothing is checked beyond what the
    constructor checks."""
    values = [changes.pop(f, getattr(record, f)) for f in record._fields]
    assert not changes, f"not fields of {type(record).__name__}: {sorted(changes)}"
    return type(record)(*values)
