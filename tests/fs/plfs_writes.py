"""The PLFS write every product path makes, for tests that drive PLFS
directly: land a chunk run on one backend (``PLFS.write_chunk_run``), then
index it with one log append (``PLFS.commit``)."""


def commit_run(plfs, logical, entries, backend, coalesce=True):
    """Process: land ``entries`` -- ``(tag, data)`` pairs, ``data`` bytes
    or an int byte count for a size-only chunk -- as one run on
    ``backend`` and commit it; returns the records in ``entries`` order."""
    records = yield from plfs.write_chunk_run(
        logical, entries, backend=backend, coalesce=coalesce
    )
    yield from plfs.commit(logical, records)
    return records
