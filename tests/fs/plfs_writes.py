"""The PLFS write and read every product path makes, for tests that drive
PLFS directly: land a chunk run on one backend (``PLFS.write_chunk_run``),
then index it with one log append (``PLFS.commit``); read a subset back
through a cache-less ``IORetriever`` (one ``PLFS.read_chunk_run`` per
chunk)."""

from repro.core.retriever import IORetriever
from repro.sim import AllOf


def commit_run(plfs, logical, entries, backend, coalesce=True):
    """Process: land ``entries`` -- ``(tag, data)`` pairs, ``data`` bytes
    or an int byte count for a size-only chunk -- as one run on
    ``backend`` and commit it; returns the records in ``entries`` order."""
    records = yield from plfs.write_chunk_run(
        logical, entries, backend=backend, coalesce=coalesce
    )
    yield from plfs.commit(logical, records)
    return records


def read_subset(plfs, logical, tag):
    """Process: read one subset; returns one ``StoredObject`` whose data
    is its chunks joined in chunk order (``None`` when size-only)."""
    return IORetriever(plfs.sim, plfs).retrieve(logical, tag)


def read_container(plfs, logical):
    """Process: read every subset concurrently, one ``retrieve`` per tag;
    returns ``{tag: obj}``."""
    retriever = IORetriever(plfs.sim, plfs)
    tags = plfs.tags(logical)
    procs = [plfs.sim.process(retriever.retrieve(logical, tag)) for tag in tags]
    objs = yield AllOf(plfs.sim, procs)
    return dict(zip(tags, objs))
