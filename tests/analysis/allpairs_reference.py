"""The all-pairs contact and ``within`` code, frozen as a test reference.

This is the dense O(N^2) implementation ``repro.analysis.contacts`` and
``repro.vmd.selection`` shipped before the neighbour-grid kernel, kept
(same expressions, same block sizes) so the exactness suite and the contacts
micro-benchmark can assert that the grid returns the same bits.  Nothing
under ``src/`` imports it.
"""

import numpy as np

_BLOCK = 512
_BATCH_ELEMENTS = 2 * 1024 * 1024


def contact_map(frame_coords, cutoff=8.0, selection=None):
    """Symmetric boolean (N, N) contact matrix, diagonal False."""
    coords = np.asarray(frame_coords)
    if selection is not None:
        coords = coords[np.asarray(selection)]
    n = coords.shape[0]
    out = np.zeros((n, n), dtype=bool)
    c2 = cutoff * cutoff
    pts = coords.astype(np.float64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        delta = pts[start:stop, None, :] - pts[None, :, :]
        d2 = (delta**2).sum(axis=2)
        out[start:stop] = d2 < c2
    np.fill_diagonal(out, False)
    return out


def frame_contact_counts(coords, cutoff, native=None):
    """Both-orders contact sums (and native overlap) per frame."""
    stack = np.asarray(coords)
    nframes, natoms = stack.shape[0], stack.shape[1]
    c2 = cutoff * cutoff
    pts = stack.astype(np.float64)
    counts = np.zeros(nframes, dtype=np.int64)
    overlap = np.zeros(nframes, dtype=np.int64) if native is not None else None
    block = max(1, min(_BLOCK, _BATCH_ELEMENTS // max(1, nframes * natoms)))
    for start in range(0, natoms, block):
        stop = min(start + block, natoms)
        delta = pts[:, start:stop, None, :] - pts[:, None, :, :]
        d2 = (delta**2).sum(axis=3)
        mask = d2 < c2
        mask[:, np.arange(stop - start), np.arange(start, stop)] = False
        counts += mask.sum(axis=(1, 2))
        if native is not None:
            overlap += (mask & native[start:stop]).sum(axis=(1, 2))
    return counts, overlap


def within(coords, reference_coords, cutoff):
    """Mask of points within ``cutoff`` of any reference point."""
    pts = np.asarray(coords, dtype=np.float64)
    ref = np.asarray(reference_coords, dtype=np.float64)
    c2 = cutoff * cutoff
    out = np.zeros(pts.shape[0], dtype=bool)
    block = 1024
    for start in range(0, pts.shape[0], block):
        stop = min(start + block, pts.shape[0])
        delta = pts[start:stop, None, :] - ref[None, :, :]
        out[start:stop] = ((delta**2).sum(axis=2) < c2).any(axis=1)
    return out
