"""Precision tiers: the low-precision level-of-detail (LOD) layer.

The paper's insight is *tag*-selectivity -- ship only the protein bytes a
session needs.  This module extends it to *quality*-selectivity: at
ingest the pre-processor additionally encodes each subset at a coarse
quantization grid, stored as sibling PLFS chunks under the subset's
``lod:`` tag (``p`` -> ``lod:p``).  Because the cheap tier is just
another tag family, every existing mechanism -- per-chunk CRC, retries,
span coalescing, the block cache, consistent-hash sharding -- applies to
it unchanged, and the cache can never confuse tiers: the tag is part of
the block key.

Tier selection is a per-read knob, ``precision``, and a read gets the
tier it asks for:

* ``"full"`` -- exact bytes, always (pinned analyses);
* ``"lod"``  -- the coarse layer when the dataset has one (interactive
  scrubbing, thumbnails); falls back to full bytes otherwise.

The coarse layer is plain XTC at a reduced ``precision`` (quantization
steps per coordinate unit), so its error is the codec's quantization
bound: ``|x_lod - x| <= 0.5 / lod_precision`` per atom coordinate.  That
bound is advertised on every LOD read (``StoredObject.max_error``), which
is what the chaos suite asserts against.  It is read from the served
bytes -- every XTC frame header stores the grid it was quantized on --
never from the deployment's current ``lod_precision``.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.formats.xtc import coarsest_precision

__all__ = [
    "DEFAULT_LOD_PRECISION",
    "LOD_PREFIX",
    "PRECISIONS",
    "base_tag",
    "base_tags",
    "encoded_max_error",
    "is_lod_tag",
    "lod_max_error",
    "lod_tag",
    "validate_precision",
]

#: Tag-family prefix of the coarse tier's sibling subsets.
LOD_PREFIX = "lod:"

#: Default quantization grid of the coarse layer (steps per coordinate
#: unit).  The full tier's XTC default is 100.0 (0.005 max error); 12.5
#: is an 8x coarser grid -- deltas lose ~3 bits each, which lands the
#: payload around a quarter of the full tier's -- with a 0.04 max error,
#: far below a rendered pixel at interactive zoom levels.
DEFAULT_LOD_PRECISION = 12.5

#: The tier knob's accepted values.
PRECISIONS = ("full", "lod")

#: Relative slack folded into the advertised error bound: the grid-snap
#: bound (0.5/precision) holds in exact arithmetic, but encode/decode
#: round through float32, whose representation error at molecular
#: coordinate magnitudes is a few ulps.  0.1% covers it with room while
#: keeping the advertised bound essentially the quantization bound.
FLOAT32_SLACK = 1e-3


def validate_precision(precision: str) -> str:
    """Return the knob value or raise :class:`ConfigurationError`."""
    if precision not in PRECISIONS:
        raise ConfigurationError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    return precision


def lod_tag(tag: str) -> str:
    """The sibling LOD tag of a base subset tag (``p`` -> ``lod:p``)."""
    if tag.startswith(LOD_PREFIX):
        return tag
    return LOD_PREFIX + tag


def is_lod_tag(tag: str) -> bool:
    return tag.startswith(LOD_PREFIX)


def base_tag(tag: str) -> str:
    """The base subset tag behind a (possibly LOD) tag."""
    if tag.startswith(LOD_PREFIX):
        return tag[len(LOD_PREFIX):]
    return tag


def base_tags(tags: Iterable[str]) -> List[str]:
    """Filter a tag list down to the full-precision family.

    Whole-dataset paths (``fetch_all`` / ``fetch_merged`` / receipts)
    must never mix tiers -- merging a subset twice at two precisions
    would double-count its atoms.
    """
    return [t for t in tags if not is_lod_tag(t)]


def lod_max_error(lod_precision: float) -> float:
    """Per-atom, per-coordinate worst-case error of the coarse layer.

    XTC quantizes each coordinate to the nearest 1/precision grid point,
    so round-tripping through the LOD layer moves a coordinate by at most
    half a grid step (plus float32 representation slack; see
    :data:`FLOAT32_SLACK`).
    """
    if lod_precision <= 0:
        raise ConfigurationError(
            f"lod precision must be > 0, got {lod_precision!r}"
        )
    return (0.5 / float(lod_precision)) * (1.0 + FLOAT32_SLACK)


def encoded_max_error(blobs: Iterable[bytes]) -> float:
    """The loosest bound over LOD bytes (XTC streams): that of the coarsest
    grid their frame headers say they were quantized on."""
    return lod_max_error(min(coarsest_precision(blob) for blob in blobs))
