"""The geometry pass as it was before it was made cheaper -- test-only.

A frozen copy of ``GeometryBuilder.render_frame``'s original expressions
(fancy-indexed segments, row-wise ``(coords - com) ** 2`` summed along
axis 1, bounds reduced along axis 0).  ``test_render_equivalence.py``
requires the shipped pass to reproduce every output of this one exactly;
do not "optimise" it.
"""

import numpy as np

from repro.vmd.render import FrameGeometry


def reference_render_frame(builder, iframe):
    coords = builder.molecule.frame_coords(iframe)
    segments = coords[builder.bonds]  # (nbonds, 2, 3) fancy-index
    com = coords.mean(axis=0)
    rg = float(np.sqrt(((coords - com) ** 2).sum(axis=1).mean()))
    spheres = None
    if builder._radii is not None:
        spheres = np.column_stack([coords, builder._radii])
    return FrameGeometry(
        segments=segments,
        center_of_mass=com,
        radius_of_gyration=rg,
        bounds_min=coords.min(axis=0),
        bounds_max=coords.max(axis=0),
        spheres=spheres,
    )
