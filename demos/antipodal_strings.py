"""
Finding antipodal strings on a circle
=====================================

Sample the unit circle symmetrically, carve the samples into short arcs,
and search for arc pairs whose descriptors agree. With a descriptor built
from even functions of the coordinates, every arc matches its antipode.
"""

from proxitop import (
    StringPath,
    arc_sheets,
    but_search,
    feature_descriptor,
    feature_map_from_config,
    sphere_sample,
    worldsheet_cover_check,
)

grid = sphere_sample(1, 32)  # 64 samples, sample k paired with k+32
arcs = [StringPath(grid.samples[i : i + 4]) for i in range(0, grid.size, 4)]
print(f"{len(arcs)} arcs of 4 samples each")

even = feature_map_from_config({"name": "even-coords", "dim": 2, "tolerance": 1e-9})
descriptor = feature_descriptor(even)

result = but_search(descriptor, strings=arcs)
for pair in result.pairs:
    print(f"arc {pair.a:2d} <-> arc {pair.b:2d}  distance {pair.distance:.2e}")

# an odd descriptor (raw coordinate mean) sees no matches: negation flips it
odd = feature_map_from_config({"name": "coords", "dim": 2, "tolerance": 1e-9})
print("odd descriptor pairs:", len(but_search(feature_descriptor(odd), strings=arcs).pairs))

# pair neighbouring arcs into worldsheets; each sheet is string-covered when
# every sheet point lies within the cover tolerance of one of its two arcs
sheets = arc_sheets(arcs)
covered = [worldsheet_cover_check(sheet)[0] for sheet in sheets]
print(f"{sum(covered)} of {len(sheets)} worldsheets covered by their arcs")
