"""
Antipodal point pairs and supporting slabs
==========================================

Two points are antipodal (in the strict sense used here) when some pair of
distinct parallel hyperplanes supports them with the whole set strictly
between nothing: each plane touches its point and the other point is off it.
"""

import numpy as np

from proxitop import antipodal_point_witness, petty_antipodal_set

# a concrete witness: the planes are perpendicular to the connecting segment
normal, offset_p, offset_q = antipodal_point_witness([0.0, 0.0], [3.0, 4.0])
print("normal:", normal, " offsets:", offset_p, offset_q)

# coincident points admit no witness
print("degenerate pair:", antipodal_point_witness([1.0, 1.0], [1.0, 1.0]))

# Petty's property asks for that support pairwise across a whole set.
# Vertices of a square qualify; a collinear triple cannot, the middle
# point is never extreme.
square = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
print("square:", petty_antipodal_set(square))
print("collinear:", petty_antipodal_set([[0, 0], [1, 0], [2, 0]]))

# an obtuse triangle needs an oblique support direction
triangle = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0]])
print("obtuse triangle:", petty_antipodal_set(triangle))
