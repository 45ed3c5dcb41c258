"""
Checking proximity axioms on a finite space
===========================================
"""

import numpy as np

from proxitop import DescriptiveSpace, Region, check_axioms, describe_region, feature_map_from_config

# a 3x3 grid of points described by how many axis neighbors each one has
pts = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
fm = feature_map_from_config({"name": "adjacency-count", "width": 3, "height": 3})
space = DescriptiveSpace(pts, fm)

# the description set Phi(A) of the whole grid: corners, edges, the centre
phi = describe_region(Region.from_points(pts), fm)
print("Phi(grid) =", sorted(float(v) for v in phi[:, 0]))

for family in ("Lodato-descriptive", "strong", "descriptive-strong"):
    report = check_axioms(space, family, trials=500, seed=42)
    print(f"{family:21s} trials={report.trials} passed={report.passed}")

# a deliberately broken relation gets caught and named; here nearness
# pretends to be asymmetric
def lopsided(a, b):
    if a is None or b is None:
        return False
    return tuple(a.points[0]) < tuple(b.points[0])

report = check_axioms(space, "Lodato-descriptive", trials=200, seed=1, relation=lopsided)
print("broken relation passed:", report.passed)
print("first violation:", report.violations[0]["axiom"])
