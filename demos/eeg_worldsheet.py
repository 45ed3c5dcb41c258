"""
Lifting an EEG trace into space
===============================

A planar trace of (x, z) samples becomes a twisted 3-D string, and the same
trace swept around a torus tube yields a band mesh lying exactly on the
torus. The lifted string's silhouette then identifies it: congruent copies
produce the same in-ball description.
"""

import numpy as np

from proxitop import (
    TorusParams,
    eeg_twist_lift,
    torus_residual,
    trace_to_torus_band,
    wired_friend_pipeline,
)

# synthesize a short trace: x advances, z wiggles like a band-limited signal
t = np.linspace(0.0, 4.0, 48)
x = t
z = 0.4 * np.sin(3.0 * t) + 0.1 * np.cos(11.0 * t)
trace = np.column_stack([x, z])

string = eeg_twist_lift(trace)
curve = string.vertices
print("lifted curve:", curve.shape, " twist range",
      float(curve[:, 2].min()), float(curve[:, 2].max()))

# the planar coordinates survive the lift bit for bit
assert np.array_equal(curve[:, :2], trace)

friend = wired_friend_pipeline(string)
print("shape:", np.round(friend.shape, 4))
print("description norm:", float(np.linalg.norm(friend.description)), "(inside the unit ball)")

# sweep the same trace around a torus tube: every vertex lands on the torus
torus = TorusParams(2.0, 1.0)
verts, faces = trace_to_torus_band(torus, trace)
print(f"band mesh: {verts.shape[0]} vertices, {faces.shape[0]} quads, "
      f"max residual {float(np.max(torus_residual(verts, torus))):.2e}")
