"""Plane spanning trees in geometric graphs.

A geometric graph on points in general position is guaranteed to
contain a crossing-free spanning tree as soon as the number of its
empty triangles inducing at most one edge stays below the point count
minus two.  This package makes that guarantee executable: exact integer
predicates, the rotating-line sweep that produces balanced split lines,
a recursive builder with a certifying checker, an exhaustive oracle, an
O(n^3) decision for points in convex position, and generators for the
tight instance families on either side of the threshold.
"""
