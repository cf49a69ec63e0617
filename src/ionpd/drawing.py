"""Orthogonal drawing result type, geometric validity checking and exports.

A drawing places every flow-graph node on an integer grid point and routes
every edge as an axis-aligned polyline. Distinct edges may touch only at
shared endpoints or at registered crossing points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artifact import render_json

Point = tuple[int, int]
EdgeKey = tuple[int, int, int]  # (from id, to id, qubit)


@dataclass(frozen=True)
class OrthogonalDrawing:
    node_pos: dict[int, Point]
    routes: dict[EdgeKey, tuple[Point, ...]]
    crossings: tuple[Point, ...] = ()

    def to_json(self) -> str:
        payload = {
            "nodes": [
                {"id": i, "x": x, "y": y}
                for i, (x, y) in sorted(self.node_pos.items())
            ],
            "edges": [
                {
                    "from": i,
                    "to": j,
                    "qubit": q,
                    "points": [list(p) for p in pts],
                }
                for (i, j, q), pts in sorted(self.routes.items())
            ],
            "crossings": [list(p) for p in self.crossings],
        }
        return render_json(payload)

    def to_svg(self) -> str:
        cell, margin = 24, 20  # pixels per grid unit, and around the drawing
        xs = [x for x, _ in self.node_pos.values()] or [0]
        ys = [y for _, y in self.node_pos.values()] or [0]
        for pts in self.routes.values():
            xs.extend(p[0] for p in pts)
            ys.extend(p[1] for p in pts)
        x0, y0 = min(xs), min(ys)
        width = (max(xs) - x0) * cell + 2 * margin
        height = (max(ys) - y0) * cell + 2 * margin

        def sx(p: Point) -> tuple[int, int]:
            return (margin + (p[0] - x0) * cell, margin + (p[1] - y0) * cell)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        ]
        for key in sorted(self.routes):
            pts = " ".join(f"{x},{y}" for x, y in map(sx, self.routes[key]))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>'
            )
        for i, p in sorted(self.node_pos.items()):
            x, y = sx(p)
            parts.append(f'<rect x="{x - 7}" y="{y - 7}" width="14" height="14" fill="white" stroke="black"/>')
            parts.append(f'<text x="{x}" y="{y + 4}" font-size="9" text-anchor="middle">{i}</text>')
        for p in self.crossings:
            x, y = sx(p)
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _grid_points(a: Point, b: Point) -> list[Point]:
    """Every grid point of the axis-aligned segment a-b, in ascending order."""
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        return [(x1, y) for y in range(min(y1, y2), max(y1, y2) + 1)]
    return [(x, y1) for x in range(min(x1, x2), max(x1, x2) + 1)]


def validate_drawing(drawing: OrthogonalDrawing) -> list[str]:
    """Geometric validity: axis-aligned routes, no illegal overlap or clash."""
    problems: list[str] = []
    positions = drawing.node_pos
    if len(set(positions.values())) != len(positions):
        problems.append("two nodes share a grid point")

    step_owner: dict[tuple[Point, Point], EdgeKey] = {}
    point_owner: dict[Point, list[EdgeKey]] = {}
    crossings = set(drawing.crossings)
    node_points = set(positions.values())

    for key, pts in sorted(drawing.routes.items()):
        i, j, _ = key
        if len(pts) < 2:
            problems.append(f"edge {key} has no extent")
            continue
        if pts[0] != positions.get(i) or pts[-1] != positions.get(j):
            problems.append(f"edge {key} does not join its endpoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                problems.append(f"edge {key} has a zero-length segment")
                continue
            if a[0] != b[0] and a[1] != b[1]:
                problems.append(f"edge {key} has a non-axis-aligned segment {a}-{b}")
                continue
            points = _grid_points(a, b)
            for step in zip(points, points[1:]):
                if step in step_owner:
                    other = step_owner[step]
                    what = "overlaps itself" if other == key else f"overlaps {other}"
                    problems.append(f"edge {key} {what} along {step}")
                step_owner[step] = key
            for p in points[1:-1]:
                point_owner.setdefault(p, []).append(key)
                if p in node_points:
                    problems.append(f"edge {key} runs through node point {p}")
        # interior polyline corners may not sit on foreign nodes either
        for p in pts[1:-1]:
            point_owner.setdefault(p, []).append(key)
            if p in node_points:
                problems.append(f"edge {key} bends on node point {p}")

    for p, owners in sorted(point_owner.items()):
        distinct = sorted(set(owners))
        if len(distinct) > 1 and p not in crossings:
            problems.append(
                f"edges {distinct[0]} and {distinct[1]} cross at unregistered point {p}"
            )
    return problems
