"""Static SVG rendering of configurations, trajectories, and witnesses.

Site coordinates map to pixels as (a, b) -> (scale * a, -scale * b), so
north points up on screen.  Output is deterministic: fixed float formatting,
sorted element order, no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import Configuration
from .geometry import edge_for_site

ALL_LAYERS = ("lattice", "mirrors", "trajectory", "circuit_witness")

_PALETTE = {
    "lattice": "#d0d0d0",
    "mirrors": "#1a1a1a",
    "trajectory": "#d62728",
    "circuit_witness": "#1f77b4",
}


@dataclass(frozen=True)
class RenderSpec:
    layers: tuple = ("lattice", "mirrors")
    scale: int = 24

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if not self.layers:
            raise ValueError(f"no layer to render; choose from {','.join(ALL_LAYERS)}")
        for layer in self.layers:
            if layer not in ALL_LAYERS:
                raise ValueError(f"unknown layer {layer!r}; "
                                 f"choose from {','.join(ALL_LAYERS)}")


def _fnum(x):
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _xy(a, b, scale):
    return _fnum(scale * a), _fnum(-scale * b)


def _polyline(points, scale, color, width):
    pts = " ".join(",".join(_xy(a, b, scale)) for a, b in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _segment(p, q, scale, color, width):
    x1, y1 = _xy(*p, scale)
    x2, y2 = _xy(*q, scale)
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def render_svg(config: Configuration, spec: RenderSpec | None = None,
               trajectory=None, witness=None) -> str:
    """Compose the requested layers into an SVG 1.1 document.

    ``trajectory`` is a Trajectory and ``witness`` a list of real vertex
    pairs.  Raises ValueError when a requested layer's input is None, since
    the layer would draw nothing.
    """
    if spec is None:
        spec = RenderSpec()
    for layer, given in (("trajectory", trajectory), ("circuit_witness", witness)):
        if layer in spec.layers and given is None:
            raise ValueError(f"layer {layer!r} has no input to draw")
    M = config.extent
    s = spec.scale
    if trajectory is not None and max(abs(int(x)) for x in trajectory.states[:, :2].ravel()) > M:
        raise ValueError("trajectory extends beyond the configuration extent")
    pad = s
    size = 2 * M * s + 2 * pad
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" '
        f'viewBox="{-M * s - pad} {-M * s - pad} {size} {size}">',
        f'<rect x="{-M * s - pad}" y="{-M * s - pad}" width="{size}" '
        f'height="{size}" fill="white"/>',
    ]
    if "lattice" in spec.layers:
        # tilted-lattice edges: one per site, drawn faintly
        for a in range(-M, M + 1):
            for b in range(-M, M + 1):
                parts.append(_segment(*edge_for_site((a, b)), s, _PALETTE["lattice"], 1))
    if "mirrors" in spec.layers:
        # each closed edge, shrunk about its site to 0.7 of its length
        for a in range(-M, M + 1):
            for b in range(-M, M + 1):
                if config.closed_at((a, b)):
                    ends = [(a + 0.7 * (x - a), b + 0.7 * (y - b))
                            for x, y in edge_for_site((a, b))]
                    parts.append(_segment(*ends, s, _PALETTE["mirrors"], 2))
    if "circuit_witness" in spec.layers and witness:
        pts = list(witness)
        if pts[0] != pts[-1]:
            pts.append(pts[0])
        parts.append(_polyline(pts, s, _PALETTE["circuit_witness"], 2.5))
    if "trajectory" in spec.layers:
        pts = [(int(a), int(b)) for a, b in trajectory.states[:, :2]]
        if trajectory.status == "closed":
            pts.append(pts[0])
        parts.append(_polyline(pts, s, _PALETTE["trajectory"], 2))
        x, y = _xy(*pts[0], s)
        parts.append(f'<circle cx="{x}" cy="{y}" r="{_fnum(0.15 * s)}" '
                     f'fill="{_PALETTE["trajectory"]}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
