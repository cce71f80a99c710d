"""Static SVG rendering of configurations, trajectories, and witnesses.

Site coordinates map to pixels as (a, b) -> (scale * a, -scale * b), so
north points up on screen.  Output is deterministic: fixed float formatting,
sorted element order, no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import Configuration
from .geometry import mirror_orientation, region_bounds

ALL_LAYERS = ("lattice", "mirrors", "trajectory", "circuit_witness",
              "pattern_matches", "regions")

_PALETTE = {
    "lattice": "#d0d0d0",
    "mirrors": "#1a1a1a",
    "trajectory": "#d62728",
    "circuit_witness": "#1f77b4",
    "pattern_matches": "#2ca02c",
    "regions": "#9467bd",
}


@dataclass(frozen=True)
class RenderSpec:
    layers: tuple = ("lattice", "mirrors")
    scale: int = 24

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        for layer in self.layers:
            if layer not in ALL_LAYERS:
                raise ValueError(f"unknown layer {layer!r}")


def _fnum(x):
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _xy(a, b, scale):
    return _fnum(scale * a), _fnum(-scale * b)


def _polyline(points, scale, color, width, dash=None):
    pts = " ".join(",".join(_xy(a, b, scale)) for a, b in points)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra}/>')


def _segment(p, q, scale, color, width):
    x1, y1 = _xy(*p, scale)
    x2, y2 = _xy(*q, scale)
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def render_svg(config: Configuration, spec: RenderSpec | None = None,
               trajectory=None, witness=None, matches=None, red_site=None,
               regions=()) -> str:
    """Compose the requested layers into an SVG 1.1 document.

    ``trajectory`` is a Trajectory, ``witness`` a list of real vertex pairs,
    ``matches`` a MatchSet with ``red_site`` the pattern's red site, and
    ``regions`` a list of TiltedRegion to outline.
    """
    if spec is None:
        spec = RenderSpec()
    M = config.extent
    s = spec.scale
    for t in (trajectory,):
        if t is not None and max(abs(int(x)) for x in t.states[:, :2].ravel()) > M:
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
        color = _PALETTE["lattice"]
        for a in range(-M, M + 1):
            for b in range(-M, M + 1):
                if mirror_orientation((a, b)) == 0:
                    parts.append(_segment((a - 0.5, b - 0.5), (a + 0.5, b + 0.5),
                                          s, color, 1))
                else:
                    parts.append(_segment((a - 0.5, b + 0.5), (a + 0.5, b - 0.5),
                                          s, color, 1))
    if "mirrors" in spec.layers:
        color = _PALETTE["mirrors"]
        for a in range(-M, M + 1):
            for b in range(-M, M + 1):
                if not config.closed_at((a, b)):
                    continue
                if mirror_orientation((a, b)) == 0:
                    parts.append(_segment((a - 0.35, b - 0.35), (a + 0.35, b + 0.35),
                                          s, color, 2))
                else:
                    parts.append(_segment((a - 0.35, b + 0.35), (a + 0.35, b - 0.35),
                                          s, color, 2))
    if "regions" in spec.layers:
        for region in regions:
            u0, u1, v0, v1 = region_bounds(region.kind, region.n)
            box = [(u0, v0), (u0, v1), (u1, v1), (u1, v0)]
            pts = [((u + 1 + v) / 2, (u + 1 - v) / 2) for u, v in box]
            parts.append(_polyline(pts + pts[:1], s, _PALETTE["regions"], 1.5, dash="6,4"))
    if "pattern_matches" in spec.layers and matches is not None:
        ra, rb = red_site if red_site is not None else (0, 0)
        for t1, t2 in matches.offsets:
            a, b = ra + t1, rb + t2
            x, y = _xy(a, b, s)
            parts.append(f'<circle cx="{x}" cy="{y}" r="{_fnum(0.3 * s)}" '
                         f'fill="none" stroke="{_PALETTE["pattern_matches"]}" '
                         f'stroke-width="2"/>')
    if "circuit_witness" in spec.layers and witness:
        pts = list(witness)
        if pts[0] != pts[-1]:
            pts.append(pts[0])
        parts.append(_polyline(pts, s, _PALETTE["circuit_witness"], 2.5))
    if "trajectory" in spec.layers and trajectory is not None:
        pts = [(int(a), int(b)) for a, b in trajectory.states[:, :2]]
        if trajectory.status == "closed":
            pts.append(pts[0])
        parts.append(_polyline(pts, s, _PALETTE["trajectory"], 2))
        x, y = _xy(*pts[0], s)
        parts.append(f'<circle cx="{x}" cy="{y}" r="{_fnum(0.15 * s)}" '
                     f'fill="{_PALETTE["trajectory"]}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
