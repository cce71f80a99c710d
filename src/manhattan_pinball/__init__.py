"""Light percolation in the random Manhattan mirror lattice.

Mirrors occupy edges of the tilted square lattice independently with
probability p; light rays travel one-way streets and reflect off mirrors.
The package samples mirror fields, traces rays, detects crossing and
circuit events, applies a local enhancement, and replays the localization
argument sample by sample.
"""

__version__ = "0.1.0"

from .configuration import (
    GENERATOR_ID,
    Configuration,
    UniformField,
    hybrid,
    sample,
    threshold,
    uniforms,
)
from .enhancement import Pattern, default_pattern, enhance, match_pattern
from .events import (
    EventResult,
    dual_crosscheck,
    radial_closed_path,
    rect_crossing,
    surrounding_circuit_4rect,
    surrounding_circuit_exact,
)
from .geometry import Direction, Orientation, edge_for_site, reflect
from .montecarlo import (
    DecayFit,
    EstimationReport,
    PairedReport,
    VerificationRecord,
    compare_enhanced,
    estimate_event,
    fit_decay,
    verify_theorem,
    wilson_interval,
)
from .render import RenderSpec, render_svg
from .tracer import RayState, Trajectory, trace, trace_summary
