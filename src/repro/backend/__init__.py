"""Pluggable hardware backends.

``repro.backend`` is the seam between "what the toolchain does" (lint,
analyze, tune, simulate, serve, scenarios) and "what machine it targets".
Each registered :class:`~repro.backend.base.Backend` supplies a device
catalog, a tuner parameter space over the shared
:class:`~repro.backend.space.AxisSpace` algebra, a lint-gated cost
model, structural-graph lowering, a lint entry point, a roofline, and a
deterministic scenario-pricing policy.

Built-ins:

``fpga_shiftbuffer``
    The paper's U280 / Stratix 10 shift-buffer dataflow path, wrapped
    bit-identically (the default backend everywhere).
``versal_aie``
    The Versal AI-engine array of the paper's §V outlook and Brown's
    follow-on paper: a VLIW-vector / stream-interconnect machine with
    its own ``BK`` lint family and tuner axes.

This package is also the home of
:class:`~repro.backend.projection.AIEngineProjection` and its two
device projections: the §V roofline projection is folded into the
``versal_aie`` backend as a consistency cross-check.
"""

from __future__ import annotations

from repro.backend.base import (
    DEFAULT_BACKEND,
    Backend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.backend.projection import (
    STRATIX10_NX_PROJECTION,
    VERSAL_VC1902,
    AIEngineProjection,
)
from repro.backend.space import AxisSpace
from repro.errors import BackendError

__all__ = [
    "AIEngineProjection",
    "AxisSpace",
    "Backend",
    "BackendError",
    "DEFAULT_BACKEND",
    "STRATIX10_NX_PROJECTION",
    "VERSAL_VC1902",
    "backend_names",
    "get_backend",
    "register_backend",
]
