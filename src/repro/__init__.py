"""repro — reproduction of "3D Workload Subsetting for GPU Architecture
Pathfinding" (V. George, IISWC 2015).

The package is organized as:

- :mod:`repro.gfx` — the 3D workload (API-stream) model.
- :mod:`repro.synth` — synthetic game-trace generation (data substitute).
- :mod:`repro.simgpu` — the GPU performance model (hardware substitute).
- :mod:`repro.core` — the paper's contribution: draw-call clustering,
  shader-vector phase detection, and workload-subset extraction.
- :mod:`repro.baselines` — sampling baselines for comparison.
- :mod:`repro.analysis` — experiment harness reproducing the paper's
  evaluation (E1..E10, DESIGN.md section 4).

Each public name has one import path, the module that defines it; the
package ``__init__`` files hold only their docstrings.  The library's
errors live in :mod:`repro.errors`.

Quickstart::

    from repro import datasets
    from repro.core.pipeline import SubsettingPipeline
    from repro.runtime.engine import Runtime
    from repro.simgpu.config import GpuConfig

    trace = datasets.load("bioshock1_like", frames=60, seed=7)
    result = SubsettingPipeline().run(
        trace, GpuConfig.preset("mainstream"), runtime=Runtime()
    )
    print(result.report())
"""

__version__ = "1.0.0"
