"""Baseline subsetting strategies the paper's methodology is compared to.

Draw-level baselines (compete with per-frame clustering, E8), in
:mod:`repro.baselines.draw_sampling`:

- :func:`random_draw_sample` — uniform random draws, scaled up.
- :func:`systematic_draw_sample` — every-Nth draw.
- :func:`first_n_draw_sample` — the first N draws of the frame.

Frame-level baselines (compete with phase subsetting, E8/E6):

- :func:`repro.baselines.framesample.every_nth_frame_subset` — periodic
  frame sampling.
- :func:`repro.baselines.simpoint_like.simpoint_frames_subset` — a
  SimPoint analog: k-means over frame-granularity shader vectors, keep
  each cluster's medoid frame.
"""
