"""Token-wise feature caching for a toy diffusion transformer.

The package is organised around a small stack:

- ``linalg``: deterministic float64 kernels (matrix coercion, row softmax,
  seeded Gaussian draws).
- ``model``: the toy transformer denoiser whose per-module outputs can be
  served token-by-token from a cache.
- ``cache``: caching scores, ratio/cycle schedules, token selection and the
  dispatch machinery.
- ``sampler``: DDPM/DDIM reverse diffusion drivers and the generation loop.
- ``flops``: closed-form cost model plus an instrumented counter.
- ``analysis``: redundancy / error-propagation / cache-frequency diagnostics.
- ``config`` and ``cli``: run configuration files and the ``toca`` command.
"""

from .cache import (
    CacheContext,
    CacheSchedule,
    ComputeMask,
    PROFILES,
    apply_spatial_boost,
    cycle_plan,
    effective_cache_ratio,
    score_s1,
    score_s2,
    score_s3,
    select_compute_set,
)
from .flops import (
    FlopCounter,
    FlopsReport,
    estimate_run_flops,
    flops_cross_attention,
    flops_mlp,
    flops_selection_overhead,
    flops_self_attention,
)
from .model import (
    Conditioning,
    FeatureMatrix,
    Injection,
    Model,
    ModelConfig,
    init_model,
    load_weights,
    save_weights,
)
from .sampler import NoiseSchedule, RunStats, cfg_combine, ddim_step, ddpm_step, run_generation
from .analysis import (
    FrequencyMap,
    PropagationProfile,
    RedundancyProfile,
    build_cache_frequency_map,
    measure_error_propagation,
    measure_temporal_redundancy,
)

__version__ = "0.1.0"
