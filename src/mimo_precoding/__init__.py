"""Multi-user MIMO precoding under per-antenna power constraints.

Closed-form precoders (MRT, ZF, RZF, ARZF), spectral efficiency under MMSE-IRC
and conjugate detection, a projected quasi-Newton maximizer with analytic
complex gradients, and a benchmark harness with reproducible synthetic
channels.
"""

from .baselines import BaselineConfig, arzf, compute_baseline, mrt, normalize_power, rzf, zf
from .channel_io import file_size, read_channels, write_channels
from .channels import generate_channels
from .errors import (
    ChannelFileError,
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    InfiniteSusinrError,
    MimoError,
    NumericalFailureError,
    SingularMatrixError,
    UndefinedSinrError,
    ZeroPrecoderError,
)
from .harness import (
    ALGORITHMS,
    RunRecord,
    RunReport,
    ScenarioConfig,
    export_report,
    run_scenario,
)
from .irc import mmse_irc
from .model import (
    ChannelSet,
    SystemDims,
    SystemParams,
    UserChannel,
    build_channel_set,
    noise_from_susinr,
)
from .optimizer import (
    CustomObjective,
    ObjectiveSpec,
    OptimizationTrace,
    OptimizerConfig,
    gradient,
    lbfgs_maximize,
    objective,
    project,
    softmax_maximize,
)
from .quality import (
    PrecodingMatrix,
    SinrReport,
    se_conjugate,
    spectral_efficiency_irc,
    susinr,
    symbol_sinr,
)

__version__ = "0.1.0"
