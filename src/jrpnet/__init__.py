"""Signal-level fusion of multichannel recordings.

The pipeline reconstructs each channel's phase space by time-delay
embedding, detects pairwise coupling as joint recurrence structure,
merges channels into modality-level weighted graphs per sliding window,
binarizes them into a temporal network, summarizes that network with
temporal graph metrics, and classifies trials with L1-regularized
logistic regression.
"""

from .config import PipelineConfig, load_config
from .embedding import (
    DimensionEstimate,
    EmbeddingParams,
    ami_curve,
    embed,
    estimate_delay,
    estimate_dimension,
)
from .errors import (
    DegenerateInputError,
    FormatError,
    InputError,
    JrpnetError,
    NumericError,
    ParseError,
    SchemaError,
)
from .ingest import (
    LabelRecord,
    Recording,
    Window,
    load_labels,
    load_recording,
    segment_windows,
    zscore_channels,
)
from .learn import (
    CLASS_ORDER,
    CrossValResult,
    FeatureTable,
    SparseLinearModel,
    cross_validate,
    discretize_score,
    fit_lasso,
    lambda_grid,
    model_to_dict,
)
from .netbuild import (
    ChannelEmbedding,
    TemporalNetwork,
    assemble_temporal_network,
    channel_graphs,
    merge_modalities,
)
from .pipeline import (
    analyze_recording,
    estimate_trial_embeddings,
    run_pipeline,
    stage_analyze,
    stage_embed_params,
    stage_evaluate,
    stage_features,
    stage_train,
)
from .recurrence import (
    RecurrenceMatrix,
    joint_recurrence_plot,
    recurrence_plot,
    threshold_for_rate,
)
from .rqa import determinism, laminarity
from .synth import CouplingSpec, generate, three_regime_specs, write_dataset, write_recording
from .tempnet import (
    ReachabilityReport,
    TemporalFeatures,
    feature_vector,
    reachability_and_latency,
    temporal_correlation,
    temporal_small_worldness,
)

__version__ = "0.1.0"
