"""Acoustic anomaly detection for machine condition monitoring.

Log-mel feature extraction, a reconstruction model ladder trained on
normal-only audio, FPR-bounded threshold selection, AUC/pAUC evaluation,
t-SNE representation views, and sliding-window streaming inference.
"""

from .audio_io import (
    ANOMALY,
    NORMAL,
    UNLABELED,
    AudioClip,
    DatasetEntry,
    DatasetIndex,
    SynthConfig,
    read_wav,
    read_wav_header,
    resample,
    scan_dataset,
    split_index,
    synth_generate,
    write_wav,
)
from .errors import AadError
from .features import (
    ClipFeatures,
    FeatureConfig,
    FeatureMatrix,
    dataset_features,
    dataset_frame_counts,
    hz_to_mel,
    load_features,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    save_features,
    stft_power,
    stream_windows,
)
from .models import (
    LatentDistribution,
    ModelSpec,
    build,
    checkpoint_load,
    checkpoint_save,
    default_spec,
    empirical_receptive_field,
    receptive_field,
    reparameterize,
    vae_loss,
)
from .scoring import (
    ScoreRecord,
    anomaly_score,
    decide,
    score_clip,
    score_dataset,
    select_threshold,
    write_scores_csv,
)
from .evaluation import (
    EvalReport,
    emit_report,
    evaluate_dataset,
    markdown_table,
    pauc,
    roc_auc,
)
from .training import TrainConfig, TrainLog, train, write_trainlog_csv
from .tsne import (
    EmbedConfig,
    Embedding,
    conditional_affinities,
    emit_plot,
    pairwise_affinities,
    tsne_embed,
)

__version__ = "0.1.0"
