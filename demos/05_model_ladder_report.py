"""The model ladder compared in one merged report table.

Trains all four reconstruction models on the same synthetic dataset and
renders the merged AUC/pAUC markdown table; the best value in each row
is bolded.
"""

import tempfile
from pathlib import Path

from aad import (
    EvalConfig,
    FeatureConfig,
    SynthConfig,
    TrainConfig,
    dataset_features,
    evaluate_dataset,
    markdown_table,
    split_index,
    synth_generate,
    train,
)
from aad.models import build, default_spec

with tempfile.TemporaryDirectory() as tmp:
    index = synth_generate(Path(tmp), SynthConfig(
        n_normal=60, n_anomaly=20, duration_s=2.0, sample_rate=16000, seed=9))
    train_index, test_index = split_index(index, test_normal_fraction=0.2, seed=9)
    features = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=5)
    train_clips = list(dataset_features(train_index, features))

    reports = []
    for kind in ("dense_ae", "cae", "cvae", "tcn_cvae"):
        model = build(default_spec(kind, n_mels=64, seed=9))
        model, log = train(model, train_clips,
                           TrainConfig(epochs=5, batch_size=64, seed=9))
        report = evaluate_dataset(model, test_index,
                                  EvalConfig(features=features, p=0.25))
        reports.append(report)
        print(f"{kind:>9}: {model.param_count():>7} params, "
              f"final loss {log.train_losses()[-1]:.2f}")

    print()
    print(markdown_table(reports))
