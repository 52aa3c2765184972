"""Representation views: raw features versus learned latent codes.

Embeds each test clip twice with exact t-SNE: once from its mean log-mel
frame, once from the trained model's latent code. The latent view
separates normal (blue) from anomaly (orange) more cleanly; both views
are written as CSV + SVG scatter files.
"""

import tempfile
from pathlib import Path

import numpy as np

from aad import (
    EmbedConfig,
    FeatureConfig,
    SynthConfig,
    TrainConfig,
    dataset_features,
    emit_plot,
    split_index,
    synth_generate,
    train,
    tsne_embed,
)
from aad.models import build, default_spec

out_dir = Path("demo_output")

with tempfile.TemporaryDirectory() as tmp:
    index = synth_generate(Path(tmp), SynthConfig(
        n_normal=80, n_anomaly=30, duration_s=2.0, sample_rate=16000, seed=4))
    train_index, test_index = split_index(index, test_normal_fraction=0.3, seed=4)
    features = FeatureConfig(n_fft=1024, hop=512, n_mels=64, context_frames=5)
    train_clips = list(dataset_features(train_index, features))
    test_clips = list(dataset_features(test_index, features))

    model = build(default_spec("tcn_cvae", n_mels=64, seed=4))
    model, _ = train(model, train_clips,
                     TrainConfig(epochs=10, batch_size=64, seed=4))

    labels = [c.label for c in test_clips]
    raw = np.stack([c.features.data.mean(axis=0) for c in test_clips])
    latent = np.stack([model.encode(c.features) for c in test_clips])
    print(f"embedding {len(test_clips)} clips: raw {raw.shape[1]}-D, "
          f"latent {latent.shape[1]}-D")

    cfg = EmbedConfig(output_dims=2, perplexity=10.0, iterations=600, seed=1)
    for name, vectors in (("raw", raw), ("latent", latent)):
        emb = tsne_embed(vectors, cfg, labels=labels)
        paths = emit_plot(emb, out_dir / f"tsne_{name}")
        print(f"{name}: KL {emb.kl_history[0]:.3f} -> {emb.kl_history[-1]:.3f}; "
              f"wrote {', '.join(p.name for p in paths)}")

    cfg3 = EmbedConfig(output_dims=3, perplexity=10.0, iterations=600, seed=1)
    emb3 = tsne_embed(latent, cfg3, labels=labels)
    paths = emit_plot(emb3, out_dir / "tsne_latent_3d")
    print(f"3-D latent view: wrote {', '.join(p.name for p in paths)} "
          f"(axis-pair projections)")
print(f"scatter files are under {out_dir}/")
