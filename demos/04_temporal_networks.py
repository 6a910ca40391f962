"""
From windowed coupling graphs to a temporal network
===================================================

Coupling between channels is rarely static, so a single graph over a
whole trial blurs it away.  Here the trial is cut into overlapping
windows, each window gets its own weighted coupling graph (joint
determinism between every channel pair), and the per-window graphs are
binarized into the layers of a temporal network.  Paths through that
network must respect time: an edge in window 3 cannot help a signal
that only reached its source in window 4.

The system below has two synchronized modules, an EEG pair (a, b) and
an EMG pair (c, d), tied together by one weak bridge b-c.  The module
edges survive binarization in every window; which cross-module edge
sneaks above threshold varies from window to window, and those
transient bridges are what connects the modules at all.
"""

import numpy as np

from jrpnet.config import PipelineConfig
from jrpnet.ingest import segment_windows, zscore_channels
from jrpnet.netbuild import assemble_temporal_network, channel_graphs
from jrpnet.pipeline import estimate_trial_embeddings
from jrpnet.synth import CouplingSpec, generate
from jrpnet.tempnet import (
    feature_vector,
    reachability_and_latency,
    temporal_correlation,
    temporal_small_worldness,
)

coupling = np.zeros((4, 4))
for i, j, mu in [(0, 1, 0.4), (2, 3, 0.4), (1, 2, 0.08)]:
    coupling[i, j] = coupling[j, i] = mu

spec = CouplingSpec(
    n_channels=4,
    modality_map={"a": "EEG", "b": "EEG", "c": "EMG", "d": "EMG"},
    coupling_matrix=coupling,
    noise_sd=0.05,
    length_samples=1280,
    sampling_rate_hz=64.0,
    seed=3,
    trial_id="modules",
)
recording = generate(spec)

# 5-second windows with 20% overlap give 4 layers over the 20 s trial.
config = PipelineConfig(window_s=5.0, overlap=0.2, tau_max=16, m_max=6)
windows = segment_windows(zscore_channels(recording), config.window_s, config.overlap)
embeddings = estimate_trial_embeddings(recording, config)

# One call per trial gives one (windows, channels, channels) array per
# metric; each window's recurrence plots reuse the rows they share with
# the window before.  Only channels of different modalities are paired,
# so each channel is passed as its own modality to keep the a-b and c-d
# module edges in this channel-level network.
weights = channel_graphs(windows, embeddings, recording.channel_names)["JDET"]
print(f"{len(weights)} windows, JDET weights of window 0:")
with np.printoptions(precision=3, suppress=True):
    print(weights[0])
print("(the module edges a-b and c-d dwarf every cross-module weight)")

# Keep the strongest half of the edges in each window.
tn = assemble_temporal_network(weights, recording.channel_names, "JDET", rho=0.5)
print()
print(f"temporal network on nodes {tn.nodes}, {len(tn.layers)} layers:")
for k, layer in enumerate(tn.layers):
    kept = [
        f"{tn.nodes[i]}-{tn.nodes[j]}"
        for i, j in zip(*np.triu_indices(4, 1))
        if layer[i, j]
    ]
    print(f"  window {k}: {', '.join(kept)}")

# Time-respecting reachability.  latency[i, j] is the number of windows
# a disturbance at i needs before it can first influence j.
report = reachability_and_latency(tn)
print()
print("latency in windows (rows = source, order a b c d):")
with np.printoptions(precision=0, suppress=True):
    print(report.latency)
print(f"mutually reachable pairs: {sorted(report.strong_pairs)}")
print(f"one-way reachable pairs: {sorted(report.weak_pairs)}")
print("(every pair is mutual here because the module edges repeat in each window)")
print(f"distinct fastest a->d routes: {report.fastest_path_counts[0, 3]}")

# Scalar summaries of the whole network.
per_node, corr = temporal_correlation(tn)
sw = temporal_small_worldness(tn, n_null=20, seed=0)
print()
print(f"temporal correlation   {corr:.3f} (per node: {np.round(per_node, 3)})")
print(f"small-worldness        {sw.value:.3f} (degenerate: {sw.degenerate})")

# The full feature vector is what the classifier consumes downstream.
features = feature_vector(tn, n_null=20, seed=0)
print()
print("feature vector:")
for name, value in zip(features.names(tn.nodes), features.values()):
    print(f"  {name:<22} {value:8.3f}")
