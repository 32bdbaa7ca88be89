"""Growing a diverse candidate set for the two-agent tiger peer.

Known models come from exact solves under randomized initial beliefs.  The
expansion loop samples policy trees from the peer's level-0 model,
anchored on the known models' behavioral features, and keeps a sample only
when it strictly raises the set's diversity.
"""

import tempfile
from pathlib import Path

import numpy as np

from ididiv import (
    SelectionConfig,
    builtin_tiger,
    canonical_encode,
    generate_known_models,
    load_candidate_set,
    project_level0,
    sample_tree,
    save_candidate_set,
    select_topk,
)

level0 = project_level0(builtin_tiger(3), "j")

known = generate_known_models(level0, 3, seed=0)
print("known peer models:")
for t in known:
    print("  ", canonical_encode(t))
print()

# One anchored sample, outside the selection loop, to show the mechanism.
from ididiv import extract_features

anchor = extract_features(known)[0]
tree = sample_tree(level0, anchor, np.random.default_rng(1))
print("anchor %s -> sampled tree %s" % (anchor.compact(), canonical_encode(tree)))
print()

candidates = select_topk(
    known, level0, SelectionConfig(measure="MDF", k_max=6, patience=20, seed=0)
)
print("selection trace (set size, diversity value):")
for size, value in candidates.trace:
    print("   %d  %.4f" % (size, value))
print("provenance:", candidates.provenance)
print()

out = Path(tempfile.mkdtemp()) / "candidates.json"
save_candidate_set(candidates, out)
again = load_candidate_set(out)
print("saved to %s, round-trip equal: %s" % (out, again.trees == candidates.trees))
