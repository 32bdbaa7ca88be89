"""The pipeline's outputs keep the hashes recorded in reference_outputs.json.

This test regenerates all but the ``tiger-oos-grid`` grids;
``python tests/reference_outputs.py check`` regenerates the whole set.
"""

import numpy as np
import pytest

import reference_outputs


def test_outputs_keep_their_recorded_hashes(tmp_path):
    record = reference_outputs.load()
    if record["numpy"] != np.__version__:
        pytest.skip(
            "hashes were recorded under numpy %s, this is numpy %s"
            % (record["numpy"], np.__version__)
        )
    hashes = reference_outputs.generate(tmp_path, quick=True)
    bad = reference_outputs.differing(hashes, record["outputs"], quick=True)
    assert not bad, "outputs whose hash differs from the record: %s" % ", ".join(bad)
