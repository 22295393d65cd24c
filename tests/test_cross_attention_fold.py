"""The folded cross-attention against the unfolded reference forward.

``forward`` never builds cross-attention keys or values: ``build_queries``
folds the key, value and output weights into each modality's projection,
once per window, and runs there too what reads no frame: layer 0's
self-attention, its cross-attention query side and its FFN of the text
rows.  Each frame scores its tokens into one buffer.  The reference,
``conftest.unfolded_forward``, is the forward written the direct way, one
function from the static frame to the output: it pools the queries itself,
projects every frame token into model space and then through wk and wv, and
computes every [query; text] row in every layer.  Both must agree to 1e-12.
"""

import numpy as np
import pytest

import tdc
from tdc import qformer

from conftest import EDGES, unfolded_forward


@pytest.mark.parametrize("frames", [(), (3,)], ids=["frame", "stack"])
@pytest.mark.parametrize("audio_tokens", [0, 5])
@pytest.mark.parametrize("text_conditioning", [False, True], ids=["text-off", "text-on"])
@pytest.mark.parametrize("query_type", qformer.QUERY_TYPES)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_folded_forward_matches_unfolded_reference(layers, query_type, text_conditioning, audio_tokens, frames):
    for edge in EDGES:
        cfg = tdc.QFormerConfig(
            model_dim=16, heads=1 if edge == "one-head" else 4, layers=layers, queries=1 if edge == "one-query" else 3,
            query_type=query_type, text_conditioning=text_conditioning, visual_dim=6, audio_dim=5, seed=layers,
        )
        params = tdc.init_params(cfg)
        rng = np.random.default_rng(layers)
        static = rng.standard_normal((7, cfg.visual_dim))
        visual = rng.standard_normal(frames + (1 if edge == "one-visual-token" else 8, cfg.visual_dim))
        audio = rng.standard_normal(frames + (audio_tokens, cfg.audio_dim))
        text = tdc.tokenize_text("" if edge == "empty-text" else "where does the dog run")
        out = tdc.forward(params, tdc.build_queries(params, static, text), visual, audio)[0]
        assert out.shape == frames + (cfg.queries, cfg.model_dim), edge
        expected = unfolded_forward(params, static, visual, audio, text)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12, err_msg=edge)
