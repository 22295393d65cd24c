"""Temporal-dynamic-context token compression for long videos."""

from .compressor import (
    BudgetReport,
    CompressionContext,
    Provenance,
    TDCStream,
    Window,
    WindowPlan,
    assemble_tdc,
    make_windows,
    read_stream,
    token_budget,
    write_stream,
)
from .lvcot import (
    EchoAnswerer,
    LVCoTConfig,
    LVCoTTrace,
    MockAnswerer,
    run_lvcot,
)
from .qformer import (
    GradCheckReport,
    QFormerConfig,
    QFormerParams,
    TrainBatch,
    backward,
    build_queries,
    forward,
    grad_check,
    init_params,
    load_params,
    make_train_batch,
    save_params,
    train_step,
)
from .segmenter import SegmenterConfig, frame_similarities, segment_scenes
from .timeline import (
    InstructionTokens,
    ScenePartition,
    SynthSpec,
    VideoTimeline,
    read_tdcf,
    synth_generate,
    tokenize_text,
    write_tdcf,
)

__version__ = "0.1.0"
