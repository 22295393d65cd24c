"""The benchmark's workloads: inputs from a seed, one timed op, and its checks.

Each workload calls the package only through the entry points the CLI uses,
looked up on their modules at call time, so a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import time
import zlib
from pathlib import Path

import numpy as np

import checks
from inputs import AUDIO_TOKENS, VISUAL_TOKENS, TimelineDesign, read_payloads, write_timeline
from tdc import compressor, lvcot, qformer, segmenter, timeline

QUESTION = "what happens in this video and when does the scene change"
WINDOW = 8
MAX_SCENES = 24  # the segmenter's default cap, which the expected scenes assume
SEGMENTS = 3
LR = 0.05
TRAIN_FRAMES = 8
REFERENCE = Path(__file__).with_name("reference.json")


class Workload:
    """One named workload.  setup() makes the inputs, op() is what gets timed."""

    name = ""
    frames_per_op = 0  # timeline seconds (train: dynamic frames) one op processes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.first_call = None  # seconds to the op's first result, if earlier than its end
        self._verified = None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Failures of one op's output; empty when it is correct.

        Every op of a run gets the same input, so an output identical to one
        that passed verify() passes, and any other output is verified in full.
        """
        signature = self.signature(out)
        if signature is not None and signature == self._verified:
            return []
        failures = self.verify(out)
        if not failures:
            self._verified = signature
        return failures

    def signature(self, out):
        """Exact fingerprint of an output, or None where outputs differ op to op."""
        return None

    def verify(self, out) -> list[str]:
        """Failures found by the independent checks of checks.py."""
        raise NotImplementedError

    def compression_ratio(self, out) -> float:
        """Dense tokens over emitted tokens, from an output that passed check()."""
        raise NotImplementedError

    def reference_failures(self) -> list[str]:
        """Failures against reference.json, produced from the seed code."""
        return []


def _reference() -> dict:
    return json.loads(REFERENCE.read_text())


class _TimelineWorkload(Workload):
    design: TimelineDesign

    def __init__(self, seed, workdir, design: TimelineDesign | None = None):
        super().__init__(seed, workdir)
        if design is not None:
            self.design = design
        self.frames_per_op = self.design.frames
        self.input = self.workdir / f"{self.name}-{seed}.tdcf"

    def write_input(self) -> None:
        write_timeline(self.input, self.design, self.seed)

    def windows(self, start: int, stop: int) -> list[tuple[int, int]]:
        return checks.windows_of(self.design.scenes(start, stop, MAX_SCENES), WINDOW)

    def dense_tokens(self) -> int:
        return self.design.frames * (VISUAL_TOKENS + AUDIO_TOKENS)


class Compress(_TimelineWorkload):
    name = "compress-t600"
    # cuts every 20 s; six of the 29 are weak, so the 24-scene cap drops exactly those
    design = TimelineDesign(600, 20, frozenset(range(40, 600, 100)))

    def setup(self):
        self.write_input()
        self.output = self.workdir / f"{self.name}-{self.seed}.tdcs"
        self.params = qformer.init_params(qformer.QFormerConfig(text_conditioning=True, seed=self.seed))

    def op(self):
        tl = timeline.read_tdcf(self.input)
        plan = compressor.make_windows(segmenter.segment_scenes(tl), WINDOW)
        stream = compressor.assemble_tdc(tl, plan, self.params, text=timeline.tokenize_text(QUESTION))
        compressor.write_stream(stream, self.output)

    def signature(self, out):
        return self.output.read_bytes()

    def verify(self, out):
        visual, audio, _ = read_payloads(self.input, self.design)
        try:
            tokens, prov = checks.parse_tdcs(self.output.read_bytes())
        except ValueError as exc:
            return [f"stream file: {exc}"]
        self.stream_tokens = prov.shape[0]
        model = checks.Model(self.params.tensors, self.params.cfg)
        windows = self.windows(0, self.design.frames)
        return checks.check_stream(tokens, prov, visual, audio, windows, model, checks.text_ids(QUESTION))

    def compression_ratio(self, out):
        return self.dense_tokens() / self.stream_tokens

    def reference_failures(self):
        ref = _reference()["compress"]
        small = Compress(ref["seed"], self.workdir, TimelineDesign(**ref["design"]))
        small.setup()
        small.op()
        failures = small.verify(None)
        tokens, _ = checks.parse_tdcs(small.output.read_bytes())
        for row, values in zip(ref["rows"], ref["values"]):
            if not checks.close(tokens[row], values):
                failures.append(f"reference stream row {row} differs from the seed code")
        return failures


class Answerer:
    """Keeps every stream for checking after the op and answers deterministically."""

    def __init__(self):
        self.calls: list[tuple[str, object]] = []
        self.first = None

    def answer(self, prompt, stream):
        if self.first is None:
            self.first = time.perf_counter()
        self.calls.append((prompt, stream))
        return f"note {len(self.calls)}: {len(stream)} tokens"


class LVCoT(Compress):
    name = "lvcot-t600"

    def setup(self):
        self.write_input()
        cfg = qformer.QFormerConfig(text_conditioning=True, seed=self.seed)
        self.params = qformer.init_params(cfg)
        self.tl = timeline.read_tdcf(self.input)
        self.ctx = lvcot.CompressionContext(params=self.params, window_length=WINDOW)

    def spans(self) -> list[tuple[int, int]]:
        """M contiguous time-equivalent spans, larger ones first."""
        base, extra = divmod(self.design.frames, SEGMENTS)
        edges = [0]
        for i in range(SEGMENTS):
            edges.append(edges[-1] + base + (i < extra))
        return list(zip(edges[:-1], edges[1:]))

    def useful_dynamic_frames(self) -> int:
        """Dynamic frames of the whole-video stream, the one the final answer sees."""
        return sum(n for _, n in self.windows(0, self.design.frames))

    def op(self):
        answerer = Answerer()
        start = time.perf_counter()
        trace = lvcot.run_lvcot(self.tl, QUESTION, answerer, lvcot.LVCoTConfig(segments=SEGMENTS), self.ctx)
        self.first_call = answerer.first - start
        return trace, answerer.calls

    def signature(self, out):
        trace, calls = out
        h = hashlib.blake2b(repr((trace.segment_answers, trace.final_answer)).encode())
        for prompt, stream in calls:
            h.update(prompt.encode())
            for array in (stream.tokens, stream.provenance):
                h.update(np.ascontiguousarray(array))
        return h.digest()

    def verify(self, out):
        trace, calls = out
        spans = self.spans()
        if len(calls) != len(spans) + 1:
            return [f"{len(calls)} answerer calls, expected {len(spans) + 1}"]
        answers = [f"note {i + 1}: {len(stream)} tokens" for i, (_, stream) in enumerate(calls)]
        failures = []
        if list(trace.segment_answers) != answers[:-1] or trace.final_answer != answers[-1]:
            failures.append("trace answers differ from the answerer's")
        for (a, b), note in zip(spans, answers):
            if f"[{a}s-{b}s]: {note}" not in calls[-1][0]:
                failures.append(f"final prompt lacks the note for {a}s-{b}s")
        visual, audio, _ = read_payloads(self.input, self.design)
        model = checks.Model(self.params.tensors, self.params.cfg)
        ids, cache = checks.text_ids(QUESTION), {}
        for (a, b), (_, stream) in zip([*spans, (0, self.design.frames)], calls):
            windows = self.windows(a, b)
            failures += [
                f"stream {a}s-{b}s: {f}"
                for f in checks.check_stream(stream.tokens, stream.provenance, visual, audio, windows, model, ids, cache)
            ]
        self.stream_tokens = len(calls[-1][1])
        return failures


class Train(Workload):
    name = "train-w8"
    frames_per_op = TRAIN_FRAMES - 1

    def setup(self):
        cfg = qformer.QFormerConfig(seed=self.seed)
        self.params = qformer.init_params(cfg)
        self.batch = qformer.make_train_batch(cfg, seed=self.seed, frames=TRAIN_FRAMES)

    def op(self):
        self.before = self.params
        self.params, loss = qformer.train_step(self.params, self.batch, LR)
        return loss

    def verify(self, loss):
        before, after, cfg = self.before.tensors, self.params.tensors, self.params.cfg
        if not all(np.all(np.isfinite(a)) for a in after.values()):
            return ["non-finite parameter after the step"]
        expected = checks.train_loss(checks.Model(before, cfg), self.batch)
        if not checks.close(loss, expected, 1e-6):
            return [f"loss {loss!r}, reference forward gives {expected!r}"]
        # the step is -LR * gradient; the loss slope along it must equal |gradient|
        grad = {n: (before[n] - after[n]) / LR for n in before}
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grad.values())))
        h = 1e-4
        loss_at = [
            checks.train_loss(checks.Model({n: before[n] + sign * h / norm * grad[n] for n in before}, cfg), self.batch)
            for sign in (1.0, -1.0)
        ]
        slope = (loss_at[0] - loss_at[1]) / (2 * h)
        if not checks.close(slope, norm, 1e-3):
            return [f"gradient norm {norm!r}, finite-difference slope {slope!r}"]
        return []

    def compression_ratio(self, loss):
        b = self.batch
        visual, audio = b.static_visual.shape[0], b.dynamic_audio[0].shape[0]
        dynamic = len(b.dynamic_visual)
        return (1 + dynamic) * (visual + audio) / (visual + audio + 1 + dynamic * self.params.cfg.queries)

    def reference_failures(self):
        ref = _reference()["train"]
        cfg = qformer.QFormerConfig(seed=ref["seed"])
        params = qformer.init_params(cfg)
        batch = qformer.make_train_batch(cfg, seed=ref["seed"], frames=TRAIN_FRAMES)
        losses = []
        for _ in ref["losses"]:
            params, loss = qformer.train_step(params, batch, LR)
            losses.append(loss)
        if not checks.close(losses, ref["losses"], 1e-6):
            return [f"train losses {losses} differ from the seed code's {ref['losses']}"]
        return []


class Plan(_TimelineWorkload):
    name = "plan-t3600"
    # cuts every 15 s; only those at multiples of 150 s are strong: 24 scenes of 150 s
    design = TimelineDesign(3600, 15, frozenset(c for c in range(15, 3600, 15) if c % 150))

    def setup(self):
        self.write_input()
        self.cfg = qformer.QFormerConfig()
        self.crcs = [zlib.crc32(a) for a in read_payloads(self.input, self.design)]

    def op(self):
        tl = timeline.read_tdcf(self.input)
        partition = segmenter.segment_scenes(tl)
        plan = compressor.make_windows(partition, WINDOW)
        return tl, partition, plan, compressor.token_budget(tl, plan, self.cfg)

    def verify(self, out):
        tl, partition, plan, report = out
        arrays = (tl.visual_tokens, tl.audio_tokens, tl.descriptors)
        if [zlib.crc32(np.ascontiguousarray(a, dtype="<f4")) for a in arrays] != self.crcs:
            return ["timeline read back differs from the written file"]
        t = self.design.frames
        scenes = self.design.scenes(0, t, MAX_SCENES)
        windows = checks.windows_of(scenes, WINDOW)
        per_window = checks.budget(windows, VISUAL_TOKENS, AUDIO_TOKENS, self.cfg.queries)
        failures = []
        if [tuple(s) for s in partition.scenes] != scenes:
            failures.append(f"{partition.scene_count} scenes, expected {len(scenes)} planted ones")
        if [(w.static_frame, len(w.dynamic_frames)) for w in plan.windows] != windows:
            failures.append(f"{len(plan.windows)} windows differ from the {len(windows)} expected")
        if list(report.per_window) != per_window or report.total != sum(per_window):
            failures.append(f"budget of {report.total} tokens, expected {sum(per_window)}")
        if report.naive != self.dense_tokens():
            failures.append(f"dense baseline {report.naive}, expected {self.dense_tokens()}")
        return failures

    def compression_ratio(self, out):
        report = out[3]
        return report.naive / report.total


WORKLOADS = {w.name: w for w in (Compress, LVCoT, Train, Plan)}
