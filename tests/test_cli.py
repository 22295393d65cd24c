import argparse
import errno
import functools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tdc
from tdc import binio
from tdc.cli import _build_parser, main

from conftest import SIGNALLING_NAN, bit_flips, tdcf_fields, truncations, u32_overwrites


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    record = json.loads(out.out) if code == 0 else None
    return code, record, out.err


def gen_file(capsys, tmp_path, name="t.tdcf", seed=7, frames=60, boundaries="20,40"):
    path = tmp_path / name
    code, record, _ = run(
        capsys, "gen", "--output", str(path), "--seed", str(seed),
        "--frames", str(frames), "--boundaries", boundaries,
    )
    assert code == 0 and record["frames"] == frames
    return path


def test_gen_is_bitwise_deterministic(capsys, tmp_path):
    a = gen_file(capsys, tmp_path, "a.tdcf")
    b = gen_file(capsys, tmp_path, "b.tdcf")
    assert a.read_bytes() == b.read_bytes()


def test_allocation_the_machine_refuses_is_one_usage_line(capsys, tmp_path):
    # 10**12 frames of 144 visual tokens of dim 8 in float64 is 8 PiB, beyond any x86-64 address
    # space: refused under every overcommit mode, no memory touched
    path = tmp_path / "x.tdcf"
    code, _, err = run(capsys, "gen", "--output", str(path), "--frames", "1000000000000", "--dims", "8")
    assert code == 1 and err.startswith("tdc: usage error:") and err.count("\n") == 1
    assert "(1000000000000, 144, 8)" in err
    assert not path.exists()


def test_segment_record(capsys, tmp_path):
    path = gen_file(capsys, tmp_path)
    code, record, _ = run(capsys, "segment", "--input", str(path))
    assert code == 0
    assert record["boundaries"] == [20, 40]
    assert record["scenes"] == [[0, 20], [20, 40], [40, 60]]
    assert len(record["cut_similarities"]) == 2
    assert all(s < 0.85 for s in record["cut_similarities"])


def test_budget_record_single_scene(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, boundaries="")
    code, record, _ = run(capsys, "budget", "--input", str(path))
    assert code == 0
    assert record["total"] == 2392
    assert record["naive"] == 11640
    assert record["ratio"] == pytest.approx(4.87, abs=0.01)


def test_compress_token_count_matches_budget(capsys, tmp_path):
    path = gen_file(capsys, tmp_path)
    out = tmp_path / "s.tdcs"
    code, comp, _ = run(capsys, "compress", "--input", str(path), "--output", str(out), "--seed", "3")
    assert code == 0
    code, budget, _ = run(capsys, "budget", "--input", str(path))
    assert code == 0
    assert comp["tokens"] == budget["total"]
    # independent count straight from the output file
    tokens, prov = tdc.read_stream(out)
    assert tokens.shape[0] == budget["total"]
    assert prov.shape[0] == budget["total"]
    assert comp["provenance_counts"]["sep"] == comp["windows"]


def test_compress_deterministic_output(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, frames=12, boundaries="")
    out_a, out_b = tmp_path / "a.tdcs", tmp_path / "b.tdcs"
    assert run(capsys, "compress", "--input", str(path), "--output", str(out_a), "--text", "q")[0] == 0
    assert run(capsys, "compress", "--input", str(path), "--output", str(out_b), "--text", "q")[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_audioless_timeline_compresses_and_runs_lvcot(capsys, tmp_path):
    tl = tdc.synth_generate(tdc.SynthSpec(seed=1, frames=12, boundaries=(6,)))
    path = tmp_path / "silent.tdcf"
    tdc.write_tdcf(tdc.VideoTimeline(tl.visual_tokens, np.zeros((12, 0, 0)), tl.descriptors), path)
    out = tmp_path / "s.tdcs"
    code, comp, err = run(capsys, "compress", "--input", str(path), "--output", str(out))
    assert code == 0, err
    code, budget, _ = run(capsys, "budget", "--input", str(path))
    assert comp["tokens"] == budget["total"] == len(tdc.read_stream(out)[1])
    assert comp["provenance_counts"]["static_audio"] == 0
    code, record, err = run(capsys, "lvcot", "--input", str(path), "--text", "q", "--segments", "2")
    assert code == 0, err
    assert len(record["segment_answers"]) == 2


# each record's keys after `command`, in order
RECORD_KEYS = {
    "gen --output g.tdcf": "output frames boundaries seed",
    "segment --input t.tdcf": "frames boundaries cut_similarities scene_count scenes",
    "compress --input t.tdcf --output s.tdcs": "output tokens scenes windows provenance_counts",
    "budget --input t.tdcf": "total naive ratio windows per_window",
    "lvcot --input t.tdcf --text q": "spans segment_answers final_prompt final_answer",
    "gradcheck --seed 1": "seed max_relative_error threshold passed per_tensor",
}


@pytest.mark.parametrize("argv", RECORD_KEYS, ids=lambda argv: argv.split()[0])
def test_record_keys_in_order_with_command_first(capsys, tmp_path, monkeypatch, argv):
    gen_file(capsys, tmp_path, frames=12, boundaries="6")
    monkeypatch.chdir(tmp_path)
    code, record, err = run(capsys, *argv.split())
    assert code == 0, err
    assert list(record) == ["command", *RECORD_KEYS[argv].split()]
    assert record["command"] == argv.split()[0]
    if record["command"] == "gradcheck":  # the one accepted gradcheck run of the CLI tests
        assert record["passed"] is True and record["max_relative_error"] <= 1e-5


def test_lvcot_with_mock_script(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, frames=90, boundaries="30,60")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["A", "B", "C", "D"]))
    code, record, _ = run(
        capsys, "lvcot", "--input", str(path), "--text", "who wins?",
        "--script", str(script),
    )
    assert code == 0
    assert record["spans"] == [[0, 30], [30, 60], [60, 90]]
    assert record["final_answer"] == "D"
    assert "[0s-30s]: A" in record["final_prompt"]


def test_budget_refuses_what_every_compress_refuses(capsys, tmp_path):
    # 144 visual and 50 audio tokens per frame: learned queries draw on 194 of them, avgpool ones on 144
    path = gen_file(capsys, tmp_path, frames=24, boundaries="8,16")
    tl = tdc.read_tdcf(path)
    no_visual = tmp_path / "v0.tdcf"
    tdc.write_tdcf(tdc.VideoTimeline(np.zeros((24, 0, 0)), tl.audio_tokens, tl.descriptors), no_visual)
    out = tmp_path / "s.tdcs"
    for timeline, k in [(path, "195"), (path, "500"), (no_visual, "4")]:
        code, _, err = run(capsys, "budget", "--input", str(timeline), "--k", k)
        assert code == 1 and err.startswith("tdc: usage error:") and err.count("\n") == 1
        # every query type refuses it, and learned ones, which draw on the most tokens, with budget's line
        argv = ["--input", str(timeline), "--output", str(out), "--k", k]
        assert run(capsys, "compress", *argv)[0] == 1
        assert run(capsys, "compress", *argv, "--query-type", "learned") == (1, None, err)
    # some query type compresses each K up to 194
    for k in ["150", "194"]:
        code, record, _ = run(capsys, "budget", "--input", str(path), "--k", k)
        assert code == 0 and record["total"] == 3 * (144 + 50 + 1) + 21 * int(k)


@pytest.mark.parametrize("query_type, k", [("avgpool", 144), ("learned", 194)])
def test_k_up_to_its_bound_compresses(capsys, tmp_path, query_type, k):
    path = gen_file(capsys, tmp_path, frames=2, boundaries="")
    out = tmp_path / "s.tdcs"
    code, record, err = run(
        capsys, "compress", "--input", str(path), "--output", str(out), "--k", str(k), "--query-type", query_type,
    )
    assert code == 0, err
    assert record["tokens"] == 144 + 50 + 1 + k


@pytest.mark.parametrize("damage", [None, "truncated"])
def test_timeline_piped_to_dev_stdin(capsys, tmp_path, damage):
    # a pipe cannot seek, so the reader cannot take the file size from it
    data = gen_file(capsys, tmp_path, frames=12, boundaries="6").read_bytes()
    src = str(Path(tdc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "tdc", "segment", "--input", "/dev/stdin"],
        input=data[:-4] if damage else data, capture_output=True, env=env, timeout=60,
    )
    if damage:
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.startswith(b"tdc: i/o error: file ends inside") and done.stderr.count(b"\n") == 1
    else:
        assert done.returncode == 0, done.stderr
        assert done.stdout.count(b"\n") == 1 and json.loads(done.stdout)["boundaries"] == [6]


def test_exit_code_numeric(capsys, tmp_path):
    # zero descriptors make similarity undefined
    tl = tdc.VideoTimeline(
        np.ones((3, 2, 4), dtype=np.float32),
        np.ones((3, 1, 4), dtype=np.float32),
        np.zeros((3, 4), dtype=np.float32),
    )
    path = tmp_path / "degenerate.tdcf"
    tdc.write_tdcf(tl, path)
    assert main(["segment", "--input", str(path)]) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, SIGNALLING_NAN], ids=["nan", "inf", "signalling-nan"])
def test_segment_nonfinite_descriptor_is_numeric(capsys, tmp_path, bad):
    desc = np.ones((5, 4), dtype=np.float32)
    desc[3, 1] = bad
    tl = tdc.VideoTimeline(np.ones((5, 2, 4), dtype=np.float32), np.ones((5, 1, 4), dtype=np.float32), desc)
    path = tmp_path / "nonfinite.tdcf"
    tdc.write_tdcf(tl, path)
    assert path.read_bytes().count(np.float32(bad).tobytes()) == 1  # stored bit for bit
    code, _, err = run(capsys, "segment", "--input", str(path))
    assert code == 3
    assert "not finite" in err and "frame 3" in err
    assert err.count("\n") == 1


def inf_token_file(tmp_path):
    tl = tdc.synth_generate(tdc.SynthSpec(seed=1, frames=20))
    visual = tl.visual_tokens.copy()
    visual[3, 0, 0] = np.inf
    path = tmp_path / "inf.tdcf"
    tdc.write_tdcf(tdc.VideoTimeline(visual, tl.audio_tokens, tl.descriptors), path)
    return path


def test_compress_nonfinite_token_is_numeric_and_writes_nothing(capsys, tmp_path):
    path = inf_token_file(tmp_path)
    out = tmp_path / "s.tdcs"
    code, _, err = run(capsys, "compress", "--input", str(path), "--output", str(out))
    assert code == 3
    assert "not finite" in err and "frame 3" in err
    assert err.startswith("tdc: numeric error:") and err.count("\n") == 1
    assert not out.exists()


def big_token_file(tmp_path):
    # a finite static token near the float32 limit projects past it
    tl = tdc.synth_generate(tdc.SynthSpec(seed=1, frames=3))
    visual = tl.visual_tokens.copy()
    visual[0, 0, :] = 3e38
    path = tmp_path / "big.tdcf"
    tdc.write_tdcf(tdc.VideoTimeline(visual, tl.audio_tokens, tl.descriptors), path)
    return path


def test_compress_float32_overflow_is_numeric_and_writes_nothing(capsys, tmp_path):
    path = big_token_file(tmp_path)
    out = tmp_path / "s.tdcs"
    code, _, err = run(capsys, "compress", "--input", str(path), "--output", str(out))
    assert code == 3
    assert "overflows float32" in err and "frame 0" in err
    assert err.startswith("tdc: numeric error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("segments", ["1", "3"])
def test_lvcot_float32_overflow_is_numeric(capsys, tmp_path, segments):
    # refused where the stream is made, as compress refuses it
    path = big_token_file(tmp_path)
    code, _, err = run(capsys, "lvcot", "--input", str(path), "--text", "q", "--segments", segments)
    assert code == 3
    assert "segment 0" in err and "overflows float32" in err and "frame 0" in err
    assert err.startswith("tdc: numeric error:") and err.count("\n") == 1


def test_lvcot_zero_descriptor_names_its_segment(capsys, tmp_path):
    tl = tdc.synth_generate(tdc.SynthSpec(seed=7, frames=24, boundaries=(8, 16), dim=8))
    desc = tl.descriptors.copy()
    desc[13] = 0.0
    path = tmp_path / "z.tdcf"
    tdc.write_tdcf(tdc.VideoTimeline(tl.visual_tokens, tl.audio_tokens, desc), path)
    code, _, err = run(capsys, "lvcot", "--input", str(path), "--k", "4", "--text", "what")
    assert code == 3
    # frame 13 is frame 5 of span 1, [8, 16)
    assert err == (
        "tdc: numeric error: segment 1 (8s-16s, frames counted from its start): "
        "frame 5 has a zero-norm descriptor\n"
    )


def test_lvcot_nonfinite_token_is_numeric(capsys, tmp_path):
    path = inf_token_file(tmp_path)
    code, _, err = run(capsys, "lvcot", "--input", str(path), "--text", "q", "--segments", "2")
    assert code == 3
    assert "segment 0" in err and "frame 3" in err
    assert err.startswith("tdc: numeric error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["gen"], ["compress", "--input", "t.tdcf"]], ids=["gen", "compress"])
def test_a_failed_write_leaves_no_file(capsys, tmp_path, monkeypatch, argv):
    gen_file(capsys, tmp_path, frames=12, boundaries="6")
    monkeypatch.chdir(tmp_path)
    write, calls = binio.ByteWriter.array, []

    def array_then_disk_full(self, values, dtype):
        calls.append(dtype)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write(self, values, dtype)

    monkeypatch.setattr(binio.ByteWriter, "array", array_then_disk_full)
    code, _, err = run(capsys, *argv, "--output", "out")
    assert (code, err) == (2, "tdc: i/o error: [Errno 28] No space left on device\n")
    assert not Path("out").exists()


# The contract test draws a command line from the parser: a subcommand, the options it requires at values it
# accepts, then one or two of its options at values drawn by their type; or, in a third of the lines, a
# subcommand that reads a timeline, given a corrupted one as --input.  Each runs in a fresh directory holding an
# empty directory and a timeline that every default accepts (3 frames for 3 segments, 16 visual tokens for
# --k 16); an argv item of bytes names a new file holding them.
SUBCOMMANDS = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
READERS = sorted(c for c, p in SUBCOMMANDS.items() if any(a.dest == "input" for a in p._actions))
TIMELINE = tdc.synth_generate(tdc.SynthSpec(seed=7, frames=3, visual_tokens=16, audio_tokens=2, dim=3))
REQUIRED = {"input": "t.tdcf", "output": "out", "text": "q"}
# each bound ± 1: 0 or 1 for a count, 3 frames, --k 16 avgpool and 18 learned, and int64's and uint64's ends;
# nothing mid-size, since gen's --frames and --dims multiply into one allocation
INTS = [-1, 0, 1, 2, 3, 4, 15, 16, 17, 18, 19, -(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1, 2**64]
# forms that float() reads: signs, exponents, underflow to 0, overflow to inf, and --tau's bounds ± 0.01
FLOATS = ["0.5", "-0", "1", "1.01", "-1", "-1.01", "-1e-3", "1E-400", "1e300", "1e309", "inf", "-Infinity", "nan",
          "-NaN"]
WORDS = " ".join(["word"] * 257)  # one past MAX_INSTRUCTION_TOKENS
# argparse has no path type, so an option of no type draws both: empty, whitespace only, lone surrogates as
# argv decodes bytes that are not UTF-8 (alone, in a word, among words), a boundary list, too many words; and a
# file, a directory, a missing parent
STRINGS = ["", " \t\n", "\udc80", "caf\udcff", "where is the caf\udcff", "1,2", WORDS, "t.tdcf", "dir", "missing/t"]
KINDS = {1: "usage", 2: "i/o", 3: "numeric", 4: "orchestration"}


@functools.cache
def timeline_bytes():
    with tempfile.TemporaryDirectory() as directory:
        tdc.write_tdcf(TIMELINE, Path(directory) / "t.tdcf")
        return (Path(directory) / "t.tdcf").read_bytes()


def required_argv(command):
    return [arg for a in SUBCOMMANDS[command]._actions if a.required for arg in (a.option_strings[0], REQUIRED[a.dest])]


def files():
    return {path: path.read_bytes() if path.is_file() else None for path in Path().rglob("*")}


def values(command, action):
    if action.choices:
        return st.sampled_from([*action.choices, ""])
    if action.type is int:  # an accepted gradcheck takes about 2 s, so only the seeds it refuses are drawn for it
        return st.sampled_from([i for i in INTS if i < 0 or command != "gradcheck"]).map(str)
    if action.type is float:
        return st.sampled_from(FLOATS)
    return st.sampled_from(STRINGS)


@st.composite
def command_lines(draw):
    if draw(st.integers(0, 2)) == 0:
        command = draw(st.sampled_from(READERS))
        raw, fields = timeline_bytes(), tdcf_fields(TIMELINE)
        corrupted = st.one_of(truncations(raw), bit_flips(raw, fields), u32_overwrites(raw, fields))
        return [command, *required_argv(command), "--input", draw(corrupted)]
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command, *required_argv(command)]
    options = [a for a in SUBCOMMANDS[command]._actions if a.option_strings and a.nargs != 0]  # no --help
    for action in draw(st.lists(st.sampled_from(options), min_size=1, max_size=2, unique=True)):
        option, value = action.option_strings[0], draw(values(command, action))
        # the option's last value is the one argparse keeps
        argv += [option, value] if draw(st.booleans()) else [f"{option}={value}"]
    return argv


GEN, SEGMENT, BUDGET, COMPRESS, LVCOT = ([c, *required_argv(c)] for c in "gen segment budget compress lvcot".split())
USAGE, IO, SEED = "tdc: usage error: ", "tdc: i/o error: ", "tdc: usage error: seed must be >= 0, got -1\n"
PAST = "a float64 array of shape "
# a TDCF header that ends where the contract timeline's visual payload starts, and a file of no known magic
CUT = b"TDCF\x01\x00\x00\x00\x03\x00\x00\x00\x00\x10\x00\x00\x00\x03\x00\x00\x00"
JUNK = b"JUNKJUNKJUNK"


# hand-listed lines, each with the start of its stderr line ('' for exit 0); a bytes item names a new file
CASES = [
    # a value reaches its check in either form, and a negative one in any form that float() reads
    ([*GEN, "--noise=nan"], f"{USAGE}noise must be finite and >= 0, got nan\n"),
    ([*GEN, "--noise=inf"], f"{USAGE}noise must be finite and >= 0, got inf\n"),
    ([*GEN, "--noise=-inf"], f"{USAGE}noise must be finite and >= 0, got -inf\n"),
    ([*GEN, "--noise=-1"], f"{USAGE}noise must be finite and >= 0, got -1.0\n"),
    ([*GEN, "--noise", "-1e-3"], f"{USAGE}noise must be finite and >= 0, got -0.001\n"),
    ([*GEN, "--noise", "-inf"], f"{USAGE}noise must be finite and >= 0, got -inf\n"),
    ([*GEN, "--dims=0"], f"{USAGE}dim must be >= 1, got 0\n"),
    ([*GEN, "--dims=-1"], f"{USAGE}dim must be >= 1, got -1\n"),
    ([*GEN, "--boundaries=2", "--dims=1"], f"{USAGE}dim must be >= 2 to plant cuts that the segmenter finds, got 1\n"),
    # finite, but the generated tokens overflow float32 (the second is the largest float64)
    ([*GEN, "--frames=4", "--noise=1e300"], f"{USAGE}noise 1e+300 puts generated tokens past float32 range"),
    ([*GEN, "--frames=4", "--noise=1.7976931348623157e+308"], f"{USAGE}noise 1.7976931348623157e+308 puts"),
    ([*GEN, "--boundaries", "a,b"], f"{USAGE}bad boundary list 'a,b'"),
    # a byte count or a dimension past intp is refused before numpy sees it
    ([*GEN, "--frames", "100000000000000000", "--dims", "8"], f"{USAGE}{PAST}(100000000000000000, 144, 8) is past"),
    ([*GEN, "--frames", "18446744073709551616"], f"{USAGE}{PAST}(18446744073709551616, 144, 32) is past"),
    ([*GEN, "--dims", "18446744073709551616"], f"{USAGE}{PAST}(60, 144, 18446744073709551616) is past"),
    ([*SEGMENT, "--tau", "-1e-3"], ""),
    ([*SEGMENT, "--tau", "-inf"], f"{USAGE}tau must be in [-1, 1], got -inf\n"),
    # an option name or a word after an option is still no value
    ([*SEGMENT, "--tau", "--max-segments", "3"], f"{USAGE}argument --tau: expected one argument\n"),
    ([*SEGMENT, "--tau", "-x"], f"{USAGE}argument --tau: expected one argument\n"),
    (["frobnicate"], f"{USAGE}argument command: invalid choice: 'frobnicate'"),
    (["gen"], f"{USAGE}the following arguments are required: --output\n"),
    ([*GEN, "--seed", "x"], f"{USAGE}argument --seed: invalid int value: 'x'\n"),
    (["gradcheck", "--unknown"], f"{USAGE}unrecognized arguments: --unknown\n"),
    ([*GEN, "--seed", "-1"], SEED),
    ([*COMPRESS, "--seed", "-1"], SEED),
    ([*LVCOT, "--seed", "-1"], SEED),
    (["gradcheck", "--seed", "-1"], SEED),
    # argv decodes the byte 0xff of `--text $'caf\xff'` to the lone surrogate U+DCFF
    ([*COMPRESS, "--text", "the caf\udcff"], f"{USAGE}instruction word 'caf\\udcff' is not UTF-8 text\n"),
    ([*LVCOT, "--text", "the caf\udcff"], f"{USAGE}instruction word 'caf\\udcff' is not UTF-8 text\n"),
    # sizes are refused before any parameter is built: avgpool queries draw on 16 tokens, learned ones on 18
    ([*COMPRESS, "--k", "200000"], f"{USAGE}--k 200000 is more than the 16 tokens per frame that avgpool queries"),
    ([*COMPRESS, "--k", "19", "--query-type", "learned"], f"{USAGE}--k 19 is more than the 18 tokens per frame"),
    ([*COMPRESS, "--text", WORDS], f"{USAGE}instruction text has 257 tokens, more than 256\n"),
    ([*LVCOT, "--k", "200000"], f"{USAGE}--k 200000 is more than the 16 tokens per frame"),
    ([*LVCOT, "--text", WORDS], f"{USAGE}instruction text has 257 tokens, more than 256\n"),
    ([*LVCOT, "--segments", "99"], f"{USAGE}cannot split 3 items into 99 groups\n"),
    ([*SEGMENT, "--input", "missing.tdcf"], f"{IO}[Errno 2] No such file or directory: 'missing.tdcf'\n"),
    ([*SEGMENT, "--input", CUT], f"{IO}file ends inside visual payload"),
    ([*SEGMENT, "--input", JUNK], f"{IO}expected magic b'TDCF', found b'JUNK'"),
    ([*BUDGET, "--input", CUT], f"{IO}file ends inside visual payload"),
    ([*BUDGET, "--input", JUNK], f"{IO}expected magic b'TDCF', found b'JUNK'"),
    ([*COMPRESS, "--input", CUT], f"{IO}file ends inside visual payload"),
    ([*COMPRESS, "--input", JUNK], f"{IO}expected magic b'TDCF', found b'JUNK'"),
    ([*LVCOT, "--input", CUT], f"{IO}file ends inside visual payload"),
    ([*LVCOT, "--input", JUNK], f"{IO}expected magic b'TDCF', found b'JUNK'"),
    ([*LVCOT, "--script", b"[1, "], f"{IO}script file 'file6' is not JSON"),
    ([*LVCOT, "--script", b"\xff\xfe"], f"{IO}script file 'file6' is not UTF-8"),
    ([*LVCOT, "--script", b'{"answers": ["A"]}'], f"{USAGE}script file 'file6' must hold a JSON list of strings\n"),
    ([*LVCOT, "--script", b'["only one"]'], "tdc: orchestration error: segment 1 (1s-2s) failed: mock answer script"),
    (SEGMENT, ""),
]


def case_id(argv):  # the line without the required options it shares with its subcommand's others
    required = required_argv(argv[0]) if argv[0] in SUBCOMMANDS else []
    rest = argv[1 + len(required):] if argv[1:1 + len(required)] == required else argv[1:]
    return " ".join([argv[0], *(a if isinstance(a, str) else "<file>" for a in rest)])[:60]


def exits_as_documented(tmp_path, monkeypatch, capsys, argv):
    """Exit 0 prints one JSON line and nothing on stderr; exits 1-4 print nothing on stdout, one `tdc: <kind>
    error:` line on stderr, and leave every file as it was.  No warning is raised, and the tracemalloc peak
    stays under 32 MiB.  Returns the exit code and the stderr text."""
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    Path("t.tdcf").write_bytes(timeline_bytes())
    Path("dir").mkdir()
    corrupted_input = isinstance(argv[-1], bytes) and argv[:-1] == [argv[0], *required_argv(argv[0]), "--input"]
    for i, item in enumerate(argv):
        if isinstance(item, bytes):
            Path(f"file{i}").write_bytes(item)
    argv = [f"file{i}" if isinstance(item, bytes) else item for i, item in enumerate(argv)]
    before = files()
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    if code == 0:
        record = json.loads(out)
        assert err == "" and out.count("\n") == 1 and record["command"] == argv[0]
        assert "output" not in record or Path(record["output"]).is_file()
    else:
        assert code in KINDS and out == "", (code, out)
        assert err.startswith(f"tdc: {KINDS[code]} error: ") and err.count("\n") == 1, err
        assert files() == before
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    if corrupted_input:
        assert code in (0, 2, 3), err  # a corrupted timeline is an i/o or a numeric fault, never a usage one
    return code, err


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_every_command_line_exits_as_documented(tmp_path, monkeypatch, capsys, argv):
    exits_as_documented(tmp_path, monkeypatch, capsys, argv)


@pytest.mark.parametrize("argv, err_start", CASES, ids=[case_id(argv) for argv, _ in CASES])
def test_each_listed_command_line_exits_as_documented(tmp_path, monkeypatch, capsys, argv, err_start):
    code, err = exits_as_documented(tmp_path, monkeypatch, capsys, argv)
    assert err.startswith(err_start) and (code == 0) == (err_start == ""), err


@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in sorted(SUBCOMMANDS)), ["segment", "-h"]], ids=" ".join)
def test_help_returns_0_with_the_help_text_on_stdout(capsys, argv):
    # --help is the one command line whose stdout is not a JSON record
    assert main(argv) == 0
    out = capsys.readouterr()
    prog = " ".join(["tdc", *argv[:-1]])
    assert out.out.startswith(f"usage: {prog} ") and out.err == ""
