import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tdc
from tdc.cli import main

from conftest import SIGNALLING_NAN


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


@pytest.mark.parametrize(
    "option",
    ["--noise=nan", "--noise=inf", "--noise=-inf", "--noise=-1", "--dims=0", "--dims=-1",
     # a negative value in exponent or infinity form, as its own argument
     "--noise -1e-3", "--noise -inf",
     # one dim cannot keep planted scenes apart (--dims 1 alone is valid)
     "--boundaries=2 --dims=1",
     # finite, but the generated tokens overflow float32 (the second is the largest float64)
     "--noise=1e300", "--noise=1.7976931348623157e+308"],
)
def test_gen_bad_value_is_one_usage_error_line(capsys, tmp_path, option):
    path = tmp_path / "t.tdcf"
    code, _, err = run(capsys, "gen", "--output", str(path), "--frames", "4", *option.split())
    assert code == 1
    assert err.startswith("tdc: usage error:") and err.count("\n") == 1
    assert ("noise" if "noise" in option else "dim") in err
    assert "argument" not in err  # the value reached its check: the parser did not refuse it as missing
    assert not path.exists()


def test_allocation_the_machine_refuses_is_one_usage_line(capsys, tmp_path):
    # 10**12 frames of 144 visual tokens of dim 8 in float64 is 8 PiB, beyond any
    # x86-64 address space: refused under every overcommit mode, no memory touched;
    # the others have a byte count or a dimension past intp, refused before numpy sees them
    path = tmp_path / "x.tdcf"
    for frames, dims, shape in [
        ("1000000000000", "8", "(1000000000000, 144, 8)"),
        ("100000000000000000", "8", "(100000000000000000, 144, 8)"),
        ("18446744073709551616", "32", "(18446744073709551616, 144, 32)"),
        ("60", "18446744073709551616", "(60, 144, 18446744073709551616)"),
    ]:
        code = main(["gen", "--output", str(path), "--frames", frames, "--dims", dims])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("tdc: usage error:") and captured.err.count("\n") == 1
        assert shape in captured.err
        assert captured.out == ""
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


def test_gradcheck_passes(capsys):
    code, record, _ = run(capsys, "gradcheck", "--seed", "1")
    assert code == 0
    assert record["passed"] is True
    assert record["max_relative_error"] <= 1e-5


# each record's keys after `command`, in order
RECORD_KEYS = {
    "gen --output g.tdcf": "output frames boundaries seed",
    "segment --input t.tdcf": "frames boundaries cut_similarities scene_count scenes",
    "compress --input t.tdcf --output s.tdcs": "output tokens scenes windows provenance_counts",
    "budget --input t.tdcf": "total naive ratio windows per_window",
    "lvcot --input t.tdcf --text q": "spans segment_answers final_prompt final_answer",
    "gradcheck": "seed max_relative_error threshold passed per_tensor",
}


@pytest.mark.parametrize("argv", RECORD_KEYS, ids=lambda argv: argv.split()[0])
def test_record_keys_in_order_with_command_first(capsys, tmp_path, monkeypatch, argv):
    gen_file(capsys, tmp_path, frames=12, boundaries="6")
    monkeypatch.chdir(tmp_path)
    code, record, err = run(capsys, *argv.split())
    assert code == 0, err
    assert list(record) == ["command", *RECORD_KEYS[argv].split()]
    assert record["command"] == argv.split()[0]


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


def test_exit_code_usage(capsys, tmp_path):
    assert main(["frobnicate"]) == 1
    assert main(["gen"]) == 1  # missing required --output
    path = gen_file(capsys, tmp_path, frames=4, boundaries="")
    capsys.readouterr()
    # bad boundary list and an impossible segment count are usage errors too
    assert main(["gen", "--output", str(tmp_path / "x.tdcf"), "--boundaries", "a,b"]) == 1
    assert main(["lvcot", "--input", str(path), "--text", "q", "--segments", "99"]) == 1
    # a negative value in any form that float() reads is the option's value
    capsys.readouterr()
    assert main(["segment", "--input", str(path), "--tau", "-1e-3"]) == 0
    capsys.readouterr()
    assert main(["segment", "--input", str(path), "--tau", "-inf"]) == 1
    assert capsys.readouterr().err == "tdc: usage error: tau must be in [-1, 1], got -inf\n"
    for value in (["--max-segments", "3"], ["-x"]):  # an option name or a word is still no value
        assert main(["segment", "--input", str(path), "--tau", *value]) == 1
        assert capsys.readouterr().err == "tdc: usage error: argument --tau: expected one argument\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen"], "the following arguments are required: --output"),
        (["gen", "--output", "t.tdcf", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["gradcheck", "--unknown"], "unrecognized arguments: --unknown"),
    ],
    ids=["missing", "invalid", "unrecognized"],
)
def test_an_argument_the_parser_refuses_is_its_message_on_one_usage_line(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"tdc: usage error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["gen", "compress", "lvcot", "gradcheck"])
def test_negative_seed_is_one_usage_line(capsys, tmp_path, command):
    path = gen_file(capsys, tmp_path, frames=24, boundaries="8,16")
    out = tmp_path / "out.bin"
    argv = {
        "gen": ["--output", str(out)],
        "compress": ["--input", str(path), "--output", str(out)],
        "lvcot": ["--input", str(path), "--text", "q"],
        "gradcheck": [],
    }[command]
    code = main([command, *argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "tdc: usage error: seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["compress", "lvcot"])
def test_text_that_utf8_cannot_encode_is_one_usage_line(capsys, tmp_path, command):
    # argv decodes the byte 0xff of `--text $'caf\xff'` to the lone surrogate U+DCFF
    path = gen_file(capsys, tmp_path, frames=24, boundaries="8,16")
    out = tmp_path / "s.tdcs"
    argv = [command, "--input", str(path), "--text", "the caf\udcff", "--k", "4"]
    code = main(argv + (["--output", str(out)] if command == "compress" else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "tdc: usage error: instruction word 'caf\\udcff' is not UTF-8 text\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("compress", ["--k", "200000"]),
        ("compress", ["--k", "195", "--query-type", "learned"]),
        ("compress", ["--text", " ".join(["word"] * 257)]),
        ("lvcot", ["--k", "200000"]),
        ("lvcot", ["--text", " ".join(["word"] * 257)]),
    ],
    ids=["compress-k", "compress-learned-k", "compress-text", "lvcot-k", "lvcot-text"],
)
def test_oversized_request_is_one_usage_line_before_any_allocation(capsys, tmp_path, command, extra):
    # 144 visual and 50 audio tokens per frame: avgpool K <= 144, learned K <= 194
    path = gen_file(capsys, tmp_path, frames=24, boundaries="8,16")
    out = tmp_path / "s.tdcs"
    argv = [command, "--input", str(path), *{"compress": ["--output", str(out)], "lvcot": ["--text", "q"]}[command]]
    tracemalloc.start()
    try:
        code = main(argv + extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("tdc: usage error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


@pytest.fixture(scope="module")
def small_timeline(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t.tdcf"
    tdc.write_tdcf(tdc.synth_generate(tdc.SynthSpec(seed=7, frames=24, boundaries=(8, 16), dim=8)), path)
    return path


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["compress", "lvcot"]),
    # each range reaches one step past its valid values on both sides (segments: 1..24 frames)
    window=st.integers(0, 30),
    segments=st.integers(0, 25),
    max_segments=st.integers(0, 30),
    tau=st.floats(-1.01, 1.01) | st.sampled_from([float("nan"), float("inf")]),
    seed=st.integers(-1, 1000),
    words=st.integers(0, 300),  # the cap is 256
)
# a negative seed, which random draws over the whole range rarely reach
@example(command="compress", window=4, segments=3, max_segments=3, tau=0.85, seed=-1, words=3)
@example(command="lvcot", window=4, segments=3, max_segments=3, tau=0.85, seed=-1, words=3)
def test_any_option_values_exit_as_documented(
    capsys, tmp_path, small_timeline, command, window, segments, max_segments, tau, seed, words
):
    # each run prints one JSON record, or is one usage line that writes nothing, within a small memory peak
    out = tmp_path / "s.tdcs"
    out.unlink(missing_ok=True)
    text = " ".join(["where", "is", "the", "ball"][i % 4] for i in range(words))
    argv = [
        command, "--input", str(small_timeline), f"--window={window}", f"--max-segments={max_segments}",
        f"--tau={tau}", f"--seed={seed}", f"--text={text}",
        *{"compress": ["--output", str(out)], "lvcot": [f"--segments={segments}"]}[command],
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == "" and captured.out.count("\n") == 1
        assert json.loads(captured.out)["command"] == command
    else:
        assert code == 1, captured.err
        assert captured.err.startswith("tdc: usage error:") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("query_type, k", [("avgpool", 144), ("learned", 194)])
def test_k_up_to_its_bound_compresses(capsys, tmp_path, query_type, k):
    path = gen_file(capsys, tmp_path, frames=2, boundaries="")
    out = tmp_path / "s.tdcs"
    code, record, err = run(
        capsys, "compress", "--input", str(path), "--output", str(out), "--k", str(k), "--query-type", query_type,
    )
    assert code == 0, err
    assert record["tokens"] == 144 + 50 + 1 + k


def test_exit_code_io(capsys, tmp_path):
    assert main(["segment", "--input", str(tmp_path / "missing.tdcf")]) == 2
    bad = tmp_path / "bad.tdcf"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["segment", "--input", str(bad)]) == 2
    path = gen_file(capsys, tmp_path, frames=4, boundaries="")
    capsys.readouterr()
    truncated = tmp_path / "trunc.tdcf"
    truncated.write_bytes(path.read_bytes()[:-4])
    assert main(["budget", "--input", str(truncated)]) == 2


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


@pytest.mark.parametrize("damage", ["truncated", "bad-magic"])
@pytest.mark.parametrize("command", ["segment", "budget", "compress", "lvcot"])
def test_corrupt_timeline_is_one_io_error_line(capsys, tmp_path, command, damage):
    path = gen_file(capsys, tmp_path, frames=4, boundaries="")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] if damage == "truncated" else b"JUNK" + data[4:])
    out = tmp_path / "s.tdcs"
    extra = {"compress": ["--output", str(out)], "lvcot": ["--text", "q"]}.get(command, [])
    code, _, err = run(capsys, command, "--input", str(path), *extra)
    assert code == 2
    assert err.startswith("tdc: i/o error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, code, kind",
    [
        (b"[1, ", 2, "i/o"),  # malformed JSON
        (b"\xff\xfe", 2, "i/o"),  # not UTF-8
        (b'{"answers": ["A"]}', 1, "usage"),  # JSON, but not a list of strings
    ],
    ids=["malformed-json", "not-utf8", "not-a-list"],
)
def test_lvcot_bad_script_file(capsys, tmp_path, content, code, kind):
    path = gen_file(capsys, tmp_path, frames=9, boundaries="")
    script = tmp_path / "script.json"
    script.write_bytes(content)
    got, _, err = run(
        capsys, "lvcot", "--input", str(path), "--text", "q",
        "--script", str(script),
    )
    assert got == code
    assert err.startswith(f"tdc: {kind} error:") and err.count("\n") == 1


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


def test_exit_code_orchestration(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, frames=9, boundaries="")
    capsys.readouterr()
    script = tmp_path / "short.json"
    script.write_text(json.dumps(["only one"]))
    assert main([
        "lvcot", "--input", str(path), "--text", "q",
        "--script", str(script),
    ]) == 4


def test_single_record_on_stdout(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, frames=8, boundaries="")
    code = main(["segment", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 0
    assert len(out.out.strip().splitlines()) == 1
    json.loads(out.out)
    assert out.err == ""
