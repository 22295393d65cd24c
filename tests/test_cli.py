import json

import numpy as np
import pytest

import tdc
from tdc.cli import main


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


def test_gradcheck_passes(capsys):
    code, record, _ = run(capsys, "gradcheck", "--seed", "1")
    assert code == 0
    assert record["passed"] is True
    assert record["max_relative_error"] <= 1e-5


def test_lvcot_with_mock_script(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, frames=90, boundaries="30,60")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["A", "B", "C", "D"]))
    code, record, _ = run(
        capsys, "lvcot", "--input", str(path), "--text", "who wins?",
        "--answerer", "mock", "--script", str(script),
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_segment_nonfinite_descriptor_is_numeric(capsys, tmp_path, bad):
    desc = np.ones((5, 4), dtype=np.float32)
    desc[3, 1] = bad
    tl = tdc.VideoTimeline(np.ones((5, 2, 4), dtype=np.float32), np.ones((5, 1, 4), dtype=np.float32), desc)
    path = tmp_path / "nonfinite.tdcf"
    tdc.write_tdcf(tl, path)
    code, _, err = run(capsys, "segment", "--input", str(path))
    assert code == 3
    assert "not finite" in err and "frame 3" in err


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
        "--answerer", "mock", "--script", str(script),
    ]) == 4


def test_single_record_on_stdout(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, frames=8, boundaries="")
    code = main(["segment", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 0
    assert len(out.out.strip().splitlines()) == 1
    json.loads(out.out)
    assert out.err == ""
