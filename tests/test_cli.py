import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from oracles import raw_lzma2

from padiclearn import nim
from padiclearn.cli import parse_and_dispatch, read_sample_file, write_sample_file
from padiclearn.learner import read_coefficient_rows

SMALL = ["--p", "2", "--E", "6", "--D", "3", "--M", "16"]
# the hint every model body check ends with
EARLIER = (
    "; the file may be a model saved in an earlier layout, to be learned again from its samples"
)


def run(*argv):
    return parse_and_dispatch(list(argv))


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pts.txt"
        pts = np.array([[1, 2, 3], [0, 0, 0]])
        write_sample_file(path, pts)
        assert np.array_equal(read_sample_file(path, 3), pts)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# header\n\n1 2 3\n4 5 1  # trailing note\n")
        assert read_sample_file(path, 3).tolist() == [[1, 2, 3], [4, 5, 1]]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1 2 3\nfoo bar baz\n")
        with pytest.raises(ValueError, match=":2:"):
            read_sample_file(path, 3)

    def test_wrong_width_reports_flag(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="--D"):
            read_sample_file(path, 3)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_sample_file(path, 3)


class TestGenSamples:
    def test_benchmark_scale_line_count(self, tmp_path):
        out = tmp_path / "samples.txt"
        assert run("gen-samples", "--D", "3", "--M", "100", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7984

    def test_stdout_fallback(self, capsys):
        assert run("gen-samples", "--D", "1", "--M", "5") == 0
        assert capsys.readouterr().out.strip() == "0"


class TestPipeline:
    def test_learn_predict_bench(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        report = tmp_path / "report.txt"

        assert run("gen-samples", "--D", "3", "--M", "16", "--out", str(samples)) == 0
        capsys.readouterr()
        assert run("learn", *SMALL, "--in", str(samples), "--out", str(model)) == 0
        err = capsys.readouterr().err
        assert f"model written to {model} ({model.stat().st_size} bytes)\n" in err
        head = model.read_bytes().split(b"\n", 1)[0]
        assert head.split()[:5] == [b"2", b"6", b"3", b"16", b"16"]

        assert run("predict", "--in", str(model), "--point", "1 2 3") == 0
        out = capsys.readouterr().out
        assert "point 1 2 3 residue 0 member true" in out

        assert run("predict", "--in", str(model), "--point", "1 2 4") == 0
        out = capsys.readouterr().out
        assert "member false" in out

        assert (
            run("bench", "--task", "2", "--in", str(model), "--out", str(report)) == 0
        )
        text = report.read_text()
        assert text.startswith("task 2\np 2\nE 6\nD 3\nM 16\nL 16\nseed -\ntrials 4096\n")

    def test_bench_trains_when_no_model(self, tmp_path):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        args = ["bench", *SMALL, "--task", "3", "--trials", "500", "--seed", "11"]
        assert run(*args, "--out", str(r1)) == 0
        assert run(*args, "--out", str(r2)) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_bench_model_matches_inline_training(self, tmp_path):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        ra = tmp_path / "ra.txt"
        rb = tmp_path / "rb.txt"
        assert run("gen-samples", "--D", "3", "--M", "16", "--out", str(samples)) == 0
        assert run("learn", *SMALL, "--in", str(samples), "--out", str(model)) == 0
        assert run("bench", "--task", "2", "--in", str(model), "--out", str(ra)) == 0
        assert run("bench", *SMALL, "--task", "2", "--out", str(rb)) == 0
        assert ra.read_bytes() == rb.read_bytes()

    def test_bench_subsample_mode(self, tmp_path):
        rep = tmp_path / "rep.txt"
        assert (
            run(
                "bench",
                *SMALL,
                "--task",
                "2",
                "--mode",
                "subsample",
                "--sample-size",
                "500",
                "--seed",
                "4",
                "--out",
                str(rep),
            )
            == 0
        )
        assert "mode subsample" in rep.read_text()
        assert "ci95_low" in rep.read_text()

    def test_dump_coeffs(self, tmp_path):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        dump = tmp_path / "coeffs.txt"
        small1 = ["--p", "2", "--E", "3", "--D", "1", "--M", "4"]
        samples.write_text("0\n3\n")
        assert run("learn", *small1, "--in", str(samples), "--out", str(model)) == 0
        assert run("dump-coeffs", "--in", str(model), "--out", str(dump)) == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "2 3 1 4"
        assert len(lines) == 5

    def test_dump_value_column_is_model_body(self, tmp_path):
        rng = np.random.default_rng(12)
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        dump = tmp_path / "coeffs.txt"
        write_sample_file(samples, rng.integers(0, 5, size=(6, 2)))
        flags = ["--p", "3", "--E", "3", "--D", "2", "--M", "5", "--L", "4"]
        assert run("learn", *flags, "--in", str(samples), "--out", str(model)) == 0
        assert run("dump-coeffs", "--in", str(model), "--out", str(dump)) == 0
        head = model.read_bytes().split(b"\n", 1)[0]
        with open(model, "rb") as fh:
            body = read_coefficient_rows(fh)[1].tobytes()
        dump_head, *rows = dump.read_text().splitlines()
        assert head.split()[:5] == [b"3", b"3", b"2", b"5", b"4"]
        assert dump_head == "3 3 2 4"
        # p**E - 1 = 26 fits one byte per value
        values = [str(v) for v in np.frombuffer(body, np.uint8)]
        assert len(values) == 16 and any(v != "0" for v in values)
        assert [r.split()[-1] for r in rows] == values
        idx = [[str(a), str(b)] for a in range(4) for b in range(4)]
        assert [r.split()[:-1] for r in rows] == idx


class TestErrors:
    def test_unknown_command(self, capsys):
        assert run("frobnicate") != 0

    def test_bad_prime(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("0\n")
        code = run(
            "learn", "--p", "4", "--E", "2", "--D", "1", "--M", "2",
            "--in", str(samples), "--out", str(tmp_path / "m.bin"),
        )
        assert code == 1
        assert "prime" in capsys.readouterr().err

    def test_missing_sample_file(self, tmp_path, capsys):
        code = run(
            "learn", *SMALL, "--in", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "m.bin"),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_point(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        small1 = ["--p", "2", "--E", "3", "--D", "1", "--M", "4"]
        samples.write_text("0\n")
        assert run("learn", *small1, "--in", str(samples), "--out", str(model)) == 0
        assert run("predict", "--in", str(model), "--point", "one") == 1
        assert "--point" in capsys.readouterr().err

    def test_point_with_wrong_coordinate_count(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        samples.write_text("0\n")
        flags = ["--p", "2", "--E", "3", "--D", "1", "--M", "4"]
        assert run("learn", *flags, "--in", str(samples), "--out", str(model)) == 0
        assert run("predict", "--in", str(model), "--point", "1 2") == 1
        assert "--point has 2 coordinates, model expects 1" in capsys.readouterr().err

    def test_corrupt_model(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        samples.write_text("0\n3\n")
        flags = ["--p", "2", "--E", "3", "--D", "1", "--M", "4"]
        assert run("learn", *flags, "--in", str(samples), "--out", str(model)) == 0
        head, stream = model.read_bytes().split(b"\n", 1)
        with open(model, "rb") as fh:
            window = read_coefficient_rows(fh)[1].tobytes()
        cases = [
            (stream[:-2], "truncated"),
            (stream + b"\x00", "bytes after"),
            (raw_lzma2(window * 2), "got more" + EARLIER),
            (window, EARLIER),
            (zlib.compress(window), EARLIER),
        ]
        for body, message in cases:
            model.write_bytes(head + b"\n" + body)
            capsys.readouterr()
            assert run("predict", "--in", str(model), "--point", "1") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: model body") and message in err
            assert "Traceback" not in err

    def test_bench_model_with_param_flags(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        model = tmp_path / "model.bin"
        assert run("gen-samples", "--D", "3", "--M", "16", "--out", str(samples)) == 0
        assert run("learn", *SMALL, "--in", str(samples), "--out", str(model)) == 0
        capsys.readouterr()
        # the model fixes its params, so a flag next to --in would be silently ignored
        for flags in (["--p", "3"], ["--L", "8"], SMALL):
            assert run("bench", "--task", "2", "--in", str(model), *flags) == 1
            named = " ".join(f for f in flags if f.startswith("--"))
            err = capsys.readouterr().err
            assert err == f"error: {named} conflict with --in: bench uses the model's params\n"

    def test_gen_samples_box_over_cap(self, monkeypatch, capsys):
        # --D 4 --M 5000 asks for a free box of 5000**3 points; a small cap shows the same path
        monkeypatch.setattr(nim, "MAX_GRID_CELLS", 100)
        assert run("gen-samples", "--D", "3", "--M", "11") == 1
        assert capsys.readouterr().err.startswith("error: the free box (11, 11) exceeds")

    def test_missing_required_flag(self):
        assert run("bench") == 2


class TestEntryPoints:
    def test_module_runs_the_pipeline(self, tmp_path):
        # `python -m padiclearn` goes through __main__.py, as the console script goes
        # through cli.main: their exit codes and streams, not parse_and_dispatch's
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def module(*argv):
            cmd = [sys.executable, "-m", "padiclearn", *argv]
            return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

        samples, model = tmp_path / "samples.txt", tmp_path / "model.bin"
        done = module("gen-samples", "--D", "2", "--M", "8", "--out", str(samples))
        assert done.returncode == 0 and done.stderr == "generated 8 points\n"
        flags = ["--p", "2", "--E", "4", "--D", "2", "--M", "8"]
        done = module("learn", *flags, "--in", str(samples), "--out", str(model))
        assert done.returncode == 0 and f"({model.stat().st_size} bytes)" in done.stderr
        done = module("predict", "--in", str(model), "--point", "3 3")
        assert (done.returncode, done.stdout) == (0, "point 3 3 residue 0 member true\n")
        done = module("predict", "--in", str(model), "--point", "3")
        assert done.returncode == 1 and done.stderr.startswith("error: --point has 1")
