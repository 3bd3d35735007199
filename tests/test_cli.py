"""End-to-end CLI behavior: subcommands, outputs, exit codes."""

import subprocess
import sys

import pytest

import amnocr.cli
import amnocr.core
import oracles
from amnocr import (
    ParallelDivergenceError,
    RecognizerModel,
    build_model,
    format_pct,
    load_manifest,
    recognize,
    write_pattern_text,
    write_sweep_csv,
)
from amnocr.cli import main
from bmpbytes import glyph_index_rows, make_bmp
from helpers import hadamard_rows


def _write_store(tmp_path, order=8):
    rows = hadamard_rows(order)
    labels = [chr(ord("a") + i) for i in range(order)]
    lines = ["label,path"]
    for label, pattern in zip(labels, rows):
        (tmp_path / f"{label}.amnpat").write_text(
            write_pattern_text(pattern, label), encoding="utf-8"
        )
        lines.append(f"{label},{label}.amnpat")
    manifest = tmp_path / "store.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest, labels, rows


# --- ingest ---


def test_ingest_directory(tmp_path, capsys):
    src = tmp_path / "bmp"
    src.mkdir()
    for name in ("A", "B", "C"):
        src.joinpath(f"{name}.bmp").write_bytes(
            make_bmp(glyph_index_rows(6, 5, seed=ord(name)), depth=4)
        )
    out = tmp_path / "pat"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert len(stdout) == 3
    assert stdout[0].startswith("A ") and stdout[0].endswith(" 6x5")
    assert sorted(p.name for p in out.iterdir()) == ["A.amnpat", "B.amnpat", "C.amnpat"]


def test_ingest_reports_corrupt_file_but_continues(tmp_path, capsys):
    src = tmp_path / "bmp"
    src.mkdir()
    good = make_bmp(glyph_index_rows(4, 4, seed=1), depth=4)
    src.joinpath("good1.bmp").write_bytes(good)
    src.joinpath("bad.bmp").write_bytes(good[:20])  # truncated header
    src.joinpath("good2.bmp").write_bytes(good)
    out = tmp_path / "pat"
    assert main(["ingest", str(src), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "bad.bmp" in captured.err
    assert sorted(p.name for p in out.iterdir()) == ["good1.amnpat", "good2.amnpat"]


def test_ingest_same_stem_twice_is_skipped_not_overwritten(tmp_path, capsys):
    first = make_bmp(glyph_index_rows(4, 4, seed=1), depth=4)
    second = make_bmp(glyph_index_rows(4, 4, seed=2), depth=4)
    for name, blob in (("dirA", first), ("dirB", second)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "g.bmp").write_bytes(blob)
    out = tmp_path / "pat"
    argv = ["ingest", str(tmp_path / "dirA"), str(tmp_path / "dirB"), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1
    assert captured.err.startswith(f"error: {tmp_path / 'dirB' / 'g.bmp'}: ")
    assert [p.name for p in out.iterdir()] == ["g.amnpat"]
    written = (out / "g.amnpat").read_text(encoding="utf-8")
    # A file left by an earlier invocation is overwritten, as before.
    assert main(["ingest", str(tmp_path / "dirA"), "--out", str(out)]) == 0
    assert (out / "g.amnpat").read_text(encoding="utf-8") == written


def test_ingest_reports_a_stem_that_cannot_be_a_label_and_continues(tmp_path, capsys):
    src = tmp_path / "bmp"
    src.mkdir()
    blob = make_bmp(glyph_index_rows(4, 4, seed=1), depth=4)
    bad = src / "a\x0cb.bmp"  # a form feed would split the AMNPAT header line
    for path in (bad, src / "good.bmp"):
        path.write_bytes(blob)
    out = tmp_path / "pat"
    assert main(["ingest", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: label must not contain newlines\n"
    assert [p.name for p in out.iterdir()] == ["good.amnpat"]


def test_ingest_named_files(tmp_path, capsys):
    blob = make_bmp(glyph_index_rows(4, 4, seed=1), depth=4)
    for name in ("Q.bmp", "R.img"):  # a named file is read whatever its suffix
        (tmp_path / name).write_bytes(blob)
    out = tmp_path / "d"
    argv = ["ingest", *(str(tmp_path / name) for name in ("Q.bmp", "R.img", "missing.bmp")), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["Q.amnpat", "R.amnpat"]
    assert len(captured.out.splitlines()) == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {tmp_path / 'missing.bmp'}: ")


def test_ingest_empty_directory(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    assert main(["ingest", str(src), "--out", str(tmp_path / "o")]) == 1
    assert "no inputs" in capsys.readouterr().err


# --- recognize ---


def test_recognize_stored_key_ranks_itself_first(tmp_path, capsys):
    manifest, labels, rows = _write_store(tmp_path)
    key = tmp_path / "key.amnpat"
    key.write_text(write_pattern_text(rows[1], "probe"), encoding="utf-8")
    assert main(["recognize", "--store", str(manifest), "--key", str(key)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "b 100.00"
    assert len(lines) == len(labels)


def test_recognize_runs_once_and_prints_the_ranking(tmp_path, capsys, monkeypatch):
    manifest, labels, rows = _write_store(tmp_path)
    key = tmp_path / "key.amnpat"
    key.write_text(write_pattern_text(rows[5], "probe"), encoding="utf-8")
    results = []

    def counted(*args):
        results.append(recognize(*args))
        return results[-1]

    monkeypatch.setattr(amnocr.cli, "recognize", counted)
    assert main(["recognize", "--store", str(manifest), "--key", str(key)]) == 0
    assert len(results) == 1
    expected = "".join(f"{label} {format_pct(score)}\n" for label, score in results[0].ranked())
    assert capsys.readouterr().out == expected


def test_recognize_literal_mode_warns_and_degenerates(tmp_path, capsys):
    manifest, labels, rows = _write_store(tmp_path, order=4)
    key = tmp_path / "key.amnpat"
    key.write_text(write_pattern_text(rows[2], "probe"), encoding="utf-8")
    assert main(["recognize", "--store", str(manifest), "--key", str(key), "--mode", "literal"]) == 0
    captured = capsys.readouterr()
    assert "100.00" in captured.out
    assert all(line.endswith("100.00") for line in captured.out.splitlines())
    assert "literal" in captured.err


def test_recognize_missing_store_is_data_error(tmp_path, capsys):
    key = tmp_path / "key.amnpat"
    key.write_text("AMNPAT 1 1 1 x\n1\n", encoding="utf-8")
    assert main(["recognize", "--store", str(tmp_path / "nope.csv"), "--key", str(key)]) == 1
    assert "error:" in capsys.readouterr().err


def test_recognize_label_with_a_newline_is_data_error(tmp_path, capsys):
    # The label would print as a forged ranking line "Z 100.00".
    _write_store(tmp_path)
    manifest = tmp_path / "forged.csv"
    manifest.write_text('label,path\n"a\nZ 100.00",a.amnpat\n', encoding="utf-8")
    assert main(["recognize", "--store", str(manifest), "--key", str(tmp_path / "a.amnpat")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "forged.csv:3: label must not contain newlines" in captured.err


def test_recognize_dimension_mismatch_is_data_error(tmp_path, capsys):
    manifest, _, _ = _write_store(tmp_path)
    key = tmp_path / "key.amnpat"
    key.write_text("AMNPAT 1 1 1 x\n1\n", encoding="utf-8")
    assert main(["recognize", "--store", str(manifest), "--key", str(key)]) == 1
    assert "dimension mismatch" in capsys.readouterr().err


# --- bench ---


def test_bench_writes_reports_and_summary(tmp_path, capsys):
    manifest, labels, rows = _write_store(tmp_path)
    out = tmp_path / "results"
    code = main(
        [
            "bench",
            "--store", str(manifest),
            "--keys", str(manifest),
            "--runs", "2",
            "--threads", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("report.csv", "matching_levels.csv", "speedup.csv"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert f"keys {len(labels)} runs 2 threads 2 chunk auto" in stdout
    assert "top1_accuracy 1.0000" in stdout
    assert "mean_best_match 100.00" in stdout
    assert "mean_speedup" in stdout


def test_bench_without_key_files_is_data_error(tmp_path, capsys):
    manifest, _, _ = _write_store(tmp_path)
    keys = tmp_path / "keys"
    keys.mkdir()
    assert main(["bench", "--store", str(manifest), "--keys", str(keys), "--out", str(tmp_path / "out")]) == 1
    assert "no .bmp or .amnpat key files" in capsys.readouterr().err


@pytest.mark.parametrize("mode, budget", [("superposed", 255), ("literal", 127), ("literal", 383)])
def test_bench_over_the_weight_budget_exits_1(tmp_path, capsys, monkeypatch, mode, budget):
    # n=4: superposed bench builds W through a float64 product (256 bytes),
    # literal bench starts from zero_weights (128 bytes), then each train_pair
    # holds its argument, a copy and an outer product (384 bytes).
    manifest, _, rows = _write_store(tmp_path, order=4)
    monkeypatch.setattr(amnocr.core, "MAX_WEIGHT_BYTES", budget)
    argv = ["bench", "--store", str(manifest), "--keys", str(manifest), "--mode", mode, "--runs", "1"]
    assert main([*argv, "--out", str(tmp_path / "results")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n=4 needs") and f"budget of {budget} bytes" in err
    assert not (tmp_path / "results").exists()
    key = tmp_path / "a.amnpat"
    assert main(["recognize", "--store", str(manifest), "--key", str(key), "--mode", mode]) == 0


def test_bench_keys_directory(tmp_path, capsys):
    manifest, labels, rows = _write_store(tmp_path, order=4)
    keys_dir = tmp_path / "keys"
    keys_dir.mkdir()
    for label, pattern in zip(labels, rows):
        keys_dir.joinpath(f"{label}.amnpat").write_text(
            write_pattern_text(pattern, label), encoding="utf-8"
        )
    out = tmp_path / "results"
    code = main(
        ["bench", "--store", str(manifest), "--keys", str(keys_dir), "--runs", "1", "--out", str(out)]
    )
    assert code == 0
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(report) == 1 + len(labels)


def test_bench_thread_env_fallback(tmp_path, capsys, monkeypatch):
    manifest, _, _ = _write_store(tmp_path, order=4)
    monkeypatch.setenv("AMN_THREADS", "3")
    out = tmp_path / "results"
    code = main(
        ["bench", "--store", str(manifest), "--keys", str(manifest), "--runs", "1", "--out", str(out)]
    )
    assert code == 0
    assert "threads 3" in capsys.readouterr().out


def test_bench_thread_flag_beats_env(tmp_path, capsys, monkeypatch):
    manifest, _, _ = _write_store(tmp_path, order=4)
    monkeypatch.setenv("AMN_THREADS", "3")
    out = tmp_path / "results"
    code = main(
        [
            "bench",
            "--store", str(manifest),
            "--keys", str(manifest),
            "--runs", "1",
            "--threads", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "threads 2" in capsys.readouterr().out


def test_internal_invariant_breach_exits_3(tmp_path, capsys, monkeypatch):
    manifest, _, _ = _write_store(tmp_path, order=4)

    def explode(*args, **kwargs):
        raise ParallelDivergenceError("injected divergence")

    monkeypatch.setattr(amnocr.cli, "run_benchmark", explode)
    code = main(
        ["bench", "--store", str(manifest), "--keys", str(manifest), "--out", str(tmp_path / "o")]
    )
    assert code == 3
    assert "internal error" in capsys.readouterr().err


# --- noise sweep ---


def test_noise_sweep_writes_csv_and_summary(tmp_path, capsys):
    manifest, _, _ = _write_store(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "noise-sweep",
            "--store", str(manifest),
            "--rates", "0,0.25",
            "--seed", "42",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rate,top1_accuracy,mean_best_match_pct"
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert "rate 0 accuracy 1.0000 mean_match 100.00" in stdout


def test_noise_sweep_requires_seed(tmp_path, capsys):
    manifest, _, _ = _write_store(tmp_path, order=4)
    with pytest.raises(SystemExit) as exc:
        main(["noise-sweep", "--store", str(manifest), "--rates", "0.1"])
    assert exc.value.code == 2


def test_noise_sweep_rejects_bad_rates(tmp_path):
    manifest, _, _ = _write_store(tmp_path, order=4)
    with pytest.raises(SystemExit) as exc:
        main(["noise-sweep", "--store", str(manifest), "--rates", "0.1,7", "--seed", "1"])
    assert exc.value.code == 2


def test_noise_sweep_identical_invocations_identical_csv(tmp_path):
    manifest, _, _ = _write_store(tmp_path, order=4)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(
            ["noise-sweep", "--store", str(manifest), "--rates", "0,0.5", "--seed", "9", "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", ["superposed", "literal"])
def test_noise_sweep_never_builds_the_weight_matrix(tmp_path, monkeypatch, mode):
    # Stands in for a store whose n x n matrix would not fit in memory.
    manifest, _, _ = _write_store(tmp_path)
    model = build_model(load_manifest(manifest), mode)
    expected = write_sweep_csv(oracles.noise_sweep(model, [0.0, 0.25, 0.5], 3), tmp_path / "expected.csv")

    def no_weights(self):
        raise AssertionError("noise-sweep read model.weights")

    monkeypatch.setattr(RecognizerModel, "weights", property(no_weights))
    out = tmp_path / "sweep.csv"
    argv = ["noise-sweep", "--store", str(manifest), "--mode", mode, "--rates", "0,0.25,0.5", "--seed", "3"]
    assert main(argv + ["--runs", "3", "--threads", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


# --- misc ---


def test_bad_flag_values_are_usage_errors(tmp_path):
    manifest, _, _ = _write_store(tmp_path, order=4)
    for argv in (
        ["recognize", "--store", str(manifest), "--key", "k", "--threshold", "300"],
        ["recognize", "--store", str(manifest), "--key", "k", "--runs", "0"],
        ["bench", "--store", str(manifest), "--keys", "k", "--threads", "0"],
        ["noise-sweep", "--store", str(manifest), "--rates", "0.1", "--seed", "-4"],
        ["noise-sweep", "--store", str(manifest), "--rates", "a,b", "--seed", "1"],
        ["noise-sweep", "--store", str(manifest), "--rates", ",", "--seed", "1"],
        ["bench", "--store", str(manifest), "--keys", str(manifest), "--runs", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["recognize", "--key", "k"], ["bench", "--keys", "k"], ["noise-sweep", "--rates", "0.1", "--seed", "1"]],
)
def test_bad_thread_env_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # Rejected while the plan is resolved, before any store is read or thread started.
    monkeypatch.setenv("AMN_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--store", str(tmp_path / "absent.csv")])
    assert exc.value.code == 2
    assert "AMN_THREADS must be a positive integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("env, flag", [(None, "257"), ("257", None)])
def test_thread_count_above_ceiling_is_usage_error(tmp_path, capsys, monkeypatch, env, flag):
    # Rejected while the plan is resolved, before any thread is started.
    monkeypatch.delenv("AMN_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("AMN_THREADS", env)
    argv = ["bench", "--store", str(tmp_path / "absent.csv"), "--keys", "k"]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--threads", flag] if flag else []))
    assert exc.value.code == 2
    assert "must be at most 256" in capsys.readouterr().err


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "amnocr", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "noise-sweep" in proc.stdout
