"""Exit codes and output of the command line front end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cyclone
import cyclone.cli as cli
from cyclone import Lasso, Verdict, WatchdogTimeout, WorkerStats, WorkStats


def test_gen_then_check_round_trip(tmp_path, capsys):
    path = tmp_path / "a.aut"
    assert cli.main(["gen", "lasso:2:3:acc", "-o", str(path)]) == 0
    assert path.read_text().startswith("states 5\n")
    assert cli.main(["check", str(path), "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CYCLE"
    assert out[1] == "stem: 0 1 2"
    assert out[2] == "cycle: 2 3 4"


def test_gen_to_stdout(capsys):
    assert cli.main(["gen", "lasso:1:1:noacc"]) == 0
    assert capsys.readouterr().out.startswith("states ")


def test_check_reports_no_cycle(capsys):
    assert cli.main(["check", "lasso:2:3:noacc", "--alg", "owcty", "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "NO-CYCLE"


def test_check_parallel_detector_with_color_dump(tmp_path, capsys):
    dump = tmp_path / "colors.csv"
    code = cli.main([
        "check", "lasso:2:3:noacc", "--alg", "lndfs", "--workers", "2",
        "--dump-colors", str(dump),
    ])
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "state,red,blue,dangerous,safe,count"
    assert len(lines) == 6
    # the full-red postcondition shows up in the dump
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_color_dump_needs_a_shared_store(capsys):
    assert cli.main(["check", "lasso:1:1:acc", "--alg", "ndfs", "--dump-colors", "x"]) == 1


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["check"]) == 1
    assert cli.main(["check", "lasso:1:1:acc", "--alg", "bogus"]) == 1
    assert cli.main(["check", "lasso:1:1:acc", "--workers", "many"]) == 1


def test_missing_input_exits_one(capsys):
    assert cli.main(["check", "/no/such/file.aut"]) == 1
    assert "error" in capsys.readouterr().err


def test_sequential_with_workers_exits_one(capsys):
    assert cli.main(["check", "lasso:1:1:acc", "--alg", "ndfs", "--workers", "4"]) == 1


def test_comparator_ignores_workers(capsys):
    assert cli.main(["check", "lasso:1:1:acc", "--alg", "owcty", "--workers", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "CYCLE"


def test_oracle_disagreement_exits_two(monkeypatch, capsys):
    def denier(aut, *args, **kwargs):
        return Verdict(None, WorkStats([WorkerStats()], 0.0))

    monkeypatch.setattr(cli, "execute", denier)
    assert cli.main(["check", "lasso:2:3:acc", "--oracle"]) == 2


def test_invalid_lasso_exits_two_before_printing(monkeypatch, capsys):
    def liar(aut, *args, **kwargs):
        return Verdict(Lasso((0,), (0,), 0), WorkStats([WorkerStats()], 0.0), winner=0)

    monkeypatch.setattr(cyclone, "ndfs", liar)
    assert cli.main(["check", "lasso:2:3:noacc"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid lasso" in err


def test_watchdog_timeout_exits_three(monkeypatch, capsys):
    def hang(aut, *args, **kwargs):
        raise WatchdogTimeout("too slow")

    monkeypatch.setattr(cli, "execute", hang)
    assert cli.main(["check", "lasso:2:3:acc"]) == 3
    assert "timeout" in capsys.readouterr().err


@pytest.mark.parametrize("secs", ["inf", "nan"])
def test_non_finite_timeout_exits_one(capsys, secs):
    assert cli.main(["check", "lasso:2:3:acc", "--timeout", secs]) == 1
    assert f"bad timeout {secs}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "random:10:inf:0.1:1"],
    # the draws run before any deadline exists, so no --timeout could stop
    # a degree far above the state count
    ["check", "random:2:3e6:0.5:1", "--timeout", "0.1"],
])
def test_bad_generator_degree_exits_one(capsys, argv):
    assert cli.main(argv) == 1
    assert "avg_out_degree must be finite and in [0, " in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["inf", "nan"])
def test_non_finite_watchdog_environment_exits_one(monkeypatch, capsys, raw):
    monkeypatch.setenv("CYCLONE_WATCHDOG_SECS", raw)
    assert cli.main(["check", "lasso:2:3:acc"]) == 1
    assert f"CYCLONE_WATCHDOG_SECS {raw!r}" in capsys.readouterr().err


def test_value_error_inside_a_run_is_not_an_input_error(monkeypatch):
    def broken(aut, *args, **kwargs):
        raise ValueError("detector bug")

    monkeypatch.setattr(cli, "execute", broken)
    with pytest.raises(ValueError, match="detector bug"):
        cli.main(["check", "lasso:2:3:acc"])


def test_unwritable_output_exits_one(tmp_path, capsys):
    assert cli.main(["gen", "lasso:1:1:acc", "-o", str(tmp_path / "no" / "such" / "dir")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--workers", "1,x", "invalid literal"),
    ("--workers", ",", "need at least one algorithm and one worker count"),
    ("--algs", ",", "need at least one algorithm and one worker count"),
])
def test_bad_bench_list_exits_one(tmp_path, capsys, flag, value, message):
    assert cli.main(["bench", "lasso:1:1:acc", flag, value, "-o", str(tmp_path / "r.csv")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bench_writes_records_and_aggregates(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    agg = tmp_path / "agg.csv"
    code = cli.main([
        "bench", "lasso:2:3:acc", "random:30:2.0:0.2:1",
        "--algs", "ndfs,swarm,owcty", "--workers", "1,2",
        "--repeats", "2", "--oracle", "-o", str(rec), "--aggregate", str(agg),
    ])
    assert code == 0
    lines = rec.read_text().splitlines()
    assert lines[0].startswith("input,alg,workers,")
    # 2 inputs x (ndfs@1 + swarm@1 + swarm@2 + owcty@1) x 2 repeats
    assert len(lines) == 1 + 16
    assert agg.read_text().splitlines()[0] == "input,alg,workers,runs,mean_wall_s,speedup"


def test_bench_leaves_speedup_empty_for_a_cell_without_a_baseline(tmp_path, capsys):
    agg = tmp_path / "agg.csv"
    code = cli.main(["bench", "lasso:2:3:acc", "--algs", "swarm", "--workers", "2",
                     "-o", str(tmp_path / "rec.csv"), "--aggregate", str(agg)])
    assert code == 0
    header, row = agg.read_text().splitlines()
    assert header == "input,alg,workers,runs,mean_wall_s,speedup"
    cells = row.split(",")
    assert cells[:3] == ["lasso:2:3:acc", "swarm", "2"]
    assert float(cells[4]) > 0
    assert cells[5] == ""


def test_dist_reads_bench_csv_and_plain_files(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    assert cli.main(["bench", "lasso:2:3:acc", "--algs", "ndfs", "--repeats", "3",
                     "-o", str(rec)]) == 0
    capsys.readouterr()
    assert cli.main(["dist", str(rec), "--n", "1,4", "--alg", "ndfs"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("N=1 expected=")
    assert out[1].startswith("N=4 expected=")

    raw = tmp_path / "times.txt"
    raw.write_text("2.0\n4.0\n")
    assert cli.main(["dist", str(raw), "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("N=2 expected=2.5 ")


def test_dist_filters_csv_rows_by_input(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    rec.write_text("input,alg,workers,wall_time_s\na,ndfs,1,2.0\nb,ndfs,1,100.0\na,ndfs,1,4.0\n")
    assert cli.main(["dist", str(rec), "--n", "2", "--input", "a"]) == 0
    assert capsys.readouterr().out.startswith("N=2 expected=2.5 ")
    assert cli.main(["dist", str(rec), "--n", "2", "--input", "b"]) == 0
    assert capsys.readouterr().out.startswith("N=2 expected=100 ")
    assert cli.main(["dist", str(rec), "--input", "c"]) == 1


def test_dist_fits_only_one_worker_rows(tmp_path, capsys):
    # a row at more workers is a race: its wall time is every worker's work
    rec = tmp_path / "rec.csv"
    rec.write_text("input,alg,workers,wall_time_s\na,swarm,1,2.0\na,swarm,4,100.0\na,swarm,1,4.0\n")
    assert cli.main(["dist", str(rec), "--alg", "swarm", "--n", "1,2"]) == 0
    assert capsys.readouterr().out.startswith("N=1 expected=3 ")
    rec.write_text("input,alg,workers,wall_time_s\na,swarm,4,100.0\n")
    assert cli.main(["dist", str(rec), "--alg", "swarm"]) == 1


def test_dist_finds_bench_csv_header_after_blank_lines(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    assert cli.main(["bench", "lasso:2:3:acc", "--algs", "ndfs", "--repeats", "3",
                     "-o", str(rec)]) == 0
    capsys.readouterr()
    assert cli.main(["dist", str(rec), "--n", "1,4"]) == 0
    want = capsys.readouterr().out
    padded = tmp_path / "padded.csv"
    padded.write_text("\n  \n" + rec.read_text())
    assert cli.main(["dist", str(padded), "--n", "1,4"]) == 0
    assert capsys.readouterr().out == want
    # a missing field is reported at its line in the file
    bad = tmp_path / "bad.csv"
    bad.write_text("\ninput,alg,workers\nx,ndfs,1\n")
    assert cli.main(["dist", str(bad), "--n", "2"]) == 1
    assert "line 3: no wall_time_s field" in capsys.readouterr().err


def test_dist_skips_comments_in_plain_files(tmp_path, capsys):
    raw = tmp_path / "times.txt"
    raw.write_text("# wall times in seconds\n2.0\n4.0  # slow run\n")
    assert cli.main(["dist", str(raw), "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("N=2 expected=2.5 ")


def test_dist_writes_model_table_csv(tmp_path, capsys):
    raw = tmp_path / "times.txt"
    raw.write_text("2.0\n4.0\n")
    out = tmp_path / "model.csv"
    assert cli.main(["dist", str(raw), "--n", "1,2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,expected_min,stddev,speedup"
    assert lines[1].startswith("1,3,")
    assert lines[2].startswith("2,2.5,")
    # speedup column for n=2 is em(1)/em(2) = 3/2.5
    assert lines[2].endswith(",1.2")


def test_dist_of_large_finite_samples_prints_a_finite_stddev(tmp_path, capsys):
    raw = tmp_path / "times.txt"
    raw.write_text("1e200\n0\n")
    assert cli.main(["dist", str(raw), "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert float(re.search(r" stddev=(\S+) ", out)[1]) == pytest.approx(5e199)
    assert out.endswith(" speedup=1\n")


@pytest.mark.parametrize("text, stdout, row", [
    # before g-style figures, 1e200 printed as a 201-digit integer and
    # 1e-9 as 0.000000
    ("1e200\n0\n", "N=1 expected=5e+199 stddev=5e+199 speedup=1\n", "1,5e+199,5e+199,1"),
    ("1e-9\n3e-9\n", "N=1 expected=2e-09 stddev=1e-09 speedup=1\n", "1,2e-09,1e-09,1"),
])
def test_dist_prints_huge_and_tiny_figures_in_few_digits(tmp_path, capsys, text, stdout, row):
    raw = tmp_path / "times.txt"
    raw.write_text(text)
    table = tmp_path / "model.csv"
    assert cli.main(["dist", str(raw), "--n", "1", "-o", str(table)]) == 0
    assert capsys.readouterr().out == stdout
    assert table.read_text().splitlines() == ["n,expected_min,stddev,speedup", row]


@pytest.mark.parametrize("text, ns, message", [
    ("2.0\n-1.0\n", "2", "bad sample"),
    ("2.0\nslow\n", "2", "could not convert"),
    ("input,alg,workers\nx,ndfs,1\n", "2", "no wall_time_s field"),
    ("2.0\n4.0\n", "1,x", "invalid literal"),
    ("2.0\n4.0\n", "0", "swarm sizes must be >= 1"),
    ("2.0\n4.0\n", ",", "need at least one swarm size"),
    ("0\n0.0\n", "1,2", "error: expected minimum is zero"),
    # nonzero samples, but the expected minimum underflows at N=500
    ("0 0 0 0 1\n", "1,500", "error: expected minimum is zero at N=500"),
])
def test_dist_rejects_bad_samples_and_sizes(tmp_path, capsys, text, ns, message):
    raw = tmp_path / "times.txt"
    raw.write_text(text)
    assert cli.main(["dist", str(raw), "--n", ns]) == 1
    assert message in capsys.readouterr().err


def test_dist_with_no_matching_rows_exits_one(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    assert cli.main(["bench", "lasso:2:3:acc", "--algs", "ndfs", "-o", str(rec)]) == 0
    capsys.readouterr()
    assert cli.main(["dist", str(rec), "--alg", "lndfs"]) == 1


def test_overlong_id_exits_one_with_its_line(tmp_path, capsys):
    path = tmp_path / "long.aut"
    path.write_text("states 2\ninit 0\naccepting\ntrans 0 " + "0" * 5000 + "\n")
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: target state")
    assert "Traceback" not in err and len(err.splitlines()) == 1


_ENTRY = "from cyclone.cli import entry; entry()"


def test_the_console_script_exits_with_mains_code(tmp_path):
    # entry is the cyclone script of pyproject.toml
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def run(*args):
        return subprocess.run([sys.executable, "-c", _ENTRY, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    found = run("check", "lasso:2:3:acc", "--oracle")
    assert found.returncode == 0 and found.stdout.splitlines()[0] == "CYCLE"
    missing = run("check", "no-such-file.aut")
    assert missing.returncode == 1 and missing.stderr.startswith("error: ")
