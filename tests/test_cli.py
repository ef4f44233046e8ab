import argparse
import ast
import dataclasses
import importlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from regimelab import cli, nullmodels
from regimelab.cli import _models, build_parser, config_from_args, main
from regimelab.dataio import load_price_csv, write_table
from regimelab.econometrics import depth_regression
from regimelab.episodes import detect_episodes
from regimelab.intermediary import IntermediaryConfig, simulate, to_monthly_table
from regimelab.nullmodels import MODELS, GbmParams, NullSpec, simulate_path, usable_cpus

from conftest import read_table, subprocess_env


def write_price_csv(path, closes, start="1990-01-02"):
    dates = np.datetime64(start, "D") + np.arange(len(closes))
    lines = ["date,close"] + [f"{d},{float(c)!r}" for d, c in zip(dates, closes)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def gbm_csv(tmp_path):
    spec = NullSpec("gbm", GbmParams(), n_days=4_000, n_paths=1, seed=12)
    return write_price_csv(tmp_path / "sp.csv", simulate_path(spec, 0).closes)


class TestHeadlineCmd:
    def test_synthetic_seed7(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(["headline", "--synthetic", "--seed", "7", "--out", str(out)])
        assert rc == 0
        rows = read_table(out / "headline.csv")
        by = {r["coef"]: r for r in rows}
        assert by["b_S"]["estimate"] < 0
        assert by["b_S"]["p"] < 0.05
        assert (out / "sweeps.csv").exists()
        assert (out / "panel.csv").exists()
        assert "EMA detrending" in capsys.readouterr().out

    def test_missing_panel_names_schema(self, tmp_path, capsys):
        rc = main(["headline", "--data-dir", str(tmp_path), "--out", str(tmp_path / "r")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "month,margin_debt,vix" in err

    def test_env_var_data_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REGIMELAB_DATA_DIR", str(tmp_path / "nowhere"))
        rc = main(["headline", "--out", str(tmp_path / "r")])
        assert rc != 0
        assert "nowhere" in capsys.readouterr().err

    def test_empty_env_var_data_dir_is_unset(self, tmp_path, capsys, monkeypatch):
        # an empty value would otherwise make the current directory the data directory
        monkeypatch.setenv("REGIMELAB_DATA_DIR", "")
        monkeypatch.chdir(tmp_path)
        assert main(["headline", "--out", "r"]) == 1
        assert "monthly panel not found: data/finra_vix_monthly.csv" in capsys.readouterr().err

    def test_monthly_file_gives_the_synthetic_tables(self, tmp_path):
        # the synthetic panel, written with full-precision floats, reads back unchanged
        cfg = cli.RunConfig()
        table = to_monthly_table(simulate(IntermediaryConfig(n_agents=cfg.agents, T=cfg.periods, seed=cfg.seed)))
        f = tmp_path / "monthly.csv"
        f.write_text("\n".join(["month,margin_debt,vix"] + [
            f"{m},{float(a)!r},{float(v)!r}" for m, a, v in zip(table.months, table.margin_debt, table.vol_proxy)
        ]) + "\n")
        assert main(["headline", "--monthly", str(f), "--out", str(tmp_path / "file")]) == 0
        assert main(["headline", "--synthetic", "--out", str(tmp_path / "synth")]) == 0
        for stem in ("headline", "sweeps", "panel"):
            got = (tmp_path / "file" / f"{stem}.csv").read_bytes()
            assert got == (tmp_path / "synth" / f"{stem}.csv").read_bytes()


class TestEpisodesCmd:
    def test_episode_tables_written(self, tmp_path, gbm_csv):
        out = tmp_path / "res"
        rc = main(["episodes", "--prices", str(gbm_csv), "--out", str(out),
                   "--bootstrap-b", "300"])
        assert rc == 0
        eps = read_table(out / "episodes.csv")
        assert list(eps[0].keys()) == [
            "peak_date", "trough_date", "recovery_date", "depth", "dd_days",
            "rec_days", "retention", "tau", "censored",
        ]
        buckets = read_table(out / "buckets.csv")
        assert [r["bucket"] for r in buckets] == ["5-10%", "10-20%", "20-30%", ">30%", "all"]
        sens = read_table(out / "delta_sensitivity.csv")
        assert [r["delta"] for r in sens] == [0.03, 0.05, 0.1]
        assert (out / "volseries.csv").exists()

    def test_bucket_columns(self, tmp_path, gbm_csv):
        # BucketRow's field order is the buckets table's column order, in both formats
        columns = ["bucket", "n", "median_retention", "median_dd_days", "median_tau", "ci_low", "ci_high"]
        for fmt in ("csv", "json"):
            rc = main(["episodes", "--prices", str(gbm_csv), "--out", str(tmp_path / fmt),
                       "--format", fmt, "--bootstrap-b", "50"])
            assert rc == 0
        assert (tmp_path / "csv/buckets.csv").read_text().splitlines()[0] == ",".join(columns)
        rows = json.loads((tmp_path / "json/buckets.json").read_text())
        assert [list(r) for r in rows] == [columns] * 5

    @pytest.mark.parametrize("b", ["0", "-2"])
    def test_bootstrap_b_below_one(self, tmp_path, gbm_csv, capsys, b):
        out = tmp_path / "res"
        rc = main(["episodes", "--prices", str(gbm_csv), "--out", str(out), "--bootstrap-b", b])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bootstrap_B must be >= 1" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    # one 10% episode, but 25 closes give 4 realized-vol values, too few to classify
    SHORT = [100, 90, 101] + [101 + 0.5 * i for i in range(1, 23)]

    def test_short_series_writes_nothing(self, tmp_path, capsys):
        f = write_price_csv(tmp_path / "p.csv", self.SHORT)
        out = tmp_path / "res"
        rc = main(["episodes", "--prices", str(f), "--out", str(out), "--bootstrap-b", "50"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: need at least 10 observations to classify"]
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_missing_prices(self, tmp_path, capsys):
        rc = main(["episodes", "--data-dir", str(tmp_path), "--out", str(tmp_path / "r")])
        assert rc != 0
        assert "date,close" in capsys.readouterr().err

    def test_no_episode_at_delta(self, tmp_path, gbm_csv, capsys):
        out = tmp_path / "res"
        rc = main(["episodes", "--prices", str(gbm_csv), "--out", str(out), "--delta", "0.9"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["no episodes with depth >= 0.9"]
        assert not out.exists()


class TestR3Cmd:
    def test_full_outputs(self, tmp_path, gbm_csv):
        out = tmp_path / "res"
        rc = main(["r3", "--prices", str(gbm_csv), "--out", str(out)])
        assert rc == 0
        depth_rows = read_table(out / "r3_depth.csv")
        assert {r["variant"] for r in depth_rows} == {"full"}
        cox = read_table(out / "cox.csv")[0]
        assert list(cox.keys()) == ["gamma", "se", "z", "p", "hr_per_10pp", "n_events", "n_censored"]

    def test_excludes_the_1980_11_peak(self, tmp_path, gbm_csv):
        # the same closes, dated so that one completed episode peaks on 1980-11-15
        base = load_price_csv(gbm_csv)
        peak = detect_episodes(base, 0.05)[14].peak_idx
        f = write_price_csv(tmp_path / "p.csv", base.closes, start=str(np.datetime64("1980-11-15") - peak))
        path = load_price_csv(f)
        completed = [e for e in detect_episodes(path, 0.05, allow_censored=True) if not e.censored]
        others = [e for e in completed if not str(path.dates[e.peak_idx]).startswith("1980-11")]
        assert len(others) == len(completed) - 1
        out = tmp_path / "res"
        assert main(["r3", "--prices", str(f), "--out", str(out)]) == 0
        want = tmp_path / "want.csv"
        write_table([{"variant": "excl_1980-11", **r} for r in depth_regression(others).rows()], want)
        rows = read_table(out / "r3_depth.csv")
        assert [r for r in rows if r["variant"] == "excl_1980-11"] == read_table(want)
        assert [r["variant"] for r in rows] == ["full"] * 2 + ["excl_1980-11"] * 2

    def test_series_ending_on_open_trough(self, tmp_path):
        # the censored episode's duration last_idx - trough_idx is 0
        # 3 completed episodes support at most 2 Newey-West lags
        f = write_price_csv(tmp_path / "p.csv", [100, 90, 101, 80, 102, 70, 103, 95, 90])
        out = tmp_path / "res"
        rc = main(["r3", "--prices", str(f), "--out", str(out), "--lags", "2"])
        assert rc == 0
        cox = read_table(out / "cox.csv")[0]
        assert (cox["n_events"], cox["n_censored"]) == (3, 1)

    # three completed episodes whose Cox partial likelihood is monotone (perfect separation)
    FLAT_TROUGHS = [100, 90, 90, 90, 90, 101, 80, 80, 102, 70, 103]

    def test_lags_not_below_episode_count_fails(self, tmp_path, capsys):
        f = write_price_csv(tmp_path / "p.csv", self.FLAT_TROUGHS)
        out = tmp_path / "res"
        rc = main(["r3", "--prices", str(f), "--out", str(out)])
        assert rc == 1
        assert "lags (6) must be >= 0 and below the number of observations (3)" in capsys.readouterr().err
        assert not out.exists()

    def test_cox_failure_writes_no_table(self, tmp_path, capsys):
        f = write_price_csv(tmp_path / "p.csv", self.FLAT_TROUGHS)
        out = tmp_path / "res"
        rc = main(["r3", "--prices", str(f), "--out", str(out), "--lags", "1"])
        assert rc == 1
        assert "perfect separation" in capsys.readouterr().err
        assert not out.exists()

    def test_aborts_on_single_episode(self, tmp_path, capsys):
        down = np.linspace(100, 70, 51)
        up = np.linspace(70, 100, 151)
        f = write_price_csv(tmp_path / "tri.csv", np.concatenate([down, up[1:]]))
        out = tmp_path / "res"
        rc_eps = main(["episodes", "--prices", str(f), "--out", str(out), "--bootstrap-b", "100"])
        assert rc_eps == 0
        assert len(read_table(out / "episodes.csv")) == 1
        r3_out = tmp_path / "r3"
        rc = main(["r3", "--prices", str(f), "--out", str(r3_out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: need >= 3 completed episodes, found 1"]
        assert not r3_out.exists()


class TestNullsCmd:
    def test_single_model_row(self, tmp_path):
        out = tmp_path / "res"
        rc = main(["nulls", "--models", "gbm", "--paths", "8", "--days", "1200",
                   "--out", str(out), "--data-dir", str(tmp_path)])
        assert rc == 0
        rows = read_table(out / "nulls.csv")
        assert len(rows) == 1
        assert list(rows[0].keys()) == [
            "model", "n_accepted", "n_zero_episode", "median_tau", "q05", "q95",
            "p_one_sided", "comparator",
        ]
        assert rows[0]["comparator"] == 1.35

    def test_seed_repeat_identical_bytes(self, tmp_path):
        args = ["nulls", "--models", "gbm,markov_rs", "--paths", "6", "--days", "1000",
                "--seed", "4", "--data-dir", str(tmp_path)]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a/nulls.csv").read_bytes() == (tmp_path / "b/nulls.csv").read_bytes()

    def test_block_bootstrap_needs_prices(self, tmp_path, capsys):
        rc = main(["nulls", "--models", "block_bootstrap", "--paths", "4", "--days", "900",
                   "--out", str(tmp_path / "r"), "--data-dir", str(tmp_path)])
        assert rc != 0
        assert "price CSV" in capsys.readouterr().err

    def test_block_bootstrap_with_prices(self, tmp_path, gbm_csv):
        out = tmp_path / "res"
        rc = main(["nulls", "--models", "block_bootstrap", "--paths", "4", "--days", "900",
                   "--prices", str(gbm_csv), "--out", str(out)])
        assert rc == 0
        assert read_table(out / "nulls.csv")[0]["model"] == "block_bootstrap"

    def test_unknown_model(self, tmp_path, capsys):
        rc = main(["nulls", "--models", "garch", "--out", str(tmp_path / "r"),
                   "--data-dir", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize("models,repeated", [
        ("gbm,gbm", ["gbm"]),
        ("heston,gbm,heston,gbm,heston", ["heston", "gbm"]),
    ])
    def test_repeated_model(self, tmp_path, capsys, models, repeated):
        # each study would run again and write an identical row
        out = tmp_path / "r"
        rc = main(["nulls", "--models", models, "--paths", "4", "--days", "300", "--out", str(out),
                   "--data-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --models: repeated models {repeated}; name each model once"
        ]
        assert not out.exists()

    def test_negative_seed_names_field(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = main(["nulls", "--models", "gbm", "--seed", "-1", "--out", str(out),
                   "--data-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0"]
        assert not out.exists()


    @pytest.mark.parametrize("comparator", ["nan", "inf", "0"])
    def test_comparator_not_positive_finite(self, tmp_path, capsys, comparator):
        out = tmp_path / "r"
        rc = main(["nulls", "--models", "gbm", "--paths", "4", "--days", "300", "--comparator", comparator,
                   "--out", str(out), "--data-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: comparator must be positive and finite, got {float(comparator)}"
        ]
        assert not out.exists()

    # the worker that runs the first slice exits at once, as one killed by the OOM killer would
    DYING_WORKER = """\
import os, sys
from regimelab import cli, nullmodels

run_slice = nullmodels._run_slice

def dying_slice(spec, start, stop):
    if start == 0:
        os._exit(1)
    return run_slice(spec, start, stop)

nullmodels._run_slice = dying_slice
nullmodels.usable_cpus = lambda: 2
nullmodels.STEPS_PER_PROCESS = 1  # a pool, however small the study
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool needs fork")
    @pytest.mark.parametrize("command", ["nulls", "run-all"])
    def test_dead_worker_fails_the_command(self, tmp_path, command):
        # a pool that waits for the lost slice forever is killed at the timeout, and the test fails
        env = subprocess_env()
        proc = subprocess.Popen(
            [sys.executable, "-c", self.DYING_WORKER, command, "--models", "gbm", "--paths", "8",
             "--days", "300", "--out", "res", "--data-dir", "none"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool's workers
            proc.communicate()
            pytest.fail(f"{command} still ran 60 s after a worker died")
        assert proc.returncode == 1
        reason = "a null-study worker process died before finishing its slice"
        if command == "nulls":
            assert err.splitlines() == [f"error: {reason}"]
            assert not (tmp_path / "res").exists()
        else:
            assert err.splitlines() == [f"nulls: {reason}", "error: 1 sub-command(s) failed"]
            assert "NOT ESTIMATED" in out  # cot still ran
            assert sorted(p.name for p in (tmp_path / "res").iterdir()) == ["headline.csv", "panel.csv", "sweeps.csv"]

    # each worker leaves a file named after its pid when it starts its first slice
    BUSY_WORKERS = """\
import os, sys
from regimelab import cli, nullmodels

run_slice = nullmodels._run_slice

def marked_slice(spec, start, stop):
    open(f"busy-{os.getpid()}", "w").close()
    return run_slice(spec, start, stop)

nullmodels._run_slice = marked_slice
nullmodels.usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""

    def interrupt(self, tmp_path, command, kill):
        """Start `command` on 2 workers in a new session, wait until both workers have
        started a slice, then call kill(pid); the seconds until the command ended."""
        # 5,000-path Heston slices of 19,170 days run for about 5 s; a worker
        # that survives the signal finishes its slice before the command can end
        env = subprocess_env()
        proc = subprocess.Popen(
            [sys.executable, "-c", self.BUSY_WORKERS, command, "--models", "heston", "--paths", "40000",
             "--days", "19170", "--out", "res", "--data-dir", "none"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("busy-*"))) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert proc.poll() is None, f"{command} ended before both workers started"
            assert time.monotonic() < deadline, "the workers did not start within 60 s"
            kill(proc.pid)
            sent = time.monotonic()
            proc.communicate(timeout=60)
            elapsed = time.monotonic() - sent
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool's workers
                proc.communicate()
        assert proc.returncode != 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process is left in the command's group
        return elapsed

    @pytest.mark.skipif(not hasattr(os, "fork") or usable_cpus() < 2,
                        reason="the worker pool needs fork and two usable CPUs")
    def test_ctrl_c_ends_the_workers(self, tmp_path):
        # what Ctrl-C in a terminal sends: SIGINT to the whole process group
        elapsed = self.interrupt(tmp_path, "nulls", lambda pid: os.killpg(pid, signal.SIGINT))
        assert elapsed < 1.5, f"nulls ran on {elapsed:.2f} s after Ctrl-C"
        assert not (tmp_path / "res").exists()

    @pytest.mark.skipif(not hasattr(os, "fork") or usable_cpus() < 2,
                        reason="the worker pool needs fork and two usable CPUs")
    @pytest.mark.parametrize("command", ["nulls", "run-all"])
    def test_sigint_to_the_command_alone_ends_the_workers(self, tmp_path, command):
        # kill -INT <pid>: the workers never see the signal, so the command must end them
        elapsed = self.interrupt(tmp_path, command, lambda pid: os.kill(pid, signal.SIGINT))
        assert elapsed < 1.5, f"{command} ran on {elapsed:.2f} s after SIGINT"
        assert not (tmp_path / "res/nulls.csv").exists()

    @pytest.mark.parametrize("models", ["", ","])
    def test_no_model_names_flag(self, tmp_path, capsys, models):
        out = tmp_path / "r"
        rc = main(["nulls", "--models", models, "--out", str(out), "--data-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--models" in err and "gbm,asym_vol,heston,markov_rs,block_bootstrap" in err
        assert not out.exists()

    # the CLI with a pool for studies of any size; each worker that runs a slice leaves a file named after its pid
    ANY_SIZE_POOL = """\
import os, sys
from regimelab import cli, nullmodels

parent, run_slice = os.getpid(), nullmodels._run_slice

def marked_slice(spec, start, stop):
    if os.getpid() != parent:
        open(f"worker-{os.getpid()}", "w").close()
    return run_slice(spec, start, stop)

nullmodels._run_slice = marked_slice
nullmodels.STEPS_PER_PROCESS = 1
sys.exit(cli.main(sys.argv[1:]))
"""

    @classmethod
    def pooled_and_pinned(cls, tmp_path, argv, env):
        """(output, {table: bytes}) of `regimelab <argv>` on every usable CPU with a pool
        for studies of any size, then of `python -m regimelab.cli <argv>` pinned to one
        CPU, where it runs in-process; stdout and stderr share one file. Last, the
        number of worker processes that ran a slice in the first run."""
        one_cpu = {min(os.sched_getaffinity(0))}
        got = []
        for entry, pin in ((["-c", cls.ANY_SIZE_POOL], None),
                           (["-m", "regimelab.cli"], lambda: os.sched_setaffinity(0, one_cpu))):
            out, log = tmp_path / "res", tmp_path / "output.txt"
            shutil.rmtree(out, ignore_errors=True)
            with open(log, "wb") as f:
                subprocess.run([sys.executable, *entry, *argv, "--out", "res"], cwd=tmp_path,
                               env=env, stdout=f, stderr=subprocess.STDOUT, timeout=120, preexec_fn=pin)
            tables = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            got.append((log.read_bytes(), tables))
        return (*got, len(list(tmp_path.glob("worker-*"))))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or usable_cpus() < 2,
                        reason="needs two usable CPUs and a settable CPU affinity")
    def test_pool_and_serial_same_bytes(self, tmp_path):
        # stdout goes to a file, so it is block-buffered: a forked worker that
        # inherits an unflushed buffer (the block_bootstrap note) would print it again
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        pooled, pinned, workers = self.pooled_and_pinned(
            tmp_path, ["nulls", "--paths", "12", "--days", "700", "--data-dir", "none"], env)
        assert workers > 0
        assert pooled == pinned
        assert pooled[0].count(b"note: block_bootstrap skipped") == 1
        assert list(pooled[1]) == ["nulls.csv"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or usable_cpus() < 2,
                        reason="needs two usable CPUs and a settable CPU affinity")
    @pytest.mark.parametrize("flags,damage,failure", [
        ((), None, None),
        ((), "unsorted", None),
        (("--models", "gbm,garch"), None,
         "nulls: --models: unknown models ['garch']; choose from " + ",".join(MODELS)),
        (("--comparator", "0"), None, "nulls: comparator must be positive and finite, got 0.0"),
        ((), "unreadable", "run-all: prices.csv: not UTF-8 text"),
    ], ids=["complete", "unsorted-prices", "unknown-model", "comparator-0", "unreadable-prices"])
    def test_run_all_pool_and_serial_same_bytes(self, tmp_path, gbm_csv, flags, damage, failure):
        # with workers, run-all starts the null studies once it has parsed the price
        # file, and when pinned it runs them at the nulls step; unbuffered, the shared
        # file shows the order of the writes, and a failure is reported where its step runs
        env = subprocess_env(PYTHONUNBUFFERED="1")
        lines = gbm_csv.read_bytes().splitlines(keepends=True)
        if damage == "unsorted":
            lines[200], lines[201] = lines[201], lines[200]
        elif damage == "unreadable":
            lines[200] = lines[200].replace(b",", b",\xff", 1)
        # relative to the command's working directory, so the messages name it alike
        (tmp_path / "prices.csv").write_bytes(b"".join(lines))
        argv = ["run-all", "--prices", "prices.csv", "--data-dir", "none", "--models", "gbm,block_bootstrap",
                "--paths", "12", "--days", "700", "--periods", "240", "--agents", "20",
                "--bootstrap-b", "50", *flags]
        pooled, pinned, workers = self.pooled_and_pinned(tmp_path, argv, env)
        assert (workers > 0) == (failure is None)  # each failure here comes before the pool would start
        assert pooled == pinned
        lines = pooled[0].decode().splitlines()
        if failure is None:
            assert lines[-1] == "run-all: complete"
            assert sorted(pooled[1]) == sorted(f"{stem}.csv" for stem in (
                "headline", "sweeps", "panel", "episodes", "buckets", "delta_sensitivity", "volseries",
                "r3_depth", "cox", "nulls"))
            if damage == "unsorted":  # the parse warns after headline's output, before episodes'
                warned = next(i for i, line in enumerate(lines) if "1 out-of-order rows were sorted" in line)
                assert lines.index("wrote res/panel.csv") < warned < lines.index("wrote res/episodes.csv")
            return
        first = lines.index(failure)
        # headline's output comes first, then r3's (none from an unreadable price file)
        assert all(f"wrote res/{stem}.csv" in lines[:first] for stem in ("headline", "sweeps", "panel"))
        assert ("wrote res/cox.csv" in lines[:first]) == failure.startswith("nulls: ")
        assert lines[-1].startswith("error: ")
        assert "nulls.csv" not in pooled[1]


class TestCotCmd:
    def test_reports_not_estimated(self, capsys, tmp_path):
        rc = main(["cot", "--out", str(tmp_path / "r")])
        assert rc == 0
        msg = capsys.readouterr().out
        assert "NOT ESTIMATED" in msg
        assert "period,exposure,vol" in msg
        assert "stress x lagged level" in msg

    def test_companion_run_on_supplied_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        n = 120
        periods = [str(np.datetime64("2006-09-15") + 7 * i) for i in range(n)]
        vol = 15 + 8 * rng.random(n)
        expo = 100 * np.exp(0.002 * np.arange(n)) * (1 + 0.05 * rng.standard_normal(n))
        lines = ["period,exposure,vol"] + [
            f"{p},{float(e)!r},{float(v)!r}" for p, e, v in zip(periods, expo, vol)
        ]
        f = tmp_path / "cot.csv"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "res"
        rc = main(["cot", "--input", str(f), "--out", str(out)])
        assert rc == 0
        assert "companion - not a paper claim" in capsys.readouterr().out
        assert (out / "cot_companion.csv").exists()


    def test_nan_exposure_names_row(self, tmp_path, capsys):
        vol = 15 + 8 * np.random.default_rng(2).random(60)
        lines = ["period,exposure,vol"] + [
            f"{np.datetime64('2006-09-15') + 7 * i},{100.0 + i},{float(v)!r}" for i, v in enumerate(vol)
        ]
        lines[6] = lines[6].replace(",105.0,", ",nan,")
        f = tmp_path / "cot.csv"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "res"
        rc = main(["cot", "--input", str(f), "--out", str(out)])
        assert rc == 1
        assert "row 7: bad exposure 'nan'" in capsys.readouterr().err
        assert not (out / "cot_companion.csv").exists()


class TestSimulateIntermediaryCmd:
    def test_panel_schema(self, tmp_path):
        out = tmp_path / "res"
        rc = main(["simulate-intermediary", "--periods", "24", "--agents", "5",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_table(out / "intermediary_panel.csv")
        assert len(rows) == 24
        assert list(rows[0].keys()) == ["t", "vol", "regime", "aggregate_exposure", "price"]

    @pytest.mark.parametrize("command", [["simulate-intermediary"], ["headline", "--synthetic"]])
    def test_meaningless_panel_writes_nothing(self, tmp_path, capsys, command):
        # one agent at seed 1306: its capital, so the aggregate, turns negative at t=240
        out = tmp_path / "res"
        rc = main([*command, "--agents", "1", "--periods", "780", "--seed", "1306",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: simulated aggregate exposure is -0.00395812 at t=240; "
            "price and aggregate exposure must stay positive and finite"
        ]
        assert not out.exists()


class TestRunAll:
    def test_data_free_run(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(["run-all", "--data-dir", str(tmp_path / "missing"), "--out", str(out),
                   "--models", "gbm", "--paths", "5", "--days", "1000", "--seed", "2",
                   "--periods", "240", "--agents", "20"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "data-conditional checks skipped" in text
        assert (out / "headline.csv").exists()
        assert (out / "nulls.csv").exists()

    def test_with_price_data(self, tmp_path, gbm_csv):
        out = tmp_path / "res"
        rc = main(["run-all", "--prices", str(gbm_csv), "--data-dir", str(tmp_path / "missing"),
                   "--out", str(out), "--models", "gbm", "--paths", "4", "--days", "1000",
                   "--periods", "240", "--agents", "20", "--bootstrap-b", "200"])
        assert rc == 0
        for stem in ("headline", "episodes", "buckets", "r3_depth", "cox", "nulls"):
            assert (out / f"{stem}.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the worker pool needs fork")
    @pytest.mark.parametrize("with_prices", [True, False], ids=["prices", "data-free"])
    def test_small_study_set_pooled_only_beside_episodes_and_r3(self, tmp_path, gbm_csv, monkeypatch,
                                                               with_prices):
        # far under STEPS_PER_PROCESS, the studies still get a pool where it runs them during episodes and r3
        get_context, started = multiprocessing.get_context, []
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: started.append(method) or get_context(method))
        monkeypatch.setattr(nullmodels, "usable_cpus", lambda: 2)
        prices = ["--prices", str(gbm_csv)] if with_prices else []
        rc = main(["run-all", *prices, "--data-dir", str(tmp_path / "missing"), "--out", str(tmp_path / "res"),
                   "--models", "gbm", "--paths", "4", "--days", "1000", "--periods", "240", "--agents", "20",
                   "--bootstrap-b", "50"])
        assert rc == 0
        assert started == ["fork"] * with_prices

    def test_price_file_read_once(self, tmp_path, gbm_csv, monkeypatch):
        # episodes, r3 and the block-bootstrap null share one parse of the price file
        calls = []

        def counting(path):
            calls.append(path)
            return load_price_csv(path)

        monkeypatch.setattr(cli, "load_price_csv", counting)
        rc = main(["run-all", "--prices", str(gbm_csv), "--data-dir", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "res"), "--models", "gbm,block_bootstrap",
                   "--paths", "4", "--days", "1000", "--periods", "240", "--agents", "20",
                   "--bootstrap-b", "200"])
        assert rc == 0
        assert calls == [gbm_csv]

    # the nulls step needs the price file only for the block-bootstrap null
    @pytest.mark.parametrize("models,skipped,written", [
        (MODELS, ["episodes", "r3", "nulls"], ["headline", "panel", "sweeps"]),
        (("gbm",), ["episodes", "r3"], ["headline", "nulls", "panel", "sweeps"]),
    ])
    def test_unreadable_price_file_read_and_reported_once(self, tmp_path, gbm_csv, monkeypatch, capsys,
                                                          models, skipped, written):
        calls = []

        def counting(path):
            calls.append(path)
            return load_price_csv(path)

        monkeypatch.setattr(cli, "load_price_csv", counting)
        lines = gbm_csv.read_bytes().splitlines(keepends=True)[:400]
        lines[200] = lines[200].replace(b",", b",\xff", 1)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        out = tmp_path / "res"
        rc = main(["run-all", "--prices", str(bad), "--data-dir", str(tmp_path / "missing"),
                   "--out", str(out), "--models", ",".join(models), "--paths", "4", "--days", "1000",
                   "--periods", "240", "--agents", "20", "--bootstrap-b", "50"])
        assert rc == 1
        assert calls == [bad]
        assert capsys.readouterr().err.splitlines() == [
            f"run-all: {bad}: not UTF-8 text",
            *(f"{step}: skipped, the price file could not be read" for step in skipped),
            f"error: {len(skipped)} sub-command(s) failed",
        ]
        assert sorted(p.name for p in out.iterdir()) == [f"{stem}.csv" for stem in written]

    def test_json_format(self, tmp_path):
        out = tmp_path / "res"
        rc = main(["headline", "--synthetic", "--seed", "7", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        rows = read_table(out / "headline.json")
        assert rows[0]["coef"] == "a"

    @pytest.mark.parametrize("with_prices", [True, False], ids=["prices", "data-free"])
    def test_every_table_reads_back_equal_in_csv_and_json(self, tmp_path, gbm_csv, with_prices):
        prices = ["--prices", str(gbm_csv)] if with_prices else []
        tables = {}
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            rc = main(["run-all", *prices, "--data-dir", str(tmp_path / "missing"), "--out", str(out),
                       "--format", fmt, "--models", "gbm,block_bootstrap", "--paths", "4", "--days", "1000",
                       "--periods", "240", "--agents", "20", "--bootstrap-b", "50"])
            assert rc == 0
            tables[fmt] = {p.stem: read_table(p) for p in sorted(out.iterdir())}
        assert len(tables["csv"]) == (10 if with_prices else 4)
        assert list(tables["csv"]) == list(tables["json"])
        for stem, rows in tables["csv"].items():
            assert len(rows) == len(tables["json"][stem]), stem
            for i, (a, b) in enumerate(zip(rows, tables["json"][stem])):
                assert list(a) == list(b), (stem, i)
                assert all(x == y or x != x and y != y for x, y in zip(a.values(), b.values())), (stem, i)

    def test_failed_subcommand_propagates(self, tmp_path, capsys):
        rc = main(["run-all", "--data-dir", str(tmp_path / "missing"), "--out", str(tmp_path / "r"),
                   "--models", "garch", "--paths", "4", "--days", "900",
                   "--periods", "240", "--agents", "10"])
        assert rc != 0
        assert "sub-command(s) failed" in capsys.readouterr().err

    def test_failed_subcommands_write_none_of_their_tables(self, tmp_path, capsys):
        # episodes fails to classify and r3 finds one episode; headline and nulls succeed
        f = write_price_csv(tmp_path / "p.csv", TestEpisodesCmd.SHORT)
        out = tmp_path / "res"
        rc = main(["run-all", "--prices", str(f), "--data-dir", str(tmp_path / "missing"),
                   "--out", str(out), "--models", "gbm", "--paths", "4", "--days", "1000",
                   "--periods", "240", "--agents", "20", "--bootstrap-b", "50"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "episodes: need at least 10 observations to classify",
            "r3: need >= 3 completed episodes, found 1",
            "error: 2 sub-command(s) failed",
        ]
        assert sorted(p.name for p in out.iterdir()) == ["headline.csv", "nulls.csv", "panel.csv", "sweeps.csv"]
        wrote = [line for line in captured.out.splitlines() if line.startswith("wrote ")]
        assert wrote == [f"wrote {out / stem}.csv" for stem in ("headline", "sweeps", "panel", "nulls")]


# The CLI surface as the hand-written parser declared it: per command, each
# option string in help order with its (dest, default, type, choices).
_COMMON = {
    "--data-dir": ("data_dir", None, Path, None),
    "--out": ("out", Path("results"), Path, None),
    "--format": ("format", "csv", None, ("csv", "json")),
    "--seed": ("seed", 1, int, None),
}
# --models was a str defaulting to "gbm,asym_vol,heston,markov_rs,block_bootstrap" that
# config_from_args split; it is now split by its type, and both give the same
# RunConfig.models (CONFIG_CASES below).
_MODELS_FLAG = ("models", ("gbm", "asym_vol", "heston", "markov_rs", "block_bootstrap"), _models, None)
SURFACE = {
    "headline": {
        **_COMMON,
        "--monthly": ("monthly", None, Path, None),
        "--synthetic": ("synthetic", False, None, None),
        "--q": ("q", 0.10, float, None),
        "--lags": ("lags", 6, int, None),
        "--lag-regime": ("lag_regime", 0, int, None),
        "--agents": ("agents", 50, int, None),
        "--periods": ("periods", 360, int, None),
    },
    "episodes": {
        **_COMMON,
        "--prices": ("prices", None, Path, None),
        "--delta": ("delta", 0.05, float, None),
        "--q": ("q", 0.10, float, None),
        "--bootstrap-b": ("bootstrap_b", 10_000, int, None),
    },
    "r3": {
        **_COMMON,
        "--prices": ("prices", None, Path, None),
        "--delta": ("delta", 0.05, float, None),
        "--lags": ("lags", 6, int, None),
    },
    "nulls": {
        **_COMMON,
        "--prices": ("prices", None, Path, None),
        "--models": _MODELS_FLAG,
        "--paths": ("n_paths", 1_000, int, None),
        "--days": ("n_days", 19_170, int, None),
        "--delta": ("delta", 0.05, float, None),
        "--comparator": ("comparator", 1.35, float, None),
    },
    "cot": {
        **_COMMON,
        "--input": ("cot_input", None, Path, None),
        "--q": ("q", 0.10, float, None),
        "--lags": ("lags", 6, int, None),
        "--lag-regime": ("lag_regime", 0, int, None),
    },
    "simulate-intermediary": {
        **_COMMON,
        "--agents": ("agents", 50, int, None),
        "--periods": ("periods", 360, int, None),
    },
    "run-all": {
        **_COMMON,
        "--prices": ("prices", None, Path, None),
        "--monthly": ("monthly", None, Path, None),
        "--synthetic": ("synthetic", False, None, None),
        "--q": ("q", 0.10, float, None),
        "--delta": ("delta", 0.05, float, None),
        "--lags": ("lags", 6, int, None),
        "--bootstrap-b": ("bootstrap_b", 10_000, int, None),
        "--models": _MODELS_FLAG,
        "--paths": ("n_paths", 1_000, int, None),
        "--days": ("n_days", 19_170, int, None),
        "--comparator": ("comparator", 1.35, float, None),
        "--agents": ("agents", 50, int, None),
        "--periods": ("periods", 360, int, None),
    },
}

# Help strings the hand-written parser gave; a flag may gain help, not lose or change it.
HELP = {
    "--data-dir": "input directory (default: $REGIMELAB_DATA_DIR or ./data)",
    "--out": "output directory",
    "--prices": "daily price CSV (date,close)",
    "--monthly": "monthly panel CSV (month,margin_debt,vix)",
    "--input": "assembled companion CSV (period,exposure,vol)",
    "--synthetic": "use the intermediary simulator instead of data",
    "--q": "stress tail fraction",
    "--delta": "minimum drawdown depth",
    "--lags": "Newey-West lag count",
    "--lag-regime": "lag the stress indicator k months",
    "--bootstrap-b": "bootstrap resamples for bucket CIs",
    "--models": "comma-separated subset of gbm,asym_vol,heston,markov_rs,block_bootstrap",
    "--comparator": "empirical median duration ratio",
}

RUNCONFIG_DEFAULTS = {
    "command": "run-all", "data_dir": Path("data"), "prices": None, "monthly": None,
    "cot_input": None, "out": Path("results"), "format": "csv", "q": 0.10, "delta": 0.05,
    "lags": 6, "lag_regime": 0, "bootstrap_b": 10_000, "n_paths": 1_000, "n_days": 19_170,
    "seed": 1, "synthetic": False,
    "models": ("gbm", "asym_vol", "heston", "markov_rs", "block_bootstrap"),
    "comparator": 1.35, "agents": 50, "periods": 360,
}

# argv -> the RunConfig fields that differ from RUNCONFIG_DEFAULTS
CONFIG_CASES = [
    (["headline", "--synthetic", "--q", "0.2", "--lags", "4", "--lag-regime", "1", "--agents", "9",
      "--periods", "120", "--monthly", "m.csv", "--seed", "3"],
     {"command": "headline", "monthly": Path("m.csv"), "q": 0.2, "lags": 4, "lag_regime": 1,
      "seed": 3, "synthetic": True, "agents": 9, "periods": 120}),
    (["episodes", "--prices", "p.csv", "--delta", "0.1", "--q", "0.05", "--bootstrap-b", "50",
      "--format", "json", "--out", "o"],
     {"command": "episodes", "prices": Path("p.csv"), "out": Path("o"), "format": "json",
      "q": 0.05, "delta": 0.1, "bootstrap_b": 50}),
    (["r3", "--data-dir", "d", "--delta", "0.07", "--lags", "2"],
     {"command": "r3", "data_dir": Path("d"), "delta": 0.07, "lags": 2}),
    (["nulls", "--models", "gbm, heston,", "--paths", "7", "--days", "900", "--delta", "0.2",
      "--comparator", "2.0"],
     {"command": "nulls", "delta": 0.2, "n_paths": 7, "n_days": 900, "models": ("gbm", "heston"),
      "comparator": 2.0}),
    (["cot", "--input", "c.csv", "--q", "0.3", "--lags", "5", "--lag-regime", "2"],
     {"command": "cot", "cot_input": Path("c.csv"), "q": 0.3, "lags": 5, "lag_regime": 2}),
    (["simulate-intermediary", "--agents", "4", "--periods", "30", "--seed", "8"],
     {"command": "simulate-intermediary", "seed": 8, "agents": 4, "periods": 30}),
    (["run-all"], {}),
    (["run-all", "--prices", "p.csv", "--monthly", "m.csv", "--synthetic", "--q", "0.2",
      "--delta", "0.1", "--lags", "3", "--bootstrap-b", "9", "--models", "markov_rs",
      "--paths", "3", "--days", "300", "--comparator", "1.5", "--agents", "6", "--periods", "60",
      "--seed", "2", "--data-dir", "dd", "--out", "oo", "--format", "json"],
     {"data_dir": Path("dd"), "prices": Path("p.csv"), "monthly": Path("m.csv"), "out": Path("oo"),
      "format": "json", "q": 0.2, "delta": 0.1, "lags": 3, "bootstrap_b": 9, "n_paths": 3,
      "n_days": 300, "seed": 2, "synthetic": True, "models": ("markov_rs",), "comparator": 1.5,
      "agents": 6, "periods": 60}),
]


class TestNoMaskedArrays:
    """No command imports numpy.ma: np.median, np.quantile, np.percentile and
    np.setdiff1d would each load it, and regimelab never uses masked arrays."""

    SCRIPT = """\
import sys
from regimelab import cli
code = cli.main(sys.argv[1:])
print("numpy.ma" in sys.modules)
sys.exit(code)
"""
    SMALL = ["--paths", "6", "--days", "700", "--periods", "240", "--agents", "20", "--bootstrap-b", "50"]

    @staticmethod
    def inputs(tmp_path):
        """A monthly margin-debt file and a weekly positioning file."""
        table = to_monthly_table(simulate(IntermediaryConfig(n_agents=20, T=240, seed=1)))
        (tmp_path / "monthly.csv").write_text("\n".join(["month,margin_debt,vix"] + [
            f"{m},{float(a)!r},{float(v)!r}" for m, a, v in zip(table.months, table.margin_debt, table.vol_proxy)
        ]) + "\n")
        rng = np.random.default_rng(2)
        (tmp_path / "cot.csv").write_text("\n".join(["period,exposure,vol"] + [
            f"{np.datetime64('2006-09-15') + 7 * i},{100.0 + i + rng.random()!r},{15 + 8 * rng.random()!r}"
            for i in range(120)
        ]) + "\n")

    @pytest.mark.parametrize("argv", [
        ["nulls", "--data-dir", "none", *SMALL[:4]],
        ["run-all", "--data-dir", "none", *SMALL],
        ["run-all", "--prices", "{prices}", "--data-dir", "none", "--models", "gbm,block_bootstrap", *SMALL],
        ["headline", "--monthly", "monthly.csv"],
        ["cot", "--input", "cot.csv"],
        ["simulate-intermediary", "--periods", "24", "--agents", "5"],
    ], ids=["nulls", "run-all-data-free", "run-all-prices", "headline-monthly", "cot-input",
            "simulate-intermediary"])
    def test_command_leaves_numpy_ma_out(self, tmp_path, gbm_csv, argv):
        self.inputs(tmp_path)
        env = subprocess_env()
        argv = [a.format(prices=gbm_csv) for a in argv]
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv, "--out", "res"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestBenchmarkReplay:
    @pytest.fixture
    def benchmark_modules(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmark"))
        return importlib.import_module("replay"), importlib.import_module("workloads")

    @pytest.mark.parametrize("name", ["datafree_runall", "prices_runall", "short_horizon_nulls"])
    def test_replay_writes_the_cli_tables(self, tmp_path, benchmark_modules, name):
        # benchmark/replay.py calls the library as the CLI does; a change to those
        # functions that breaks the traced benchmark run fails here first
        replay, workloads = benchmark_modules
        workload = workloads.TINY[name]
        data = workloads.generate_inputs(workload, 1, tmp_path / "data").data_dir
        argv = [*workload.argv, "--data-dir", str(data), "--seed", "1", "--out"]
        assert main([*argv, str(tmp_path / "cli")]) == 0
        if name == "prices_runall":  # the replay passes r3 the censored episode too
            with pytest.warns(UserWarning, match="excluded 1 censored episodes"):
                rp = replay.replay([*argv, str(tmp_path / "replay")], "test")
        else:
            rp = replay.replay([*argv, str(tmp_path / "replay")], "test")
        assert replay.null_fidelity_problems(rp) == []  # the benchmark's own run_null_study call
        cli_tables = {p.name: p.read_bytes() for p in (tmp_path / "cli").iterdir()}
        assert sorted(cli_tables) == sorted(f"{stem}.csv" for stem in workload.tables)
        assert {p.name: p.read_bytes() for p in (tmp_path / "replay").iterdir()} == cli_tables


def _subparsers():
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestCliSurface:
    def test_commands(self):
        assert list(_subparsers()) == list(SURFACE)

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_options_dests_defaults_types(self, command):
        actions = [a for a in _subparsers()[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        got = {a.option_strings[0]: (a.dest, a.default, a.type, a.choices) for a in actions}
        assert list(got) == list(SURFACE[command])
        assert got == SURFACE[command]
        assert all(len(a.option_strings) == 1 for a in actions)

    def test_help_kept_and_same_everywhere(self):
        seen = {}
        for sub in _subparsers().values():
            for a in sub._actions:
                if isinstance(a, argparse._HelpAction):
                    continue
                flag = a.option_strings[0]
                if flag in HELP:
                    assert a.help == HELP[flag]
                assert seen.setdefault(flag, a.help) == a.help

    @pytest.mark.parametrize("argv,changed", CONFIG_CASES, ids=[c[0][0] for c in CONFIG_CASES])
    def test_config_from_args(self, argv, changed, monkeypatch):
        monkeypatch.delenv("REGIMELAB_DATA_DIR", raising=False)
        cfg = config_from_args(build_parser().parse_args(argv))
        assert dataclasses.asdict(cfg) == {**RUNCONFIG_DEFAULTS, **changed}

    def test_benchmark_imports_exist(self):
        # benchmark/ calls the library directly, so a name deleted from regimelab fails here first
        imported = []
        for path in sorted((Path(__file__).parents[1] / "benchmark").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "regimelab":
                    imported += [(path.name, node.module, a.name) for a in node.names]
        assert imported
        missing = [f"{file}: from {module} import {name}" for file, module, name in imported
                   if not hasattr(importlib.import_module(module), name)]
        assert missing == []
