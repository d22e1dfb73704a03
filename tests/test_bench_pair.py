import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pair.py"
METRICS = ("setup_s", "wall_s", "peak_rss_mb", "cmd_geomean_s")


def _write_run(directory, workload, seed, started, sha, wall, rss,
               trace=0, failed=0):
    directory.mkdir(exist_ok=True)
    raw = {"provenance": {"workload": workload, "seed": seed,
                          "seconds": 18.0, "trace": trace,
                          "source_sha256": sha, "python": "3.11.7",
                          "nproc": 2, "cpu_model": "test cpu",
                          "started_utc": started},
           "result": {"correct": failed == 0, "attempted": 4,
                      "failed": failed,
                      "metrics": {
                          name: {"value": {"wall_s": wall,
                                           "peak_rss_mb": rss}.get(name, 0.1)}
                          for name in METRICS}}}
    path = directory / f"{workload}-seed{seed}-trace{trace}-{started}.json"
    path.write_text(json.dumps(raw))


def _run_tool(tmp_path, *extra):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "gauge", "--pr", "7",
         "--parent", str(tmp_path / "parent"),
         "--change", str(tmp_path / "change"), *extra],
        cwd=tmp_path, capture_output=True, text=True)
    return proc, tmp_path / "BENCH_7.json"


def test_bench_pair_folds_alternating_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # three alternating pairs; the change loses the second on wall_s and
    # ties the third on peak_rss_mb
    for seed, (t_p, t_c), (w_p, w_c), (r_p, r_c) in (
            (1, ("01", "02"), (4.0, 2.0), (25.0, 24.0)),
            (2, ("04", "03"), (4.4, 4.6), (25.0, 24.0)),
            (3, ("05", "06"), (4.2, 2.2), (25.0, 25.0))):
        _write_run(parent, "gauge", seed, t_p, "aaa", w_p, r_p)
        _write_run(change, "gauge", seed, t_c, "bbb", w_c, r_c)
    # runs of another workload and traced runs are left out
    _write_run(parent, "products", 1, "07", "aaa", 9.0, 30.0)
    _write_run(change, "gauge", 1, "08", "bbb", 0.1, 1.0, trace=1)
    proc, out = _run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["pr"] == 7 and record["workload"] == "gauge"
    assert record["host"] == {"cpu_model": "test cpu", "nproc": 2}
    assert record["python"] == "3.11.7"
    assert record["parent"]["source_sha256"] == "aaa"
    assert record["change"]["source_sha256"] == "bbb"
    assert record["parent"]["seeds"] == [1, 2, 3]
    assert record["change"]["all_correct"] and record["change"]["failed"] == 0
    wall = record["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx(
        {"q1": 4.1, "median": 4.2, "q3": 4.3})
    assert wall["change"]["median"] == 2.2
    assert wall["parent_quartile_spread"] == pytest.approx(0.2)
    assert (wall["pairs"], wall["pairs_won"], wall["pairs_lost"]) == (3, 2, 1)
    rss = record["metrics"]["peak_rss_mb"]
    assert (rss["pairs_won"], rss["pairs_lost"]) == (2, 0)
    assert rss["bound"] == 0.05 and rss["unit"] == "MB"
    # every end-to-end metric of the benchmark is folded; a tie is no win
    assert sorted(record["metrics"]) == sorted(METRICS)
    setup = record["metrics"]["setup_s"]
    assert (setup["pairs_won"], setup["pairs_lost"]) == (0, 0)


def test_bench_pair_rejects_unpaired_runs(tmp_path):
    _write_run(tmp_path / "parent", "gauge", 1, "01", "aaa", 4.0, 25.0)
    _write_run(tmp_path / "change", "gauge", 2, "02", "bbb", 2.0, 24.0)
    proc, out = _run_tool(tmp_path)
    assert proc.returncode == 2 and "seed" in proc.stderr
    assert not out.exists()


def test_bench_pair_folds_other_workloads_and_attachments(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write_run(parent, "gauge", seed, f"0{seed}a", "aaa", 4.0, 25.0)
        _write_run(change, "gauge", seed, f"0{seed}b", "bbb", 2.0, 24.0)
        _write_run(parent, "realize", seed, f"1{seed}a", "aaa", 1.0, 20.0)
        _write_run(change, "realize", seed, f"1{seed}b", "bbb", 1.5, 20.0)
    timing = tmp_path / "timing.json"
    timing.write_text(json.dumps({"pairs": 3, "stdout_identical": True}))
    proc, out = _run_tool(tmp_path, "--also", "realize",
                          "--attach", f"cmd={timing}")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["workload"] == "gauge"
    assert record["metrics"]["wall_s"]["pairs_won"] == 2
    other = record["also"]["realize"]
    assert other["workload"] == "realize"
    assert other["parent"]["seeds"] == [1, 2]
    wall = other["metrics"]["wall_s"]
    assert (wall["pairs_won"], wall["pairs_lost"]) == (0, 2)
    assert record["attached"] == {"cmd": {"pairs": 3,
                                          "stdout_identical": True}}
    # an unpaired other workload fails the whole record
    _write_run(change, "realize", 3, "13b", "bbb", 1.5, 20.0)
    out.unlink()
    proc, out = _run_tool(tmp_path, "--also", "realize")
    assert proc.returncode == 2 and "as many parent runs" in proc.stderr
    assert not out.exists()


DIGEST = ROOT / "tools" / "cache_digest.py"


def test_cache_digest_compares_checkouts():
    proc = subprocess.run(
        [sys.executable, str(DIGEST), "--workload", "realize", "--seeds",
         "1", "--parent", str(ROOT), "--change", str(ROOT)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["workload"] == "realize" and record["seeds"] == [1]
    run = record["parent"]["1"]
    assert run == record["change"]["1"] and record["identical"]
    assert record["firings_identical"] is True
    # one checkout on both sides: every key common, all constants equal
    assert record["keys"] == {"1": {
        "common": run["entries"], "parent_only": 0, "change_only": 0,
        "common_equal": True}}
    assert run["items"] > 0 and run["correct"] and run["entries"] > 0
    assert len(run["sha256"]) == 64
    firings = run["firings"]
    assert sorted(firings) == ["act_mu", "cocycle", "exchange", "push_mu"]
    assert all(type(c) is int and c >= 0 for c in firings.values())
    assert firings["exchange"] > 0 and firings["act_mu"] > 0
    # EXCHANGE copies for two of its three branches, ACT_MU for one of two
    assert type(run["copies"]) is int
    assert run["copies"] >= 2 * firings["exchange"] + firings["act_mu"]
    # every entry is straightened or read off a slot-permuted or reversed
    # mate
    assert type(run["straightened"]) is int and run["straightened"] > 0
    assert run["straightened"] + run["read_off_mate"] == run["entries"]
    assert run["read_off_mate"] >= 0


def _digest_tool():
    spec = importlib.util.spec_from_file_location("cache_digest", DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cache_digest_counts_entries_read_off_a_mate(monkeypatch):
    from dyalg import algebra, rewrite
    tool = _digest_tool()
    monkeypatch.setattr(algebra, "_CACHE", {})
    counts = {"straightened": 0}
    monkeypatch.setattr(rewrite, "straighten_graph", tool._counted_entries(
        counts, rewrite.straighten_graph))
    keys = algebra.enumerate_basis(2, 1)
    for s in keys:
        for t in keys:
            algebra.compose_basis(2, s, t)
    # a degree-1 key is a strand from coaction slot c to action slot a; the
    # slot swap σ and the reversal R: (s, t) -> (τt, τs) with τ(c, a) =
    # (a, c) generate a group of order 4 on the 16 pairs.  σ fixes no pair,
    # R fixes the 4 with s = τt, σR the 4 with s = στt, so by Burnside the
    # pairs fall into (16 + 0 + 4 + 4) / 4 = 6 orbits: the first pair of
    # each is straightened, every later one read off a mate
    assert len(algebra._CACHE) == 16 and counts["straightened"] == 6
    # a straightening outside compose_basis fills no entry and is not one
    rewrite.straighten_graph(rewrite.term_graph(
        rewrite.slices_of_key(keys[0], False), 2), algebra.TRIVIAL)
    assert counts["straightened"] == 6


def test_cache_digest_sees_every_constant(monkeypatch):
    tool = _digest_tool()
    from dyalg import algebra
    monkeypatch.setattr(algebra, "_CACHE", {})
    for b in algebra.enumerate_basis(1, 2):
        algebra.compose_basis(1, b, b)
    before = tool.cache_digest()
    assert tool.cache_digest() == before
    key, constants = next(iter(algebra._CACHE.items()))
    k = next(iter(constants))
    entries = tool.cache_entries()
    algebra._CACHE[key] = {**constants, k: constants[k] + 1}
    assert tool.cache_digest() != before
    altered = tool.cache_entries()
    assert tool.compare_entries(entries, entries)["common_equal"]
    assert tool.compare_entries(entries, altered) == {
        "common": len(entries), "parent_only": 0, "change_only": 0,
        "common_equal": False}
    fewer = {k: v for k, v in entries.items() if k != repr(key)}
    assert tool.compare_entries(fewer, entries) == {
        "common": len(fewer), "parent_only": 0, "change_only": 1,
        "common_equal": True}


TIMER = ROOT / "tools" / "time_command.py"


def test_time_command_alternates_the_side_that_runs_first():
    proc = subprocess.run(
        [sys.executable, str(TIMER), "--pairs", "2", "--parent", str(ROOT),
         "--change", str(ROOT), "--", "verify", "cybe"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["command"] == ["dyalg", "verify", "cybe"]
    assert record["first"] == ["parent", "change"]
    assert record["stdout_identical"] and record["exit_ok"]
    assert len(record["stdout_sha256"]) == 1
    for side in ("parent", "change"):
        assert len(record[side]["wall_s"]) == 2
