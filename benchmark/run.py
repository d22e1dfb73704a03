"""dyalg benchmark runner.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload until S seconds have passed (at least one
round).  A round is one cold start: a fresh single-threaded interpreter for
a library workload, or for ``cli`` one process per command, started one at a
time.  Every item is checked against its known answer.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; every round's raw values and the provenance of the run go to
``.bench_results/`` in the checkout.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds (``wall_s`` sums each item's median), in reference-speed seconds:
each interval is rescaled by the passes of a fixed loop taken during and
around it (``hostspeed.py``), because the host's speed drifts.  With
``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer ones, medians over the traced rounds, plus the tracing overhead.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import cli_workload  # noqa: E402
import hostspeed  # noqa: E402

WORKLOADS = ("products", "dsquared", "realize", "gauge", "cli")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("cmd_geomean_s", "s"))
# cold set-ups run after each untraced round, on top of the round's own, so
# that setup_s is a median of several samples even when only two rounds fit
SETUP_SAMPLES_PER_ROUND = 2
# host-speed passes taken here before and after each cli_workload.py process
PARENT_PASSES = 5

# (span name, statistics); see README.md for the workload each should move
PER_LAYER = (
    ("rewrite.straighten_graph", ("calls", "self_s")),
    ("algebra.compose_basis", ("calls", "hit_ratio")),
    ("algebra.mul", ("calls", "self_s")),
    ("algebra.hochschild_d", ("calls", "self_s", "out_terms")),
    ("algebra.face_map", ("calls", "self_s")),
    ("cohomology.decompose_cocycle", ("calls", "self_s")),
    ("cohomology.harmonic_complement", ("calls", "self_s")),
    ("cohomology.differential_columns", ("calls", "self_s")),
    ("freelie.hochschild_target_dim", ("calls", "self_s")),
    ("linalg.solve", ("calls", "self_s", "cells")),
    ("linalg.nullspace", ("calls", "self_s")),
    ("linalg.sparse_rank", ("calls", "self_s", "nnz")),
    ("bialgebra.evaluate", ("calls", "self_s", "keys")),
    ("bialgebra.evaluate_slices", ("calls", "self_s")),
    ("series.mul", ("calls", "self_s")),
    ("series.inverse", ("calls", "self_s")),
    ("twists.gauge", ("calls", "self_s")),
    ("twists.solve_gauge", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio",
         "out_terms": "count", "cells": "count", "nnz": "count",
         "keys": "count"}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{span}.{stat}", UNITS[stat])
             for span, stats in PER_LAYER for stat in stats]
    return names + [("trace.overhead_ratio", "ratio")]


# -- processes ----------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # children read the bytecode that compile_sources() wrote
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_sources() -> None:
    """Write the bytecode of dyalg and of the benchmark before the first
    round.  Every child then imports from the bytecode cache, as a CLI run
    does after the first one.  Without this the set-up would include
    compiling dyalg or not, depending on whether PYTHONDONTWRITEBYTECODE is
    set and on whether an earlier run left the cache behind."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   env=_env(), stdout=subprocess.DEVNULL, check=True)


def spawn(argv: list[str]) -> dict:
    """Run one child to completion; its stdout, exit code, peak RSS and the
    monotonic clock before the start and after the exit.

    The child runs with ``-S``: dyalg depends on the standard library only,
    and the ``site`` start-up of an installed Python (path hooks of other
    packages; 73 ms of a 92 ms bare start on the machine the benchmark was
    defined on) is not dyalg's work but would be most of a short command's
    latency, and its noisiest part."""
    t_start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-S"] + argv, cwd=ROOT,
                            env=_env(), stdout=subprocess.PIPE)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"stdout": stdout, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024, "t_start": t_start,
            "t_end": time.monotonic()}


# -- rounds -------------------------------------------------------------------
#
# A round and a set-up sample give measured seconds, less the passes taken
# in them, and the pass times themselves.  Each item also carries its own
# time at the reference speed (item_ref_s); the rounds' process times are
# rescaled together in timings().


def library_round(workload: str, seed: int, work_dir: str, trace: bool,
                  flip: int | None = None) -> dict:
    extra = ["--trace"] if trace else []
    if flip is not None:
        extra += ["--flip", str(flip)]
    child, res = _worker(workload, seed, work_dir, extra)
    summary = res["trace"]
    # the child's life less the passes it took
    cmd_s = child["t_end"] - child["t_start"] - sum(res["passes"])
    return {"setup_s": _setup_of(child, res), "cmd_s": [cmd_s],
            "cmd_ref_s": [hostspeed.rescale(cmd_s, *res["passes"])],
            "wall_s": sum(res["item_s"]), "item_s": res["item_s"],
            "wall_ref_s": sum(res["item_ref_s"]),
            "item_ref_s": res["item_ref_s"], "passes": res["passes"],
            "peak_rss_mb": child["rss_mb"],
            "verdicts": res["verdicts"], "errors": res["errors"],
            "outputs": None, "trace": summary,
            "top_self": {workload: _top_self(summary)} if trace else {}}


def _worker(workload: str, seed: int, work_dir: str,
            extra: list[str]) -> tuple[dict, dict]:
    """spawn() of worker.py, and the result it wrote."""
    out_path = os.path.join(work_dir, "worker.json")
    child = spawn([os.path.join(HERE, "worker.py"), workload, str(seed),
                   out_path] + extra)
    if child["code"] != 0:
        raise RuntimeError(f"{workload} worker exited with {child['code']}")
    with open(out_path) as fh:
        res = json.load(fh)
    os.remove(out_path)
    return child, res


def _setup_of(child: dict, res: dict) -> float:
    """A worker's set-up, from its start to ready, less the passes taken
    in between."""
    return res["t_ready"] - child["t_start"] - sum(res["setup_passes"])


def cli_process(mode: str, args: list[str], work_dir: str) -> dict:
    """spawn() of one ``cli_workload.py`` process, with the passes it took,
    its life less those passes (``cmd_s``), and that time at the reference
    speed (``cmd_ref_s``) by its passes and PARENT_PASSES passes taken here
    just before and just after it."""
    passes_path = os.path.join(work_dir, "passes.json")
    pass_before = hostspeed.pass_s(PARENT_PASSES)
    child = spawn([os.path.join(HERE, "cli_workload.py"), mode, passes_path]
                  + args)
    child["pass_after"] = hostspeed.pass_s(PARENT_PASSES)
    with open(passes_path) as fh:
        child["passes"] = json.load(fh)
    os.remove(passes_path)
    child["cmd_s"] = (child["t_end"] - child["t_start"]
                      - sum(child["passes"]))
    child["cmd_ref_s"] = hostspeed.rescale(
        child["cmd_s"], pass_before, *child["passes"], child["pass_after"])
    return child


def cli_inputs(seed: int, work_dir: str) -> dict:
    variants = json.dumps(cli_workload.choose_variants(seed))
    setup = cli_process("inputs", [work_dir, variants], work_dir)
    if setup["code"] != 0:
        raise RuntimeError("cli input set-up failed")
    return setup


def cli_round(seed: int, work_dir: str, trace: bool,
              reference: dict) -> dict:
    variants = cli_workload.choose_variants(seed)
    setup = cli_inputs(seed, work_dir)
    verdicts, errors, outputs, rss = [], [], {}, []
    cmd_s, cmd_ref_s, item_s, item_ref_s = [], [], [], []
    passes = list(setup["passes"])
    merged: dict = {}
    top_self = {}
    summary_path = os.path.join(work_dir, "spans.json")
    for name in cli_workload.command_names():
        args = cli_workload.argv_of(name, variants[name], work_dir)
        child = cli_process(
            "run", (["--trace", summary_path] if trace else []) + ["--"]
            + args, work_dir)
        t_check = time.monotonic()
        problems = cli_workload.check_output(
            name, variants[name], child["code"], child["stdout"], reference)
        check_s = time.monotonic() - t_check
        # an item is the command and the check of its output
        cmd_s.append(child["cmd_s"])
        cmd_ref_s.append(child["cmd_ref_s"])
        item_s.append(child["cmd_s"] + check_s)
        item_ref_s.append(child["cmd_ref_s"] + hostspeed.rescale(
            check_s, child["pass_after"]))
        passes += child["passes"]
        verdicts.append(not problems)
        errors += [f"{name}: {p}" for p in problems]
        outputs[name] = hashlib.sha256(child["stdout"]).hexdigest()
        rss.append(child["rss_mb"])
        if trace:
            with open(summary_path) as fh:
                summary = json.load(fh)
            os.remove(summary_path)
            _merge(merged, summary)
            top_self[name] = _top_self(summary)
    return {"setup_s": setup["cmd_s"], "cmd_s": cmd_s, "cmd_ref_s": cmd_ref_s,
            "wall_s": sum(item_s), "item_s": item_s,
            "wall_ref_s": sum(item_ref_s), "item_ref_s": item_ref_s,
            "passes": passes, "peak_rss_mb": max(rss),
            "verdicts": verdicts, "errors": errors, "outputs": outputs,
            "trace": merged if trace else None, "top_self": top_self}


def setup_sample(workload: str, seed: int, work_dir: str) -> dict:
    """One more cold set-up of the workload, with no checks after it."""
    if workload == "cli":
        setup = cli_inputs(seed, work_dir)
        return {"setup_s": setup["cmd_s"], "passes": setup["passes"]}
    child, res = _worker(workload, seed, work_dir, ["--setup-only"])
    return {"setup_s": _setup_of(child, res), "passes": res["passes"]}


def _top_self(summary: dict) -> str:
    return max(summary, key=lambda span: summary[span]["self_s"])


def _merge(total: dict, summary: dict) -> None:
    """Add one process's span summary into the round's total."""
    for name, entry in summary.items():
        acc = total.setdefault(name, {"children": {}})
        for key, value in entry.items():
            if key == "children":
                for child, count in value.items():
                    acc[key][child] = acc[key].get(child, 0) + count
            else:
                acc[key] = acc.get(key, 0) + value


def layer_metrics(summary: dict) -> dict[str, float]:
    out = {}
    for span, stats in PER_LAYER:
        entry = summary.get(span, {})
        calls = entry.get("calls", 0)
        for stat in stats:
            if stat == "hit_ratio":
                value = entry.get("hits", 0) / calls if calls else 0.0
            else:
                value = entry.get(stat, 0)
            out[f"{span}.{stat}"] = value
    return out


# -- provenance ---------------------------------------------------------------


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(base, fname)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            # the checkout is not a git repository; this digest of src/
            # identifies the commit's code
            "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "started_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds")}


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dyalg", "__init__.py")):
        print(f"dyalg sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(cli_workload.REFERENCE) as fh:
        reference = json.load(fh)
    compile_sources()

    work_parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_parent)
    try:
        rounds, traced, setups = run_rounds(args, work_dir, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = summarize(args, rounds, traced, setups)
    raw = {"provenance": provenance(args), "result": result,
           # the same metrics in measured (not rescaled) seconds
           "measured_s": timings(rounds, setups, rescaled=False),
           "run_pass_s": run_pass_s(rounds, setups),
           "rounds": [_raw(r) for r in rounds],
           "traced_rounds": [_raw(r) for r in traced],
           "setup_samples": setups}
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%f")
    raw_path = os.path.join(
        results_dir,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(raw_path, "w") as fh:
        json.dump(raw, fh, indent=1)
    for line in sorted({e for r in rounds + traced for e in r["errors"]}):
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_rounds(args, work_dir: str, reference: dict):
    def one(trace: bool) -> dict:
        if args.workload == "cli":
            return cli_round(args.seed, work_dir, trace, reference)
        return library_round(args.workload, args.seed, work_dir, trace)

    rounds, traced, setups = [], [], []
    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        rounds.append(one(False))
        if args.trace:
            traced.append(one(True))
        else:
            setups += [setup_sample(args.workload, args.seed, work_dir)
                       for _ in range(SETUP_SAMPLES_PER_ROUND)]
    return rounds, traced, setups


def summarize(args, rounds: list, traced: list, setups: list) -> dict:
    verdicts = [r["verdicts"] for r in rounds + traced]
    attempted = sum(len(v) for v in verdicts)
    failed = sum(v.count(False) for v in verdicts)
    # every round, traced or not, must agree with the first one, down to
    # the CLI output bytes
    same = all(v == verdicts[0] for v in verdicts) and all(
        r["outputs"] == rounds[0]["outputs"] for r in rounds + traced)
    metrics = {}
    if not args.trace:
        values = {"peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in rounds)}
        values.update(timings(rounds, setups, rescaled=True))
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        layer = [layer_metrics(r["trace"]) for r in traced]
        for name, unit in per_layer_names()[:-1]:
            metrics[name] = {"value": statistics.median(
                m[name] for m in layer), "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(r["wall_ref_s"] for r in traced)
            / statistics.median(r["wall_ref_s"] for r in rounds),
            "unit": "ratio"}
    return {"correct": failed == 0 and same, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def timings(rounds: list, setups: list,
            rescaled: bool) -> dict[str, float]:
    """setup_s, wall_s and cmd_geomean_s, in reference-speed seconds or, with
    ``rescaled`` false, in measured seconds."""
    # Each item's median over the rounds, summed: a burst of host noise
    # that slows one round's items for a second or two drops out, where it
    # would move the median of whole rounds when few rounds fit.
    ref = "_ref_s" if rescaled else "_s"
    wall = sum(statistics.median(times)
               for times in zip(*(r["item" + ref] for r in rounds)))
    # Each process's median over the rounds (every CLI command, or the one
    # worker), and their geometric mean.  Not the median over the commands:
    # about half of them take 0.1-0.16 s and the rest 0.2 s or more, so
    # the median sits in that gap and jumps with the seed's variants.
    cmd = statistics.geometric_mean(
        statistics.median(times) for times in zip(*(r["cmd" + ref]
                                                    for r in rounds)))
    setup = statistics.median(r["setup_s"] for r in rounds + setups)
    if rescaled:
        # A set-up of 0.1-0.2 s at the start of a process holds too few
        # passes to be rescaled on its own: the median is rescaled by the
        # run's mean pass instead.
        setup = hostspeed.rescale(setup, run_pass_s(rounds, setups))
    return {"setup_s": setup, "wall_s": wall, "cmd_geomean_s": cmd}


def run_pass_s(rounds: list, setups: list) -> float:
    """The mean of every pass taken in the run's untraced processes."""
    return statistics.fmean(p for r in rounds + setups for p in r["passes"])


def _raw(r: dict) -> dict:
    keep = ("setup_s", "cmd_s", "cmd_ref_s", "wall_s", "item_s",
            "wall_ref_s", "item_ref_s", "peak_rss_mb", "errors", "outputs",
            "top_self")
    out = {k: r[k] for k in keep}
    out["failed"] = r["verdicts"].count(False)
    out["attempted"] = len(r["verdicts"])
    if r["trace"] is not None:
        out["trace"] = r["trace"]
    return out


if __name__ == "__main__":
    raise SystemExit(main())
