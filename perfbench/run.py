"""Benchmark of the positroids CLI: census, oracle and convert workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 42 --trace 0

Run from anywhere; the package is taken from `src/` next to this directory.
With `--trace 0` the real CLI runs as child processes, one at a time (a
closed loop with one client), every output is checked, and the end-to-end
metrics are printed.  With `--trace 1` the same work runs in-process through
`tracer.py`, alternating untraced and traced passes, and the per-layer
metrics are printed.  The last line of stdout is the result as JSON; the
line before it holds the environment and sample counts, which are also
appended to `perfbench/out/results.jsonl`.  See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

SETUP_ARGV = ["enumerate", "--n", "4", "--k", "2", "--count-only"]
SETUP_PROBES = 3
PASS_TIMEOUT_S = 90
REQUEST_TIMEOUT_S = 30
CPUS = frozenset(os.sched_getaffinity(0))
BEST_PROBE = [float("inf")]


class Request:
    """One CLI invocation with the answer it must give.  `expect_out` is the
    exact stdout, or None when `check` decides; `pair` ties the two
    requests that must print identical bytes.  `stamp` names the generator
    whose items split the run (see `run_cli`); without it the run is one
    item."""

    def __init__(self, argv, expect_rc, expect_out=None, check=None,
                 pair=None, sha256=None, stamp=None):
        self.argv, self.expect_rc = argv, expect_rc
        self.expect_out, self.check, self.pair = expect_out, check, pair
        self.stamp = stamp
        if sha256 is None and expect_out is not None:
            sha256 = hashlib.sha256(expect_out.encode()).hexdigest()
        self.sha256 = sha256


class Workload:
    """The requests of one pass, which every pass of a run repeats, with
    `items` units of work (census lines, necklaces, requests) per pass."""

    def __init__(self, name, requests, items, timeout, gen_s=0.0):
        self.name, self.requests, self.items = name, requests, items
        self.timeout, self.gen_s = timeout, gen_s


def census_workload(seed: int) -> Workload:
    # The census has one input; the seed has nothing to vary.
    argv = ["enumerate", "--n", str(W.CENSUS_N), "--k", str(W.CENSUS_K)]
    req = Request(argv, 0, check=W.census_problem,
                  sha256=EXPECTED["stdout_sha256"]["census"],
                  stamp="enumerate_sparse_paving")
    return Workload("census", [req], W.lucas(W.CENSUS_N), PASS_TIMEOUT_S)


def oracle_workload(seed: int) -> Workload:
    argv = ["oracle", "--n", str(W.ORACLE_N), "--k", str(W.ORACLE_K),
            "--budget", str(W.ORACLE_BUDGET)]
    text = W.oracle_expected()
    if hashlib.sha256(text.encode()).hexdigest() != \
            EXPECTED["stdout_sha256"]["oracle"]:
        raise AssertionError("expected oracle text disagrees with its sha256")
    req = Request(argv, 0, text, stamp="all_necklaces")
    return Workload("oracle", [req],
                    W.positroid_count(W.ORACLE_K, W.ORACLE_N), PASS_TIMEOUT_S)


def convert_workload(seed: int) -> Workload:
    """A seeded batch of request pairs, written to payload files before
    timing."""
    start = time.perf_counter()
    folder = OUT / "payloads"
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    batch = []
    for p, pair in enumerate(W.convert_batch(random.Random(seed))):
        for kind, body in pair["payloads"].items():
            path = folder / f"p{p}-{kind}.json"
            path.write_text(json.dumps(body))
            batch.append(Request(W.request_argv(pair, kind, str(path)),
                                 pair["expect_rc"], pair["expect_out"],
                                 pair=p))
    if seed == EXPECTED["default_seed"]:
        text = "".join(r.expect_out for r in batch)
        if hashlib.sha256(text.encode()).hexdigest() != \
                EXPECTED["stdout_sha256"]["convert"]:
            raise AssertionError("payloads for the default seed changed")
    return Workload("convert", batch, len(batch), REQUEST_TIMEOUT_S,
                    time.perf_counter() - start)


WORKLOADS = {"census": census_workload, "oracle": oracle_workload,
             "convert": convert_workload}


# -- environment --------------------------------------------------------------

def calibration_score() -> float:
    """Millions of iterations per second of a fixed pure-Python loop,
    median of five, recorded so that host speed can be compared between
    results."""
    def loop():
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return 0.2 / statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "loadavg": list(os.getloadavg()),
            "calibration_mops": calibration_score()}


# -- running the CLI ------------------------------------------------------------

def cpu_probe() -> float:
    """Seconds for a few milliseconds of set, dict and list work, the kind
    of work the CLI does, on whichever CPU this process runs on."""
    start = time.perf_counter()
    seen, table = set(), {}
    for i in range(4000):
        seen.add(i * 7919 % 10007)
        table[i] = [i, i + 1]
    json.dumps(sorted(seen))
    return time.perf_counter() - start


def cpu_speed(cpu: int) -> float:
    """Median of three probes on `cpu`; this process is left pinned there.
    The least median seen is kept as the speed of a fast CPU."""
    os.sched_setaffinity(0, {cpu})
    took = statistics.median(cpu_probe() for _ in range(3))
    BEST_PROBE[0] = min(BEST_PROBE[0], took)
    return took


def fastest_cpu(cpus=CPUS) -> tuple[int, float]:
    """The CPU of `cpus` that runs the probe fastest now, with its probe
    time.  On a shared host each CPU switches between a fast and a slow
    speed, for seconds at a time, independently of the others; see
    README.md, "Host noise"."""
    if len(CPUS) == 1:
        return next(iter(CPUS)), 0.0
    try:
        speed = {cpu: cpu_speed(cpu) for cpu in sorted(cpus)}
    finally:
        release()
    cpu = min(speed, key=speed.get)
    return cpu, speed[cpu]


def release() -> None:
    os.sched_setaffinity(0, CPUS)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Placement:
    """Keeps a child on a fast CPU.  The child starts on the CPU that runs
    the probe fastest just before, and this process stays off that CPU.
    Given the least item times of earlier passes (`guide`), `progress`
    compares the child's pace with them; when a stretch of items takes
    SLOW times as long and another CPU probes within FAST of the best probe
    seen, the child moves there and this process takes its place."""

    SLOW, FAST = 1.3, 1.2

    def __init__(self, guide=None):
        self.guide, self.moves = guide, 0
        self.cpu, _ = fastest_cpu()
        self.proc = None
        self.done, self.since = 0, 0.0

    def start(self, cmd, **kwargs) -> subprocess.Popen:
        os.sched_setaffinity(0, {self.cpu})
        try:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                         **kwargs)
        finally:
            self.stand_aside()
        self.since = time.perf_counter()
        return self.proc

    def stand_aside(self) -> None:
        os.sched_setaffinity(0, (CPUS - {self.cpu}) or CPUS)

    def progress(self, done: int) -> None:
        """`done` items have ended so far."""
        if self.guide is None or len(CPUS) == 1:
            return
        now = time.perf_counter()
        if done - self.done < 8 or now - self.since < 0.25:
            return
        slow = now - self.since > self.SLOW * sum(self.guide[self.done:done])
        self.done, self.since = done, now
        if not slow:
            return
        try:
            cpu, took = fastest_cpu(CPUS - {self.cpu})
        finally:
            self.stand_aside()
        if took <= self.FAST * BEST_PROBE[0]:
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except OSError:  # the child has just ended
                return
            self.cpu, self.moves = cpu, self.moves + 1
            self.stand_aside()
        self.since = time.perf_counter()


def run_cli(argv, timeout, stamp=None, guide=None) -> dict:
    """Run one CLI process through child.py, kept on a fast CPU by a
    Placement.  Latency is spawn to reap; memory is the peak resident set
    child.py reports.  With `stamp`, the name of a generator the CLI
    imports, child.py stamps each item that generator hands out once it has
    been dealt with; `items` then holds the time from spawn or the previous
    stamp to each stamp, and `tail` the time from the last stamp to the
    reap.  Without it the whole run is one item.  Lines of stdout tell the
    Placement how many items have ended."""
    err_path, report_path = OUT / "stderr.txt", OUT / "child-report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path),
           stamp or "-", *argv]
    chunks, lines = [], 0
    place = Placement(guide)
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = place.start(cmd, stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            fd = proc.stdout.fileno()
            while data := os.read(fd, 1 << 16):
                chunks.append(data)
                lines += data.count(b"\n")
                place.progress(lines)
            _, status = os.waitpid(proc.pid, 0)
        finally:
            end = time.perf_counter()
            release()
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    report = {"stamps": [], "hwm_kb": 0}
    if report_path.exists():
        report = json.loads(report_path.read_text())
    points = report["stamps"]
    edges = [start, *points, end]
    spans = [b - a for a, b in zip(edges, edges[1:])]
    out = b"".join(chunks)
    return {"rc": proc.returncode, "out": out, "stderr": stderr,
            "sha256": hashlib.sha256(out).hexdigest(),
            "seconds": end - start, "peak_kb": report["hwm_kb"],
            "items": spans[:-1] if points else spans,
            "tail": spans[-1] if points else 0.0, "moves": place.moves,
            "error": "timed out" if end - start >= timeout else None}


def problem(req: Request, ans: dict, checked: set) -> str | None:
    """Why an answer is wrong, or None.  Exit 2 is a verdict and fine when
    expected; exit 1, a traceback or other bytes are failures.  A `check`
    runs once per distinct stdout it has not passed yet; the in-process run
    keeps only the sha256, so there the recorded sha256 decides."""
    if ans.get("error"):
        return ans["error"]
    if "Traceback" in ans["stderr"]:
        return f"traceback: {ans['stderr'][-300:]}"
    if ans["rc"] != req.expect_rc:
        return f"exit {ans['rc']}, expected {req.expect_rc}"
    out = ans.get("out")
    if req.check is not None and out is not None \
            and ans["sha256"] not in checked:
        why = req.check(out)
        if why:
            return why
        checked.add(ans["sha256"])
    if req.sha256 is not None and ans["sha256"] != req.sha256:
        return "stdout differs from the expected bytes"
    return None


def judge(reqs, answers, checked: set) -> list[str]:
    """One problem per failed request: its own check, or a difference from
    the other request of its pair (same exit code and bytes required)."""
    first, problems = {}, []
    for req, ans in zip(reqs, answers):
        why = problem(req, ans, checked)
        if why is None and req.pair is not None:
            got = (ans["rc"], ans["sha256"])
            if first.setdefault(req.pair, got) != got:
                why = "differs from the other request of its pair"
        if why:
            problems.append(f"{' '.join(req.argv)}: {why}")
    return problems


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probes(times: list, problems: list) -> None:
    """Set up a few times in a row and keep the least time, as the items of
    a pass keep theirs.  Probes run before every pass, so the median over
    passes samples the whole run rather than one moment of it."""
    took = []
    for _ in range(SETUP_PROBES):
        got = run_cli(SETUP_ARGV, REQUEST_TIMEOUT_S)
        took.append(got["seconds"])
        if got["rc"] != 0 or got["out"] != b"7\n":
            problems.append(f"setup probe: exit {got['rc']}, {got['out']!r}")
    times.append(min(took))


def more_rounds(start: float, seconds: float, rounds: list) -> bool:
    """Start a first round always, then another while it is expected to
    end within `seconds` of the start."""
    if not rounds:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(rounds) <= seconds


def fastest(best: list | None, times: list) -> list:
    """Element-wise minimum of two lists of times of the same items."""
    if best is None:
        return list(times)
    return [min(a, b) for a, b in zip(best, times, strict=True)]


def end_to_end(work: Workload, seconds: float) -> tuple[dict, dict]:
    """Run passes and keep, for each item and each tail, the least time it
    took in any pass.  A pass's time is then the sum of those least times;
    see README.md, "Host noise", for why the least and not the median."""
    reqs = work.requests
    walls, peak_kb, setup_times, problems, attempted = [], 0, [], [], 0
    best_items = best_tails = None
    used = moves = 0
    checked: set = set()
    start, rounds = time.perf_counter(), []
    while more_rounds(start, seconds, rounds):
        round_start = time.perf_counter()
        setup_probes(setup_times, problems)
        attempted += SETUP_PROBES
        # A lone request is followed item by item against the best so far.
        guide = best_items if len(reqs) == 1 else None
        pass_start = time.perf_counter()
        answers = [run_cli(r.argv, work.timeout, r.stamp, guide)
                   for r in reqs]
        walls.append(time.perf_counter() - pass_start)
        attempted += len(reqs)
        moves += sum(a["moves"] for a in answers)
        peak_kb = max([peak_kb] + [a["peak_kb"] for a in answers])
        problems += judge(reqs, answers, checked)
        try:
            items = fastest(best_items,
                            [t for a in answers for t in a["items"]])
            tails = fastest(best_tails, [a["tail"] for a in answers])
        except ValueError:
            # A wrong answer with another number of items; it is counted
            # as failed above and has no times to compare.
            problems.append(f"pass {len(walls)}: items differ in number")
        else:
            best_items, best_tails, used = items, tails, used + 1
        rounds.append(time.perf_counter() - round_start)
    wall = sum(best_items) + sum(best_tails)
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (work.items / wall, "1/s"),
        "request_p50_ms": (1000 * percentile(best_items, 50), "ms"),
        "request_p90_ms": (1000 * percentile(best_items, 90), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "success_rate": (1 - len(problems) / attempted, "ratio"),
    }
    details = {"passes": len(walls), "passes_used": used,
               "latency_samples": len(best_items),
               "pass_s": walls, "median_pass_s": statistics.median(walls),
               "setup_probes": SETUP_PROBES * len(setup_times),
               "cpu_moves": moves,
               "attempted": attempted,
               "failed": len(problems), "problems": problems[:20]}
    return metrics, details


# -- traced run ------------------------------------------------------------------

def in_process(reqs, trace: bool, name: str) -> dict:
    spec = {"src": str(SRC), "requests": [r.argv for r in reqs],
            "trace": trace, "spans": str(OUT / f"spans-{name}.jsonl")}
    spec_path = OUT / "tracer-spec.json"
    summary_path = OUT / "tracer-summary.json"
    spec_path.write_text(json.dumps(spec))
    summary_path.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, str(BENCH / "tracer.py"),
                           str(spec_path), str(summary_path)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S + 30)
    if done.returncode != 0:
        raise RuntimeError(f"tracer failed: {done.stderr[-2000:]}")
    return json.loads(summary_path.read_text())


LAYER_NAMES = list(dict.fromkeys(row[0] for row in tracer.LAYERS))
ITEM_LAYERS = {row[0] for row in tracer.LAYERS if row[3] == "iter"}
RATIOS = [f"{row[0]}.{row[4]}" for row in tracer.LAYERS if row[4]]


def per_layer(work: Workload, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes over the same
    requests.  Counts are per pass; times are medians over traced passes;
    a ratio is summed useful outcomes over summed attempts."""
    reqs = work.requests
    plain, traced, problems, attempted = [], [], [], 0
    checked: set = set()
    start, rounds = time.perf_counter(), []
    while more_rounds(start, seconds, rounds):
        round_start = time.perf_counter()
        for trace, bucket in ((False, plain), (True, traced)):
            summary = in_process(reqs, trace, work.name)
            bucket.append(summary)
            attempted += len(reqs)
            problems += judge(reqs, summary["results"], checked)
        rounds.append(time.perf_counter() - round_start)

    def med(layer, field):
        return statistics.median(
            s["layers"].get(layer, {}).get(field, 0.0) for s in traced)

    def mean(layer, field):
        return statistics.fmean(
            s["layers"].get(layer, {}).get(field, 0) for s in traced)

    metrics = {}
    for layer in LAYER_NAMES:
        count = "items" if layer in ITEM_LAYERS else "calls"
        metrics[f"{layer}.{count}"] = (mean(layer, count), "count")
        metrics[f"{layer}.busy_s"] = (med(layer, "busy_s"), "s")
        metrics[f"{layer}.self_s"] = (med(layer, "self_s"), "s")
    for ratio in RATIOS:
        useful = sum(s["ratios"].get(ratio, [0, 0])[0] for s in traced)
        tried = sum(s["ratios"].get(ratio, [0, 0])[1] for s in traced)
        metrics[ratio] = (useful / tried if tried else 0.0, "ratio")
    metrics["cli.calls"] = (mean("cli", "calls"), "count")
    metrics["cli.busy_s"] = (med("cli", "busy_s"), "s")
    metrics["cli.self_s"] = (med("cli", "self_s"), "s")
    metrics["cli.stdout_bytes"] = (statistics.fmean(
        sum(r["bytes"] for r in s["results"]) for s in traced), "bytes")
    metrics["trace.overhead"] = (statistics.median(
        t["elapsed_s"] / p["elapsed_s"] for t, p in zip(traced, plain)),
        "ratio")
    metrics["trace.spans"] = (statistics.fmean(s["spans"] for s in traced),
                              "count")
    details = {"passes": len(traced), "attempted": attempted,
               "failed": len(problems), "problems": problems[:20],
               "untraced_s": [p["elapsed_s"] for p in plain],
               "traced_s": [t["elapsed_s"] for t in traced],
               "spans_file": str((OUT / f"spans-{work.name}.jsonl")
                                 .relative_to(ROOT))}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "positroids" / "cli.py").is_file():
        print(f"no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    work = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, details = per_layer(work, args.seconds)
    else:
        metrics, details = end_to_end(work, args.seconds)
    details.update(workload=args.workload, seed=args.seed,
                   trace=args.trace, payload_gen_s=work.gen_s, env=env)
    attempted, failed = details.pop("attempted"), details.pop("failed")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"details": details, "result": result})
                     + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
