"""carbonmarket benchmark: CLI wall time on seeded workloads, and a traced
per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload orgs10-mixed --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's scenario from the seed, then, for
``--seconds`` seconds, repeats one cycle of CLI commands, each its own
process with ``src`` on PYTHONPATH:

    carbonmarket run SCENARIO --out DIR
    carbonmarket verify DIR/chainlog.log
    carbonmarket replay DIR/chainlog.log DIR/genesis.json
    carbonmarket journal DIR/chainlog.log

and checks every output: ``run`` exits 0 with every step as expected,
``verify`` prints ``chain valid``, ``replay`` reproduces the state digest
``run`` printed, ``journal`` reproduces ``journal.csv``, every cycle writes
the same bytes, and at the default seed the sha256 of ``chainlog.log``,
``journal.csv`` and ``balances.csv`` matches ``pins.json``.  With
``--trace 1`` half the time goes to those cycles and the rest to traced
runs (``traced.py``), from whose spans the per-layer metrics come; a traced
run must reproduce the untraced state digest and output bytes exactly.  The
per-layer metrics also carry the raw wall-clock medians of the untraced
commands (``wall.*``; the end-to-end times are host-speed scaled, see
below).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
Scratch files live under ``.perfbench_work/`` in the checkout and are
removed on exit.  Exit code 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

PINNED_FILES = ("chainlog.log", "journal.csv", "balances.csv")
COMMAND_TIMEOUT_S = 150
MIN_CYCLES = 2
LAST_START_S = 110        # start no cycle later than this, so a run ends within 180 s
SETUP_SAMPLES = 15

# The speed of a shared host drifts by tens of percent over minutes, and the
# drift moves every process alike.  Each timed command is therefore bracketed
# by a fixed calibration workload run in this process, and its wall time is
# reported at the reference speed:
#     time = wall * CALIBRATION_REF_S / mean(calibration before, after)
# Raw wall-clock medians are printed alongside, and with --trace 1 they are
# reported as the per-layer metrics in WALL.
CALIBRATION_REF_S = 0.003
CALIBRATION_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "run_tx_per_s": "1/s",
    "verify_s": "s",
    "replay_s": "s",
    "journal_s": "s",
    "run_peak_rss_mb": "MB",
    "log_bytes_per_tx": "B",
}

# raw wall-clock medians of the timed commands, reported with --trace 1
WALL = {f"wall.{name}": "s" for name in
        ("setup_s", "run_s", "verify_s", "replay_s", "journal_s")}


@dataclass
class Proc:
    """One finished child process."""

    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    time_s: float = 0.0       # wall_s at the reference host speed


def _calibration_work() -> int:
    """A fixed mix of what the CLI spends its time on: JSON, hashing,
    per-character scanning and small dicts."""
    rows = [{"id": f"E{i:04d}", "permit": i * 1_000_003, "cash": i * 7,
             "projects": [str(i)]} for i in range(300)]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    total = hashlib.sha256(text.encode()).digest()[0]
    for row in json.loads(text):
        total += row["permit"] // 7 + len(row["id"])
    for ch in text:
        if ch.isdigit():
            total += 1
        elif ch in "{}[],":
            total -= 1
    counts: dict[str, int] = {}
    for i in range(3000):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
    return total + len(counts)


def calibration_s() -> float:
    """Median time of the calibration workload right now."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(argv: list[str], env: dict, scratch: Path) -> Proc:
    """Run argv to completion; wall time from spawn to reaped, and the peak
    RSS of that process alone (wait4 rusage, not RUSAGE_CHILDREN)."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024,
                out_path.read_bytes(), err_path.read_bytes())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunOutput:
    out: Path
    digest: str
    tx: int


@dataclass
class Bench:
    workload: str
    seed: int
    work: Path
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    shape: gen.Shape | None = None
    calibration: float = 0.0          # the latest calibration time

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.scenario = self.work / "scenario.yaml"
        text = gen.generate(self.workload, self.seed, self.shape)
        self.scenario.write_text(text, encoding="utf-8")
        self.n_steps = sum(1 for line in text.splitlines() if line.startswith("  - {time:"))
        # output hashes are pinned for the named workloads at the default seed
        self.pins = None
        if self.shape is None and self.seed == gen.DEFAULT_SEED:
            self.pins = json.loads(PINS.read_text(encoding="utf-8")).get(self.workload, {})

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
            self.failed += 1
        return ok

    def sample_time(self, name: str, proc: Proc):
        self.sample(name, proc.time_s)
        self.sample(f"wall.{name}", proc.wall_s)

    def python(self, *args: str) -> Proc:
        before = self.calibration or calibration_s()
        proc = spawn([sys.executable, *args], self.env, self.work)
        self.calibration = calibration_s()
        proc.time_s = proc.wall_s * CALIBRATION_REF_S / ((before + self.calibration) / 2)
        return proc

    def cli(self, *args: str) -> Proc:
        return self.python("-m", "carbonmarket.cli", *args)

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Fresh-interpreter import of carbonmarket.cli; the first import
        compiles bytecode and is not timed."""
        for i in range(SETUP_SAMPLES + 1):
            proc = self.python("-c", "import carbonmarket.cli")
            if proc.code != 0:
                raise SystemExit("cannot import carbonmarket.cli:\n"
                                 + proc.stderr.decode(errors="replace"))
            if i:
                self.sample_time("setup_s", proc)

    # -- one cycle -----------------------------------------------------------

    def run_command(self) -> RunOutput | None:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        proc = self.cli("run", str(self.scenario), "--out", str(out))
        self.attempted += self.n_steps + 1
        steps_ok = 0
        if (out / "run.csv").is_file():
            with open(out / "run.csv", newline="", encoding="utf-8") as handle:
                steps_ok = sum(row["status"] in ("applied", "rejected", "assert-ok")
                               for row in csv.DictReader(handle))
        self.failed += self.n_steps - steps_ok
        last = proc.stdout.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        if not self.check(proc.code == 0 and last.startswith("state-digest ")
                          and all((out / name).is_file() for name in PINNED_FILES),
                          f"run exited {proc.code}: "
                          + proc.stderr.decode(errors="replace").strip()):
            return None
        self.sample_time("run_s", proc)
        self.sample("run_peak_rss_mb", proc.peak_rss_mb)
        hashes = {name: sha256(out / name) for name in PINNED_FILES}
        expected = self.pins if self.pins is not None else self.reference or hashes
        if not self.check(hashes == expected,
                          f"run outputs differ from "
                          f"{'the first cycle' if self.pins is None else 'pins.json'}: {hashes}"):
            return None
        self.reference = hashes
        log = (out / "chainlog.log").read_bytes()
        tx = log.count(b"\n") - 2
        self.sample("log_bytes_per_tx", len(log) / tx)
        return RunOutput(out, last.split(" ", 1)[1], tx)

    def audit_commands(self, run: RunOutput):
        log, genesis = str(run.out / "chainlog.log"), str(run.out / "genesis.json")
        self.attempted += 3
        proc = self.cli("verify", log)
        if self.check(proc.code == 0 and proc.stdout == b"chain valid\n",
                      f"verify: exit {proc.code}, {proc.stdout[:200]!r}"):
            self.sample_time("verify_s", proc)
        proc = self.cli("replay", log, genesis)
        first = proc.stdout.split(b"\n", 1)[0].decode(errors="replace")
        if self.check(proc.code == 0 and first.endswith(f"state-digest {run.digest}"),
                      f"replay: exit {proc.code}, {first!r} (run said {run.digest})"):
            self.sample_time("replay_s", proc)
        proc = self.cli("journal", log)
        if self.check(proc.code == 0 and proc.stdout == (run.out / "journal.csv").read_bytes(),
                      f"journal: exit {proc.code}, output differs from journal.csv"):
            self.sample_time("journal_s", proc)

    def cycle(self) -> RunOutput | None:
        run = self.run_command()
        if run is None:
            self.attempted += 3
            self.failed += 3
        else:
            self.audit_commands(run)
        return run

    # -- traced run ----------------------------------------------------------

    def traced(self, run: RunOutput) -> dict | None:
        out = self.work / "traced"
        shutil.rmtree(out, ignore_errors=True)
        run_spans, audit_spans = self.work / "spans-run.json", self.work / "spans-audit.json"
        script = str(HERE / "traced.py")
        self.attempted += 2
        proc = self.python(script, "run", str(self.scenario), str(out), str(run_spans))
        last = proc.stdout.decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
        same = proc.code == 0 and last == f"state-digest {run.digest}" and all(
            (out / name).read_bytes() == (run.out / name).read_bytes()
            for name in PINNED_FILES)
        if not self.check(same, f"traced run does not reproduce the untraced run "
                                f"(exit {proc.code}): "
                                + proc.stderr.decode(errors="replace").strip()):
            self.failed += 1          # the audit that cannot follow
            return None
        traced_s = proc.time_s
        proc = self.python(script, "audit", str(out), str(audit_spans))
        lines = proc.stdout.decode(errors="replace").split("\n")
        if not self.check(proc.code == 0 and lines[0] == "chain valid"
                          and len(lines) > 1 and lines[1].startswith("replay ok")
                          and lines[1].endswith(f"state-digest {run.digest}"),
                          f"traced audit failed (exit {proc.code}): "
                          + proc.stderr.decode(errors="replace").strip()):
            return None
        metrics = tracer.run_metrics(tracer.load(run_spans), tracer.load(audit_spans))
        metrics["traced_s"] = traced_s
        return metrics


def measure(bench: Bench, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (metric -> median, metric -> sample count); empty if an
    output check failed."""
    start = time.perf_counter()
    bench.setup()
    untraced_until = start + (seconds / 2 if trace else seconds)
    last, cycles = 0.0, 0
    while True:
        now = time.perf_counter()
        if cycles >= MIN_CYCLES and (now + last > untraced_until or now - start > LAST_START_S):
            break
        out = bench.cycle()
        last = time.perf_counter() - now
        cycles += 1
        if out is None:
            return {}, {}
        run = out
    values = {name: statistics.median(v) for name, v in bench.samples.items()}
    counts = {name: len(v) for name, v in bench.samples.items()}
    values["run_tx_per_s"] = run.tx / values["run_s"]
    counts["run_tx_per_s"] = counts["run_s"]
    if not trace:
        return values, counts

    deadline = start + seconds
    per_run, last = [], 0.0
    while not per_run or (time.perf_counter() + last <= deadline
                          and time.perf_counter() - start <= LAST_START_S):
        t = time.perf_counter()
        metrics = bench.traced(run)
        last = time.perf_counter() - t
        if metrics is None:
            return {}, {}
        per_run.append(metrics)
    for metrics in per_run:
        metrics["trace.overhead_ratio"] = metrics.pop("traced_s") / values["run_s"]
    values.update(tracer.combine(per_run))
    counts.update({name: len(per_run) for name in tracer.LAYER_METRICS})
    return values, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "carbonmarket" / "cli.py").is_file():
        print(f"perfbench: no carbonmarket sources under {SRC}", file=sys.stderr)
        return 2

    # the calibration tracks host speed best on the CPU the commands run on:
    # pin this process, and so every child, to one CPU
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        values, counts = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = {**tracer.LAYER_METRICS, **WALL} if args.trace else END_TO_END
    for name, unit in {**END_TO_END, **units}.items():
        if name in values:
            wall = values.get(f"wall.{name}")
            print(f"{args.workload} {name} = {values[name]:.6g} {unit} (n={counts[name]}"
                  + (f", wall-clock median {wall:.6g} s)" if wall else ")"))
    if bench.reference:
        for name, digest in bench.reference.items():
            print(f"{args.workload} sha256 {name} = {digest}")
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{args.workload} failed_ratio = {ratio:.6g} ({bench.failed} of {bench.attempted} "
          f"operations)")
    for problem in bench.problems[:10]:
        print(f"{args.workload} FAILED: {problem}", file=sys.stderr)

    correct = bench.failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
