"""Fast self-test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that the generator is deterministic, that a tiny workload runs clean
through the CLI cycle and the traced run, that flipping one byte of
``chainlog.log`` makes the output checks fail and raises the failed share,
that a wrong pin is caught, and that the benchmark refuses to run without
the program's sources.  Exits 1 if any check fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import gen
import run as bench_run

TINY = gen.Shape(orgs=6, tx_steps=200, mix=gen.MIXED, transfer_milli=(1_000, 50_000),
                 why="self-test")

failures: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_bench(work, seed: int = 7) -> bench_run.Bench:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return bench_run.Bench("tiny", seed, work, shape=TINY)


def main() -> int:
    for name in gen.WORKLOADS:
        text = gen.generate(name, 3)
        expect(text == gen.generate(name, 3) and text != gen.generate(name, 4),
               f"generator: {name} is a function of the seed")

    root = bench_run.WORK / f"selftest-{os.getpid()}"
    try:
        bench = tiny_bench(root / "clean")
        run = bench.cycle()
        expect(run is not None and bench.failed == 0
               and bench.attempted == bench.n_steps + 4,
               f"clean cycle: {bench.failed} of {bench.attempted} operations failed "
               f"{bench.problems}")
        expect(bench.n_steps > TINY.tx_steps, "generator emits expect and expect_fail steps")
        if run is not None:
            metrics = bench.traced(run)
            expect(metrics is not None and bench.failed == 0,
                   f"traced run reproduces the untraced run {bench.problems}")
            expect(metrics is not None and metrics["runner.steps"] > 0
                   and metrics["ledger.rejected"] > 0,
                   "traced run records applied and rejected steps")

        bench = tiny_bench(root / "tamper")
        run = bench.run_command()
        clean_failed = bench.failed
        log = run.out / "chainlog.log"
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0x01
        log.write_bytes(bytes(data))
        bench.audit_commands(run)
        expect(clean_failed == 0 and bench.failed == 3,
               f"one flipped byte in chainlog.log fails verify, replay and journal "
               f"(failed {bench.failed} of {bench.attempted})")

        bench = tiny_bench(root / "pins")
        bench.pins = {"chainlog.log": "0" * 64}
        expect(bench.run_command() is None and bench.failed == 1,
               "a pinned hash that does not match fails the run")

        bare = root / "bare"
        shutil.copytree(bench_run.HERE, bare / bench_run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{bench_run.HERE.name}/run.py",
                               "--workload", "orgs10-mixed", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, timeout=60)
        expect(proc.returncode != 0 and b'"correct"' not in proc.stdout,
               f"refuses to run without the sources (exit {proc.returncode})")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            bench_run.WORK.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
