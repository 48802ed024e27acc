"""Benchmark of fraclab sessions, driven through its command line.

    python3 perfbench/run.py --workload readme-cold --seed 1 --seconds 30 --trace 0

One client, closed loop: this process starts one ``fraclab`` process at a
time and waits for it.  A run has four phases:

1. a warm-up process (``fraclab figure1``, which imports every module), so
   bytecode and the page cache are filled as they are for a returning user;
2. set-up samples, each a fresh process, timed as ``setup_s``;
3. rounds of the workload's commands: another round starts while the rounds
   so far plus the last one's length stay within ``--seconds``, and always
   until the workload's ``min_rounds``;
4. the check of every output against ``checks``, made after each round so
   that it is not timed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run makes one untraced set-up
sample and round, then one traced set-up sample and round through
``runner.py``, and prints the per-layer metrics instead.

Every ``fraclab`` process runs with ``FRACLAB_CACHE`` removed, the numeric
libraries held to one thread, a fixed ``PYTHONHASHSEED``, and its bytecode,
caches and outputs under ``perfbench/.scratch``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checks
import runner
import workloads
from checks import Mismatch, Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / ".scratch"

#: what the installed ``fraclab`` console script runs
FRACLAB = "import sys; from fraclab.cli import main; sys.exit(main())"
SETUP_TABLES = ("import fraclab; "
                f"fraclab.build_jordan2(fraclab.build_tables({runner.SETUP_LIMIT}))")

#: a run starts no round it expects to end after this many seconds
DEADLINE_S = 160.0
SETUP_SAMPLES = 3

#: what a check raises on a wrong or malformed output, or a missing cache file
WRONG_OUTPUT = (Mismatch, ValueError, LookupError, OSError)

END_TO_END = {"session_s": "s", "cmd_p50_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: str
    spans: Optional[dict] = None


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of the host's speed."""
    start = time.perf_counter()
    s = 0
    for i in range(2_000_000):
        s += i * i % 7
    return time.perf_counter() - start


class Launcher:
    """Starts one child at a time, in the pinned environment, through
    ``spawner.py``, which reaps it with ``os.wait4`` and so reports the
    child's own wall time, CPU time and peak RSS.  Use it as a context
    manager: leaving it stops the spawner."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k != "FRACLAB_CACHE"}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(SCRATCH / "pycache"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=run_dir, text=True)
        self.count = 0

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, argv: List[str]) -> Proc:
        self.count += 1
        out_path = self.run_dir / f"p{self.count}.out"
        err_path = self.run_dir / f"p{self.count}.err"
        request = {"argv": argv, "out": str(out_path), "err": str(err_path),
                   "cwd": str(self.run_dir),
                   "timeout": max(1.0, self.deadline + 15.0 - time.perf_counter())}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        text = out_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return Proc(reply["rc"], reply["wall_s"], reply["cpu_s"], reply["rss_kb"] / 1024.0,
                    text)

    def fraclab(self, args: List[str], spans: Optional[Path] = None) -> Proc:
        if spans is None:
            return self.run([sys.executable, "-c", FRACLAB] + args)
        return self.run([sys.executable, str(BENCH / "runner.py"), str(spans)] + args)


class Run:
    def __init__(self, workload: workloads.Workload, seconds: float, launcher: Launcher):
        self.workload = workload
        self.seconds = seconds
        self.launcher = launcher
        self.run_dir = launcher.run_dir
        self.ref = Reference(workload.ref_limit)
        self.cache = str(self.run_dir / "sieve.muv")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.rss: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def _fail(self, what: str, why: str, expected: bool = False) -> None:
        print(f"perfbench: {what}: {why}", file=sys.stderr)
        if not expected:
            self.correct = False

    def _spans(self, label: str) -> Path:
        return self.run_dir / f"{label}.spans.json"

    def warm_up(self) -> None:
        proc = self.launcher.fraclab(["figure1"])
        try:
            if proc.rc != 0:
                raise Mismatch(f"exit status {proc.rc}")
            checks.check_figure1(proc.out)
        except WRONG_OUTPUT as exc:
            raise SystemExit(f"perfbench: fraclab does not run here: {exc}")

    def setup(self, traced: bool = False) -> Proc:
        """One fresh-process set-up sample, checked."""
        spans = self._spans(f"setup{self.launcher.count}") if traced else None
        if self.workload.setup_args is None:
            if traced:
                proc = self.launcher.fraclab(["--setup-tables"], spans)
            else:
                proc = self.launcher.run([sys.executable, "-c", SETUP_TABLES])
        else:
            if os.path.exists(self.cache):
                os.unlink(self.cache)
            args = [a.replace("{cache}", self.cache) for a in self.workload.setup_args]
            proc = self.launcher.fraclab(args, spans)
        self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)
        try:
            if proc.rc != 0:
                raise Mismatch(f"exit status {proc.rc}")
            self.workload.check_setup(proc.out, self.ref, self.cache)
        except WRONG_OUTPUT as exc:
            self._fail("set-up", str(exc))
        if spans is not None:
            proc.spans = runner.read_spans(spans)
        return proc

    def round(self, number: int, traced: bool = False):
        """One round; returns (wall_s, cpu_s, per-op procs).  Checks come after."""
        round_cache = str(self.run_dir / f"round{number}.muv")
        if self.workload.setup_args is not None:
            shutil.copyfile(self.cache, round_cache)
        procs = []
        start = time.perf_counter()
        for i, op in enumerate(self.workload.ops):
            args = [a.replace("{cache}", self.cache).replace("{round_cache}", round_cache)
                    for a in op.args]
            spans = self._spans(f"r{number}-{i}") if traced else None
            procs.append((op, args, spans, self.launcher.fraclab(args, spans)))
        wall = time.perf_counter() - start
        for op, args, spans, proc in procs:
            self.attempted += 1
            self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)
            self.rss[args[0]] = max(self.rss.get(args[0], 0.0), proc.rss_mb)
            try:
                if proc.rc != op.rc:
                    raise Mismatch(f"exit status {proc.rc}, expected {op.rc}")
                op.check(proc.out, self.ref, round_cache)
            except WRONG_OUTPUT as exc:
                self.failed += 1
                known = (op.known_fault is not None and proc.rc == op.rc
                         and proc.out.splitlines() == op.known_fault)
                self._fail(f"round {number} {op.name}", str(exc), known)
            if spans is not None:
                proc.spans = runner.read_spans(spans)
        if self.workload.setup_args is not None:
            try:
                self.workload.check_cache(self.cache, self.ref)
            except WRONG_OUTPUT as exc:
                self._fail(f"round {number} left the set-up cache changed", str(exc))
        if os.path.exists(round_cache):
            os.unlink(round_cache)
        cpu = sum(proc.cpu_s for _, _, _, proc in procs)
        return wall, cpu, [proc for _, _, _, proc in procs]

    def end_to_end(self) -> Dict[str, float]:
        setups = [self.setup().wall_s for _ in range(SETUP_SAMPLES)]
        walls, cpus, cmds = [], [], []
        measured = 0.0
        while True:
            wall, cpu, procs = self.round(len(walls) + 1)
            walls.append(wall)
            cpus.append(cpu)
            cmds.extend(proc.wall_s for proc in procs)
            measured += wall
            print(f"perfbench: round {len(walls)}: {wall:.3f} s (" + ", ".join(
                f"{op.name} {proc.wall_s:.3f}" for op, proc in zip(self.workload.ops, procs))
                + ")", file=sys.stderr)
            now = time.perf_counter()
            if now + wall > self.launcher.deadline or (
                    len(walls) >= self.workload.min_rounds and measured + wall > self.seconds):
                break
        return {
            "session_s": statistics.median(walls),
            "cmd_p50_s": statistics.median(cmds),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        loops = [ref_loop()]
        untraced = self.setup().wall_s
        untraced += self.round(1)[0]
        rss = dict(self.rss)
        loops.append(ref_loop())
        setup = self.setup(traced=True)
        wall, _, procs = self.round(2, traced=True)
        loops.append(ref_loop())
        processes = [{"spans": p.spans, "wall_s": p.wall_s} for p in [setup] + procs]
        return runner.layer_metrics(processes, rss, statistics.median(loops),
                                    setup.wall_s + wall, untraced)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fraclab" / "cli.py").is_file():
        print(f"perfbench: no fraclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    run_dir = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        with Launcher(run_dir, time.perf_counter() + DEADLINE_S) as launcher:
            run = Run(workloads.make(args.workload, args.seed), args.seconds, launcher)
            run.warm_up()
            if args.trace:
                values = run.per_layer()
                units = {name: unit for name, unit, _ in runner.PER_LAYER}
            else:
                values = run.end_to_end()
                units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
