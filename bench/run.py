"""The menhir benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {verify,catalog,compose} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports `menhir` from `src/` there
and exits with code 2 when there is none.  Each run of a workload happens in
fresh child interpreters started one at a time from this process (no
threads), each through the small `launch.py` so that its peak RSS is its
own, with BLAS pinned to one thread, so set-up is a real cold start.
Scratch files live in `.bench_work/` and are removed at the end.

  verify   the `menhir verify -a all` traffic in-process: run_equivalence on
           all 8 lanes x both tiers x 1000 trials, in rounds of 100-trial
           slices of every lane x tier, master seeds from --seed
  catalog  the `aberrate` command through `menhir.cli.main` in-process,
           again and again, on a seeded catalog of 1000 3-D stars and a
           seeded velocity (|v| < 0.95)
  compose  closed loop, one caller: `compose` requests through
           `menhir.cli.main` in-process, cycling over real, complex,
           quaternion, clifford3, clifford5 and clifford10

With --trace 0 a run reports the end-to-end metrics.  The host's speed flips
between a fast and a slow state about 1.8x apart, and a spell can last from
seconds to minutes, so a median over a run moves with the share of the run
spent slow.  The time metrics therefore take each kind of operation's cost
as the floor (a low percentile, workloads.floor_s) of its times, sampled all
through the run: a trial of one lane x tier (verify), a request of one
algebra (compose), an aberrate command (catalog).  Where a whole run falls in
a slow spell even the floor is slow, so every time is then scaled to a fixed
host speed by a reference loop that runs no menhir code, timed between the
operations (workloads.HostSpeed).  ops_per_s is trials/s, stars/s or
requests/s of the workload's mix at those costs; slowest_op_ms is the cost
of its dearest kind (verify: the dearest lane x tier trial; compose: the
clifford10 request; catalog: the aberrate command).  setup_s is the median
of separate cold starts (SETUP_PROBES), half of them before the measured
work and half after, each scaled by the reference loop timed in that probe
right after its set-up.  peak_rss_mb is the measuring child's.  The raw
p50 and p99 latencies and the raw set-up median, host state included, are
printed too, but are not in the result.  With --trace 1 it
reports per-layer calls and self times from spans around the calls into each
`menhir` module (see spans.py), plus the tracing overhead against an
untraced pass of the same work.  Every operation's output is checked against
the Lorentz-matrix oracle, and every run also checks that its gate rejects a
deliberately perturbed output.  The last stdout line is the JSON result; the
lines before it give the environment and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

from workloads import WORK_DIR

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, WORK_DIR)
#: a run must end well within 180 s; children share what is left of this
DEADLINE_S = 170.0
#: cold starts per run, half before the measured work and half after; a
#: compose start builds the clifford10 tables (~3 s), the others ~0.3 s
SETUP_PROBES = {"verify": 21, "catalog": 21, "compose": 7}
#: thread pools pinned in every child, recorded with the environment
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0", **PINNED)


class Child:
    """A finished measured process, started through `launch.py`: its stdout
    lines, exit code and peak RSS as the launcher saw them, and its set-up
    time (spawn to its `ready` line, when it printed one)."""

    def __init__(self, argv: list[str], deadline: float):
        err_path = os.path.join(WORK, "stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "launch.py"), *argv],
                                    stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=CHILD_ENV,
                                    start_new_session=True)
        chunks = []
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    left = deadline - time.perf_counter()
                    if left <= 0:
                        raise TimeoutError(f"{argv} passed the run deadline")
                    if sel.select(left):
                        data = os.read(proc.stdout.fileno(), 1 << 16)
                        if not data:
                            break
                        chunks.append(data)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the process it started
            raise
        finally:
            proc.wait()
            proc.stdout.close()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        lines = b"".join(chunks).decode().splitlines()
        if not lines or not lines[-1].startswith("launched "):
            raise RuntimeError(f"launcher failed for {argv}")
        spawned, rss_kib, code = lines[-1].split()[1:]
        self.rss_mb = int(rss_kib) / 1024.0
        self.code = int(code)
        self.lines = lines[:-1]
        ready = [float(line.split()[1]) for line in self.lines if line.startswith("ready ")]
        self.setup_s = ready[0] - float(spawned) if ready else None
        scale = [float(line.split()[1]) for line in self.lines if line.startswith("host_scale ")]
        self.host_scale = scale[0] if scale else None

    def result(self) -> dict:
        if self.code != 0 or not self.lines:
            raise RuntimeError(f"child exited with code {self.code}")
        return json.loads(self.lines[-1])


def python_child(*args: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH, "child.py"), *args]


def setup_probes(workload: str, count: int, deadline: float) -> list[tuple[float, float]]:
    """Separate cold starts: (seconds from spawn until menhir and its tables
    are ready, the host's speed factor measured right after) per probe."""
    samples = []
    for _ in range(count):
        child = Child(python_child("setup", workload), deadline)
        if child.code != 0 or child.setup_s is None or child.host_scale is None:
            raise RuntimeError(f"set-up probe exited with code {child.code}")
        samples.append((child.setup_s, child.host_scale))
    return samples


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The measured run between two halves of the set-up probes."""
    total = SETUP_PROBES[workload]
    setup = setup_probes(workload, total // 2, deadline)
    child = Child(python_child("run", workload, str(seed), str(seconds)), deadline)
    setup += setup_probes(workload, total - total // 2, deadline)
    out = child.result()
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "selfcheck": out["selfcheck"],
        "samples": out["samples"] + f"; {total} set-up probes",
        "info": {**out["info"], "raw_setup_s": statistics.median(s for s, _ in setup)},
        "metrics": {
            "setup_s": statistics.median(s * scale for s, scale in setup),
            "ops_per_s": out["ops_per_s"],
            "slowest_op_ms": out["slowest_op_ms"],
            "peak_rss_mb": child.rss_mb,
        },
    }


# -- environment and report ---------------------------------------------------------------

def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "child_env": PINNED,
    }


def declared_metrics(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "catalog", "compose"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "menhir", "__init__.py")):
        print(f"error: no src/menhir under {ROOT}; run from the root of a menhir checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # a terminated run still kills and reaps the process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            out = Child(python_child("trace", args.workload, str(args.seed)), deadline).result()
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(out["metrics"]) != set(units):
        raise SystemExit(f"emitted metrics differ from BENCHMARK.json: "
                         f"{sorted(set(out['metrics']) ^ set(units))}")
    print("environment " + json.dumps(environment()))
    if "samples" in out:
        print(f"{args.workload} latency samples: {out['samples']}")
    for name, value in out.get("info", {}).items():
        unit = name.rsplit("_", 1)[1] if name.endswith(("_ms", "_s")) else "(factor)"
        print(f"{args.workload} {name} = {value!r} {unit} (not in the result)")
    if "selfcheck" in out:  # end-to-end runs only
        print(f"{args.workload} self-check of the gate: {'ok' if out['selfcheck'] else 'FAILED'}")
    for name, value in out["metrics"].items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": out["failed"] == 0 and out.get("selfcheck", True),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
