"""One fresh interpreter per benchmark run; started by `run.py`, never by hand.

    python bench/child.py setup <workload>
    python bench/child.py run <workload> <seed> <seconds>
    python bench/child.py trace <workload> <seed>

Every mode prints `ready <perf_counter>` once `menhir` is imported and the
algebra tables the workload uses are built (the parent times set-up from its
own clock reading before the spawn; both are CLOCK_MONOTONIC).  `setup` then
prints `host_scale <factor>`, the host's speed right after that set-up (see
workloads.HostSpeed); every other mode prints one JSON line with its result.  `src/` must be on
PYTHONPATH, and the catalog files are written under WORK_DIR in the
working directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from spans import Tracer
from workloads import (
    COMPOSE_TAGS,
    VERIFY_SLICE,
    VERIFY_TIERS,
    VERIFY_TRIALS,
    WORK_DIR,
    HostSpeed,
    catalog_failures,
    catalog_inputs,
    compose_error,
    compose_requests,
    element_text,
    expected_shift,
    floor_metrics,
    floor_s,
    perturb_row,
    perturb_velocity,
    raw_percentiles_ms,
    verify_master_seed,
    write_catalog,
)

#: rounds of slices in one `verify -a all` pass
VERIFY_ROUNDS = VERIFY_TRIALS // VERIFY_SLICE
#: requests per pass of the traced compose run (120 cycles over the tags)
TRACE_COMPOSE_REQUESTS = 120 * len(COMPOSE_TAGS)
#: aberrate commands per pass of the traced catalog run (10^5 stars)
TRACE_CATALOG_COMMANDS = 100
#: reference loops (~1.1 ms each) timed after a set-up probe's set-up
SETUP_SPEED_SAMPLES = 40


def setup(workload: str):
    if workload == "verify":
        import menhir  # noqa: F401  (builds every CONFIGS table on import)
    else:
        import menhir.cli  # noqa: F401  (what `python -m menhir.cli` loads)
    if workload == "compose":
        from menhir.parsing import parse_algebra_tag

        for tag, _ in COMPOSE_TAGS:
            parse_algebra_tag(tag)  # clifford10 dominates: ~2 s of table build
    print(f"ready {time.perf_counter()!r}", flush=True)


def run_info(samples, host: HostSpeed) -> dict[str, float]:
    """What a run prints beside its result: the raw latency percentiles over
    every operation (`samples`: lists of seconds) and the host's speed."""
    return {**raw_percentiles_ms([t for times in samples for t in times]), **host.info()}


def untraced_then_traced(steps: list) -> tuple[Tracer, float, float, list]:
    """Run each step (a callable given the tracer, or None) untraced and then
    traced, step by step, so that a slow spell of the host falls on both
    sides alike: (tracer, untraced seconds, traced seconds, every result)."""
    tracer = Tracer()
    untraced = traced = 0.0
    done = []
    for step in steps:
        start = time.perf_counter()
        done.append(step(None))
        untraced += time.perf_counter() - start
        with tracer.installed():
            start = time.perf_counter()
            done.append(step(tracer))
            traced += time.perf_counter() - start
    return tracer, untraced, traced, done


def trace_result(tracer: Tracer, untraced: float, traced: float, attempted: int, failed: int) -> dict:
    metrics = tracer.summary(traced)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# -- verify ------------------------------------------------------------------------

def timed(fn, times: list):
    """`fn`, appending the seconds of each call to `times`."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)
    return wrapper


def verify_round(seed: int, index: int, samples: dict | None = None,
                 host: HostSpeed | None = None) -> tuple[int, int]:
    """One slice of VERIFY_SLICE trials of every lane x tier, all from the
    round's master seed: (trials attempted, trials failed); a raised
    exception fails its slice.  With `samples`, each trial's seconds are
    appended to samples["<lane>/<tier>"]; with `host`, its speed is sampled
    before every slice."""
    from menhir import verify

    master = verify_master_seed(seed, index)
    original = verify.composition_trial
    attempted = failed = 0
    for tier in VERIFY_TIERS:
        for key in verify.CONFIGS:
            if host is not None:
                host.sample()
            if samples is not None:
                verify.composition_trial = timed(original, samples.setdefault(f"{key}/{tier}", []))
            attempted += VERIFY_SLICE
            try:
                report = verify.run_equivalence(key, VERIFY_SLICE, master, tier)
            except Exception as exc:  # counted, reported, and the run goes on
                print(f"verify {key}/{tier} raised {exc!r}", file=sys.stderr)
                failed += VERIFY_SLICE
                continue
            finally:
                verify.composition_trial = original
            failed += len(report.failures)
            if not report.ok:
                print(f"verify {key}/{tier}: {len(report.failures)} failures", file=sys.stderr)
    return attempted, failed


def verify_gate_selfcheck(master: int) -> bool:
    """A trial whose velocity error is pushed 1e-6 past the oracle must fail the gate."""
    from menhir import verify

    original = verify.composition_trial
    seen = []

    def perturbed(rng, key, tier="normal"):
        v_err, r_err, v, w = original(rng, key, tier)
        seen.append(1)
        return v_err + (1e-6 if len(seen) == 1 else 0.0), r_err, v, w

    verify.composition_trial = perturbed
    try:
        report = verify.run_equivalence("clifford3", 3, master, "normal")
    finally:
        verify.composition_trial = original
    return len(report.failures) == 1


def run_verify(seed: int, seconds: float) -> dict:
    """Rounds of slices until `seconds` have passed, at least one whole pass.

    Every trial is timed; a lane x tier's cost is the floor of its trial
    times (see workloads.floor_s), and every lane x tier runs equally often.
    """
    samples, host = {}, HostSpeed()
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < VERIFY_ROUNDS or time.perf_counter() - start < seconds:
        a, f = verify_round(seed, rounds, samples, host)
        attempted, failed, rounds = attempted + a, failed + f, rounds + 1
    return {
        "attempted": attempted,
        "failed": failed,
        **floor_metrics(samples, host),
        "info": run_info(samples.values(), host),
        "samples": f"{rounds} rounds; {len(samples)} lane x tier blocks of "
                   f"{rounds * VERIFY_SLICE} trials",
        "selfcheck": verify_gate_selfcheck(verify_master_seed(seed, 0)),
    }


def trace_verify(seed: int) -> dict:
    """One `verify -a all` pass each way, round by round."""
    steps = [lambda tracer, index=index: verify_round(seed, index) for index in range(VERIFY_ROUNDS)]
    tracer, untraced, traced, done = untraced_then_traced(steps)
    attempted, failed = map(sum, zip(*done))
    return trace_result(tracer, untraced, traced, attempted, failed)


# -- compose ------------------------------------------------------------------------

def request(main, argv, out: io.StringIO) -> tuple[str, float, str | None]:
    """One in-process CLI invocation: (stdout, seconds, error or None).

    Every request of a run writes into the same `out` buffer: click caches a
    wrapper per stdout object and never drops it, so a fresh buffer per
    request would grow the process by ~3 KB a request and tie peak RSS to
    throughput.
    """
    out.seek(0)
    out.truncate()
    start = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            main(argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit code {exc.code}"
    except Exception as exc:  # a raised exception is a failed request
        error = f"raised {exc!r}"
    return out.getvalue(), time.perf_counter() - start, error


def run_compose(seed: int, seconds: float) -> dict:
    """Closed loop, one caller: the next request is sent when the last returns.

    Requests cycle over the algebras, so each runs equally often; an
    algebra's cost is the floor of its request times (see workloads.floor_s).
    """
    from menhir.cli import main

    samples, host = {tag: [] for tag, _ in COMPOSE_TAGS}, HostSpeed()
    first = {}
    attempted = failed = 0
    requests = compose_requests(seed)
    buffer = io.StringIO()
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < seconds:
        host.sample()
        for _ in COMPOSE_TAGS:
            tag, n, v, w, argv = next(requests)
            out, took, error = request(main, argv, buffer)
            samples[tag].append(took)
            attempted += 1
            error = error or compose_error(out, tag, n, v, w)
            if error:
                failed += 1
                print(f"compose {argv}: {error}", file=sys.stderr)
            else:
                first.setdefault(tag, (out, n, v, w))
    selfcheck = len(first) == len(COMPOSE_TAGS) and all(
        compose_error(perturb_velocity(out, tag, n), tag, n, v, w) is not None
        for tag, (out, n, v, w) in first.items()
    )
    return {
        "attempted": attempted,
        "failed": failed,
        **floor_metrics(samples, host),
        "info": run_info(samples.values(), host),
        "samples": f"{attempted // len(COMPOSE_TAGS)} requests of each of "
                   f"{len(COMPOSE_TAGS)} algebras",
        "selfcheck": selfcheck,
    }


def trace_compose(seed: int) -> dict:
    """Each way: rebuild the algebra tables, then TRACE_COMPOSE_REQUESTS
    requests, a cycle over the algebras at a time."""
    from menhir.algebra import clifford
    from menhir.cli import main
    from menhir.parsing import parse_algebra_tag

    def tables(tracer):
        clifford.cache_clear()
        for tag, _ in COMPOSE_TAGS:
            parse_algebra_tag(tag)
        return []

    buffer = io.StringIO()

    def cycle(requests, tracer):
        done = []
        for tag, n, v, w, argv in requests:
            with tracer.span("cli") if tracer else contextlib.nullcontext():
                out, _, error = request(main, argv, buffer)
            done.append((out, error, tag, n, v, w))
        return done

    stream = compose_requests(seed)
    cycles = [[next(stream) for _ in COMPOSE_TAGS]
              for _ in range(TRACE_COMPOSE_REQUESTS // len(COMPOSE_TAGS))]
    steps = [tables] + [lambda tracer, requests=requests: cycle(requests, tracer) for requests in cycles]
    tracer, untraced, traced, done = untraced_then_traced(steps)
    done = [response for step in done for response in step]
    failed = sum(bool(error or compose_error(out, tag, n, v, w)) for out, error, tag, n, v, w in done)
    return trace_result(tracer, untraced, traced, len(done), failed)


# -- catalog ------------------------------------------------------------------------

class Catalog:
    """The seeded star file, its oracle shifts, and the aberrate command."""

    def __init__(self, seed: int):
        self.labels, self.stars, v = catalog_inputs(seed)
        os.makedirs(WORK_DIR, exist_ok=True)
        self.path = os.path.join(WORK_DIR, "catalog.csv")
        self.out_path = os.path.join(WORK_DIR, "shifted.csv")
        write_catalog(self.path, self.labels, self.stars)
        self.expected = expected_shift(self.stars, v)
        self.argv = ["aberrate", f"--velocity={element_text('clifford3', v)}",
                     "--catalog", self.path, "--out", self.out_path]
        self.buffer = io.StringIO()

    def aberrate(self, tracer: Tracer | None = None) -> tuple[float, str, str | None]:
        """One aberrate command in-process: (seconds, output file text, error or None)."""
        from menhir.cli import main

        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        with tracer.span("cli") if tracer else contextlib.nullcontext():
            _, took, error = request(main, self.argv, self.buffer)
        text = ""
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return took, text, error

    def failures(self, text: str, error: str | None) -> int:
        """Rows that miss the oracle; every row when the command failed."""
        if error:
            print(f"aberrate {self.argv}: {error}", file=sys.stderr)
            return len(self.labels)
        return catalog_failures(text, self.labels, self.stars, self.expected)


def run_catalog(seed: int, seconds: float) -> dict:
    """The same seeded catalog, one aberrate command after another; the
    command's cost is the floor of its times (see workloads.floor_s)."""
    catalog = Catalog(seed)
    stars = len(catalog.labels)
    times, good, host = [], "", HostSpeed()
    failed = 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        host.sample()
        took, text, error = catalog.aberrate()
        times.append(took)
        bad = catalog.failures(text, error)
        failed += bad
        good = good or (text if not bad else "")
    cost = floor_s(times) * host.scale()
    return {
        "attempted": stars * len(times),
        "failed": failed,
        "ops_per_s": stars / cost,
        "slowest_op_ms": 1e3 * cost,
        "info": run_info([times], host),
        "samples": f"{len(times)} aberrate commands of {stars} stars",
        "selfcheck": bool(good) and catalog.failures(perturb_row(good, stars // 2), None) == 1,
    }


def trace_catalog(seed: int) -> dict:
    """TRACE_CATALOG_COMMANDS aberrate commands each way."""
    catalog = Catalog(seed)
    tracer, untraced, traced, done = untraced_then_traced([catalog.aberrate] * TRACE_CATALOG_COMMANDS)
    failed = sum(catalog.failures(text, error) for _, text, error in done)
    return trace_result(tracer, untraced, traced, len(done) * len(catalog.labels), failed)


def main(argv: list[str]):
    mode, workload = argv[0], argv[1]
    setup(workload)
    if mode == "setup":
        host = HostSpeed()
        for _ in range(SETUP_SPEED_SAMPLES):
            host.sample()
        print(f"host_scale {host.scale()!r}", flush=True)
        return
    seed = int(argv[2])
    if mode == "run":
        run = {"verify": run_verify, "catalog": run_catalog, "compose": run_compose}[workload]
        result = run(seed, float(argv[3]))
    else:
        trace = {"verify": trace_verify, "catalog": trace_catalog, "compose": trace_compose}[workload]
        result = trace(seed)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
