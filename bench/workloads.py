"""Seeded inputs, correctness gates and the timing rule of the benchmark.

Everything here is deterministic in the benchmark seed.  The gates compare
the program's outputs with the explicit Lorentz-matrix oracle
(`menhir.lorentz`) and count each operation that misses it as failed; text
outputs are read back with a parser of the benchmark's own, so a fault in
`menhir.parsing` cannot hide one in the arithmetic.  `menhir` is imported
where it is used: `run.py` imports this module before it has found `src/`.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction

import numpy as np

#: absolute tolerance on every compared velocity, rotation and star position
TOL = 1e-9
#: scratch directory, under the checkout root, for the catalog files
WORK_DIR = ".bench_work"

# -- timing: an operation's cost at a fixed host speed ------------------------------

#: percentile of one kind of operation's times taken as its cost.  The host's
#: speed flips between a fast and a slow state (~1.8x apart) every few seconds,
#: and how long a run spends in each varies from run to run; a median over the
#: run moves with that share, a low percentile of many samples spread over the
#: whole run does not.
FLOOR_PERCENTILE = 1
#: floor seconds of `reference_loop` at the host speed every reported time is
#: scaled to: about its floor (1.10-1.16 ms) on the 2-vCPU Intel Xeon host of
#: the first baseline
REFERENCE_S = 0.0011

_REFERENCE_MATRIX = np.eye(4)


def floor_s(times) -> float:
    """Cost of one kind of operation from all its timed samples in a run."""
    return float(np.percentile(times, FLOOR_PERCENTILE))


def reference_loop() -> float:
    """Fixed interpreter and small-array work that touches no `menhir` code."""
    total = 0
    table = {}
    for i in range(5000):
        total += i * i % 7
        table[i & 255] = total
    m = _REFERENCE_MATRIX
    for _ in range(300):
        m = m @ _REFERENCE_MATRIX + 0.0
    return total + float(m[0, 0])


class HostSpeed:
    """The host's speed over a run, from `reference_loop` timed between its
    operations.  A whole run can fall in a slow spell of the host, where even
    the floor of an operation's times is slow; the reference loop's floor is
    slow by the same factor, so their ratio is not."""

    def __init__(self):
        self.times: list[float] = []

    def sample(self):
        start = time.perf_counter()
        reference_loop()
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from this run's floor seconds to seconds at REFERENCE_S."""
        return REFERENCE_S / floor_s(self.times)

    def info(self) -> dict[str, float]:
        return {"reference_floor_ms": 1e3 * floor_s(self.times), "host_scale": self.scale()}


def floor_metrics(samples: dict[str, list[float]], host: HostSpeed) -> dict[str, float]:
    """ops_per_s and slowest_op_ms, at the reference host speed, of a mix that
    runs every kind of operation in `samples` (kind -> seconds per operation)
    equally often."""
    floors = [floor_s(times) * host.scale() for times in samples.values()]
    return {"ops_per_s": len(floors) / sum(floors), "slowest_op_ms": 1e3 * max(floors)}


def raw_percentiles_ms(times) -> dict[str, float]:
    """p50 and p99 of the raw latencies: what a caller saw, host state included."""
    p50, p99 = np.percentile(np.asarray(times) * 1e3, [50, 99])
    return {"raw_p50_ms": float(p50), "raw_p99_ms": float(p99)}


# -- verify: the `menhir verify -a all` traffic ---------------------------------

VERIFY_TRIALS = 1000
VERIFY_TIERS = ("normal", "stress")
#: a pass runs each lane x tier's VERIFY_TRIALS as slices of this many, one
#: slice of every lane x tier per round, so every block is timed all through
#: the run rather than in one stretch of it
VERIFY_SLICE = 100


def verify_master_seed(seed: int, index: int) -> int:
    """Master seed of the index-th round of slices over every lane and tier."""
    return int(np.random.default_rng([seed, 0, index]).integers(2**31))


# -- compose: one CLI request at a time -------------------------------------------

#: algebra tag and velocity dimension cycled through by the compose requests;
#: quaternion velocities are purely imaginary (the 3-D model)
COMPOSE_TAGS = (
    ("real", 1),
    ("complex", 2),
    ("quaternion", 3),
    ("clifford3", 3),
    ("clifford5", 5),
    ("clifford10", 10),
)
MAX_SPEED = 0.95


def _velocity(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        d = rng.standard_normal(n)
        norm = np.linalg.norm(d)
        if norm > 1e-6:
            return d / norm * rng.uniform(0.0, MAX_SPEED)


def _signed(x: float) -> str:
    text = repr(float(x))
    return text if text.startswith("-") else "+" + text


def element_text(tag: str, vec) -> str:
    """Command-line text of a velocity, exact to the last bit."""
    if tag.startswith("clifford"):
        return "[" + ",".join(repr(float(x)) for x in vec) + "]"
    if tag == "real":
        return repr(float(vec[0]))
    if tag == "complex":
        return f"{float(vec[0])!r}{_signed(vec[1])}i"
    return f"{float(vec[0])!r}i{_signed(vec[1])}j{_signed(vec[2])}k"


def compose_requests(seed: int):
    """Endless request stream: (tag, dimension, v, w, argv) cycling over the tags."""
    rng = np.random.default_rng([seed, 1])
    while True:
        for tag, n in COMPOSE_TAGS:
            v, w = _velocity(rng, n), _velocity(rng, n)
            argv = ["compose", "-a", tag,
                    f"--velocity={element_text(tag, v)}", f"--second={element_text(tag, w)}"]
            yield tag, n, v, w, argv


_SPLIT = re.compile(r"(?<![eE])(?=[+-])")
_UNITS = {"": 0, "i": 1, "j": 2, "k": 3}


def parse_vector(text: str, tag: str, n: int) -> np.ndarray:
    """Velocity vector from an element's printed form; raises ValueError when
    the text is not a vector of the tag's model."""
    if tag.startswith("clifford"):
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"not a bracket list: {text!r}")
        values = np.array([float(Fraction(p)) for p in body[1:-1].split(",")])
        if values.size == n:
            return values
        if values.size != 1 << n:
            raise ValueError(f"{values.size} components for dimension {n}")
        idx = [1 << i for i in range(n)]
        if np.abs(np.delete(values, idx)).max() > TOL:
            raise ValueError(f"not a vector: {text!r}")
        return values[idx]
    coeffs = np.zeros(4)
    for term in filter(None, _SPLIT.split(text.strip())):
        unit = term[-1] if term[-1] in "ijk" else ""
        number = term[: len(term) - len(unit)]
        if number in ("", "+", "-"):
            number += "1"
        coeffs[_UNITS[unit]] += float(Fraction(number))
    if tag == "real":
        vec, rest = coeffs[:1], coeffs[1:]
    elif tag == "complex":
        vec, rest = coeffs[:2], coeffs[2:]
    else:
        vec, rest = coeffs[1:], coeffs[:1]
    if np.abs(rest).max() > TOL:
        raise ValueError(f"not a {n}-vector: {text!r}")
    return vec


def compose_error(output: str, tag: str, n: int, v, w) -> str | None:
    """Why a compose response misses the oracle, or None when it matches.

    The oracle is polar_decompose(boost_matrix(w) @ boost_matrix(v)): its
    velocity must match `composite_velocity`, and its spatial rotation block
    must have the cosine (and, in the plane, the sine) of `angle_rad`.
    """
    from menhir.lorentz import boost_matrix, polar_decompose

    try:
        payload = json.loads(output)
        u = parse_vector(payload["composite_velocity"], tag, n)
        angle = float(payload["angle_rad"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable response: {exc}"
    rotation, u_ref = polar_decompose(boost_matrix(w) @ boost_matrix(v))
    s = rotation[1:, 1:]
    if u.shape != u_ref.shape or not np.abs(u - u_ref).max() <= TOL:
        return f"composite_velocity {u} != oracle {u_ref}"
    if n == 1:
        expected = [(angle, 0.0)]
    elif n == 2:
        expected = [(np.cos(angle), s[0, 0]), (np.sin(angle), s[1, 0])]
    else:
        expected = [(np.cos(angle), (np.trace(s) - (n - 2)) / 2.0)]
    if not all(abs(got - want) <= TOL for got, want in expected):
        return f"angle_rad {angle} does not match the oracle rotation"
    return None


def perturb_velocity(output: str, tag: str, n: int) -> str:
    """The response with its composite velocity moved by 1e-6 (gate self-check)."""
    payload = json.loads(output)
    u = parse_vector(payload["composite_velocity"], tag, n)
    u[0] += 1e-6
    payload["composite_velocity"] = element_text(tag, u)
    return json.dumps(payload)


# -- catalog: `menhir aberrate` over a star file -------------------------------------

#: stars per aberrate command: ~60 ms a command, several hundred in a run
CATALOG_STARS = 1_000
CATALOG_DIM = 3


def catalog_inputs(seed: int):
    """Labels, unit star directions and the boost velocity for one run."""
    rng = np.random.default_rng([seed, 2])
    stars = rng.standard_normal((CATALOG_STARS, CATALOG_DIM))
    stars /= np.linalg.norm(stars, axis=1, keepdims=True)
    labels = [f"s{i}" for i in range(CATALOG_STARS)]
    return labels, stars, _velocity(rng, CATALOG_DIM)


def write_catalog(path: str, labels, stars):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{label},{x!r},{y!r},{z!r}\n"
                         for label, (x, y, z) in zip(labels, stars.tolist())))


def expected_shift(stars, v) -> np.ndarray:
    """Oracle star positions: lorentz.aberrate_ray(boost_matrix(v), star) per star."""
    from menhir.lorentz import aberrate_ray, boost_matrix

    L = boost_matrix(v)
    return np.array([aberrate_ray(L, a) for a in stars])


def catalog_header(n: int) -> str:
    return "label," + ",".join(f"in_{k + 1}" for k in range(n)) + "," + ",".join(
        f"out_{k + 1}" for k in range(n))


def catalog_failures(text: str, labels, stars, expected) -> int:
    """Rows of an aberrate output that miss the oracle, lose their label or
    input star, or are missing; a wrong header fails every row."""
    lines = text.splitlines()
    n = stars.shape[1]
    if not lines or lines[0] != catalog_header(n):
        return len(labels)
    rows = lines[1:]
    m = min(len(rows), len(labels))
    values = np.full((m, 2 * n), np.nan)
    for i in range(m):
        fields = rows[i].split(",")
        if fields[0] == labels[i] and len(fields) == 1 + 2 * n:
            try:
                values[i] = [float(f) for f in fields[1:]]
            except ValueError:
                pass
    ok = (np.abs(values[:, :n] - stars[:m]).max(axis=1) <= 1e-12) & (
        np.abs(values[:, n:] - expected[:m]).max(axis=1) <= TOL)
    return abs(len(rows) - len(labels)) + int(m - ok.sum())


def perturb_row(text: str, row: int) -> str:
    """The output with one shifted star moved by 1e-6 (gate self-check)."""
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"
