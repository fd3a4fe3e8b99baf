"""The benchmark's workloads and one measured estimation round over each.

A round is one whole estimation run driven as a closed loop by a single
caller: set up (build the world from the seed, then the estimator), draw
samples until the workload's query budget is spent, then take the
closing pause every workload ends with.  Rounds of one workload and seed
spend the same queries and samples and return the same estimate.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from repro import MaxQueries, Session, worlds
from repro.geometry import Point
from repro.geometry.voronoi_ref import true_voronoi_cell

from layers import INFO, NAME, NullTracer

#: The true COUNT must lie within ``Z`` standard errors of the estimate.
Z = 4.0

#: Relative area tolerance of an exact LR cell against the reference cell.
CELL_AREA_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    method: str                 #: "lr" or "lnr"
    world: str                  #: registry name
    size: Optional[int]         #: resize the registry world; None keeps it
    stop: MaxQueries
    #: Whether the sample standard error is a sound yardstick for the
    #: estimate (see the README: it is not on the skewed LR world).
    z_check: bool
    k: int = 5

    def world_spec(self):
        spec = worlds.get(self.world)
        return spec if self.size is None else spec.with_size(self.size)

    def session(self, world, seed: int, batch: int = 1) -> Session:
        s = Session(world)
        s = s.lr(k=self.k) if self.method == "lr" else s.lnr(k=self.k)
        return s.count().seed(seed).batch(batch)


WORKLOADS = {w.name: w for w in (
    Workload("lr-clustered", "lr", "paper/clustered", 100_000, MaxQueries(3000),
             z_check=False),
    Workload("lnr-uniform", "lnr", "paper/uniform-10k", None, MaxQueries(15000),
             z_check=True),
)}


def encode_state(state: dict) -> str:
    return json.dumps(state)


def decode_state(text: str) -> dict:
    return json.loads(text)


@dataclass
class Round:
    """What one round measured and which of its checks failed."""

    setup_s: float
    wall_s: float            #: sample loop
    round_s: float           #: setup + sample loop + closing pause
    sample_times: list       #: seconds into the loop at each sample's end
    estimate: float
    samples: int
    queries: int
    pause_s: float           #: the closing pause: to_state + JSON encode
    resume_s: float          #: JSON decode + Session.resume
    checkpoint_bytes: int    #: JSON size of the closing pause
    sites_known: int
    answers_held: int
    failures: list
    world: object = None     #: kept only when asked for

    @property
    def key(self) -> tuple:
        return (self.estimate, self.queries, self.samples)

    @property
    def ops(self) -> int:
        """Operations attempted: samples, the closing pause and its resume."""
        return self.samples + 2

    def e2e(self) -> dict[str, float]:
        n = self.samples
        half = n // 2
        late_start = self.sample_times[half - 1] if half else 0.0
        return {
            "setup_s": self.setup_s,
            "samples_per_s": n / self.wall_s,
            "queries_per_s": self.queries / self.wall_s,
            "late_samples_per_s": (n - half) / (self.sample_times[-1] - late_start),
            "queries_per_sample": self.queries / n,
            "checkpoint_mb": self.checkpoint_bytes / 1e6,
            "pause_s": self.pause_s,
            "resume_s": self.resume_s,
        }


def _pause(run, world, tracer):
    """``SessionRun.to_state()`` → JSON text → ``Session.resume``."""
    with tracer.span("bench.pause"):
        t0 = time.perf_counter()
        text = encode_state(run.to_state())
        t1 = time.perf_counter()
    with tracer.span("bench.resume"):
        resumed = Session.resume(world, decode_state(text))
        t2 = time.perf_counter()
    return resumed, t1 - t0, t2 - t1, len(text)


def run_round(w: Workload, seed: int, *, batch: int = 1, tracer=None,
              keep_world: bool = False) -> Round:
    tracer = tracer if tracer is not None else NullTracer()
    start = time.perf_counter()
    with tracer.span("bench.round"):
        world = w.world_spec().build(seed)
        run = w.session(world, seed, batch).start(w.stop)
        setup_s = time.perf_counter() - start

        times: list[float] = []
        queries: list[int] = []
        loop_start = time.perf_counter()
        with tracer.span("core._driver"):
            for cp in run:
                times.append(time.perf_counter() - loop_start)
                queries.append(cp.queries)
                tracer.sample = cp.samples
        wall_s = time.perf_counter() - loop_start

        result = run.result()
        history = run.estimator.history
        sites_known = len(history.known_ids())
        answers_held = len(history.cached_answers())
        closed, pause_s, resume_s, size = _pause(run, world, tracer)
        reopened = closed.run()
    round_s = time.perf_counter() - start

    failures = []
    truth = len(world.db.coords)
    limit = w.stop.limit
    if not (queries and queries[-1] >= limit and (len(queries) < 2 or queries[-2] < limit)):
        failures.append(
            f"queries did not stop at the first sample boundary at or past "
            f"{limit}: last two sample ends at {queries[-2:]}")
    if w.z_check and not (math.isfinite(result.stat.sem())
                          and abs(result.estimate - truth) <= Z * result.stat.sem()):
        failures.append(
            f"true COUNT {truth} lies outside {Z} SE of the estimate "
            f"{result.estimate:.1f} (SE {result.stat.sem():.1f})")
    if (reopened.estimate, reopened.queries, reopened.samples) != (
            result.estimate, result.queries, result.samples):
        failures.append("the closing pause and resume changed the result")
    return Round(
        setup_s=setup_s, wall_s=wall_s, round_s=round_s,
        sample_times=times, estimate=result.estimate,
        samples=result.samples, queries=result.queries,
        pause_s=pause_s, resume_s=resume_s,
        checkpoint_bytes=size, sites_known=sites_known, answers_held=answers_held,
        failures=failures, world=world if keep_world else None,
    )


def check_exact_cells(spans, world, count: int = 3) -> list[str]:
    """Compare the first ``count`` exact top-1 LR cells of a traced round,
    in area, with the full-knowledge cell of :mod:`repro.geometry.voronoi_ref`
    built from every site of the database."""
    cells = [s[INFO] for s in spans
             if s[NAME] == "core.voronoi_oracle" and s[INFO][0] and s[INFO][3] == 1]
    if not cells:
        return []
    db = world.db
    sites = [Point(x, y) for x, y in db.coords.tolist()]
    row_of = {tid: i for i, tid in enumerate(db.tids.tolist())}
    failures = []
    for _exact, tid, t_loc, _h, region in cells[:count]:
        row = row_of[tid]
        if sites[row] != t_loc:
            failures.append(f"tuple {tid}: interface location {t_loc} is not the "
                            f"database's {sites[row]}")
            continue
        ref = true_voronoi_cell(t_loc, sites[:row] + sites[row + 1:], db.region).area()
        got = sum(p.area() for p in region.polygons())
        if abs(got - ref) > CELL_AREA_RTOL * ref:
            failures.append(f"tuple {tid}: exact cell area {got!r}, reference {ref!r}")
    return failures
