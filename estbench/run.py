"""Estimation-run benchmark: measure whole LR-LBS-AGG / LNR-LBS-AGG runs.

Run from the root of a checkout::

    python3 estbench/run.py --workload lr-clustered --seed 1 --seconds 55 --trace 0

The command repeats whole rounds of the workload (see ``workloads.py``)
on three worlds made from ``--seed`` for ``--seconds`` seconds in this
one process, checks every round, and prints one JSON object as its last
line of output: the end-to-end metrics (per world the median over its
rounds, averaged over the worlds) with ``--trace 0``, the per-layer
metrics of the traced rounds with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A run still busy after this many seconds is cut; the round it was in
#: counts as failed.
RUN_LIMIT_S = 160.0

#: A run cycles its rounds through this many worlds, all made from
#: ``--seed``, so that one world's share of cheap or costly samples does
#: not set the whole run's figures.
WORLDS_PER_RUN = 3

#: Tolerated gap between the traced round's wall time and the sum of its
#: spans' self times, as a share of the wall time.
SELF_SUM_RTOL = 0.01

E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "queries_per_s": "1/s",
    "late_samples_per_s": "1/s",
    "queries_per_sample": "count",
    "peak_rss_mb": "MB",
    "checkpoint_mb": "MB",
    "pause_s": "s",
    "resume_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_per_cell"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class RunTimeout(BaseException):
    """Raised by the alarm when the run outlives :data:`RUN_LIMIT_S`."""


def _on_alarm(signum, frame):
    raise RunTimeout


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--batch", type=int, default=1,
                   help="sample batch size (reference measurements only)")
    return p.parse_args(argv)


def world_seeds(seed: int) -> list[int]:
    """The seeds of the run's worlds: distinct for distinct ``--seed``."""
    return [WORLDS_PER_RUN * seed + j for j in range(WORLDS_PER_RUN)]


def medians_by_world(rows: list[tuple[int, dict]]) -> dict[int, dict[str, float]]:
    """``{world seed: {metric: median over that world's rounds}}``;
    ``rows`` holds ``(world seed, metrics)`` per round."""
    by_seed: dict[int, list[dict]] = {}
    for s, row in rows:
        by_seed.setdefault(s, []).append(row)
    return {s: {name: statistics.median(r[name] for r in group) for name in group[0]}
            for s, group in by_seed.items()}


def seed_mean_of_medians(rows: list[tuple[int, dict]]) -> dict[str, float]:
    """Each metric's median over the rounds of one world, averaged over
    the worlds."""
    per_world = list(medians_by_world(rows).values())
    return {name: statistics.fmean(m[name] for m in per_world) for name in per_world[0]}


def measure(w, seed: int, seconds: float, trace: bool, batch: int, started: float) -> dict:
    """Run rounds of ``w`` for ``seconds``; the result object to print.

    Round ``i`` runs on world ``world_seeds(seed)[i % WORLDS_PER_RUN]``; a
    traced run takes each world twice in a row, untraced then traced.
    """
    import workloads
    from layers import Tracer, layer_metrics, layer_table

    failures: list[str] = []
    correct = True
    attempted = failed = 0
    untraced, traced = [], []
    layer_rows, last_spans = [], None
    seeds = world_seeds(seed)
    reference: dict[int, tuple] = {}
    ops_per_round = None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    try:
        measure_start = time.perf_counter()
        i = 0
        while True:
            with_trace = trace and i % 2 == 1
            s = seeds[(i // 2 if trace else i) % WORLDS_PER_RUN]
            gc.collect()
            if with_trace:
                tracer = Tracer()
                with tracer:
                    rnd = workloads.run_round(w, s, batch=batch, tracer=tracer,
                                              keep_world=not traced)
            else:
                rnd = workloads.run_round(w, s, batch=batch)
            i += 1
            ops_per_round = rnd.ops
            checks = list(rnd.failures)
            expected = reference.setdefault(s, rnd.key)
            if rnd.key != expected:
                checks.append(f"round {i} (world seed {s}) returned (estimate, queries, "
                              f"samples) {rnd.key}, expected {expected}")
            if with_trace:
                spans = tracer.spans
                row = layer_metrics(spans, rnd.samples)
                if row["lbs.interface.queries"] != rnd.queries:
                    checks.append(f"traced paid queries {row['lbs.interface.queries']} "
                                  f"!= interface.queries_used {rnd.queries}")
                self_sum = sum(t["self_s"] for t in layer_table(spans).values())
                if abs(self_sum - rnd.round_s) > SELF_SUM_RTOL * rnd.round_s:
                    checks.append(f"self times sum to {self_sum:.4f} s, "
                                  f"traced wall is {rnd.round_s:.4f} s")
                if rnd.world is not None:
                    checks.extend(workloads.check_exact_cells(spans, rnd.world))
                row["core.history.sites_known"] = rnd.sites_known
                row["core.history.answers_held"] = rnd.answers_held
                row["trace.wall_s"] = rnd.round_s
                layer_rows.append((s, row))
                traced.append((s, rnd))
                last_spans = spans
            else:
                untraced.append((s, rnd))
            print(f"estbench: round {i}{' (traced)' if with_trace else ''}, world seed {s}: "
                  f"{rnd.samples} samples, {rnd.queries} queries, "
                  f"{rnd.samples / rnd.wall_s:.3f} samples/s, round {rnd.round_s:.3f} s",
                  file=sys.stderr)
            rnd.world = None
            attempted += rnd.ops
            if checks:
                correct = False
                failed += rnd.ops
                failures.extend(checks)
            if time.perf_counter() - measure_start >= seconds and (
                    traced and untraced if trace else i >= WORLDS_PER_RUN):
                break
    except RunTimeout:
        lost = ops_per_round or 1
        attempted += lost
        failed += lost
        failures.append(f"the run exceeded {RUN_LIMIT_S:.0f} s; its last round was cut")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    from repro import obs
    for broken, what in ((multiprocessing.active_children(), "a child process was started"),
                         (obs.enabled(), "repro.obs collection was on")):
        if broken:
            correct = False
            failures.append(what)

    metrics: dict[str, float] = {}
    if trace and layer_rows and untraced:
        metrics = seed_mean_of_medians(layer_rows)
        # Traced minus untraced wall time, on the worlds that have both.
        with_t, without_t = (medians_by_world([(s, {"wall": r.round_s}) for s, r in rounds])
                             for rounds in (traced, untraced))
        metrics["trace.overhead_s"] = statistics.fmean(
            with_t[s]["wall"] - without_t[s]["wall"] for s in with_t if s in without_t)
        _write_trace(w.name, seed, metrics, last_spans)
    elif not trace and untraced:
        metrics = seed_mean_of_medians([(s, r.e2e()) for s, r in untraced])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in failures:
        print(f"estbench: FAILED: {line}", file=sys.stderr)
    units = E2E_UNITS if not trace else {name: layer_unit(name) for name in metrics}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def _write_trace(workload: str, seed: int, metrics: dict, spans) -> None:
    """Write the last traced round's spans and layer report; print the
    report's self-time shares to stderr."""
    from layers import END, NAME, PARENT, SAMPLE, START, has_ancestor, layer_table, self_times

    table = layer_table(spans)
    wall = metrics["trace.wall_s"]
    loop = sum(s[END] - s[START] for s in spans if s[NAME] == "core._driver")
    in_loop = {name: 0.0 for name in table}
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if s[NAME] == "core._driver" or has_ancestor(spans, i, "core._driver"):
            in_loop[s[NAME]] += own
    names = sorted(table)
    report = {
        name: dict(table[name], self_share=table[name]["self_s"] / wall,
                   loop_self_s=in_loop[name], loop_share=in_loop[name] / loop)
        for name in names
    }
    print(f"estbench: {workload} seed {seed}: self time by layer, as a share of the "
          f"traced round ({wall:.3f} s) and of its sampling ({loop:.3f} s)",
          file=sys.stderr)
    for name in sorted(names, key=lambda n: -report[n]["self_s"]):
        r = report[name]
        print(f"  {name:28s} {r['calls']:8d} calls {r['self_s']:9.4f} s "
              f"{100 * r['self_share']:6.2f} % {100 * r['loop_share']:6.2f} %",
              file=sys.stderr)
    code = {name: i for i, name in enumerate(names)}
    out = ROOT / ".estbench" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": metrics,
        "layers": report,
        "span_names": names,
        "spans": [[code[s[NAME]], s[START], s[END], s[PARENT], s[SAMPLE]] for s in spans],
    }
    out.write_text(json.dumps(doc))


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"estbench: no repro package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"estbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.batch < 1:
        print("estbench: --seconds must be positive and --batch at least 1", file=sys.stderr)
        return 2
    result = measure(w, args.seed, args.seconds, bool(args.trace), args.batch, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
