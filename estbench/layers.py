"""In-memory span tracer for the benchmark's traced run.

The tracer wraps each layer's public entry point at the name it is looked
up by (a class attribute, or a module attribute for functions imported
into another module), records one span per call and restores the
originals afterwards.  Nothing under ``src/`` changes: the spans come
from these wrappers alone.

A span is ``[name, start, end, parent, sample, info]``: ``parent`` is the
index of the enclosing span (``-1`` at the root), ``sample`` the number
of samples the run had completed when the span opened, and ``info`` what
the entry point's ``note`` hook kept from the call's arguments and result
(``None`` when it has no hook).

A layer's self time is its spans' durations minus the durations of their
direct child spans, so the self times of all spans under one root sum to
the root's duration.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

NAME, START, END, PARENT, SAMPLE, INFO = range(6)


def _cell_note(args, result):
    """``(exact, tid, t_loc, h, region)`` of a computed LR cell."""
    return (result.exact, result.tid, args[2], result.h, result.region)


def _mc_note(args, result):
    return result.trials


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``owner`` is a module path, ``attr`` the
    dotted name inside it (``"Class.method"`` or ``"function"``)."""

    layer: str
    owner: str
    attr: str
    note: Optional[Callable] = None


#: The wrapped entry points, one span name per layer.  Functions that a
#: module imports by name are wrapped in the importing module, where the
#: caller looks them up.
ENTRY_POINTS = (
    EntryPoint("worlds.build", "repro.worlds.spec", "WorldSpec.build"),
    EntryPoint("api.session_build", "repro.api.session", "Session.build"),
    EntryPoint("api.resume", "repro.api.session", "Session.resume"),
    EntryPoint("core.voronoi_oracle", "repro.core.voronoi_oracle",
               "TopHCellOracle.compute", _cell_note),
    EntryPoint("core.variance", "repro.core.variance", "AdaptiveHSelector.choose"),
    EntryPoint("core.bounds", "repro.core.bounds", "MonteCarloFinish.run", _mc_note),
    EntryPoint("geometry.build_level_region", "repro.core.voronoi_oracle",
               "build_level_region"),
    EntryPoint("geometry.build_level_region", "repro.core.lnr_cell", "build_level_region"),
    EntryPoint("sampling.measure", "repro.sampling.base", "PointSampler.measure_region"),
    EntryPoint("core.lnr_cell", "repro.core.lnr_cell", "LnrCellOracle.compute"),
    EntryPoint("core.edge_search", "repro.core.lnr_cell", "estimate_boundary_line"),
    EntryPoint("core.history", "repro.core.history", "ObservationHistory.query"),
    EntryPoint("core.history.state_dict", "repro.core.history",
               "ObservationHistory.state_dict"),
    EntryPoint("checkpoint.load_state", "repro.core.history",
               "ObservationHistory.load_state_dict"),
    EntryPoint("lbs.interface", "repro.lbs.interface", "KnnInterface.query"),
    EntryPoint("index", "repro.index.grid", "GridIndex.knn"),
    EntryPoint("checkpoint.to_state", "repro.core._driver", "EstimationDriver.to_state"),
    EntryPoint("checkpoint.encode", "workloads", "encode_state"),
    EntryPoint("checkpoint.decode", "workloads", "decode_state"),
)


def resolve(ep: EntryPoint) -> tuple[object, str]:
    """``(owner, attribute name)`` of an entry point: the class or module
    whose ``__dict__`` holds it."""
    owner = importlib.import_module(ep.owner)
    *path, attr = ep.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class NullTracer:
    """The untraced run's tracer: spans cost one no-op context manager."""

    sample = 0

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Records spans in memory; :meth:`install` wraps the entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.sample = 0
        self._parent = -1
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> tuple[list, int]:
        rec = [name, 0.0, 0.0, self._parent, self.sample, None]
        parent = self._parent
        self._parent = len(self.spans)
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec, parent

    @contextmanager
    def span(self, name: str):
        rec, parent = self._open(name)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._parent = parent

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            rec, parent = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._parent = parent
            if note is not None:
                rec[INFO] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every entry point; :meth:`restore` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for ep in entry_points:
                owner, attr = resolve(ep)
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self.wrap(ep.layer, raw.__func__, ep.note)))
                else:
                    setattr(owner, attr, self.wrap(ep.layer, raw, ep.note))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_table(spans) -> dict[str, dict]:
    """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
    return table


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def children_named(spans, name: str) -> set[int]:
    """Indices of spans that have a direct child called ``name``."""
    return {s[PARENT] for s in spans if s[NAME] == name and s[PARENT] >= 0}


def layer_metrics(spans, samples: int) -> dict[str, float]:
    """The per-layer metrics of one traced round.

    ``samples`` is the round's sample count: ``late_ms_per_cell`` covers
    the cells computed during its second half.  A paid query is an
    interface call that reached the index (the others were answered by
    the interface's cache).
    """
    table = layer_table(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return table.get(name, empty)

    def idx(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    paid = children_named(spans, "index") & set(idx("lbs.interface"))

    def paid_under(name):
        return sum(1 for i in paid if has_ancestor(spans, i, name))

    def per(num, den):
        return num / den if den else 0.0

    cells = idx("core.voronoi_oracle")
    late = [spans[i][END] - spans[i][START] for i in cells
            if spans[i][SAMPLE] >= samples // 2]
    lnr_cells = row("core.lnr_cell")["calls"]
    searches = row("core.edge_search")["calls"]
    history = idx("core.history")
    reached = children_named(spans, "lbs.interface") & set(history)
    return {
        "worlds.build_s": row("worlds.build")["total_s"],
        "api.session_build_s": row("api.session_build")["total_s"],
        "core._driver.self_s": row("core._driver")["self_s"],
        "core.voronoi_oracle.compute_s": row("core.voronoi_oracle")["total_s"],
        "core.voronoi_oracle.self_s": row("core.voronoi_oracle")["self_s"],
        "core.voronoi_oracle.cells": len(cells),
        "core.voronoi_oracle.late_ms_per_cell": 1e3 * per(sum(late), len(late)),
        "core.voronoi_oracle.queries_per_cell": per(paid_under("core.voronoi_oracle"),
                                                    len(cells)),
        "core.voronoi_oracle.mc_cells": sum(1 for i in cells if not spans[i][INFO][0]),
        "core.variance.choose_s": row("core.variance")["total_s"],
        "core.bounds.mc_s": row("core.bounds")["total_s"],
        "core.bounds.mc_trials": sum(spans[i][INFO] for i in idx("core.bounds")),
        "sampling.measure_s": row("sampling.measure")["total_s"],
        "geometry.build_level_region_s": row("geometry.build_level_region")["total_s"],
        "geometry.build_level_region_calls": row("geometry.build_level_region")["calls"],
        "core.lnr_cell.compute_s": row("core.lnr_cell")["total_s"],
        "core.lnr_cell.self_s": row("core.lnr_cell")["self_s"],
        "core.lnr_cell.cells": lnr_cells,
        "core.lnr_cell.queries_per_cell": per(paid_under("core.lnr_cell"), lnr_cells),
        "core.edge_search.s": row("core.edge_search")["total_s"],
        "core.edge_search.searches": searches,
        "core.edge_search.queries_per_search": per(paid_under("core.edge_search"), searches),
        "core.history.query_calls": len(history),
        "core.history.query_self_s": row("core.history")["self_s"],
        "core.history.reuse_ratio": per(len(history) - len(reached), len(history)),
        "lbs.interface.queries": len(paid),
        "lbs.interface.query_self_s": row("lbs.interface")["self_s"],
        "index.knn_calls": row("index")["calls"],
        "index.knn_s": row("index")["total_s"],
        "checkpoint.to_state_s": row("checkpoint.to_state")["total_s"],
        "checkpoint.encode_s": row("checkpoint.encode")["total_s"],
        "checkpoint.decode_s": row("checkpoint.decode")["total_s"],
        "checkpoint.load_state_s": row("checkpoint.load_state")["total_s"],
    }
