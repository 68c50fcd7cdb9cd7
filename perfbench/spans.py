"""Spans, self times, process-tree memory and latency summaries.

Stdlib and numpy only.  A ``Tracer`` keeps spans in memory; the
benchmark writes them out once, at the end of a traced run.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
import uuid
from statistics import median


class Tracer:
    """Span recorder.  Disabled, ``span`` costs one attribute check and
    records nothing; enabled, each span holds (name, start, end,
    parent, run id), with times in seconds from ``perf_counter``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name of its duration minus what its child
        spans cover, summed over every span of that name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is None:
                continue
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans}, f)


def _children_of() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":  # a zombie has ended; only its reaping is left
            kids.setdefault(int(ppid), []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    """Every running process below ``pid`` in the process tree."""
    kids = _children_of()
    out, todo = [], list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Samples the summed RSS of this process and its descendants (Ray's
    GCS, raylet and workers) from /proc on a background thread."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.sample(me)
            self._stop.wait(self.interval_s)

    def sample(self, me: int | None = None) -> None:
        me = os.getpid() if me is None else me
        total = _rss_kb(me) + sum(_rss_kb(p) for p in descendants(me))
        self.peak_kb = max(self.peak_kb, total)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def tail(xs: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond
    it, as (percentile, value); None under 11 samples."""
    n = len(xs)
    if n < 11:
        return None
    s = sorted(xs)
    pct = min(99, math.floor(100 * (n - 10) / n))
    rank = max(0, math.ceil(pct / 100 * n) - 1)  # nearest-rank percentile
    return pct, s[rank]


def summary(xs: list[float], scale: float = 1.0) -> dict:
    """Median, tail percentile and sample count of ``xs`` × ``scale``."""
    out = {"n": len(xs), "p50": median(xs) * scale if xs else None}
    t = tail(xs)
    if t is not None and t[0] > 50:
        out[f"p{t[0]}"] = t[1] * scale
    return out

