"""Run one sulfsim CLI command in this process and report what it cost.

Usage::

    python3 perfbench/child.py {plain,setup,trace} STAMP_FILE -- SULFSIM_ARGS...

``plain`` runs the command as a user would and records only the moment the
first time step (or Picard map) begins: a one-shot probe that restores the
original functions on its first call, so stepping runs unwrapped.
``setup`` exits at that same moment, so the caller can sample set-up time
cheaply.  ``trace`` wraps the module attribute each caller binds (``from``
imports bind names, so ``sulfsim.fields.grid_density`` is the stepping
deposit and ``sulfsim.particles.grid_density`` the snapshot deposit) and
records a span per call: name, start, end and parent.

STAMP_FILE receives one JSON object.  Times are ``time.monotonic()``
readings, which on Linux share one clock across processes, so the parent
can subtract its own spawn time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import resource
import sys
import time

# Points where stepping begins; the first call to any of them ends set-up.
STEP_BOUNDARIES = [
    "sulfsim.particles:grid_density",
    "sulfsim.particles:accumulate_step",
    "sulfsim.particles:em_step",
    "sulfsim.pde:pde_step",
    "sulfsim.fixedpoint:apply_mkfk_map",
]


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


def _deposit_counts(tr, a, k, out):
    cloud, grid, delta = _arg(a, k, 0, "cloud"), _arg(a, k, 1, "grid"), _arg(a, k, 2, "delta")
    half = int(math.ceil(8.0 * delta / grid.spacing + 0.5))
    tr.count("kernel.deposit_particles", len(cloud))
    tr.count("kernel.offset_passes", 2 * half + 1)


def _mollify_counts(tr, a, k, out):
    cloud, query = _arg(a, k, 0, "cloud"), _arg(a, k, 2, "query")
    tr.count("kernel.mollify_pairs", len(cloud) * max(1, getattr(query, "size", 1)))


def _generators_construct(tr, a, k, out):
    tr.count("streams.generators", int(_arg(a, k, 2, "n")))  # a[0] is self


def _generators_thresholds(tr, a, k, out):
    tr.count("streams.generators", len(_arg(a, k, 1, "indices")))


def _bytes(key):
    def hook(tr, a, k, out):
        tr.count(key, os.path.getsize(out))

    return hook


def _pde_residual(tr, a, k, out):
    res = [abs(float(r)) for r in out.residual]
    tr.maxima["pde.max_residual"] = max([tr.maxima.get("pde.max_residual", 0.0)] + res)


def _iterations(tr, a, k, out):
    tr.count("fixedpoint.iterations", int(out.iterations))


# (module:attribute, span name, optional hook run on the call's result)
TRACE_POINTS = [
    ("sulfsim.fields:grid_density", "kernel.deposit_step", _deposit_counts),
    ("sulfsim.particles:grid_density", "kernel.deposit_record", _deposit_counts),
    ("sulfsim.fixedpoint:mollify", "kernel.mollify", _mollify_counts),
    ("sulfsim.fields:mollify", "kernel.mollify", _mollify_counts),
    ("sulfsim.streams:ParticleStreams.__init__", "streams.construct", _generators_construct),
    ("sulfsim.particles:draw_thresholds", "streams.thresholds", _generators_thresholds),
    ("sulfsim.streams:ParticleStreams.normals", "streams.normals", None),
    ("sulfsim.particles:transform_uniforms", "initial.transform", None),
    ("sulfsim.fields:interpolate", "fields.interpolate", None),
    ("sulfsim.particles:accumulate_step", "fields.accumulate", None),
    ("sulfsim.fields:TrajectoryArchive.append", "fields.archive_append", None),
    ("sulfsim.particles:drift_b", "dynamics.drift", None),
    ("sulfsim.particles:reaction_rate", "dynamics.rate", None),
    ("sulfsim.particles:em_step", "particles.em_step", None),
    ("sulfsim.particles:update_hazards", "particles.update_hazards", None),
    ("sulfsim.cli:run_simulation", "particles.run", None),
    ("sulfsim.metrics:run_simulation", "metrics.run_simulation", None),
    ("sulfsim.fixedpoint:apply_mkfk_map", "fixedpoint.map", None),
    ("sulfsim.fixedpoint:_interp_lattice", "fixedpoint.interp_lattice", None),
    ("sulfsim.cli:picard_solve", "fixedpoint.solve", _iterations),
    ("sulfsim.cli:solve_pde", "pde.solve", _pde_residual),
    ("sulfsim.metrics:solve_pde", "pde.solve", _pde_residual),
    ("sulfsim.pde:pde_step", "pde.step", None),
    ("sulfsim.cli:convergence_study", "metrics.convergence_study", None),
    ("sulfsim.cli:write_csv", "io.write_csv", _bytes("io.csv_bytes")),
    ("sulfsim.cli:write_archive", "io.write_archive", _bytes("io.archive_bytes")),
    ("sulfsim.cli:read_archive", "io.read_archive", None),
    ("sulfsim.io:sha256_file", "io.sha256", None),
    ("sulfsim.cli:load_config", "config.build", None),
    ("sulfsim.cli:validate_config", "config.build", None),
]


def _resolve(point):
    """(owner, attribute name) for ``module:attr`` or ``module:Class.attr``;
    None when the program no longer has it."""
    mod_name, path = point.split(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, float] = {}

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*a, **k):
            idx = len(spans)
            spans.append([name, time.monotonic(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*a, **k)
            finally:
                stack.pop()
                spans[idx][2] = time.monotonic()
            if hook is not None:
                hook(self, a, k, out)
            return out

        return traced

    def install(self):
        for point, name, hook in TRACE_POINTS:
            found = _resolve(point)
            if found is not None:
                owner, attr = found
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    def summary(self) -> dict:
        """Per span name: calls, total time, self time, first start, last end."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "first_start": start, "last_end": end})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["first_start"] = min(s["first_start"], start)
            s["last_end"] = max(s["last_end"], end)
        return out


def _install_step_probe(stamp: dict, on_first) -> None:
    """Stamp the first stepping call, then put every original back."""
    originals = [(f, getattr(*f)) for f in map(_resolve, STEP_BOUNDARIES) if f is not None]

    def probe_for(fn):
        def probe(*a, **k):
            if "first_step" not in stamp:
                stamp["first_step"] = time.monotonic()
                for (owner, attr), orig in originals:
                    setattr(owner, attr, orig)
                on_first()
            return fn(*a, **k)

        return probe

    for (owner, attr), orig in originals:
        setattr(owner, attr, probe_for(orig))


def main(argv: list[str]) -> int:
    mode, stamp_path, sep, *cli_args = argv
    if mode not in ("plain", "setup", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    stamp: dict = {"mode": mode}

    def write_stamp():
        stamp["end"] = time.monotonic()
        stamp["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(stamp_path, "w") as fh:
            json.dump(stamp, fh)

    t0 = time.monotonic()
    import sulfsim.cli

    stamp["import_s"] = time.monotonic() - t0

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    elif mode == "setup":

        def stop():
            write_stamp()
            os._exit(0)

        _install_step_probe(stamp, stop)
    else:
        _install_step_probe(stamp, lambda: None)

    try:
        sulfsim.cli.main(args=cli_args, prog_name="sulfsim")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    if tracer is not None:
        stamp["spans"] = tracer.summary()
        stamp["counts"] = tracer.counts
        stamp["maxima"] = tracer.maxima
        boundaries = {name for point, name, _ in TRACE_POINTS if point in STEP_BOUNDARIES}
        starts = [s["first_start"] for n, s in stamp["spans"].items() if n in boundaries]
        if starts:
            stamp["first_step"] = min(starts)
    write_stamp()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
