"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each knotct layer with
timing wrappers.  A module-level function is rebound in every loaded knotct
module that holds it under some name (so `from .x import f` copies are
covered, and so are calls inside the defining module); a method is replaced
on its class.  Functions that are not listed here (helpers such as
`PlanarDiagram.head_of`, `component_diagrams`, the exactmath routines) are
not wrapped: their time counts as self time of the listed function that
called them.  exactmath is reached only through oracle, so it is reported
inside oracle.

Spans nest on one stack (the program is single-threaded).  A span's self
time is its duration minus the durations of the spans it directly
contains, so self times add up to the time spent inside spans without
double counting.  Spans are aggregated per group as they close instead of
being kept one by one: a `formulas` run opens tens of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (group, module, attribute); "Class.method" attributes are wrapped on the class
LAYER_FUNCTIONS = (
    ("cli.main", "knotct.cli", "main"),
    ("pipeline.obstruct", "knotct.pipeline", "obstruct"),
    ("invariants.closed_form", "knotct.invariants", "closed_form"),
    ("invariants.skein_a2", "knotct.invariants", "skein_a2"),
    ("invariants.skein_w3", "knotct.invariants", "skein_w3"),
    ("oracle.jones", "knotct.oracle", "jones_via_kauffman"),
    ("oracle.jones", "knotct.oracle", "a2_w3_from_jones"),
    ("oracle.seifert", "knotct.oracle", "seifert_pipeline"),
    ("oracle.seifert", "knotct.oracle", "alternating_genus"),
    ("oracle.conway", "knotct.oracle", "conway_polynomial"),
    ("oracle.signature", "knotct.oracle", "oracle_signature"),
    ("diagram.core.canonical_key", "knotct.diagram.core", "PlanarDiagram.canonical_key"),
    ("diagram.core.simplify", "knotct.diagram.core", "PlanarDiagram.simplify"),
    ("diagram.core.switch_smooth", "knotct.diagram.core", "PlanarDiagram.switch"),
    ("diagram.core.switch_smooth", "knotct.diagram.core", "PlanarDiagram.smooth"),
    ("diagram.core.alt_reduced", "knotct.diagram.core", "PlanarDiagram.is_alternating"),
    ("diagram.core.alt_reduced", "knotct.diagram.core", "PlanarDiagram.is_reduced"),
    ("diagram.core.alt_reduced", "knotct.diagram.core", "signature_alternating"),
    ("diagram.construct", "knotct.diagram.construct", "montesinos_diagram"),
    ("diagram.construct", "knotct.diagram.construct", "pretzel_diagram"),
    ("diagram.construct", "knotct.diagram.construct", "double_twist_diagram"),
    ("diagram.construct", "knotct.diagram.construct", "fig1_left_diagram"),
    ("diagram.construct", "knotct.diagram.construct", "fig1_right_diagram"),
    ("montesinos.spec", "knotct.montesinos", "MontesinosSpec.__init__"),
    ("montesinos.spec", "knotct.montesinos", "MontesinosSpec.diagram"),
    ("montesinos.spec", "knotct.montesinos", "FamilySpec.diagram"),
    ("montesinos.spec", "knotct.montesinos", "family_to_montesinos"),
    ("montesinos.spec", "knotct.montesinos", "parse_spec"),
    ("montesinos.genus", "knotct.montesinos", "genus"),
    ("cf_calculus", "knotct.cf_calculus", "evaluate"),
    ("cf_calculus", "knotct.cf_calculus", "rewrite_identity"),
    ("cf_calculus", "knotct.cf_calculus", "to_strict_cf"),
    ("cf_calculus", "knotct.cf_calculus", "to_even_cf"),
)

GROUPS = tuple(dict.fromkeys(g for g, _, _ in LAYER_FUNCTIONS))
LAYERS = ("cli", "pipeline", "invariants", "oracle", "diagram.core",
          "diagram.construct", "montesinos", "cf_calculus")
CONSTRUCT = "diagram.construct"


def layer_of(group):
    return next(layer for layer in sorted(LAYERS, key=len, reverse=True)
                if group == layer or group.startswith(layer + "."))


class Tracer:
    """Timing wrappers around the layer functions, with aggregated spans.

    `stats[group]` is [calls, self seconds, inclusive seconds, open spans].
    Inclusive time counts only the outermost span of a group, so a pretzel
    build that delegates to the Montesinos builder is counted once; `builds`
    counts those outermost diagram.construct spans.  `jones_crossings` sums
    the crossing counts of the diagrams handed to the Kauffman state sum.
    """

    def __init__(self):
        self._frames = []  # child seconds of each open span, innermost last
        self.stats = {g: [0, 0.0, 0.0, 0] for g in GROUPS}
        self.builds = 0
        self.jones_crossings = 0
        self.last_error = None
        self._restore = []

    def reset(self):
        for s in self.stats.values():
            s[:3] = [0, 0.0, 0.0]
        self.builds = 0
        self.jones_crossings = 0
        self.last_error = None

    def _span(self, group, fn):
        frames = self._frames
        stats = self.stats[group]
        layer = layer_of(group)
        clock = time.perf_counter
        is_build = group == CONSTRUCT
        is_jones = fn.__name__ == "jones_via_kauffman"
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_build and not stats[3]:
                tracer.builds += 1
            if is_jones:
                tracer.jones_crossings += args[0].n
            frame = [0.0]
            frames.append(frame)
            stats[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # the innermost span an error escapes from owns it
                if not hasattr(exc, "perfbench_layer"):
                    exc.perfbench_layer = layer
                tracer.last_error = exc
                raise
            finally:
                dt = clock() - t0
                frames.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[1] += dt - frame[0]
                if not stats[3]:
                    stats[2] += dt
                if frames:
                    frames[-1][0] += dt

        return span

    def install(self):
        """Wrap every listed function; knotct must be importable."""
        for group, modname, attr in LAYER_FUNCTIONS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._span(group, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._span(group, orig)
            for m in list(sys.modules.values()):
                if not getattr(m, "__name__", "").startswith("knotct"):
                    continue
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
                        self._restore.append((m, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def snapshot(self):
        return {
            "groups": {g: {"calls": c, "self_s": s, "incl_s": i}
                       for g, (c, s, i, _) in self.stats.items()},
            "builds": self.builds,
            "jones_crossings": self.jones_crossings,
        }


def merge_snapshots(snaps):
    """Sum per-process snapshots (the CLI workload traces one process per item)."""
    out = {"groups": {g: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for g in GROUPS},
           "builds": 0, "jones_crossings": 0}
    for s in snaps:
        for g, v in s["groups"].items():
            for k in ("calls", "self_s", "incl_s"):
                out["groups"][g][k] += v[k]
        out["builds"] += s["builds"]
        out["jones_crossings"] += s["jones_crossings"]
    return out
