"""Per-layer tracing from outside the program, by wrapping its public functions.

Each target is a function (or a method, written ``Class.method``) of one
module of the ``shellability`` package.  Installing a target replaces the
original object with a timing wrapper wherever it is bound: on its class, in
its own module, and in every other module of the package that imported the
name (``is_shellable`` is imported by ``properties``, ``enumeration``,
``graphs``, ``cli`` and the package itself).  A target that a later version
deletes or renames is reported as absent instead of failing the run.

A wrapped call's self time is its duration minus the time spent in wrapped
calls below it.  Time outside every wrapped call is reported as unattributed,
so the self times plus the unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import re
import sys
import time

PACKAGE = "shellability"

# (module, qualified name).  Entry points are included so that no workload's
# time is left unattributed; the hot helpers of ``complexes`` are not wrapped
# because their call counts run into the millions.
TARGETS: tuple[tuple[str, str], ...] = (
    ("complexes", "SimplicialComplex.canonical_form"),
    ("homology", "reduced_homology"),
    ("homology", "smith_normal_form"),
    ("shelling", "is_shellable"),
    ("partition", "is_partitionable"),
    ("cohen_macaulay", "is_sequentially_cm"),
    ("cohen_macaulay", "is_cohen_macaulay"),
    ("obstruction", "obstruction_report"),
    ("obstruction", "is_hereditary"),
    ("enumeration", "triangle_cores"),
    ("enumeration", "dim2_shellability_obstructions"),
    ("enumeration", "enumerate_obstructions"),
    ("enumeration", "generic_obstructions"),
    ("enumeration", "edge_minimal"),
    ("graphs", "independence_cycle_report"),
    ("graphs", "independence_complex"),
    ("catalog", "write_atlas"),
    ("catalog", "obstruction_atlas_entries"),
    ("catalog", "build_entries"),
)

LAYERS = ("complexes", "homology", "shelling", "partition", "cohen_macaulay",
          "obstruction", "enumeration", "graphs", "catalog")

# Module-level memo tables are found by name; tables registered with
# ``cache.new_cache`` are found whatever their name.
_MEMO_NAME = re.compile(r"^_[A-Z0-9_]*(CACHE|MEMO|TABLES)$")


def package_modules() -> dict[str, object]:
    """The loaded modules of the package, keyed by their short name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None:
            continue
        if name == PACKAGE:
            out[""] = mod
        elif name.startswith(PACKAGE + "."):
            out[name[len(PACKAGE) + 1:]] = mod
    return out


def memo_tables() -> dict[str, int]:
    """Entry count of every memo table of the package, keyed ``module.NAME``."""
    modules = package_modules()
    registry = list(getattr(modules.get("cache"), "_REGISTRY", None) or ())
    registry_ids = {id(t) for t in registry}
    out: dict[str, int] = {}
    named_ids = set()
    for short, mod in sorted(modules.items()):
        if not short:
            continue
        for attr, value in sorted(vars(mod).items()):
            if (isinstance(value, dict) and id(value) not in named_ids
                    and (id(value) in registry_ids or _MEMO_NAME.match(attr))):
                named_ids.add(id(value))
                out[f"{short}.{attr}"] = len(value)
    unnamed = [t for t in registry if id(t) not in named_ids]
    for i, table in enumerate(unnamed):
        out[f"cache._REGISTRY[{i}]"] = len(table)
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}


class Tracer:
    """Installs the wrappers and accumulates calls and self time per target."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self.rebound: dict[str, list[str]] = {}
        self._stack = [[0.0]]
        self.counters = {"enumeration.shelling_calls": 0, "enumeration.cores_found": 0}

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = package_modules()
        for module_name, qualname in targets:
            key = f"{module_name}.{qualname.split('.')[-1]}"
            mod = modules.get(module_name)
            owner = mod
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None) if owner is not None else None
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            stat = self.stats.setdefault(key, _Stat())
            wrapper = self._wrap(stat, original, self._after_hook(key, stat, modules))
            setattr(owner, parts[-1], wrapper)
            where = [module_name if owner is mod else f"{module_name}.{'.'.join(parts[:-1])}"]
            if owner is mod:
                for short, other in modules.items():
                    if other is mod:
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
                            where.append(short or PACKAGE)
            self.rebound[key] = where
        self._count_enumeration_shelling(modules)

    def _count_enumeration_shelling(self, modules) -> None:
        """Route ``enumeration``'s own binding of is_shellable through a counter."""
        enumeration = modules.get("enumeration")
        inner = getattr(enumeration, "is_shellable", None)
        if enumeration is None or not callable(inner):
            self.absent.append("enumeration.shelling_calls")
            return
        counters = self.counters

        def counted(*args, **kwargs):
            counters["enumeration.shelling_calls"] += 1
            return inner(*args, **kwargs)

        enumeration.is_shellable = counted

    def _after_hook(self, key: str, stat: _Stat, modules):
        """Extra per-call counts for some targets, taken after each call."""
        if key == "complexes.canonical_form":
            # fills: calls that grew (or reset) the canonical-form memo, i.e.
            # labelings actually computed; only canonical_form writes to it
            table = getattr(modules.get("complexes"), "_CANON_CACHE", None)
            if not isinstance(table, dict):
                self.absent.append("complexes.canonical_form.fills")
                return None
            stat.extra["fills"] = 0
            seen = [len(table)]

            def fills(args, result):
                if len(table) != seen[0]:
                    seen[0] = len(table)
                    stat.extra["fills"] += 1

            return fills
        if key == "homology.smith_normal_form":
            stat.extra["cells"] = 0

            def cells(args, result):
                matrix = args[0] if args else ()
                rows = len(matrix)
                stat.extra["cells"] += rows * (len(matrix[0]) if rows else 0)

            return cells
        if key == "enumeration.triangle_cores":
            counters = self.counters

            def cores(args, result):
                if stat.calls == 1 and isinstance(result, dict):
                    counters["enumeration.cores_found"] = sum(len(v) for v in result.values())

            return cores
        return None

    def _wrap(self, stat: _Stat, fn, after):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
            if after:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ---------------------------------------------------------

    def report(self, wall_s: float) -> dict:
        """Per-target and per-layer numbers for one traced job of ``wall_s`` seconds."""
        targets = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for key, stat in sorted(self.stats.items()):
            targets[key] = {"calls": stat.calls, "self_s": stat.self_s}
            targets[key].update(stat.extra)
            layer = key.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + stat.self_s
        attributed = sum(layers.values())
        counters = dict(self.counters)
        calls = counters["enumeration.shelling_calls"]
        counters["enumeration.core_yield"] = counters["enumeration.cores_found"] / calls if calls else 0.0
        return {
            "targets": targets,
            "layers": layers,
            "counters": counters,
            "unattributed_s": wall_s - attributed,
            "absent": sorted(self.absent),
            "rebound": self.rebound,
        }
