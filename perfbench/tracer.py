"""Per-layer spans, taken from outside the program.

`Tracer.install()` replaces each public function listed in `TARGETS` by a
wrapper, in every kstretch module that holds a binding of it (`cli` and
`criteria` import names directly), and on the class for methods.
`uninstall()` puts the originals back, so an untraced pass runs the
program unchanged.  A span's self time is its duration minus the time of
the wrapped calls it made.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter

# span key -> (module, attribute); "Class.method" names a method
TARGETS = {
    "cli.main": ("kstretch.cli", "main"),
    "basis.gell_mann_basis": ("kstretch.basis", "gell_mann_basis"),
    "basis.group_basis": ("kstretch.basis", "group_basis"),
    "povm.build_stpovm": ("kstretch.povm", "build_stpovm"),
    "povm.build_b_operators": ("kstretch.povm", "build_b_operators"),
    "povm.r_range": ("kstretch.povm", "r_range"),
    "povm.certification_residuals": ("kstretch.povm", "certification_residuals"),
    "povm.to_json_dict": ("kstretch.povm", "SymmetricMeasurement.to_json_dict"),
    "povm.to_json": ("kstretch.povm", "SymmetricMeasurement.to_json"),
    "povm.from_json_dict": ("kstretch.povm", "SymmetricMeasurement.from_json_dict"),
    "povm.from_json": ("kstretch.povm", "SymmetricMeasurement.from_json"),
    "partitions.max_sum_squares": ("kstretch.partitions", "max_sum_squares"),
    "partitions.bound_i": ("kstretch.partitions", "bound_i"),
    "partitions.bound_v": ("kstretch.partitions", "bound_v"),
    "states.effect_moments": ("kstretch.states", "effect_moments"),
    "states.materialize_dense": ("kstretch.states", "materialize_dense"),
    "infoquant.collective_moments_from_rdms": ("kstretch.infoquant",
                                               "collective_moments_from_rdms"),
    "infoquant.criterion_lhs_isotropic": ("kstretch.infoquant", "criterion_lhs_isotropic"),
    "infoquant.criterion_lhs_dense": ("kstretch.infoquant", "criterion_lhs_dense"),
    "infoquant.collective_operator": ("kstretch.infoquant", "collective_operator"),
    "linalg.hermitian_eig": ("kstretch.linalg", "hermitian_eig"),
    "linalg.embed_site": ("kstretch.linalg", "embed_site"),
    "linalg.DensityMatrix": ("kstretch.linalg", "DensityMatrix.__post_init__"),
    "criteria.evaluate": ("kstretch.criteria", "evaluate"),
    "criteria.threshold_p": ("kstretch.criteria", "threshold_p"),
}

# per-layer metric -> (unit, keys whose self time it sums | count | ratio)
TIMES = {
    "cli.self_s": ("cli.main",),
    "basis.build_s": ("basis.gell_mann_basis", "basis.group_basis"),
    "povm.build_s": ("povm.build_stpovm", "povm.build_b_operators", "povm.r_range"),
    "povm.certify_s": ("povm.certification_residuals",),
    "povm.json_s": ("povm.to_json_dict", "povm.to_json", "povm.from_json_dict",
                    "povm.from_json"),
    "partitions.max_sum_squares_s": ("partitions.max_sum_squares",),
    "partitions.bound_s": ("partitions.bound_i", "partitions.bound_v"),
    "states.effect_moments_s": ("states.effect_moments",),
    "states.materialize_dense_s": ("states.materialize_dense",),
    "infoquant.moments_from_rdms_s": ("infoquant.collective_moments_from_rdms",),
    "infoquant.lhs_isotropic_s": ("infoquant.criterion_lhs_isotropic",),
    "infoquant.lhs_dense_s": ("infoquant.criterion_lhs_dense",),
    "infoquant.collective_operator_s": ("infoquant.collective_operator",),
    "linalg.eig_s": ("linalg.hermitian_eig",),
    "linalg.density_matrix_s": ("linalg.DensityMatrix",),
    "linalg.embed_site_s": ("linalg.embed_site",),
    "criteria.evaluate_s": ("criteria.evaluate",),
    "criteria.threshold_s": ("criteria.threshold_p",),
}
COUNTS = {
    "povm.builds": "povm.build_stpovm",
    "povm.certify_calls": "povm.certification_residuals",
    "partitions.max_sum_squares_calls": "partitions.max_sum_squares",
    "states.effect_moments_calls": "states.effect_moments",
    "infoquant.lhs_isotropic_calls": "infoquant.criterion_lhs_isotropic",
    "infoquant.collective_operator_calls": "infoquant.collective_operator",
}
RATIOS = ("linalg.decomps_per_state", "criteria.lhs_evals_per_threshold")
OVERHEAD = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in TIMES}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units[OVERHEAD] = "s"
    return units


@dataclass
class Bucket:
    """What the wrapped calls of one traced interval did."""

    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    decomps: Counter = field(default_factory=Counter)  # matrix dimension -> count
    states: dict = field(default_factory=dict)         # id -> dimension
    lhs_in_threshold: int = 0

    def merged(self, other: "Bucket") -> "Bucket":
        out = Bucket()
        for part in (self, other):
            for key, value in part.self_s.items():
                out.self_s[key] += value
            out.calls.update(part.calls)
            out.decomps.update(part.decomps)
            out.states.update(part.states)
            out.lhs_in_threshold += part.lhs_in_threshold
        return out

    def metrics(self) -> dict[str, float]:
        out = {name: sum(self.self_s[key] for key in keys) for name, keys in TIMES.items()}
        out.update({name: float(self.calls[key]) for name, key in COUNTS.items()})
        dims = set(self.states.values())
        full = sum(count for dim, count in self.decomps.items() if dim in dims)
        out["linalg.decomps_per_state"] = full / len(self.states) if self.states else 0.0
        thresholds = self.calls["criteria.threshold_p"]
        out["criteria.lhs_evals_per_threshold"] = (
            self.lhs_in_threshold / thresholds if thresholds else 0.0)
        return out


def combine(setup: Bucket, passes: list[Bucket]) -> dict[str, float]:
    """Per-layer metrics of set-up plus one pass: the median over traced passes."""
    per_pass = [setup.merged(b).metrics() for b in passes]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


class Tracer:
    def __init__(self):
        self.bucket = Bucket()
        self._stack: list[list] = []      # [key, child time] per open span
        self._restore: list[tuple] = []

    def take(self) -> Bucket:
        bucket, self.bucket = self.bucket, Bucket()
        return bucket

    def _note(self, key: str, args: tuple) -> None:
        if key == "linalg.hermitian_eig":
            self.bucket.decomps[len(args[0])] += 1
        elif key == "linalg.DensityMatrix":  # __post_init__ validates with eigvalsh
            self.bucket.decomps[len(args[0].entries)] += 1
        elif key == "criteria.evaluate" and hasattr(args[0], "entries"):
            self.bucket.states[id(args[0])] = args[0].dim
        elif key == "infoquant.criterion_lhs_isotropic" and any(
                frame[0] == "criteria.threshold_p" for frame in self._stack):
            self.bucket.lhs_in_threshold += 1

    def _wrap(self, key: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._note(key, args)
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.bucket.self_s[key] += duration - frame[1]
                self.bucket.calls[key] += 1
                if stack:
                    stack[-1][1] += duration
        return wrapper

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "kstretch" or name.startswith("kstretch.")]
        for key, (module_name, attr) in TARGETS.items():
            module = import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(key, raw.__func__))
                else:
                    new = self._wrap(key, raw)
                setattr(cls, method, new)
                self._restore.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
