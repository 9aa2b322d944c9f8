"""Construction and certification of informationally complete (s,t)-POVMs.

A measurement is built from a grouped operator basis: for each group u,
B^(uv) = C^(u) - sqrt(t)(sqrt(t)+1) C^(uv) for v < t and
B^(ut) = (sqrt(t)+1) C^(u) with C^(u) the group sum, then
A^(uv) = 1/t + r B^(uv), held as one read-only (s, t, d, d) array.  All
symmetry identities are verified at construction time; a measurement
object that exists is certified, and keeps the residuals it was
certified with.  A JSON file holds each distinct [re, im] entry once, in
"values", ordered by the bytes of its 16-byte pattern, and the effects as
an (s, t, d^2) array of indices into it, so one measurement has one file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import check_family, group_basis
from .linalg import check_hermitian

SYMMETRY_TOL = 1e-10
EFFECT_PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-12


class PositivityError(ValueError):
    """Raised when r lies outside the admissible range."""


class ConstructionError(ValueError):
    """Raised when a measurement fails its certification identities."""


def build_b_operators(c: np.ndarray) -> np.ndarray:
    """The traceless B^(uv) operators of the general construction, (s, t, d, d),
    from the (s, t-1, d, d) grid of C^(uv) that `group_basis` returns."""
    sqt = np.sqrt(c.shape[1] + 1)
    c_u = c.sum(axis=1, keepdims=True)
    return np.concatenate([c_u - sqt * (sqt + 1) * c, (sqt + 1) * c_u], axis=1)


def r_range(b_ops: np.ndarray) -> tuple[float, float]:
    """Admissible interval (r_neg, r_pos) keeping every effect PSD.

    r_neg = -1/(t lambda_max), r_pos = 1/(t |lambda_min|) with the
    extreme eigenvalues taken over all B^(uv).
    """
    t = len(b_ops[0])
    evals = np.linalg.eigvalsh(np.asarray(b_ops))
    lam_max = evals[..., -1].max()
    lam_min = evals[..., 0].min()
    if lam_max <= 0 or lam_min >= 0:
        raise ConstructionError("degenerate B operators: one-sided spectrum")
    return (-1.0 / (t * lam_max), 1.0 / (t * abs(lam_min)))


@dataclass(frozen=True)
class SymmetricMeasurement:
    """A certified informationally complete (s,t)-POVM."""

    d: int
    s: int
    t: int
    r: float
    chi: float
    effects: np.ndarray = field(repr=False)  # (s, t, d, d) complex, read-only
    # admissible (r_neg, r_pos) of the construction; None for a loaded file
    r_bounds: tuple[float, float] | None = field(default=None, compare=False, repr=False)
    # certification_residuals at construction; never read back from a file
    residuals: dict[str, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        effects = np.array(self.effects, dtype=complex)  # a private, frozen copy
        if effects.shape != (self.s, self.t, self.d, self.d):
            raise ConstructionError(f"effects are not an {self.s} x {self.t} array "
                                    f"of {self.d} x {self.d} matrices")
        effects.flags.writeable = False
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "residuals", _certify_or_raise(self))

    def __eq__(self, other: object) -> bool:  # equal scalars, bit-identical effects
        return (isinstance(other, SymmetricMeasurement) and self._scalars() == other._scalars()
                and self.effects.tobytes() == other.effects.tobytes())

    def __hash__(self) -> int:
        return hash(tuple(self._scalars().values()))

    @property
    def beta(self) -> float:
        """SWAP weight r^2 t (sqrt(t)+1)^2, a Python float, of the certified conical
        2-design sum_uv A (x) A = (s/t - beta/d) 1 + beta SWAP."""
        return float(self.r) ** 2 * self.t * (math.sqrt(self.t) + 1) ** 2

    def iter_effects(self):
        for row in self.effects:
            yield from row

    def _scalars(self) -> dict:
        return {"d": self.d, "s": self.s, "t": self.t, "r": self.r, "chi": self.chi}

    def to_json_dict(self) -> dict:
        # distinct bit patterns (0.0 and -0.0 apart) in byte order: two big-endian words
        pairs = self.effects.view(float).reshape(-1, 2)
        hi, lo = pairs.view(">u8").astype(np.uint64).T
        order = np.lexsort((lo, hi))
        first = np.concatenate(([True], (np.diff(hi[order]) | np.diff(lo[order])) != 0))
        index = np.empty_like(order)
        index[order] = np.cumsum(first) - 1
        return {**self._scalars(), "values": pairs[order[first]].tolist(),
                "effects": index.reshape(self.s, self.t, -1).tolist()}

    def to_json(self, **extra) -> str:
        """`json.dumps({**self.to_json_dict(), **extra})`; no extra key may
        replace one of the measurement's own."""
        doc = self.to_json_dict()
        if extra.keys() & doc.keys():
            raise ValueError(f"extra keys {sorted(extra)} clash with the measurement's")
        return json.dumps({**doc, **extra})

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SymmetricMeasurement":
        """Rebuild and re-certify a measurement; any stored "certification"
        block is ignored, so a file cannot vouch for itself."""
        if not isinstance(doc, dict):
            raise ValueError("a measurement document must hold a JSON object")
        missing = [k for k in ("d", "s", "t", "r", "chi", "values", "effects") if k not in doc]
        if missing:
            raise ValueError(f"measurement document lacks {', '.join(map(repr, missing))}")
        for key in ("d", "s", "t", "r", "chi"):
            kind, types = ("integer", int) if key in "dst" else ("number", (int, float))
            if isinstance(doc[key], bool) or not isinstance(doc[key], types):
                raise ValueError(f"{key!r} must be a JSON {kind}, not {doc[key]!r}")
        d, s, t = doc["d"], doc["s"], doc["t"]
        values = json_floats(doc["values"], "values").view(complex).ravel()
        if not np.isfinite(values).all():
            raise ConstructionError("every entry of 'values' must be finite")
        cells = np.array(doc["effects"], dtype=object)
        if cells.shape != (s, t, d * d):
            raise ValueError(f"effects have shape {cells.shape}, not {(s, t, d * d)}")
        check_family(d, s, t)  # after the shape check: its message lists O(d^2) families
        index = cells.ravel().tolist()
        kinds = set(map(type, index)) - {int}  # exact types: a bool is an int subclass
        if kinds:
            raise ValueError("'effects' must hold JSON integers, not "
                             f"{', '.join(sorted(k.__name__ for k in kinds))} entries")
        try:
            index = np.array(index, dtype=np.intp)
        except OverflowError:  # 2**63 or more: no table is that long
            index = None
        if index is None or not 0 <= index.min(initial=0) <= index.max(initial=0) < len(values):
            raise ValueError(f"'effects' must hold indices in [0, {len(values)})")
        return cls(d, s, t, float(doc["r"]), float(doc["chi"]),
                   values[index].reshape(s, t, d, d))

    @classmethod
    def from_json(cls, text: str) -> "SymmetricMeasurement":
        return cls.from_json_dict(json.loads(text))


def json_floats(pairs, key: str) -> np.ndarray:
    """A decoded JSON list of [re, im] number pairs as an (n, 2) float array;
    ValueError naming `key` for another shape, a non-number or an overflow."""
    cells = np.array(pairs, dtype=object)  # the entries themselves, unconverted
    if cells.ndim != 2 or cells.shape[1] != 2:
        raise ValueError(f"{key!r} must be [re, im] pairs, not shape {cells.shape}")
    # exact types: a bool is an int subclass that np.array would upcast
    kinds = set(map(type, cells.ravel().tolist()))
    if not kinds <= {float, int}:
        names = ", ".join(sorted(k.__name__ for k in kinds - {float, int}))
        raise ValueError(f"{key!r} must hold JSON numbers, not {names} entries")
    try:
        return cells.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{key!r} hold an integer beyond float range: {exc}") from None


def chi_of_r(d: int, t: int, r: float) -> float:
    """Purity parameter chi as a function of the construction parameter r."""
    return d / t**2 + r**2 * (t - 1) * (np.sqrt(t) + 1) ** 2


def build_stpovm(basis: np.ndarray, s: int, t: int,
                 r: float | str = "max") -> SymmetricMeasurement:
    """Build the (s,t)-POVM A^(uv) = 1/t + r B^(uv) from a (d^2 - 1, d, d)
    basis and its (s, t-1) grouping.

    r="max" selects the chi-maximizing endpoint
    max{1/(t lambda_max), 1/(t |lambda_min|)} with positive sign.
    """
    d = basis.shape[-1]
    b_ops = build_b_operators(group_basis(basis, s, t))
    r_neg, r_pos = r_range(b_ops)
    r_val = max(abs(r_neg), r_pos) if r == "max" else float(r)
    slack = 1e-12 * max(abs(r_neg), r_pos)
    if r_val == 0 or not (r_neg - slack <= r_val <= r_pos + slack):
        raise PositivityError(f"r={r_val} outside admissible range [{r_neg}, {r_pos}]")
    effects = np.eye(d, dtype=complex) / t + r_val * b_ops
    return SymmetricMeasurement(d, s, t, r_val, chi_of_r(d, t, r_val), effects,
                                (r_neg, r_pos))


def certification_residuals(m: SymmetricMeasurement) -> dict[str, float]:
    """Residuals of every identity the measurement must satisfy."""
    d, s, t, chi = m.d, m.s, m.t, m.chi
    effects = np.asarray(m.effects, dtype=complex).reshape(s * t, d, d)
    res: dict[str, float] = {}
    res["min_effect_eigenvalue"] = float(np.linalg.eigvalsh(effects)[:, 0].min())
    res["completeness"] = float(np.max(np.abs(effects.reshape(s, t, d, d).sum(axis=1) - np.eye(d))))
    res["trace"] = float(np.max(np.abs(
        np.trace(effects, axis1=1, axis2=2).real - d / t)))
    # Tr(A B) = <vec A, vec B> for Hermitian effects, ordered (u, v) row-major
    flat = effects.reshape(s * t, d * d)
    gram = (flat.conj() @ flat.T).real
    res["purity"] = float(np.max(np.abs(np.diag(gram) - chi)))
    # the same-u blocks gram[u, v, u, w], off the diagonal v = w
    same = np.abs(np.einsum("uiuj->uij", gram.reshape(s, t, s, t)) - (d - t * chi) / (t * (t - 1)))
    np.einsum("uii->ui", same)[...] = 0.0
    res["cross_outcome"] = float(np.max(same))
    across = np.abs(gram - d / t**2).reshape(s, t, s, t)
    np.einsum("uiuj->uij", across)[...] = 0.0
    res["cross_measurement"] = float(np.max(across))
    # flat.T @ flat holds sum_uv A_ik A_jl at [i, k, j, l]: 1 (x) 1 is
    # delta_ik delta_jl and SWAP is delta_il delta_kj
    design = (flat.T @ flat).reshape(d, d, d, d)
    np.einsum("iijj->ij", design)[...] -= s / t - m.beta / d
    np.einsum("ikki->ik", design)[...] -= m.beta
    res["conical_design"] = float(np.max(np.abs(design)))
    res["chi_consistency"] = float(abs(chi - chi_of_r(d, t, m.r)))
    return res


def _certify_or_raise(m: SymmetricMeasurement) -> dict[str, float]:
    """Raise unless every identity holds; return the residuals."""
    check_family(m.d, m.s, m.t)
    if not (np.isfinite(m.r) and np.isfinite(m.chi) and np.isfinite(m.effects).all()):
        raise ConstructionError(f"r={m.r}, chi={m.chi} and every effect entry must be finite")
    check_hermitian(m.effects)
    # each gate is `not (within tolerance)`, so a NaN residual fails it
    lo = m.d / m.t**2
    hi = min(m.d**2 / m.t**2, m.d / m.t)
    if not (lo < m.chi <= hi + SYMMETRY_TOL):
        raise ConstructionError(f"chi={m.chi} outside ({lo}, {hi}]")
    res = certification_residuals(m)
    if not (res["min_effect_eigenvalue"] >= -EFFECT_PSD_TOL):
        raise PositivityError(
            f"effect not PSD (min eigenvalue {res['min_effect_eigenvalue']:.3e})"
        )
    if not (res["completeness"] <= COMPLETENESS_TOL):
        raise ConstructionError(f"effects do not sum to identity: {res['completeness']:.3e}")
    for key in ("trace", "purity", "cross_outcome", "cross_measurement",
                "conical_design", "chi_consistency"):
        if not (res[key] <= SYMMETRY_TOL):
            raise ConstructionError(f"symmetry identity '{key}' fails: {res[key]:.3e}")
    return res
