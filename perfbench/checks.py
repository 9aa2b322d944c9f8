"""Reference computations and output checks, written apart from the program.

Expected values come from the benchmark's own numpy code: the block-count
construction of M(N,k), reduced states written down in closed form, the
two-level spectrum of p|psi><psi| + (1-p)/D, and the symmetric-measurement
identities evaluated on a Gram matrix.  The program's public functions are
called only where a check compares against them by name (`max_sum_squares`,
`bound_i`, `bound_v`).

Every check returns a list of error strings; an empty list means the output
passed.  The checks take plain numbers and arrays, so `selftest.py` can feed
them perturbed outputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

VERDICT_MARGIN = 1e-9      # the program's strict verdict margin
SOLVER_PRECISION = 1e-6    # width of the program's threshold bisection
LHS_REL_TOL = 1e-9         # LHS values against the reference formulas
IDENTITY_TOL = 1e-10       # measurement identities and positivity
CRITERIA_ORDER = ("qfi", "wyd:0.5", "variance")  # row order of `--f all`


def close(a: float, b: float, rel: float = LHS_REL_TOL, floor: float = 1e-12) -> bool:
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


# --- partitions -----------------------------------------------------------

def block_count_m(n: int, k: int) -> int:
    """Max of sum(parts^2) over partitions of n with max(parts) - len(parts) <= k.

    For each block count L the largest block may hold b = min(L+k, n-L+1)
    sites.  Sum of squares is convex, so the best filling puts q full
    blocks of size b, one block holding the remainder, and ones elsewhere.
    """
    best = None
    for blocks in range(1, n + 1):
        cap = min(blocks + k, n - blocks + 1)
        if cap < 1:
            continue
        extra = n - blocks
        if cap == 1:
            if extra:
                continue
            value = n
        else:
            full, rem = divmod(extra, cap - 1)
            if full + (rem > 0) > blocks:
                continue
            # (1+rem)^2 + (blocks-full-1) also covers rem == 0, full == blocks
            value = full * cap * cap + (1 + rem) ** 2 + (blocks - full - 1)
        best = value if best is None else max(best, value)
    if best is None:
        raise ValueError(f"no {k}-stretchable partition of {n}")
    return best


def check_m(n: int, k: int, program_m: int) -> list[str]:
    expected = block_count_m(n, k)
    if program_m != expected:
        return [f"max_sum_squares({n},{k}) = {program_m}, block count gives {expected}"]
    return []


# --- reduced states and isotropic left-hand sides --------------------------

def ghz_rdms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """1- and 2-site reduced states of the d-level GHZ state on >= 3 sites."""
    rho2 = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        rho2[i * d + i, i * d + i] = 1.0 / d
    return np.eye(d) / d, rho2


def antisym_rdms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states of the antisymmetric state of d qudits: rho2 = 2/(d(d-1)) P_anti."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    p_anti = (np.eye(d * d) - swap) / 2
    return np.eye(d) / d, 2.0 / (d * (d - 1)) * p_anti


class IsotropicReference:
    """Moments of every collective effect A_1 + ... + A_n in a pure state
    |psi>, and the two-level-spectrum left-hand sides of
    rho(p) = p|psi><psi| + (1-p)/D.  Per effect: <A>, <A^2>, Tr(A)/D and
    Tr(A^2)/D (normalised, so that large n cannot overflow)."""

    def __init__(self, n: int, d: int, mean, second, t1, t2):
        self.n, self.d, self.dim = n, d, float(d) ** n
        self.mean, self.second = np.array(mean), np.array(second)
        self.t1, self.t2 = np.array(t1), np.array(t2)
        self.sum_var = float(np.sum(self.second - self.mean ** 2))

    @classmethod
    def from_rdms(cls, effects, rho1: np.ndarray, rho2: np.ndarray, n: int):
        """For a permutation-symmetric |psi> given by its 1- and 2-site reduced states."""
        d = rho1.shape[0]
        mean, second, t1, t2 = [], [], [], []
        for a in effects:
            a = np.asarray(a)
            a2 = a @ a
            tr_a, tr_a2 = np.trace(a).real, np.trace(a2).real
            mean.append(n * np.trace(a @ rho1).real)
            second.append(n * np.trace(a2 @ rho1).real
                          + n * (n - 1) * np.trace(np.kron(a, a) @ rho2).real)
            t1.append(n * tr_a / d)
            t2.append(n * tr_a2 / d + n * (n - 1) * (tr_a / d) ** 2)
        return cls(n, d, mean, second, t1, t2)

    @classmethod
    def antisym_dense(cls, effects, n: int):
        """For the antisymmetric state of n qudits (d = n), from a dense state
        vector and dense collective operators (n small)."""
        d = n
        vec = np.zeros(d ** n, dtype=complex)
        for perm in itertools.permutations(range(n)):
            inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                             if perm[i] > perm[j])
            vec[int(np.ravel_multi_index(perm, (d,) * n))] = (-1) ** inversions
        vec /= np.linalg.norm(vec)
        mean, second, t1, t2 = [], [], [], []
        for a in effects:
            big = sum(np.kron(np.kron(np.eye(d ** i), a), np.eye(d ** (n - i - 1)))
                      for i in range(n))
            mean.append((vec.conj() @ big @ vec).real)
            second.append((vec.conj() @ big @ big @ vec).real)
            t1.append(np.trace(big).real / d ** n)
            t2.append(np.trace(big @ big).real / d ** n)
        return cls(n, d, mean, second, t1, t2)

    def lhs_skew(self, label: str, p: float) -> float:
        hi, lo = p + (1 - p) / self.dim, (1 - p) / self.dim
        if label == "qfi":
            factor = (hi - lo) ** 2 / (hi + lo)
        elif label.startswith("wyd:"):
            w = float(label.split(":", 1)[1])
            factor = (hi ** w - lo ** w) * (hi ** (1 - w) - lo ** (1 - w))
        else:
            raise ValueError(f"unknown skew quantity {label!r}")
        return factor * self.sum_var

    def lhs_var(self, p: float) -> float:
        second = p * self.second + (1 - p) * self.t2
        mean = p * self.mean + (1 - p) * self.t1
        return float(np.sum(second - mean ** 2))

    def qfi_root(self, i_bound: float) -> float:
        """Positive root of sumVar p^2 - I(1-2/D) p - 2I/D."""
        a, b, c = self.sum_var, -i_bound * (1 - 2 / self.dim), -2 * i_bound / self.dim
        return (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)


def check_same_moments(a: IsotropicReference, b: IsotropicReference, what: str) -> list[str]:
    errors = []
    for field in ("mean", "second", "t1", "t2"):
        x, y = getattr(a, field), getattr(b, field)
        if not np.allclose(x, y, rtol=1e-10, atol=1e-12):
            errors.append(f"{what}: {field} differs by {np.max(np.abs(x - y)):.3e}")
    return errors


# --- threshold-ghz --------------------------------------------------------

def parse_threshold_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "N,k,f,criterion,p_star":
        raise ValueError("threshold CSV header missing")
    rows = []
    for ln in lines[1:]:
        n, k, f, criterion, p_star = ln.split(",")
        rows.append({"N": int(n), "k": int(k), "f": f, "criterion": criterion,
                     "p_star": None if p_star == "NONE" else float(p_star)})
    return rows


def check_threshold_rows(rows: list[dict], n: int, k: int, ref: IsotropicReference,
                         i_bound: float, v_bound: float) -> list[str]:
    """Rows of one `threshold --f all` invocation against the exact roots."""
    errors = []
    labels = [(r["N"], r["k"], r["f"], r["criterion"]) for r in rows]
    expected = [(n, k, f, "variance" if f == "variance" else "skew") for f in CRITERIA_ORDER]
    if labels != expected:
        return [f"N={n}: rows {labels}, expected {expected}"]
    for row in rows:
        f, p = row["f"], row["p_star"]
        where = f"N={n} {f}"
        if f == "variance":
            if p is None:
                for end in (0.0, 1.0):
                    if ref.lhs_var(end) < v_bound - VERDICT_MARGIN:
                        errors.append(f"{where}: NONE, but LHS({end}) < bound_v")
            elif not (ref.lhs_var(max(p - SOLVER_PRECISION, 0.0)) >= v_bound
                      and ref.lhs_var(min(p + SOLVER_PRECISION, 1.0)) < v_bound):
                errors.append(f"{where}: p*={p} does not bracket LHS = bound_v")
            continue
        if p is None:
            # at p = 1 both skew LHS equal the pure-state variance sum
            if ref.sum_var > i_bound + VERDICT_MARGIN:
                errors.append(f"{where}: NONE, but sumVar {ref.sum_var} > bound_i {i_bound}")
        elif f == "qfi":
            root = ref.qfi_root(i_bound)
            if abs(p - root) > SOLVER_PRECISION:
                errors.append(f"{where}: p*={p}, exact root {root}")
        else:
            below = ref.lhs_skew(f, max(p - SOLVER_PRECISION, 0.0))
            above = ref.lhs_skew(f, min(p + SOLVER_PRECISION, 1.0))
            if not below < i_bound < above:
                errors.append(f"{where}: p*={p} does not bracket LHS = bound_i "
                              f"({below} / {i_bound} / {above})")
    return errors


# --- criteria-isotropic ---------------------------------------------------

def check_verdict(row: dict, where: str) -> list[str]:
    errors = []
    if row["lhs_skew"] is not None:
        if row["violated_skew"] != (row["lhs_skew"] > row["i_bound"] + VERDICT_MARGIN):
            errors.append(f"{where}: violated_skew={row['violated_skew']} disagrees "
                          f"with {row['lhs_skew']} vs {row['i_bound']}")
    elif row["violated_skew"] is not None:
        errors.append(f"{where}: skew verdict without a skew LHS")
    if row["violated_var"] != (row["lhs_var"] < row["v_bound"] - VERDICT_MARGIN):
        errors.append(f"{where}: violated_var={row['violated_var']} disagrees "
                      f"with {row['lhs_var']} vs {row['v_bound']}")
    nonstretchable = bool(row["violated_skew"]) or row["violated_var"]
    if row["verdict"] != ("k-nonstretchable" if nonstretchable else "inconclusive"):
        errors.append(f"{where}: verdict {row['verdict']!r} disagrees with the flags")
    return errors


def check_criteria_rows(rows: list[dict], n: int, k: int, ref: IsotropicReference,
                        i_bound: float, v_bound: float, p_grid) -> list[str]:
    """Rows of one `criteria --f all --format json` invocation."""
    if len(rows) != len(p_grid) * len(CRITERIA_ORDER):
        return [f"N={n}: {len(rows)} rows, expected {len(p_grid) * len(CRITERIA_ORDER)}"]
    errors = []
    for i, row in enumerate(rows):
        p, f = p_grid[i // 3], CRITERIA_ORDER[i % 3]
        where = f"N={n} p={p:g} {f}"
        if (row["N"], row["k"], row["f"]) != (n, k, f) or not close(row["p"], p, floor=1e-15):
            errors.append(f"{where}: row is for N={row['N']} k={row['k']} "
                          f"f={row['f']} p={row['p']}")
            continue
        if not (close(row["i_bound"], i_bound) and close(row["v_bound"], v_bound)):
            errors.append(f"{where}: bounds {row['i_bound']}, {row['v_bound']} "
                          f"!= bound_i {i_bound}, bound_v {v_bound}")
        if not close(row["lhs_var"], ref.lhs_var(p)):
            errors.append(f"{where}: lhs_var {row['lhs_var']}, reference {ref.lhs_var(p)}")
        if f == "variance":
            if row["lhs_skew"] is not None:
                errors.append(f"{where}: variance row carries a skew LHS")
        elif row["lhs_skew"] is None or not close(row["lhs_skew"], ref.lhs_skew(f, p)):
            errors.append(f"{where}: lhs_skew {row['lhs_skew']}, "
                          f"reference {ref.lhs_skew(f, p)}")
        elif p == 0.0 and abs(row["lhs_skew"]) > 1e-15:
            errors.append(f"{where}: lhs_skew {row['lhs_skew']} at p=0")
        errors += check_verdict(row, where)
    return errors


# --- dense-mixed ----------------------------------------------------------

def reduced_state(entries: np.ndarray, d: int, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a dense n-site state onto the sites in `keep`."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows, cols = list(letters[:n]), list(letters[n:2 * n])
    for site in range(n):
        if site not in keep:
            cols[site] = rows[site]
    out = "".join(rows[s] for s in keep) + "".join(cols[s] for s in keep)
    tensor = np.einsum("".join(rows) + "".join(cols) + "->" + out,
                       entries.reshape((d,) * (2 * n)))
    size = d ** len(keep)
    return tensor.reshape(size, size)


def variance_sum_from_rdms(entries: np.ndarray, d: int, n: int, effects) -> float:
    """Sum over effects of Var(A_1 + ... + A_n), from 1- and 2-site reduced states."""
    rho1 = [reduced_state(entries, d, n, (i,)) for i in range(n)]
    rho2 = [reduced_state(entries, d, n, pair)
            for pair in itertools.combinations(range(n), 2)]
    total = 0.0
    for a in effects:
        a = np.asarray(a)
        aa = np.kron(a, a)
        mean = sum(np.trace(r @ a).real for r in rho1)
        second = (sum(np.trace(r @ a @ a).real for r in rho1)
                  + 2 * sum(np.trace(r @ aa).real for r in rho2))
        total += second - mean ** 2
    return float(total)


def maximally_mixed_variance_sum(effects, d: int, n: int) -> float:
    return float(sum(n * (np.trace(a @ a).real / d - (np.trace(a).real / d) ** 2)
                     for a in effects))


def check_dense_report(row: dict, where: str, *, lhs_var: float, i_bound: float,
                       v_bound: float, stretchable: bool,
                       maximally_mixed: bool = False) -> list[str]:
    """One dense `evaluate()` report: reference variance sum, bounds, verdict
    flags, 0 <= skew <= variance, and soundness for k-stretchable states."""
    errors = check_verdict(row, where)
    if not close(row["lhs_var"], lhs_var):
        errors.append(f"{where}: lhs_var {row['lhs_var']}, reference {lhs_var}")
    if not (close(row["i_bound"], i_bound) and close(row["v_bound"], v_bound)):
        errors.append(f"{where}: bounds {row['i_bound']}, {row['v_bound']} "
                      f"!= bound_i {i_bound}, bound_v {v_bound}")
    skew = row["lhs_skew"]
    if skew is not None:
        if maximally_mixed and abs(skew) > 1e-12:
            errors.append(f"{where}: maximally mixed state has lhs_skew {skew}")
        if not -1e-12 <= skew <= row["lhs_var"] + VERDICT_MARGIN:
            errors.append(f"{where}: lhs_skew {skew} outside [0, lhs_var={row['lhs_var']}]")
    if stretchable and (row["violated_skew"] or row["violated_var"]):
        errors.append(f"{where}: UNSOUND, a k-stretchable state is reported "
                      f"k-nonstretchable")
    return errors


def check_same_report(dense: dict, isotropic: dict, where: str) -> list[str]:
    errors = []
    for key in ("lhs_skew", "lhs_var", "i_bound", "v_bound"):
        a, b = dense[key], isotropic[key]
        if (a is None) != (b is None) or (a is not None and not close(a, b)):
            errors.append(f"{where}: dense {key} {a}, isotropic {b}")
    for key in ("violated_skew", "violated_var"):
        if dense[key] != isotropic[key]:
            errors.append(f"{where}: dense {key} {dense[key]}, isotropic {isotropic[key]}")
    return errors


# --- povm-catalog ---------------------------------------------------------

def check_measurement(d: int, s: int, t: int, chi: float, effects) -> list[str]:
    """Completeness, traces, purity, both cross inner products and positivity
    of an (s,t)-POVM, from its effect matrices alone."""
    where = f"d={d} ({s},{t})"
    mats = [[np.asarray(a, dtype=complex) for a in row] for row in effects]
    if len(mats) != s or any(len(row) != t for row in mats):
        return [f"{where}: effect array is not {s} x {t}"]
    errors = []
    flat = np.array([a.ravel() for row in mats for a in row])
    # Tr(A_i A_j) = sum(A_i * conj(A_j)) for Hermitian A_j
    gram = (flat @ flat.conj().T).real
    group = np.repeat(np.arange(s), t)
    same = group[:, None] == group[None, :]
    off = ~np.eye(s * t, dtype=bool)
    within = (d - t * chi) / (t * (t - 1))
    checks = {
        "hermiticity": max(float(np.max(np.abs(a - a.conj().T))) for row in mats for a in row),
        "completeness": max(float(np.max(np.abs(sum(row) - np.eye(d)))) for row in mats),
        "trace": float(np.max(np.abs(np.trace(flat.reshape(-1, d, d), axis1=1, axis2=2).real
                                     - d / t))),
        "purity": float(np.max(np.abs(np.diag(gram) - chi))),
        "cross_outcome": float(np.max(np.abs(gram[same & off] - within), initial=0.0)),
        "cross_measurement": float(np.max(np.abs(gram[~same] - d / t ** 2), initial=0.0)),
    }
    for name, residual in checks.items():
        if residual > IDENTITY_TOL:
            errors.append(f"{where}: {name} residual {residual:.3e}")
    min_eig = min(float(np.linalg.eigvalsh(a)[0]) for row in mats for a in row)
    if min_eig < -IDENTITY_TOL:
        errors.append(f"{where}: effect not PSD (min eigenvalue {min_eig:.3e})")
    if not d / t ** 2 < chi <= min(d * d / t ** 2, d / t) + IDENTITY_TOL:
        errors.append(f"{where}: chi={chi} outside (d/t^2, min(d^2/t^2, d/t)]")
    return errors


def parse_povm_stdout(text: str) -> dict:
    """Header values, r range and certification verdicts of `kstretch povm`."""
    out = {"certification": {}}
    section = None
    for ln in text.splitlines():
        if ln.startswith("(s,t)-POVM"):
            fields = dict(item.split("=") for item in ln.split()[1:])
            out.update({key: float(fields[key]) for key in ("r", "chi")})
        elif ln.startswith("r range:"):
            lo, hi = ln.split("[", 1)[1].rstrip("]").split(",")
            out["r_range"] = (float(lo), float(hi))
        elif ln == "certification:":
            section = "certification"
        elif section and ln.startswith("  "):
            name, _value, verdict = ln.split()
            out["certification"][name] = verdict
        else:
            section = None
    return out


def check_povm_output(parsed: dict, d: int, s: int, t: int, r: float, chi: float) -> list[str]:
    """CLI output against the reloaded measurement: every certification line
    passes, r and chi agree, r is the chi-maximising end of the printed range."""
    where = f"d={d} ({s},{t})"
    if "r_range" not in parsed or "r" not in parsed:
        return [f"{where}: povm output lacks the header or the r range"]
    errors = []
    failing = [name for name, verdict in parsed["certification"].items() if verdict != "pass"]
    if len(parsed["certification"]) < 8 or failing:
        errors.append(f"{where}: certification lines {parsed['certification']}")
    r_neg, r_pos = parsed["r_range"]
    if not (close(parsed["r"], r, rel=1e-11) and close(parsed["chi"], chi, rel=1e-11)):
        errors.append(f"{where}: printed r/chi {parsed['r']}/{parsed['chi']}, file {r}/{chi}")
    if not (r_neg < 0 < r_pos and close(r, max(-r_neg, r_pos), rel=1e-11)):
        errors.append(f"{where}: r={r} is not the larger end of [{r_neg}, {r_pos}]")
    if (d, s, t) == (3, 1, 9) and not (abs(-r_neg - 0.0121) <= 5e-4
                                       and abs(r_pos - 0.0129) <= 5e-4):
        errors.append(f"{where}: r range [{r_neg}, {r_pos}], expected about "
                      "[-0.0121, 0.0129]")
    return errors
