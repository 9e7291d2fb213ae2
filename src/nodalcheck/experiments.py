"""Monte Carlo experiment harness and result persistence.

Each experiment produces a Summary: a list of result rows with a fixed
column set, plus metadata (library version, pattern checksums, depth,
zero tolerance) that is stamped into every output file.  All randomness
derives from a master seed through per-trial substreams, so identical
configs give byte-identical outputs regardless of execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .admissibility import (CERTIFIED, DEGENERATE, _fine_pass,
                            count_surviving, default_patterns, validate_1d,
                            validate_2d)
from .bounds import bound_1d_periodic, bound_2d_periodic
from .cubical import sign_grid
from .fields import (_check_zero_tol, _sign_changes, derive_seed,
                     draw_realization, evaluate_grid_1d, jet_1d,
                     spectral_moments, trig_coeffs)
from .homology import (betti_pair, default_reference_M, homology_match,
                       reference_betti)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "TrialRecord",
    "Summary",
    "wilson_interval",
    "default_zero_tol",
    "zero_stats",
    "homology_experiment",
    "write_results",
    "read_results",
]

CSV_COLUMNS = [
    "experiment", "dim", "N", "M", "trials", "seed",
    "rate_match", "ci_lo", "ci_hi",
    "rate_certified", "cert_lo", "cert_hi",
    "bound", "degenerate", "unresolved",
]

DEFAULT_DEPTH = 6
# Newton steps per zero bracket; a bracket whose last iterate fails the
# sign-change check is bisected instead (3-4 in 10^4 random-field
# brackets at N = 2..200 with 4 steps, 1 in 10^4 with 5)
_NEWTON_STEPS = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description (mirrors the CLI config JSON)."""

    kind: str  # ZeroStats | Homology1D | Homology2D
    N: int = 0
    M_list: tuple = ()
    trials: int = 1
    D: int = DEFAULT_DEPTH
    seed: int = 0
    zero_tol: float | None = None
    out: str | None = None

    def __post_init__(self):
        kinds = ("ZeroStats", "Homology1D", "Homology2D")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}")
        for name in ("N", "trials", "D", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if not (isinstance(self.M_list, (list, tuple))
                and all(_is_int(M) for M in self.M_list)):
            raise ValueError("M_list must be a list of integers")
        if not (self.zero_tol is None
                or isinstance(self.zero_tol, numbers.Real)
                and not isinstance(self.zero_tol, bool)):
            raise ValueError("zero_tol must be a number or null")
        if self.zero_tol is not None:
            _check_zero_tol(self.zero_tol)
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError("out must be a path or null")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.D < 0:
            raise ValueError("D must be nonnegative")
        if self.kind == "ZeroStats":
            for name, unused in (("M_list", self.M_list),
                                 ("zero_tol", self.zero_tol is not None),
                                 ("D", self.D != DEFAULT_DEPTH)):
                if unused:
                    raise ValueError(f"{name} does not apply to ZeroStats")
        elif not self.M_list:
            raise ValueError(f"{self.kind} needs a nonempty M_list")
        floor = 3 if self.kind == "Homology2D" else 1
        if any(M < floor for M in self.M_list):
            raise ValueError(f"every M must be at least {floor}")

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        d = json.loads(text)
        if not isinstance(d, dict) or "kind" not in d:
            raise ValueError("config must be a JSON object naming its kind")
        unknown = sorted(set(d) - set(ExperimentConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if isinstance(d.get("M_list"), list):
            d["M_list"] = tuple(d["M_list"])
        return ExperimentConfig(**d)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial outcomes, one flag set per grid resolution."""

    index: int
    seed: int
    per_M: dict  # M -> {certified, degenerate, match, unresolved}

    def __post_init__(self):
        for M, flags in self.per_M.items():
            if flags.get("certified") and flags.get("degenerate"):
                raise ValueError("a certified trial cannot be degenerate")


@dataclass(frozen=True)
class Summary:
    """Aggregated experiment results plus provenance metadata."""

    kind: str
    rows: tuple  # dicts keyed by CSV_COLUMNS
    meta: dict
    extra: dict = field(default_factory=dict)


def wilson_interval(successes: int, n: int, z: float = 1.959964) -> tuple:
    """Wilson 95% score interval; behaves sanely for rates near 0 or 1."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def default_zero_tol(coeffs) -> float:
    """1e-12 times the field's standard deviation sqrt(A0)."""
    m = spectral_moments(coeffs)
    A0 = m[0] if coeffs.a.ndim == 1 else m[0, 0]
    return 1e-12 * math.sqrt(A0)


def _metadata(D: int, zero_tol: float) -> dict:
    coll = default_patterns()
    return {
        "version": __version__,
        "checksum_B": count_surviving(coll.B),
        "checksum_I4": count_surviving(coll.I4),
        "checksum_I": count_surviving(coll.I),
        "D": D, "zero_tol": zero_tol,
    }


def _find_zeros(r, N: int) -> np.ndarray:
    """Zeros of a 1D realization on [0, L]: sign-change brackets + Newton steps.

    The brackets are the sign changes (by ``signbit``) on a grid of 50 N
    steps, evaluated by one inverse FFT
    (:func:`~nodalcheck.fields.evaluate_grid_1d`).  In each bracket
    [lo, hi], ``_NEWTON_STEPS`` Newton steps start at the regula-falsi
    point of the two grid values, x <- x - u/u' kept in [lo, hi]; u and
    u' come from one :func:`~nodalcheck.fields.jet_1d` call per step, for
    all brackets at once.  Nothing in the steps is trusted: the result x
    stands only if the computed u changes sign on [x - 5e-13, x + 5e-13]
    clipped to the bracket, and a bracket that fails this check is
    bisected down to 1e-12 and gives its midpoint.  Either way each zero
    lies within 5e-13 of a computed sign change of u in its bracket.
    """
    L = r.coeffs.L
    n_grid = 50 * N
    xs = np.arange(n_grid + 1) * (L / n_grid)
    v = evaluate_grid_1d(r, n_grid)
    idx = _sign_changes(v)
    if idx.size == 0:
        return np.empty(0)
    lo, hi = xs[idx], xs[idx + 1]
    flo, fhi = v[idx], v[idx + 1]
    neg_lo = np.signbit(flo)  # the signbit of u at lo; hi has the other
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo - flo * (hi - lo) / (fhi - flo)
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
        for _ in range(_NEWTON_STEPS):
            u, du = jet_1d(r, x)
            # fmax/fmin, unlike clip, also send a NaN step (0/0) to an
            # end, so every iterate the check sees is finite
            x = np.fmin(np.fmax(x - u / du, lo), hi)
    a = np.maximum(x - 5e-13, lo)
    b = np.minimum(x + 5e-13, hi)
    fab = jet_1d(r, np.concatenate((a, b)))[0]
    sa = np.where(a == lo, neg_lo, np.signbit(fab[:idx.size]))
    sb = np.where(b == hi, ~neg_lo, np.signbit(fab[idx.size:]))
    redo = sa == sb
    if redo.any():
        x[redo] = _bisect(r, lo[redo], hi[redo], neg_lo[redo])
    return x


def _bisect(r, lo, hi, neg_lo) -> np.ndarray:
    """Midpoints of the brackets [lo, hi] bisected to at most 1e-12."""
    width = float((hi - lo).max())
    for _ in range(max(0, math.ceil(math.log2(width / 1e-12)))):
        mid = 0.5 * (lo + hi)
        right = np.signbit(jet_1d(r, mid)[0]) == neg_lo
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def zero_stats(N: int, trials: int, seed: int) -> Summary:
    """Zero count and minimal zero gap statistics for degree-N 1D polynomials."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    coeffs = trig_coeffs(1, N)
    L = coeffs.L
    counts = np.zeros(trials)
    min_gaps = np.full(trials, np.inf)
    for t in range(trials):
        r = draw_realization(coeffs, derive_seed(seed, t))
        zeros = _find_zeros(r, N)
        counts[t] = zeros.size
        if zeros.size >= 2:
            gaps = np.diff(zeros)
            wrap = L - (zeros[-1] - zeros[0])
            min_gaps[t] = min(float(gaps.min()), float(wrap))
    finite = min_gaps[np.isfinite(min_gaps)]
    q05 = float(np.quantile(finite, 0.05)) if finite.size else 0.0
    # least M whose grid spacing L/M resolves the 5th-percentile gap
    M95 = int(math.floor(L / q05)) + 1 if q05 > 0 else 0
    extra = {
        "N": N,
        "mean_zero_count": float(counts.mean()),
        "all_counts_even": bool(np.all(counts % 2 == 0)),
        "mean_min_gap": float(finite.mean()) if finite.size else None,
        "gap_q05": q05,
        "M95": M95,
    }
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(experiment="zero_stats", dim=1, N=N, M=M95,
               trials=trials, seed=seed)
    return Summary(kind="ZeroStats", rows=(row,),
                   meta=_metadata(0, 0.0), extra=extra)


def homology_experiment(dim: int, N: int, M_list, trials: int,
                        D: int = DEFAULT_DEPTH, seed: int = 0,
                        zero_tol: float | None = None) -> Summary:
    """Homology-match and certification rates vs the closed-form bound.

    Per trial: one reference Betti pair from the fine-grid oracle, then
    per M the cubical Betti pair, the match flag, and the validation
    verdict.  In 2D one fine pass at the largest M, built first, is
    handed to every call: each M whose validation lattice it nests reads
    it (see ``validate_2d``), and so do the sign grids of the reference
    and of every M that lie on its coarse grid (see ``sign_grid``), so a
    trial without zero flags classifies the field once.  Degenerate and
    oracle-unresolved trials are tallied but excluded from the rates.
    Certified-but-mismatched resolved trials are soundness exceptions and
    reported with their seeds.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    M_list = sorted(set(int(M) for M in M_list))
    if not M_list:
        raise ValueError("M_list must not be empty")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    coeffs = trig_coeffs(dim, N)
    if zero_tol is None:
        zero_tol = default_zero_tol(coeffs)
    m = spectral_moments(coeffs)
    bound_fn = bound_1d_periodic if dim == 1 else bound_2d_periodic
    M_ref = default_reference_M(max(M_list), N)

    records = []
    for t in range(trials):
        trial_seed = derive_seed(seed, t)
        r = draw_realization(coeffs, trial_seed)
        # in 2D, every grid that nests in the finest M's pass reads it
        fine = _fine_pass(r, M_list[-1], D, zero_tol) if dim == 2 else None
        ref = reference_betti(r, M_ref, zero_tol, fine=fine)
        per_M = {}
        for M in M_list:
            grid = sign_grid(r, M, zero_tol, fine=fine)
            outcome = (validate_1d(r, M, D, zero_tol) if dim == 1
                       else validate_2d(r, M, D, zero_tol, fine=fine))
            unresolved = ref is None
            per_M[M] = {
                "certified": outcome.status == CERTIFIED,
                "degenerate": (grid.zero_count > 0
                               or outcome.status == DEGENERATE),
                "match": (not unresolved
                          and homology_match(betti_pair(grid), ref)),
                "unresolved": unresolved,
            }
        records.append(TrialRecord(index=t, seed=int(trial_seed),
                                   per_M=per_M))

    def resolved(flags):
        return not (flags["degenerate"] or flags["unresolved"])

    rows = []
    for M in M_list:
        flags = [rec.per_M[M] for rec in records]
        counted = [f for f in flags if resolved(f)]
        n = len(counted)
        matches = sum(f["match"] for f in counted)
        certified = sum(f["certified"] for f in counted)
        ci_lo, ci_hi = wilson_interval(matches, n)
        cert_lo, cert_hi = wilson_interval(certified, n)
        rows.append({
            "experiment": f"homology_{dim}d", "dim": dim, "N": N, "M": M,
            "trials": trials, "seed": seed,
            "rate_match": matches / n if n else 0.0,
            "ci_lo": ci_lo, "ci_hi": ci_hi,
            "rate_certified": certified / n if n else 0.0,
            "cert_lo": cert_lo, "cert_hi": cert_hi,
            "bound": bound_fn(m, M).bound,
            "degenerate": sum(f["degenerate"] for f in flags),
            "unresolved": sum(f["unresolved"] for f in flags),
        })
    exceptions = [{"trial": rec.index, "seed": rec.seed, "M": M}
                  for rec in records for M, f in rec.per_M.items()
                  if resolved(f) and f["certified"] and not f["match"]]
    return Summary(kind=f"Homology{dim}D", rows=tuple(rows),
                   meta=_metadata(D, zero_tol),
                   extra={"soundness_exceptions": exceptions,
                          "M_ref": M_ref, "records": records})


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_results(summary: Summary, path: str, format: str = "csv") -> None:
    """Persist a Summary; CSV carries a '#'-prefixed metadata header."""
    if format == "csv":
        buf = io.StringIO()
        for k, v in summary.meta.items():
            buf.write(f"# {k}={_format_cell(v)}\n")
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in summary.rows:
            writer.writerow({k: _format_cell(row.get(k, "")) for k in CSV_COLUMNS})
        data = buf.getvalue()
    elif format == "json":
        payload = {"kind": summary.kind, "meta": summary.meta,
                   "rows": list(summary.rows),
                   "extra": {k: v for k, v in summary.extra.items()
                             if k != "records"}}
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError("format must be csv or json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


def read_results(path: str) -> Summary:
    """Parse a CSV written by write_results (inverse up to column typing)."""
    meta = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        body = []
        for line in fh:
            if line.startswith("#"):
                k, _, v = line[1:].strip().partition("=")
                try:
                    meta[k] = json.loads(v)
                except json.JSONDecodeError:
                    meta[k] = v
            else:
                body.append(line)
        for raw in csv.DictReader(body):
            row = {}
            for k, v in raw.items():
                if v == "":
                    row[k] = ""
                else:
                    try:
                        row[k] = json.loads(v)
                    except json.JSONDecodeError:
                        row[k] = v
            rows.append(row)
    kind = rows[0]["experiment"] if rows else "unknown"
    return Summary(kind=kind, rows=tuple(rows), meta=meta)
