"""Finite discrete delay distributions and the algebra used on them.

All delays are in milliseconds. A distribution is a finite list of
(value, probability) points with strictly increasing values and
probabilities that sum to one. Sums of independent delays are exact
convolutions and maxima of independent delays are combined through CDF
products, so the stage distributions the simulator draws from, and
`service_distribution`, carry no sampling error. The analytical bounds
read only support extremes (`StageProfile.extremes`).
"""

from dataclasses import dataclass
from functools import cached_property
import csv
import math

import numpy as np

# Values closer than this (ms) are treated as the same support point.
VALUE_MERGE_TOL = 1e-9
# Probability mass drift below this is left alone, above it we renormalize.
RENORM_TOL = 1e-12
# Drift beyond this indicates a caller bug, not float noise.
REJECT_TOL = 1e-6


def _merge_points(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort points by value and merge values closer than VALUE_MERGE_TOL."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    if len(values) > 1:
        # Boundaries where a new group starts; reduceat sums each group.
        new_group = np.empty(len(values), dtype=bool)
        new_group[0] = True
        np.greater(np.diff(values), VALUE_MERGE_TOL, out=new_group[1:])
        starts = np.flatnonzero(new_group)
        values = values[starts]
        probs = np.add.reduceat(probs, starts)
    return values, probs


@dataclass(frozen=True)
class DelayDist:
    """Finite discrete distribution over non-negative delays (ms)."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if values.ndim != 1 or probs.ndim != 1 or len(values) != len(probs):
            raise ValueError("values and probs must be 1-d arrays of equal length")
        if len(values) == 0:
            raise ValueError("distribution needs at least one support point")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(probs)):
            raise ValueError("distribution contains non-finite entries")
        if np.any(values < 0):
            raise ValueError("delay values must be >= 0 ms")
        values, probs = _merge_points(values, probs)
        if np.any(probs <= 0):
            raise ValueError("probabilities must be positive")
        total = probs.sum()
        drift = abs(total - 1.0)
        if drift > REJECT_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        if drift > RENORM_TOL:
            probs = probs / total
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_points(cls, points) -> "DelayDist":
        """Build from an iterable of (value_ms, probability) pairs."""
        pts = list(points)
        if not pts:
            raise ValueError("empty point list")
        values = np.array([p[0] for p in pts], dtype=np.float64)
        probs = np.array([p[1] for p in pts], dtype=np.float64)
        return cls(values, probs)

    @classmethod
    def constant(cls, value_ms: float) -> "DelayDist":
        return cls(np.array([float(value_ms)]), np.array([1.0]))

    @classmethod
    def from_samples(cls, samples, bin_width_ms: float = 1.0) -> "DelayDist":
        """Bin raw delay samples into an empirical distribution.

        Each sample lands in the bin [k*w, (k+1)*w) and is represented by
        the bin's left edge, so the result slightly underestimates the mean
        by at most one bin width.
        """
        arr = np.asarray(list(samples), dtype=np.float64)
        if arr.size == 0:
            raise ValueError("no samples given")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite values")
        if np.any(arr < 0):
            raise ValueError("samples must be >= 0 ms")
        if not (bin_width_ms > 0):
            raise ValueError("bin width must be positive")
        binned = np.floor(arr / bin_width_ms) * bin_width_ms
        values, counts = np.unique(binned, return_counts=True)
        return cls(values, counts / arr.size)

    # -- basic queries --------------------------------------------------

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.cumsum(self.probs)

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def cdf(self, x) -> np.ndarray:
        """P(X <= x), evaluated pointwise for scalar or array x."""
        idx = np.searchsorted(self.values, np.asarray(x, dtype=np.float64) + VALUE_MERGE_TOL, side="right")
        cum = np.concatenate(([0.0], self._cum))
        return cum[idx]

    def quantile(self, q: float) -> float:
        """Smallest support value whose CDF reaches q (left-continuous inverse)."""
        if not (0.0 < q <= 1.0):
            raise ValueError("quantile level must be in (0, 1]")
        idx = int(np.searchsorted(self._cum, q - 1e-12, side="left"))
        idx = min(idx, len(self.values) - 1)
        return float(self.values[idx])

    # -- algebra ---------------------------------------------------------

    def convolve(self, other: "DelayDist") -> "DelayDist":
        """Distribution of the sum of two independent delays. Adding the
        one-point zero delay returns `self` itself."""
        if len(other) == 1 and other.values[0] == 0:
            return self
        values = np.add.outer(self.values, other.values).ravel()
        probs = np.multiply.outer(self.probs, other.probs).ravel()
        return DelayDist(values, probs)   # __post_init__ sorts and merges

    def shift(self, offset_ms: float) -> "DelayDist":
        """Add a constant offset; the result must stay non-negative."""
        if self.values[0] + offset_ms < 0:
            raise ValueError("shift would produce negative delays")
        return DelayDist(self.values + offset_ms, self.probs.copy())

    # -- sampling ---------------------------------------------------------

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The guide table of inverse-CDF sampling (Chen & Asau, AIIE Trans.
        6(2), 1974; Devroye, Non-Uniform Random Variate Generation, 1986,
        III.2.4): the cut points `_cum[:-1]` with a +inf sentinel, a
        power-of-two size G >= 2K for K support points, and guide[b], the
        count of cut points <= b/G."""
        cut = np.append(self._cum[:-1], np.inf)
        size = 1 << (2 * len(cut) - 1).bit_length()
        return cut, cut.searchsorted(np.arange(size) / size, "right"), size

    def _index(self, u: np.ndarray) -> np.ndarray:
        """The support index of each uniform u in [0, 1), exactly that of the
        binary search min(searchsorted(_cum, u, "right"), K - 1), through the
        guide table in about constant time per value.

        That index is the count of cut points <= u: cumulative sums never
        decrease, so _cum[K - 2] <= u whenever _cum[K - 1] <= u, and leaving
        out the last cumulative probability, which can round below 1, caps
        the count at K - 1 as the clip does. u·G and b/G are exact for a
        power-of-two G, so u lies in bucket b = floor(u·G) with b/G <= u, and
        guide[b] never passes the index. One forward step, idx += cut[idx] <=
        u, reaches it unless the bucket holds several cut points at or below
        u; the few values still behind their cut point take the binary
        search. The +inf sentinel is never <= u, so every index stays below
        K."""
        cut, guide, size = self._guide
        idx = guide[(u * size).astype(np.intp)]
        idx += cut[idx] <= u
        behind = cut[idx] <= u
        if behind.any():
            idx[behind] = cut.searchsorted(u[behind], "right")
        return idx

    def sample_index(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The support indices of n draws, one uniform each. A caller that
        wants the values in other units indexes its own converted copy of
        `values`, as the simulator does with int64 ns: each draw then reads
        the value converting the drawn one would give."""
        return self._index(rng.random(n))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.values[self.sample_index(rng, n)]

    def __len__(self) -> int:
        return len(self.values)

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probs.tolist()))


ZERO_DELAY = DelayDist(np.array([0.0]), np.array([1.0]))


def convolve_all(dists) -> DelayDist:
    out = None
    for d in dists:
        out = d if out is None else out.convolve(d)
    if out is None:
        raise ValueError("no distributions given")
    return out


def max_combine(dists) -> DelayDist:
    """Distribution of the maximum of independent delays.

    For independent X_i, P(max <= v) is the product of the individual
    CDFs, evaluated over the union of the supports; this is exact.
    """
    dists = list(dists)
    if not dists:
        raise ValueError("no distributions given")
    if len(dists) == 1:
        return dists[0]
    support, _ = _merge_points(
        np.concatenate([d.values for d in dists]),
        np.concatenate([d.probs for d in dists]),
    )
    cdf = np.ones(len(support))
    for d in dists:
        cdf *= d.cdf(support)
    pmf = np.diff(np.concatenate(([0.0], cdf)))
    keep = pmf > 0
    return DelayDist(support[keep], pmf[keep])


@dataclass(frozen=True)
class DistSummary:
    """min/max/mean and the two quantiles reported everywhere."""

    min: float
    max: float
    mean: float
    p50: float
    p99: float


def summarize(d: DelayDist) -> DistSummary:
    return DistSummary(
        min=d.min,
        max=d.max,
        mean=d.mean(),
        p50=d.quantile(0.5),
        p99=d.quantile(0.99),
    )


def load_samples_csv(path) -> np.ndarray:
    """Read one delay sample (ms) per line; returns a float array.

    Raises ValueError naming the offending line for anything non-numeric,
    and naming the file when it is not UTF-8 text or not CSV.
    """
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    for lineno, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 1:
            raise ValueError(f"{path}:{lineno}: expected one value per line, got {len(row)}")
        text = row[0].strip()
        try:
            val = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not math.isfinite(val) or val < 0:
            raise ValueError(f"{path}:{lineno}: delay sample must be finite and >= 0, got {text}")
        out.append(val)
    if not out:
        raise ValueError(f"{path}: no samples found")
    return np.asarray(out, dtype=np.float64)
