"""Grid-cell partitioning of feature space and per-sample weighting.

Feature space (or a selected subset of its dimensions) is cut into
equal-width cells, ``lam`` divisions per dimension. Each non-empty cell
carries variation statistics; a cell's feature variation relative to the
grid average gives the uniqueness ``mu`` shared by its samples, and each
sample's target deviation inside its cell gives its abnormality ``gamma``.
The training weight of a sample is ``mu / (1 + gamma)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, column_range, write_columns

NORM_KINDS = ("l1", "l2")  # gamma: L1 or squared-L2 target deviation
_KEY_MAX = np.iinfo(np.int64).max
_OVERFLOW = "cell statistics overflowed float64: normalize the features and targets first"
# the square of a deviation below this is subnormal or 0, and loses bits
_TINY_RANGE = float(np.sqrt(np.finfo(np.float64).tiny))  # 2.0 ** -511


@dataclass
class CellGrid:
    """Per-cell statistics as arrays, one row per non-empty cell in sorted
    key order, plus the fitting ``dataset`` (held, not copied: editing it in
    place invalidates the grid) and the cell row of each of its samples."""

    keys: np.ndarray  # (k, d) bin index per selected dimension
    count: np.ndarray  # (k,)
    sigma_x: np.ndarray  # (k,)
    y_mean: np.ndarray  # (k, v)
    sigma_y: np.ndarray  # (k,)
    mu: np.ndarray  # (k,)
    cell_of: np.ndarray  # (n,) row of each fitting sample
    sigma_x_bar: float
    dataset: Dataset  # the fitting rows

    @property
    def n_cells(self) -> int:
        return len(self.count)


def _check_scale(span, what: str, columns) -> None:
    """Reject a column whose range, from ``span`` (per-column min, max), is
    non-zero but so small that squared deviations fall below float64's
    normal range: the grid's statistics would silently lose precision, down
    to uniform weights. ``columns`` names the columns in the message."""
    lo, hi = span
    width = hi - lo
    tiny = (width > 0) & (width < _TINY_RANGE)
    if tiny.any():
        j = int(tiny.argmax())
        raise ValueError(f"{what} column {columns[j]} has range {float(width[j])!r}, below "
                         f"{_TINY_RANGE!r}, where cell statistics lose precision: "
                         f"normalize the features and targets first")


def _bin_indices(sub: np.ndarray, lam: int, span) -> np.ndarray:
    """Equal-width half-open bins over each column's range, from ``span``
    (per-column min, max); the maximum folds into the last bin, and a
    zero-range column is all bin 0."""
    lo, hi = span
    width = hi - lo
    if not np.isfinite(width).all():
        raise ValueError(_OVERFLOW)
    # sub - lo >= 0, so truncation is floor; the clamp runs in place, which
    # saves an (n, d) temporary
    idx = ((sub - lo) / np.where(width > 0, width, 1.0) * lam).astype(np.int64)
    return np.minimum(idx, lam - 1, out=idx)


def _cell_moments(values: np.ndarray, cell_of: np.ndarray, count: np.ndarray):
    """Per-cell mean (k, c) of ``values`` (n, c) and the root mean squared
    distance of the cell's rows from it, taken in two passes, one column at
    a time."""
    k = len(count)
    means, sq_dist = [], np.zeros(len(cell_of))
    for col in values.T:
        mean = np.bincount(cell_of, col, k) / count
        dev = mean[cell_of]
        dev -= col  # the sign is squared away
        dev *= dev
        sq_dist += dev
        means.append(mean)
    return np.stack(means, axis=1), np.sqrt(np.bincount(cell_of, sq_dist, k) / count)


def _assign_cells(idx: np.ndarray, lam: int) -> np.ndarray:
    """Cell row of each sample, for bin indices ``idx`` (n, d) in [0, lam),
    with the cells in lexicographic order of their bin indices.

    Each sample's bins become one mixed-radix int64 key, built column by
    column. Before a multiply could overflow, the key is replaced by its rank
    among the distinct keys, which lies in [0, n) and keeps the order; so
    ``lam ** d`` may exceed int64 as long as ``lam * n`` does not. The final
    keys lie in [0, bound); when ``bound <= n`` they are ranked through a
    dense presence table of ``bound`` entries, in O(n + bound) and without a
    sort, and only a wider key range is ranked by ``np.unique``.
    """
    key, bound = idx[:, 0], lam  # every key lies in [0, bound)
    for col in idx.T[1:]:
        if bound > _KEY_MAX // lam:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key = key * lam + col
        bound *= lam
    if bound > len(idx):
        return np.unique(key, return_inverse=True)[1]
    present = np.zeros(bound, dtype=np.intp)
    present[key] = 1
    return (np.cumsum(present) - 1)[key]


def _constant_cells(values: np.ndarray, cell_of: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Mask of the cells whose rows of ``values`` are all equal; ``member``
    holds one row of each cell."""
    differs = (values != values[member].take(cell_of, axis=0)).any(axis=1)
    return np.bincount(cell_of, differs, len(member)) == 0


def fit_grid(
    dataset: Dataset,
    lam: int,
    feature_subset: list[int] | None = None,
    mu_floor: float = 0.0,
) -> CellGrid:
    """Partition the fitting data into cells and compute all cell statistics.

    Each sample's bin indices over the selected feature dimensions fold into
    one int64 cell key, and ranking the keys gives every sample its cell
    row, in lexicographic order of the cells' bin indices: through a dense
    table when the keys' range is at most n, else by one 1-D ``np.unique``
    (see ``_assign_cells``). Per-cell means and standard deviations over the
    selected dimensions and over the targets are then accumulated by cell
    row, one column at a time. The grid holds ``dataset`` itself, uncopied.
    """
    if dataset.n == 0:
        raise ValueError("cannot fit a grid on an empty dataset")
    if lam < 1:
        raise ValueError("lam must be a positive integer")
    if lam > _KEY_MAX // dataset.n:
        raise ValueError(f"lam={lam} is too large for {dataset.n} samples: "
                         f"lam * n must stay below 2**63")
    if not (np.isfinite(mu_floor) and mu_floor >= 0):
        raise ValueError(f"mu_floor must be finite and >= 0, got {mu_floor}")
    if feature_subset is None:
        feature_subset = list(range(dataset.feature_dim))
    if len(feature_subset) == 0:
        raise ValueError("feature_subset must name at least one feature")
    if len(set(feature_subset)) != len(feature_subset):
        raise ValueError("feature_subset indices must be distinct")
    for j in feature_subset:
        if j < 0 or j >= dataset.feature_dim:
            raise ValueError(f"feature_subset index {j} out of range for "
                             f"{dataset.feature_dim} features")

    # Dataset guarantees finite values, so every sample lands in a bin, but
    # raw values far from 1 can overflow a range or a squared deviation, or
    # square into subnormals; such a grid is rejected rather than warned about
    sub = dataset.features[:, feature_subset]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        span = column_range(sub)
        _check_scale(span, "feature", feature_subset)
        _check_scale(column_range(dataset.targets), "target", range(dataset.target_dim))
        idx = _bin_indices(sub, lam, span)
        cell_of = _assign_cells(idx, lam)
        count = np.bincount(cell_of)
        member = np.empty(len(count), dtype=np.intp)
        member[cell_of] = np.arange(dataset.n)  # any one row of each cell
        _, sigma_x = _cell_moments(sub, cell_of, count)
        y_mean, sigma_y = _cell_moments(dataset.targets, cell_of, count)
        # equal targets must give sigma_y 0, and so gamma 0, exactly; their
        # rounded mean need not equal them (three 0.1 sum to 0.30000000000000004)
        sigma_y[_constant_cells(dataset.targets, cell_of, member)] = 0.0

        sigma_x_bar = float(sigma_x.mean())
        if sigma_x_bar > 0:
            mu = sigma_x**2 / sigma_x_bar**2
        else:
            mu = np.ones(len(count))  # no variation anywhere: degrade to uniform weighting
    if not all(np.isfinite(a).all() for a in (sigma_x, y_mean, sigma_y, mu)):
        raise ValueError(_OVERFLOW)

    return CellGrid(
        keys=idx[member],
        count=count,
        sigma_x=sigma_x,
        y_mean=y_mean,
        sigma_y=sigma_y,
        mu=np.maximum(mu, mu_floor),
        cell_of=cell_of,
        sigma_x_bar=sigma_x_bar,
        dataset=dataset,
    )


@dataclass(frozen=True)
class WeightTable:
    """Per-sample (mu, gamma, weight), fixed before training starts and
    independent of any model parameters."""

    mu: np.ndarray
    gamma: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)

    def export(self, path) -> None:
        write_columns(path, ["index", "mu", "gamma", "weight"],
                      [np.arange(len(self)), self.mu, self.gamma, self.weight], "\n")


def compute_weights(grid: CellGrid, dataset: Dataset, norm_kind: str = "l2") -> WeightTable:
    """Derive the per-sample weight table from a grid fitted on this very
    ``dataset`` object; any other, an equal copy included, is rejected.

    gamma is the L1 or squared-L2 deviation of a sample's target from its
    cell mean, normalized by the cell's target deviation; cells with zero
    target deviation assign gamma = 0 to all their samples.
    """
    norm_kind = norm_kind.lower()
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    if dataset is not grid.dataset:
        raise ValueError("dataset does not match the one the grid was fitted on")

    mu = grid.mu[grid.cell_of]
    sigma_y = grid.sigma_y[grid.cell_of]
    dev = grid.dataset.targets - grid.y_mean[grid.cell_of]
    if norm_kind == "l1":
        dist, scale = np.sum(np.abs(dev), axis=1), sigma_y
    else:
        dist, scale = np.sum(dev**2, axis=1), sigma_y**2
    gamma = np.divide(dist, scale, out=np.zeros(dataset.n), where=sigma_y > 0)

    weight = mu / (1.0 + gamma)
    for arr in (mu, gamma, weight):
        arr.setflags(write=False)
    return WeightTable(mu, gamma, weight)


def localized_deviation(grid: CellGrid) -> float:
    """Sum of per-cell feature standard deviations over non-empty cells."""
    return float(grid.sigma_x.sum())


@dataclass(frozen=True)
class SweepEntry:
    lam: int
    ld: float
    n_cells: int


def select_lambda(
    dataset: Dataset,
    candidates: list[int],
    feature_subset: list[int] | None = None,
) -> tuple[int, list[SweepEntry]]:
    """Fit a grid per candidate division count and pick the one that
    maximizes localized deviation; ties go to the smaller candidate."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    report = []
    for lam in candidates:
        grid = fit_grid(dataset, lam, feature_subset)
        report.append(SweepEntry(lam, localized_deviation(grid), grid.n_cells))
    best = max(report, key=lambda e: (e.ld, -e.lam))
    return best.lam, report
