"""Grid-cell partitioning of feature space and per-sample weighting.

Feature space (or a selected subset of its dimensions) is cut into
equal-width cells, ``lam`` divisions per dimension. Each non-empty cell
carries variation statistics; a cell's feature variation relative to the
grid average gives the uniqueness ``mu`` shared by its samples, and each
sample's target deviation inside its cell gives its abnormality ``gamma``.
The training weight of a sample is ``mu / (1 + gamma)``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, column_range, read_only, write_columns

NORM_KINDS = ("l1", "l2")  # gamma: L1 or squared-L2 target deviation
_KEY_MAX = np.iinfo(np.int64).max
_OVERFLOW = "cell statistics overflowed float64: normalize the features and targets first"
# the square of a deviation below this is subnormal or 0, and loses bits
_TINY_RANGE = float(np.sqrt(np.finfo(np.float64).tiny))  # 2.0 ** -511


@dataclass(frozen=True, eq=False)
class CellGrid:
    """Per-cell statistics as read-only arrays, one row per non-empty cell in
    sorted key order, plus the fitting ``dataset`` (held, not copied; its
    arrays are read-only too) and the cell row of each of its samples."""

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


def _unit_scaled(sub: np.ndarray, span) -> np.ndarray:
    """``(sub - lo) / width`` per column, from ``span`` (per-column min,
    max): each column's range onto [0, 1], a zero-range column all 0. The
    bins of every lam are cut from this one array."""
    lo, hi = span
    width = hi - lo
    if not np.isfinite(width).all():
        raise ValueError(_OVERFLOW)
    unit = sub - lo
    unit /= np.where(width > 0, width, 1.0)
    return unit


def _bins(unit: np.ndarray, lam: int) -> np.ndarray:
    """Equal-width half-open bins of unit-scaled columns; the maximum folds
    into the last bin."""
    # unit >= 0, so truncation to int64 is floor; the product is cast
    # straight into idx and clamped in place, with no (n, d) temporary
    idx = np.empty(unit.shape, dtype=np.int64)
    np.multiply(unit, lam, out=idx, casting="unsafe")
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


def _check_lam(lam, n: int) -> None:
    """Reject a ``lam`` that is not a positive integer (2.5 and 1.0 are not)
    or whose cell keys would overflow int64 for ``n`` (at least 1) samples."""
    if not isinstance(lam, numbers.Integral) or lam < 1:
        raise ValueError(f"lam must be a positive integer, got {lam!r}")
    if lam > _KEY_MAX // n:
        raise ValueError(f"lam={lam} is too large for {n} samples: "
                         f"lam * n must stay below 2**63")


def _scaled_features(dataset: Dataset, feature_subset: list[int] | None, lams):
    """The one checked, scaled feature pass of ``fit_grid`` and
    ``select_lambda``: the columns ``feature_subset`` selects (all of them,
    uncopied, when it is None) and their ``_unit_scaled`` copy, which
    ``_bins`` cuts at each of ``lams``. Rejects, in this order: an empty
    dataset, a subset that does not name distinct features, a bad lam
    anywhere in ``lams``, a column too narrow for the statistics
    (``_check_scale``) and an overflowing range."""
    if dataset.n == 0:
        raise ValueError("cannot fit a grid on an empty dataset")
    columns = range(dataset.feature_dim) if feature_subset is None else feature_subset
    if len(columns) == 0:
        raise ValueError("feature_subset must name at least one feature")
    if len(set(columns)) != len(columns):
        raise ValueError("feature_subset indices must be distinct")
    for j in columns:
        if j < 0 or j >= dataset.feature_dim:
            raise ValueError(f"feature_subset index {j} out of range for "
                             f"{dataset.feature_dim} features")
    for lam in lams:
        _check_lam(lam, dataset.n)
    sub = dataset.features if feature_subset is None else dataset.features[:, feature_subset]
    span = column_range(sub)
    _check_scale(span, "feature", columns)
    return sub, _unit_scaled(sub, span)


class _FeatureCells(NamedTuple):
    cell_of: np.ndarray  # (n,) cell row of each sample
    count: np.ndarray  # (k,)
    sigma_x: np.ndarray  # (k,)


def _feature_cells(sub: np.ndarray, idx: np.ndarray, lam: int) -> _FeatureCells:
    """The cells of the selected features ``sub``, binned into ``idx`` (n, d)
    in [0, lam), and each cell's feature spread."""
    cell_of = _assign_cells(idx, lam)
    count = np.bincount(cell_of)
    _, sigma_x = _cell_moments(sub, cell_of, count)
    if not np.isfinite(sigma_x).all():
        raise ValueError(_OVERFLOW)
    return _FeatureCells(cell_of, count, sigma_x)


def fit_grid(
    dataset: Dataset,
    lam: int,
    feature_subset: list[int] | None = None,
    mu_floor: float = 0.0,
) -> CellGrid:
    """Partition the fitting data into cells and compute all cell statistics.

    The selected feature columns are scaled onto [0, 1] and cut into ``lam``
    equal-width bins each. Each sample's bin indices fold into one int64
    cell key, and ranking the keys gives every sample its cell row, in
    lexicographic order of the cells' bin indices: through a dense table
    when the keys' range is at most n, else by one 1-D ``np.unique`` (see
    ``_assign_cells``). Per-cell means and standard deviations over the
    selected dimensions and over the targets are then accumulated by cell
    row, one column at a time. ``select_lambda`` shares the feature-side
    steps and skips the target statistics. The grid holds ``dataset``
    itself, uncopied. A ``mu_floor`` that is not finite and >= 0 is
    rejected first, then whatever ``_scaled_features`` rejects for
    ``[lam]``, then a target column too narrow for the statistics.
    """
    if not (np.isfinite(mu_floor) and mu_floor >= 0):
        raise ValueError(f"mu_floor must be finite and >= 0, got {mu_floor}")
    # Dataset guarantees finite values, so every sample lands in a bin, but
    # raw values far from 1 can overflow a range or a squared deviation, or
    # square into subnormals; such a grid is rejected rather than warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sub, unit = _scaled_features(dataset, feature_subset, [lam])
        _check_scale(column_range(dataset.targets), "target", range(dataset.target_dim))
        idx = _bins(unit, lam)
        del unit  # kept past binning, its (n, d) float64 would add to the fit's peak
        cell_of, count, sigma_x = _feature_cells(sub, idx, lam)
        member = np.empty(len(count), dtype=np.intp)
        member[cell_of] = np.arange(dataset.n)  # any one row of each cell
        y_mean, sigma_y = _cell_moments(dataset.targets, cell_of, count)
        # an overflowed y_mean makes sigma_y inf too; checked before equal
        # targets zero it (three 3e307 square a 5e291 gap to their mean)
        if not np.isfinite(sigma_y).all():
            raise ValueError(_OVERFLOW)
        # equal targets must give sigma_y 0, and so gamma 0, exactly; their
        # rounded mean need not equal them (three 0.1 sum to 0.30000000000000004)
        sigma_y[_constant_cells(dataset.targets, cell_of, member)] = 0.0

        sigma_x_bar = float(sigma_x.mean())
        if sigma_x_bar > 0:
            mu = sigma_x**2 / sigma_x_bar**2
        else:
            mu = np.ones(len(count))  # no variation anywhere: degrade to uniform weighting
    if not np.isfinite(mu).all():  # sigma_x_bar ** 2 underflowed to 0
        raise ValueError("the cells' feature spreads are too small to square in float64")

    return CellGrid(*read_only(idx[member], count, sigma_x, y_mean, sigma_y,
                               np.maximum(mu, mu_floor), cell_of), sigma_x_bar, dataset)


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Per-sample (mu, gamma, weight), fixed before training starts and
    independent of any model parameters. Two tables are equal only if they
    are the same object."""

    mu: np.ndarray
    gamma: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)

    def export(self, path) -> None:
        """Write the table as a CSV of index, mu, gamma and weight, one row
        per sample, each cell the ``repr()`` of its value. A sample's mu is
        its cell's, so each distinct mu is formatted once
        (``write_columns``' ``repeated``)."""
        write_columns(path, ["index", "mu", "gamma", "weight"],
                      [np.arange(len(self)), self.mu, self.gamma, self.weight], "\n",
                      repeated=(1,))


def compute_weights(grid: CellGrid, dataset: Dataset, norm_kind: str = "l2") -> WeightTable:
    """Derive the per-sample weight table from a grid fitted on this very
    ``dataset`` object; any other, an equal copy included, is rejected.

    gamma is the L1 or squared-L2 deviation of a sample's target from its
    cell mean, normalized by the cell's target deviation; cells with zero
    target deviation assign gamma = 0 to all their samples.
    """
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    if dataset is not grid.dataset:
        raise ValueError("dataset does not match the one the grid was fitted on")

    # each n-sized buffer is reused in place, so a call allocates little
    # more than the three columns it returns
    cell_of = grid.cell_of
    mu = grid.mu[cell_of]
    dev = grid.y_mean.take(cell_of, axis=0)
    np.subtract(grid.dataset.targets, dev, out=dev)
    norm, scale = (np.abs, grid.sigma_y) if norm_kind == "l1" else (np.square, grid.sigma_y**2)
    gamma = norm(dev, out=dev).sum(axis=1)
    del dev
    spread = (grid.sigma_y > 0)[cell_of]
    np.divide(gamma, scale[cell_of], out=gamma, where=spread)
    # zero target spread means gamma 0, whatever distance (inf, even) a
    # rounded cell mean leaves
    gamma[~spread] = 0.0

    weight = np.add(gamma, 1.0)
    np.divide(mu, weight, out=weight)
    return WeightTable(*read_only(mu, gamma, weight))


def localized_deviation(grid: CellGrid) -> float:
    """Sum of per-cell feature standard deviations over non-empty cells.
    ``select_lambda`` passes its per-candidate feature cells, which carry
    the same ``sigma_x``."""
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
    """Localized deviation and non-empty cell count at each candidate
    division count; picks the candidate that maximizes localized
    deviation, ties going to the smaller one.

    Runs only ``fit_grid``'s feature-side steps and their checks: one
    ``_scaled_features`` pass checks every candidate, before it scales the
    selected features once; then each candidate bins them and takes its
    cells' feature spread. Neither the targets nor the weights' ``mu`` are
    computed, so a problem only they have is reported by ``fit_grid``, not
    here. ``candidates`` may be any sequence, a numpy array included.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sub, unit = _scaled_features(dataset, feature_subset, candidates)
        report = []
        for lam in candidates:
            # the bins are a temporary: no candidate's (n, d) bins outlive it
            cells = _feature_cells(sub, _bins(unit, lam), lam)
            report.append(SweepEntry(lam, localized_deviation(cells), len(cells.count)))
    best = max(report, key=lambda e: (e.ld, -e.lam))
    return best.lam, report
