"""Exhaustive k(eps) sweeps and unimodality testing.

The sweep reads k(eps) off one exact curve build (``core.KCurve``) at
every radius of an increasing grid; the resulting
curve is expanded into an empirical sample over eps (each grid point
repeated k times) and handed to Hartigan's dip test, whose null
hypothesis is unimodality. A bootstrap against uniform samples of the
same size calibrates the p-value.

The dip follows Hartigan & Hartigan's AS 217: two stack passes find the
touch points of the sample's convex minorant and concave majorant, and a
loop narrows the modal interval over them. Every dip, the observed one
and each bootstrap replicate's, comes from one routine, ``_chunk_dips``,
over the rows of a chunk: each sample and its mirror, whose minorant is
the sample's majorant. ``dip_statistic`` runs a chunk of one sample. The
bootstrap's replicates all have the sample's size, so ``dip_p_value``
puts as many of them as fit ``_CHUNK_CELLS`` cells into each chunk. On a
chunk of ``_LOCKSTEP_ROWS`` rows or more the hull passes run in lockstep:
each row takes one comparison of its own stack a step, the same float64
operation as the one-row pass ``_minorant_touches``. The loop then runs
on all of a chunk's samples at once, each with its own modal interval.
The reference AS 217 code, one sample at a time on Python floats, is kept
with the tests (``tests/conftest.py``), and every touch point, dip and
p-value matches it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .core import CurveSample, KCurve, RunStats, _as_integer, approximate_diameter_ub
# unused here, but the benchmark's tracer patches the name tsdbscan.curve.dbscan
from .core import dbscan  # noqa: F401

# Cells of one chunk of the dip bootstrap (2 rows per replicate): 4 MiB of
# samples and touch points, reused by every chunk. The chunk size changes
# no result.
_CHUNK_CELLS = 1 << 18

# Rows a chunk needs for the lockstep hull passes to beat the one-row pass.
# It is checked per chunk and picks the hull pass only: the AS 217 loop
# that follows runs on whatever rows the chunk holds, and the observed
# dip's chunk of 2 rows takes the one-row pass. On a 2-core host a
# lockstep step took about 10 us plus 0.035 us a row, against 0.14 us a
# row-step for the one-row pass: at n = 100, 567 and 2000, 96 rows took
# 0.84-0.97 of the one-row time, 64 rows 1.12-1.35 and 256 rows 0.46-0.51.
_LOCKSTEP_ROWS = 100


def epsilon_grid(x, grid_size: int, metric: str = "euclidean") -> np.ndarray:
    """Default sweep grid: ``grid_size`` >= 2 even radii from UB0/1000 to the
    diameter bound UB0, which is float64 eps when the points coincide.
    Raises ValueError when a subnormal UB0 leaves a radius at 0 or two
    radii equal, a grid that ``sweep_curve`` would reject."""
    if _as_integer(grid_size, "grid_size") < 2:
        raise ValueError(f"grid size must be at least 2, got {grid_size}")
    ub0 = approximate_diameter_ub(x, metric=metric)
    grid = np.linspace(ub0 / 1000, ub0, grid_size)
    if not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
        raise ValueError(f"the diameter bound {ub0!r} is too small for {grid_size} distinct "
                         "positive radii; rescale the data")
    return grid


def sweep_curve(x, grid, min_pts: int, metric: str = "euclidean",
                stats: RunStats | None = None) -> list[CurveSample]:
    """k(eps) and noise at every grid radius, read off one :class:`KCurve`
    build: the values of one DBSCAN run per radius, with no DBSCAN run."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty epsilon grid")
    if not np.all((grid > 0) & (grid < np.inf)):
        raise ValueError("epsilon grid values must be positive and finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("epsilon grid must be strictly increasing")
    curve = KCurve(x, min_pts, metric)
    if stats is not None:
        stats.curve_builds += 1
    return [CurveSample(float(eps), curve.k(eps), curve.noise(eps)) for eps in grid]


def curve_to_sample(curve: list[CurveSample]) -> np.ndarray:
    """Histogram expansion: repeat each eps k times.

    Presents the curve to the sample-based dip test as an empirical
    frequency distribution over eps.
    """
    ks = np.array([c.k for c in curve], dtype=np.int64)
    if np.any(ks < 0):
        raise ValueError("negative cluster counts in curve")
    if not np.any(ks > 0):
        raise ValueError("all-zero curve cannot be expanded into a sample")
    eps = np.array([c.epsilon for c in curve])
    return np.repeat(eps, ks)


def _minorant_touches(x: list[float]) -> list[int]:
    """For each j, the previous touch point of the greatest convex minorant of x[:j+1]."""
    mn = [0] * len(x)
    for j in range(1, len(x)):
        m = j - 1
        while m:
            mm = mn[m]
            if (x[j] - x[m]) * (m - mm) < (x[m] - x[mm]) * (j - m):
                break
            m = mm
        mn[j] = m
    return mn


def _minorant_rows(x: np.ndarray, mn: np.ndarray) -> None:
    """``_minorant_touches`` of every row of x at once, into mn, an intp
    array of x's shape.

    x is C-contiguous, each row sorted in all but its last column, which
    this pass overwrites as a sink: a row that has finished keeps stepping
    there until every row has. Each row keeps its own (j, m) and makes one
    comparison a step, the one-row pass's, on flat indices of one row, whose
    differences are the one-row pass's. So every touch point is the one-row
    pass's bit for bit.
    """
    rows, width = x.shape
    n = width - 1
    x[:, n] = x[:, n - 1]
    base = np.arange(0, rows * width, width)
    mn[:] = base[:, None]
    if n > 2:
        xf, mf, end = x.ravel(), mn.ravel(), base + n
        j, m = base + 2, base + 1
        steps = 0
        while True:
            mm = mf[m]
            xm = xf[m]
            below = (xf[j] - xm) * (m - mm) < (xm - xf[mm]) * (j - m)
            mf[j] = np.where(below, m, mm)
            m = np.where(below | (mm == base), j, mm)  # j's touch found: m is the new j - 1
            j = np.minimum(np.maximum(j, m + 1), end)
            steps += 1
            # a check every 8 steps costs less than one a step, and runs
            # at most 7 steps past the last row's end
            if steps % 8 == 0 and np.all(j == end):
                break
    mn -= base[:, None]


def dip_statistic(sample) -> float:
    """Dip statistic of a 1-D sample; always in [1/(2n), 1/4]."""
    x = np.sort(np.asarray(sample, dtype=np.float64).ravel())
    if len(x) < 2:
        raise ValueError("dip statistic needs at least 2 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains NaN or Inf")
    chunk = np.empty((2, len(x) + 1))
    chunk[0, :-1] = x
    return float(_chunk_dips(chunk, np.empty(chunk.shape, dtype=np.intp))[0])


def dip_p_value(sample, n_boot: int, seed: int, *, observed: float | None = None) -> float:
    """Bootstrap p-value: fraction of same-size uniform samples whose dip
    is at least the observed one. Deterministic per seed. ``observed`` is
    the sample's ``dip_statistic`` when the caller has it, so that it is
    not computed twice; by default it is computed here.

    Replicate b is ``default_rng([seed, b]).random(n)``. The replicates run
    in chunks of as many as fit ``_CHUNK_CELLS`` cells, at least one, in
    two buffers reused from chunk to chunk; each chunk's dips come from
    ``_chunk_dips``, as the observed dip does, so every dip is the same
    bit for bit whatever the chunk size.
    """
    if _as_integer(n_boot, "n_boot") < 1:
        raise ValueError("n_boot must be positive")
    if observed is None:
        observed = dip_statistic(sample)
    n = len(np.asarray(sample).ravel())
    dips = _lockstep_dips(n, n_boot, seed, max(1, _CHUNK_CELLS // (2 * (n + 1))))
    return sum(d >= observed for d in dips) / n_boot


def _lockstep_dips(n: int, n_boot: int, seed: int, chunk: int):
    """The bootstrap's dips, ``chunk`` replicates at a time (see ``dip_p_value``)."""
    chunk = min(chunk, n_boot)
    x = np.empty((2 * chunk, n + 1))
    mn = np.empty(x.shape, dtype=np.intp)
    for start in range(0, n_boot, chunk):
        r = min(chunk, n_boot - start)
        up = x[:r, :n]
        for i in range(r):
            np.random.default_rng([seed, start + i]).random(out=up[i])
        up.sort(axis=1)
        yield from _chunk_dips(x[: 2 * r], mn[: 2 * r]).tolist()


def _chunk_dips(x: np.ndarray, mn: np.ndarray) -> np.ndarray:
    """The dips of the r sorted samples in the first r rows of a chunk.

    x is C-contiguous, 2r rows of n + 1 columns, and mn an intp array of
    its shape. Each sample's mirror (negated and reversed, whose minorant
    is the sample's majorant) goes into the second half; every row's
    minorant touch points go into mn, by ``_minorant_rows`` in lockstep
    on a chunk of ``_LOCKSTEP_ROWS`` rows or more, else by
    ``_minorant_touches`` one row at a time; ``_dip_rows`` then runs AS
    217 on all of the samples at once.
    """
    r, n = len(x) // 2, x.shape[1] - 1
    np.negative(x[:r, :n][:, ::-1], out=x[r:, :n])
    if len(x) >= _LOCKSTEP_ROWS:
        _minorant_rows(x, mn)
    else:
        for row, touches in zip(x[:, :n], mn):
            touches[:n] = _minorant_touches(row.tolist())
    return _dip_rows(x, mn)


def _dip_rows(x: np.ndarray, mn: np.ndarray) -> np.ndarray:
    """Hartigan & Hartigan's dip (AS 217) of every sample row of a chunk at once.

    x and mn are a chunk after its hull pass (see ``_chunk_dips``): r
    sorted sample rows, then their r mirrors, whose minorant touch points
    are the samples' majorant ones, read in place as
    mj[j] = n - 1 - mn_mirror[n - 1 - j].
    Each row keeps its own (low, high, dip) while it runs. A round follows
    every running row's touch-point chains with lockstep gathers, then runs
    the merge one step of each row at a time, each branch's float64
    expression, the reference loop's, only on the rows that take that
    branch; rows whose d falls below their dip stop. A division by zero
    raises FloatingPointError, where the reference loop raises
    ZeroDivisionError, so a row never gets another dip.
    """
    rows, width = x.shape
    r, n = rows // 2, width - 1
    floor = 1.0 / (2 * n)
    dip = np.zeros(r)  # scaled by 2n until the final division
    xf, mf = x.ravel(), mn.ravel()
    base = np.arange(0, r * width, width)
    low, high = np.zeros(r, dtype=np.intp), np.full(r, n - 1, dtype=np.intp)
    run = np.flatnonzero(xf[base] != xf[base + n - 1]) if n >= 4 else base[:0]
    # the segment expansion runs a few dozen rows at a time, so that it
    # stays a small part of the chunk's budget
    piece = max(1, _CHUNK_CELLS // (16 * width))
    with np.errstate(divide="raise", invalid="raise"):
        while run.size:
            b, lo, hi = base[run], low[run], high[run]
            mirror = b + r * width + n - 1  # mj[j] = n - 1 - mf[mirror - j]
            gcm = [hi]  # minorant touch points from high down to low
            while np.any(gcm[-1] > lo):
                j = gcm[-1]
                gcm.append(np.where(j > lo, mf[b + j], j))
            lcm = [lo]  # majorant touch points from low up to high
            while np.any(lcm[-1] < hi):
                j = lcm[-1]
                lcm.append(np.where(j < hi, n - 1 - mf[mirror - j], j))
            # each row's chain, padded with its last touch point
            gcm, lcm = np.stack(gcm, axis=1), np.stack(lcm, axis=1)
            l_gcm = np.count_nonzero(gcm > lo[:, None], axis=1)
            l_lcm = np.count_nonzero(lcm < hi[:, None], axis=1)
            d, ig, ih = _merge_rows(xf, b, gcm, lcm, l_gcm, l_lcm)

            go_on = d >= dip[run]
            run, b, gcm, lcm = run[go_on], b[go_on], gcm[go_on], lcm[go_on]
            ig, ih, l_gcm, l_lcm = ig[go_on], ih[go_on], l_gcm[go_on], l_lcm[go_on]
            # largest deviation inside the minorant and the majorant segments
            gap = np.zeros(run.size)
            for s in range(0, run.size, piece):
                p = slice(s, s + piece)
                gap[p] = np.maximum(_gap_rows(xf, b[p], gcm[p], ig[p], l_gcm[p], False),
                                    _gap_rows(xf, b[p], lcm[p], ih[p], l_lcm[p], True))
            dip[run] = np.maximum(dip[run], gap)

            at = np.arange(run.size)
            new_low, new_high = gcm[at, ig], lcm[at, ih]
            moved = (low[run] != new_low) | (high[run] != new_high)
            run = run[moved]
            low[run], high[run] = new_low[moved], new_high[moved]

    return np.maximum(dip / (2 * n), floor)


def _merge_rows(xf, b, gcm, lcm, l_gcm, l_lcm):
    """The merge of AS 217's round on every row: each row's (d, ig, ih),
    its largest dx over the merge of its chains and where it was met."""
    d, ig, ih = np.zeros(len(b)), l_gcm.copy(), l_lcm.copy()
    at = np.flatnonzero((l_gcm != 1) | (l_lcm != 1))  # the rows still merging
    gf, lf = gcm.ravel(), lcm.ravel()
    goff, loff, bs, top = at * gcm.shape[1], at * lcm.shape[1], b[at], l_lcm[at]
    ix, iv = l_gcm[at] - 1, np.ones(at.size, dtype=np.intp)
    dd, gg, hh = d[at], ig[at], ih[at]
    while at.size:
        gx, lv = gf[goff + ix], lf[loff + iv]
        left = gx > lv
        i = np.flatnonzero(left)
        if i.size:
            g, v, bi = gx[i], lv[i], bs[i]
            gl = gf[goff[i] + ix[i] + 1]
            dx = (v - gl + 1) - (xf[bi + v] - xf[bi + gl]) * (g - gl) / (xf[bi + g] - xf[bi + gl])
            take = dx >= dd[i]
            t = i[take]
            dd[t], gg[t], hh[t] = dx[take], ix[t] + 1, iv[t]
            iv[i] += 1
        i = np.flatnonzero(~left)
        if i.size:
            g, v, bi = gx[i], lv[i], bs[i]
            vl = lf[loff[i] + iv[i] - 1]
            dx = (xf[bi + g] - xf[bi + vl]) * (v - vl) / (xf[bi + v] - xf[bi + vl]) - (g - vl - 1)
            take = dx >= dd[i]
            t = i[take]
            dd[t], gg[t], hh[t] = dx[take], ix[t], iv[t]
            ix[i] -= 1
        np.maximum(ix, 0, out=ix)
        np.minimum(iv, top, out=iv)
        done = gf[goff + ix] == lf[loff + iv]
        if done.any():
            w = at[done]
            d[w], ig[w], ih[w] = dd[done], gg[done], hh[done]
            keep = ~done
            at, goff, loff, bs, top = at[keep], goff[keep], loff[keep], bs[keep], top[keep]
            ix, iv, dd, gg, hh = ix[keep], iv[keep], dd[keep], gg[keep], hh[keep]
    return d, ig, ih


def _gap_rows(xf, b, chain, first, last, upper: bool) -> np.ndarray:
    """The largest ECDF distance to the hull, times n, inside each row's
    segments between chain[first] and chain[last]: 0.0 with no segment,
    else at least 1.0. The knots descend along a minorant chain and ascend
    along a majorant one; each segment is expanded flat over its points and
    reduced with ``np.maximum.reduceat``."""
    count = last - first
    gap = np.where(count > 0, 1.0, 0.0)
    row = np.repeat(np.arange(len(b)), count)
    if row.size == 0:
        return gap
    k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count) + first[row]
    a, c = chain[row, k], chain[row, k + 1]
    jb, je = (a, c) if upper else (c, a)
    jb, je = jb + b[row], je + b[row]
    wide = (je - jb > 1) & (xf[je] != xf[jb])
    row, jb, je = row[wide], jb[wide], je[wide]
    if row.size == 0:
        return gap
    slope = (je - jb) / (xf[je] - xf[jb])
    size = je - jb + 1
    start = np.cumsum(size) - size
    off = np.arange(size.sum()) - np.repeat(start, size)  # jj - jb of each point
    dev = xf[np.repeat(jb, size) + off] - np.repeat(xf[jb], size)
    dev *= np.repeat(slope, size)
    if upper:  # concave majorant: the line lies above the ECDF's left limit
        dev -= off - 1
    else:  # convex minorant: the line lies below the ECDF
        np.subtract(off + 1, dev, out=dev)
    np.maximum.at(gap, row, np.maximum.reduceat(dev, start))
    return gap

