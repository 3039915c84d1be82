"""Seeded synthetic inputs for the benchmark workloads.

Run as a script, it writes one workload's inputs into a directory:

    python3 perfbench/corpus.py --workload year-4digit --seed 1 --out DIR

Trade workloads get ``trades.csv`` and ``gdp.csv`` in the library's
canonical schemas, plus ``truth.npz`` holding the same rows as arrays for
the independent checker.  ``ensemble-kernels`` gets ``ensemble.npz`` with
one flux array per network.  Everything is a pure function of the seed:
one PCG64 stream, drawn in a fixed order.  Row counts, years and network
sizes are fixed, so the shape of the work does not depend on the seed;
only the draws do.

Trade is gravity-like: log-normal country masses, exporters and importers
drawn in proportion to a power of their mass, log-normal values scaled by
both masses, and a Zipf skew in product popularity, so rare products fall
below the batch's country minimum and are skipped.  As in real reporter
files, a small share of rows are self-loops and a small share carry codes
shorter than four digits.
"""

from __future__ import annotations

import argparse
import os
import shutil
from pathlib import Path

import numpy as np

N_COUNTRIES = 180
CHAPTERS = 10
PRODUCTS_PER_CHAPTER = 40          # 400 four-digit codes over all ten chapters
ZIPF_EXPONENT = 1.0
SELF_LOOP_SHARE = 0.003
SHORT_CODE_SHARE = 0.005

#: Years and rows per year of each trade workload.
TRADE_SHAPES = {
    "year-4digit": ((2000,), 20_000),
}

#: Ensemble: network count, node counts spread evenly over a range, and
#: share of absent edges.
ENSEMBLE_NETWORKS = 80
ENSEMBLE_N = (150, 250)
ENSEMBLE_SPARSITY = 0.3

WORKLOADS = tuple(TRADE_SHAPES) + ("ensemble-kernels",)


def country_codes(n: int = N_COUNTRIES) -> list[str]:
    """Fixed roster of three-letter codes, in lexicographic order."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [letters[i // 676 % 26] + letters[i // 26 % 26] + letters[i % 26]
            for i in range(676, 676 + n)]


def _product_codes(rng: np.random.Generator) -> np.ndarray:
    codes = []
    for chapter in range(CHAPTERS):
        tails = rng.choice(1000, size=PRODUCTS_PER_CHAPTER, replace=False)
        codes.extend(f"{chapter}{t:03d}" for t in np.sort(tails))
    return np.array(codes, dtype="U4")


def _year_rows(rng, masses, popularity, products, n_rows):
    """Exporter, importer, product and value arrays of one year."""
    n = len(masses)
    p_exp = masses ** 0.9 / (masses ** 0.9).sum()
    p_imp = masses ** 0.8 / (masses ** 0.8).sum()
    exporter = rng.choice(n, size=n_rows, p=p_exp)
    importer = rng.choice(n, size=n_rows, p=p_imp)
    loops = rng.random(n_rows) < SELF_LOOP_SHARE
    importer[loops] = exporter[loops]
    product = products[rng.choice(len(products), size=n_rows, p=popularity)]
    short = np.flatnonzero(rng.random(n_rows) < SHORT_CODE_SHARE)
    for row, digits in zip(short.tolist(), rng.integers(2, 4, size=len(short)).tolist()):
        product[row] = product[row][:digits]
    value = (1e6 * np.sqrt(masses[exporter] * masses[importer])
             * rng.lognormal(0.0, 1.0, size=n_rows))
    return exporter, importer, product, value


def trade_arrays(seed: int, years, rows_per_year: int) -> dict[str, np.ndarray]:
    """Rows of a trade corpus as column arrays, plus the roster and its GDP."""
    rng = np.random.Generator(np.random.PCG64(seed))
    roster = country_codes()
    products = _product_codes(rng)
    popularity = 1.0 / (rng.permutation(len(products)) + 1.0) ** ZIPF_EXPONENT
    masses = rng.lognormal(0.0, 1.3, size=N_COUNTRIES)
    gdp = 800.0 * masses ** 0.6 * rng.lognormal(0.0, 0.5, size=N_COUNTRIES)
    years = list(years)

    cols = []
    for year in years:
        exporter, importer, product, value = _year_rows(
            rng, masses, popularity / popularity.sum(), products, rows_per_year)
        cols.append((np.full(rows_per_year, year), exporter, importer, product, value))
        masses = masses * rng.lognormal(0.0, 0.05, size=N_COUNTRIES)
    year, exporter, importer, product, value = (np.concatenate(c) for c in zip(*cols))
    return {"year": year.astype(np.int32), "exporter": exporter.astype(np.int32),
            "importer": importer.astype(np.int32), "product": product,
            "value": value, "countries": np.array(roster), "gdp": gdp,
            "years": np.array(years)}


def write_trade_files(arrays: dict[str, np.ndarray], out: Path) -> None:
    """Write ``trades.csv``, ``gdp.csv`` and ``truth.npz`` into ``out``.

    Values are written with ``repr``, which round-trips float64 exactly, so
    the parsed records equal the arrays.
    """
    roster = arrays["countries"].tolist()
    lines = ["year,exporter,importer,product,value"]
    lines.extend(f"{y},{roster[e]},{roster[i]},{p},{v!r}" for y, e, i, p, v in zip(
        arrays["year"].tolist(), arrays["exporter"].tolist(),
        arrays["importer"].tolist(), arrays["product"].tolist(),
        arrays["value"].tolist()))
    (out / "trades.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    gdp = ["country,value"] + [f"{c},{g!r}" for c, g in zip(roster, arrays["gdp"].tolist())]
    (out / "gdp.csv").write_text("\n".join(gdp) + "\n", encoding="utf-8")
    np.savez(out / "truth.npz", **arrays)


def ensemble_arrays(seed: int, count: int = ENSEMBLE_NETWORKS) -> list[np.ndarray]:
    """Dense gravity-like flux matrices with zero diagonals."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for n in np.linspace(*ENSEMBLE_N, count).round().astype(int).tolist():
        masses = rng.lognormal(0.0, 1.3, size=n)
        flux = (1e6 * np.outer(masses ** 0.9, masses ** 0.8)
                * rng.lognormal(0.0, 1.0, size=(n, n)))
        flux[rng.random((n, n)) < ENSEMBLE_SPARSITY] = 0.0
        np.fill_diagonal(flux, 0.0)
        out.append(flux)
    return out


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs of ``workload`` for ``seed`` into ``out``, atomically."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if workload == "ensemble-kernels":
        np.savez(tmp / "ensemble.npz", *ensemble_arrays(seed))
    else:
        write_trade_files(trade_arrays(seed, *TRADE_SHAPES[workload]), tmp)
    tmp.rename(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
