"""Instance file formats and the benchmark budget schedule.

Three formats are supported: the OR-Library portfolio text format
(means, standard deviations, and a correlation triangle), a JSON
schema for time-dependent TSP instances, and a JSON schema for generic
MIP instances.  All parsers raise :class:`InstanceFormatError` with
the offending line or field named.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .errors import InstanceFormatError
from .mip import GenericMipInstance
from .tdtsp import TdTspInstance

__all__ = [
    "parse_orlib_portfolio",
    "load_orlib_portfolio",
    "parse_tdtsp",
    "tdtsp_to_dict",
    "load_tdtsp",
    "write_tdtsp",
    "parse_mip",
    "mip_to_dict",
    "load_mip",
    "write_mip",
    "budget_for",
]

TDTSP_FORMAT = "tdtsp-v1"
MIP_FORMAT = "mip-v1"


def parse_orlib_portfolio(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the OR-Library portfolio format into (means, covariance).

    Expected layout: the asset count, then one "mean stddev" line per
    asset, then n(n+1)/2 lines "i j correlation" covering every pair
    i <= j (1-based).  The covariance is assembled as
    corr * s_i * s_j, one whole-array product, and its upper triangle
    is mirrored exactly onto the lower one.
    """
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            tokens.append((lineno, tok))
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(tokens):
            raise InstanceFormatError(f"file ended while reading {what}")
        value = tokens[pos]
        pos += 1
        return value

    lineno, tok = take("the asset count")
    try:
        n = int(tok)
    except ValueError:
        raise InstanceFormatError(f"line {lineno}: asset count is not an integer: {tok!r}")
    if n < 1:
        raise InstanceFormatError(f"line {lineno}: asset count must be positive, got {n}")

    means = np.empty(n)
    stddev = np.empty(n)
    for i in range(n):
        for name, out in (("mean", means), ("stddev", stddev)):
            lineno, tok = take(f"{name} of asset {i + 1}")
            try:
                out[i] = float(tok)
            except ValueError:
                raise InstanceFormatError(
                    f"line {lineno}: {name} of asset {i + 1} is not a number: {tok!r}"
                )
            if not math.isfinite(out[i]):
                raise InstanceFormatError(
                    f"line {lineno}: {name} of asset {i + 1} is not finite: {tok!r}"
                )
    if np.any(stddev < 0):
        raise InstanceFormatError("negative standard deviation")

    seen = np.zeros((n, n), dtype=bool)
    upper = np.zeros((n, n))
    for _ in range(n * (n + 1) // 2):
        lineno, tok_i = take("a correlation row index")
        _, tok_j = take("a correlation column index")
        _, tok_c = take("a correlation value")
        try:
            i, j, corr = int(tok_i), int(tok_j), float(tok_c)
        except ValueError:
            raise InstanceFormatError(
                f"line {lineno}: bad correlation entry: {tok_i!r} {tok_j!r} {tok_c!r}"
            )
        if not (1 <= i <= n and 1 <= j <= n):
            raise InstanceFormatError(
                f"line {lineno}: asset pair ({i}, {j}) outside 1..{n}"
            )
        if not -1.0 <= corr <= 1.0:
            raise InstanceFormatError(
                f"line {lineno}: correlation {corr} outside [-1, 1]"
            )
        i, j = min(i, j) - 1, max(i, j) - 1
        if seen[i, j]:
            raise InstanceFormatError(
                f"line {lineno}: duplicate correlation for pair ({i + 1}, {j + 1})"
            )
        if i == j and corr != 1.0:
            raise InstanceFormatError(
                f"line {lineno}: diagonal correlation of asset {i + 1} is {corr}, not 1"
            )
        seen[i, j] = True
        upper[i, j] = corr
    if pos < len(tokens):
        lineno, tok = tokens[pos]
        raise InstanceFormatError(f"line {lineno}: trailing data starting at {tok!r}")
    rows_idx, cols_idx = np.triu_indices(n)
    if not seen[rows_idx, cols_idx].all():
        hole = int(np.flatnonzero(~seen[rows_idx, cols_idx])[0])
        raise InstanceFormatError(
            f"correlation for pair ({rows_idx[hole] + 1}, {cols_idx[hole] + 1}) is missing"
        )

    prod = upper * stddev[:, None] * stddev[None, :]
    covariance = np.where(np.tri(n, dtype=bool).T, prod, prod.T)
    return means, covariance


def load_orlib_portfolio(path: Union[str, Path]) -> tuple[np.ndarray, np.ndarray]:
    return parse_orlib_portfolio(Path(path).read_text())


def _require(data: dict, key: str, kind: type, where: str):
    if key not in data:
        raise InstanceFormatError(f"{where}: missing field {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise InstanceFormatError(
            f"{where}: field {key!r} should be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _numbers(values, key: str, where: str) -> np.ndarray:
    """``values`` as a float array, or an :class:`InstanceFormatError`
    naming ``key`` when an entry is not a number."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where}: field {key!r} has non-numeric entries: {exc}") from exc


def parse_tdtsp(data: dict) -> TdTspInstance:
    """Build a TD-TSP instance from its JSON dictionary form."""
    where = "tdtsp instance"
    fmt = _require(data, "format", str, where)
    if fmt != TDTSP_FORMAT:
        raise InstanceFormatError(f"{where}: format {fmt!r}, expected {TDTSP_FORMAT!r}")
    n = _require(data, "n", int, where)
    intervals = _require(data, "H", int, where)
    t_bar = _require(data, "Tbar", float, where)
    service = _require(data, "s", list, where)
    travel = _require(data, "t", list, where)
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise InstanceFormatError(f"{where}: seed must be an integer or null")
    service_arr = _numbers(service, "s", where)
    travel_arr = _numbers(travel, "t", where)
    if travel_arr.ndim != 3:
        raise InstanceFormatError(
            f"{where}: field 't' must be a list of H square matrices"
        )
    try:
        return TdTspInstance(
            n_customers=n,
            n_intervals=intervals,
            interval_length=t_bar,
            service=service_arr,
            travel=travel_arr,
            seed=seed,
        )
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def tdtsp_to_dict(instance: TdTspInstance) -> dict:
    return {
        "format": TDTSP_FORMAT,
        "n": instance.n_customers,
        "H": instance.n_intervals,
        "Tbar": instance.interval_length,
        "s": instance.service.tolist(),
        "t": instance.travel.tolist(),
        "seed": instance.seed,
    }


def _read_json_object(path: Union[str, Path]) -> dict:
    """The JSON object in the file at ``path``; a file that is not
    JSON, or holds anything but an object, is an instance format error."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    return data


def load_tdtsp(path: Union[str, Path]) -> TdTspInstance:
    return parse_tdtsp(_read_json_object(path))


def write_tdtsp(instance: TdTspInstance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(tdtsp_to_dict(instance), indent=2) + "\n")


def parse_mip(data: dict) -> GenericMipInstance:
    """Build a generic MIP instance from its JSON dictionary form.

    The constraint matrix comes as either ``A_dense`` (row-major
    nested lists) or ``A_sparse`` ([row, col, value] triplets,
    0-based); omit both for a box-only instance.
    """
    where = "mip instance"
    fmt = _require(data, "format", str, where)
    if fmt != MIP_FORMAT:
        raise InstanceFormatError(f"{where}: format {fmt!r}, expected {MIP_FORMAT!r}")
    n = _require(data, "n", int, where)
    p = _require(data, "p", int, where)
    c = _numbers(_require(data, "c", list, where), "c", where)
    l = _numbers(_require(data, "l", list, where), "l", where)
    u = _numbers(_require(data, "u", list, where), "u", where)
    b = _numbers(data.get("b", []), "b", where)
    if b.ndim != 1:
        raise InstanceFormatError(f"{where}: field 'b' must be a flat list of numbers")
    m = b.shape[0]
    if "A_dense" in data and "A_sparse" in data:
        raise InstanceFormatError(f"{where}: give A_dense or A_sparse, not both")
    if "A_dense" in data:
        rows = _numbers(data["A_dense"], "A_dense", where)
        if rows.ndim != 2 or rows.shape != (m, n):
            raise InstanceFormatError(
                f"{where}: A_dense must be {m}x{n}, got {rows.shape}"
            )
    elif "A_sparse" in data:
        rows = np.zeros((m, n))
        for entry in _require(data, "A_sparse", list, where):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise InstanceFormatError(
                    f"{where}: A_sparse entries are [row, col, value], got {entry!r}"
                )
            i, j, value = entry
            if not (type(i) is int and type(j) is int and 0 <= i < m and 0 <= j < n):
                raise InstanceFormatError(
                    f"{where}: A_sparse index ({i!r}, {j!r}) outside {m}x{n}"
                )
            try:
                rows[i, j] = value
            except (TypeError, ValueError) as exc:
                raise InstanceFormatError(
                    f"{where}: A_sparse value {value!r} is not a number"
                ) from exc
    else:
        if m:
            raise InstanceFormatError(f"{where}: {m} rhs entries but no matrix")
        rows = np.zeros((0, n))
    try:
        return GenericMipInstance(
            costs=c, lower=l, upper=u, rows=rows, rhs=b, n_integer=p
        )
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def mip_to_dict(instance: GenericMipInstance) -> dict:
    data = {
        "format": MIP_FORMAT,
        "n": instance.n_variables,
        "p": instance.n_integer,
        "c": instance.costs.tolist(),
        "l": instance.lower.tolist(),
        "u": instance.upper.tolist(),
        "b": instance.rhs.tolist(),
    }
    if instance.n_rows:
        data["A_dense"] = instance.rows.tolist()
    return data


def load_mip(path: Union[str, Path]) -> GenericMipInstance:
    return parse_mip(_read_json_object(path))


def write_mip(instance: GenericMipInstance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(mip_to_dict(instance), indent=2) + "\n")


# Wall-clock seconds by problem size, as used for the benchmark runs.
_PORTFOLIO_BUDGETS = ((31, 10.0), (98, 20.0), (225, 30.0), (457, 50.0), (1318, 100.0))


def budget_for(kind: str, n: int) -> float:
    """Benchmark budget in seconds for an instance of size ``n``."""
    if n < 1:
        raise ValueError(f"instance size must be positive, got {n}")
    if kind == "portfolio":
        for limit, seconds in _PORTFOLIO_BUDGETS:
            if n <= limit:
                return seconds
        return 200.0
    if kind == "tdtsp":
        return float(n)
    raise ValueError(f"no budget schedule for kind {kind!r}")
