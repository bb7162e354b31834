"""Output checks for one ``delaysync run``: row count, finite values, the
summary against the reference recorded in reference.json, and the output
hash that reruns are compared by."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# A summary value passes when |got - ref| <= ABS_TOL + REL_TOL * |ref|.
# Reordered floating-point arithmetic stays far inside this; a change of
# method (interpolation order, step size) or a wrong result does not.
REL_TOL = 1e-6
ABS_TOL = 1e-9
CHUNK = 1 << 20


def summary_digest(text: str) -> dict[str, float]:
    """The checked numbers of a summary.txt: the headline metrics plus the
    norm and sum of the final gains (one number each for any fleet size)."""
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key != "scenario":
            values[key] = float(value)
    theta = [v for k, v in values.items() if k.startswith("theta_final_")]
    phi = [v for k, v in values.items() if k.startswith("phi_phi_final_")]
    return {
        "rows": values["rows"],
        "peak_error": values["peak_error"],
        "final_window_mean": values["final_window_mean"],
        "max_vd_slope": values["max_vd_slope"],
        "theta_final_l2": math.sqrt(sum(v * v for v in theta)),
        "theta_final_sum": math.fsum(theta),
        "phi_phi_final_l2": math.sqrt(sum(v * v for v in phi)),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check_outputs(out: Path, steps: int, reference: dict | None) -> str | None:
    """None when the run's files are right, else the first problem found."""
    trace = out / "trace.csv"
    summary = out / "summary.txt"
    if not trace.is_file() or not summary.is_file():
        return "trace.csv or summary.txt missing"
    rows, finite = _scan_rows(trace)
    if rows != steps + 1:
        return f"trace.csv has {rows} rows, expected {steps + 1}"
    if not finite:
        return "trace.csv holds a non-finite value"
    digest = summary_digest(summary.read_text())
    if reference is None:
        return "no reference summary recorded for this member"
    for key, want in reference.items():
        got = digest[key]
        if not abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            return f"summary {key} = {got!r}, reference {want!r}"
    return None


def _chunks(f):
    while chunk := f.read(CHUNK):
        yield chunk


def _scan_rows(trace: Path) -> tuple[int, bool]:
    """Data rows of a CSV and whether all of them are free of non-finite
    values, read in chunks so the check adds little to peak memory."""
    rows, finite, tail = 0, True, b""
    with trace.open("rb") as f:
        f.readline()  # header
        for chunk in _chunks(f):
            rows += chunk.count(b"\n")
            # %.17g prints a non-finite double as nan, inf or -inf; the tail
            # of the previous chunk catches a token split across chunks.
            window = tail + chunk
            finite = finite and b"nan" not in window and b"inf" not in window
            tail = chunk[-2:]
    return rows, finite


def output_hash(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("trace.csv", "summary.txt"):
        with (out / name).open("rb") as f:
            for chunk in _chunks(f):
                h.update(chunk)
    return h.hexdigest()
