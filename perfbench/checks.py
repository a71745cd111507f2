"""Output checks for one CLI invocation and the reference outputs.

An invocation passes when it exits 0, its stdout parses as the CSV or JSON
the command promises, it emits the expected number of rows, every number
is finite, probabilities and informations lie in [0, 1] and attenuations
and distances are >= 0.  Invocations of the default seed that have a
recorded reference must also match it on a fixed sample of rows, within
the tolerance ``tolerance`` gives each column.
"""
from __future__ import annotations

import json
import math

# Columns that follow from the click-rate solve get absolute tolerances loose
# enough for an exact inverse, which moves dcrit/stattnb attenuations by up
# to the old 4e-7 dB bisection tolerance, distances by 4e-7 / alpha km, and
# the stattnb I_Eve read off those attenuations by about 5e-9.
DB_KM_TOL = 1e-5
STATTNB_I_EVE_TOL = 1e-7
# Every other number: tight enough that small key rates and informations
# (down to ~1e-7) cannot drift unnoticed, loose enough for eigensolver and
# last-digit rounding changes.
ABS_TOL = 1e-12
REL_TOL = 1e-9
UNIT_COLUMNS = {"q", "i_ab", "p_e", "qber", "qber_sifted"}
NONNEGATIVE_SUFFIXES = ("_db", "_km")
SAMPLED_ROWS = 16
MAX_PROBLEMS = 5


def _field(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse(stdout):
    """Parse CLI stdout (CSV with a header line, or JSON) into (header, rows)."""
    if stdout[:1] in ("[", "{"):
        data = json.loads(stdout)
        records = data if isinstance(data, list) else [data]
        if not records or not all(isinstance(r, dict) for r in records):
            raise ValueError("expected a non-empty list of JSON records")
        header = sorted(records[0])
        if any(sorted(r) != header for r in records):
            raise ValueError("JSON records have different keys")
        return header, [[r[h] for h in header] for r in records]
    if not stdout.endswith("\n"):
        raise ValueError("CSV output does not end with a newline")
    lines = stdout[:-1].split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"row has {len(fields)} fields, header has {len(header)}")
        rows.append([_field(f) for f in fields])
    return header, rows


def _value_problem(name, x):
    if isinstance(x, (bool, str)):
        return None
    if not isinstance(x, (int, float)):
        return f"{name}: {x!r} is not a number"
    if not math.isfinite(x):
        return f"{name}: {x!r} is not finite"
    if (name in UNIT_COLUMNS or name.startswith("i_eve")) and not 0.0 <= x <= 1.0:
        return f"{name}: {x!r} outside [0, 1]"
    if name.endswith(NONNEGATIVE_SUFFIXES) and x < 0.0:
        return f"{name}: {x!r} is negative"
    return None


def sample_rows(rows):
    """Rows kept in the reference: every stride-th row and the last one."""
    stride = max(1, -(-len(rows) // SAMPLED_ROWS))
    keep = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return {str(i): rows[i] for i in keep if i >= 0}


def tolerance(kind, name, ref):
    """Largest allowed |x - ref| in column ``name`` of a ``kind`` invocation."""
    if name.endswith(NONNEGATIVE_SUFFIXES):
        return DB_KM_TOL
    if (kind, name) == ("curve stattnb", "i_eve"):
        return STATTNB_I_EVE_TOL
    return ABS_TOL + REL_TOL * abs(ref)


def _differs(kind, name, x, ref):
    if isinstance(ref, (bool, str)) or isinstance(x, (bool, str)):
        return x != ref
    return abs(x - ref) > tolerance(kind, name, ref)


def compare(kind, header, rows, reference):
    """Problems found comparing parsed output with one reference entry."""
    if header != reference["header"]:
        return [f"header {header} differs from reference {reference['header']}"]
    if len(rows) != reference["n_rows"]:
        return [f"{len(rows)} rows, reference has {reference['n_rows']}"]
    out = []
    for index, ref_row in reference["rows"].items():
        for name, x, ref in zip(header, rows[int(index)], ref_row):
            if _differs(kind, name, x, ref):
                out.append(f"row {index} {name}: {x!r} differs from reference {ref!r}")
    return out


def check(invocation, returncode, stdout, reference=None):
    """(rows emitted, problems) for one invocation; no problems means it passed."""
    if returncode != 0:
        return 0, [f"exit code {returncode}"]
    try:
        header, rows = parse(stdout)
    except (ValueError, KeyError) as exc:
        return 0, [f"output does not parse: {exc}"]
    out = []
    if len(rows) != invocation.rows:
        out.append(f"{len(rows)} rows, expected {invocation.rows}")
    for row in rows:
        for name, x in zip(header, row):
            problem = _value_problem(name, x)
            if problem:
                out.append(problem)
    if reference is not None:
        if invocation.argv != reference["argv"]:
            out.append(f"arguments {invocation.argv} differ from reference {reference['argv']}")
        else:
            out += compare(invocation.kind, header, rows, reference)
    return len(rows), out[:MAX_PROBLEMS]


def reference_entry(invocation, stdout, sha256):
    """Reference record for one invocation of the default seed."""
    header, rows = parse(stdout)
    return {"argv": invocation.argv, "sha256": sha256, "header": header,
            "n_rows": len(rows), "rows": sample_rows(rows)}
