"""Pure helpers of the benchmark: percentiles, the tail rule, and the output check."""

import math

# Relative tolerance of the seed-stream contract for continuous outputs.
REL_TOL = 1e-12

# Candidate tail percentiles, in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def percentile(values, p):
    """p-th percentile (0..100) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_BEYOND of `count` samples above it.

    With fewer than 2 * MIN_BEYOND samples no percentile at or above the
    median qualifies, and the median (50) is returned.
    """
    for tenths in TAIL_LADDER:
        if count * (1000 - tenths) // 1000 >= MIN_BEYOND:
            return tenths / 10
    return 50.0


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(got, ref, exact_fields=frozenset(), where="output"):
    """Differences between an op's records and their reference, as messages.

    Floats must agree to REL_TOL relative (fields named in exact_fields
    exactly); bools, ints, strings and None must be equal; dict keys and list
    lengths must match.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from the reference"]
        problems = []
        for key in ref:
            if key in exact_fields:
                problems += _compare_leaf(got[key], ref[key], f"{where}.{key}", exact=True)
            else:
                problems += compare(got[key], ref[key], exact_fields, f"{where}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs from the reference"]
        problems = []
        for i, (g, r) in enumerate(zip(got, ref)):
            problems += compare(g, r, exact_fields, f"{where}[{i}]")
        return problems
    return _compare_leaf(got, ref, where, exact=False)


def _compare_leaf(got, ref, where, exact):
    both_int = isinstance(got, int) and isinstance(ref, int)
    if exact or both_int or not (_is_number(got) and _is_number(ref)):
        if type(got) is not type(ref) or got != ref:
            return [f"{where}: {got!r} != reference {ref!r}"]
        return []
    if not math.isfinite(got) or abs(got - ref) > REL_TOL * max(abs(got), abs(ref)):
        return [f"{where}: {got!r} differs from reference {ref!r} by more than {REL_TOL} relative"]
    return []


def invariant_problems(record, where="record"):
    """Invariants every report or table row must satisfy on its own."""
    problems = [f"{where}.{key}: not finite ({value!r})"
                for key, value in record.items() if isinstance(value, float) and not math.isfinite(value)]
    p = record.get("p_value")
    if p is not None and not 0.0 <= p <= 1.0:
        problems.append(f"{where}.p_value: {p!r} outside [0, 1]")
    crit = record.get("critical_value_wprime", record.get("critical_value"))
    if "reject" in record and crit is not None and record["reject"] != (record["statistic"] > crit):
        problems.append(f"{where}.reject: {record['reject']!r} contradicts statistic > critical value")
    if record.get("estimate") == "rejection_rate" and not 0.0 <= record["value"] <= 1.0:
        problems.append(f"{where}.value: rejection rate {record['value']!r} outside [0, 1]")
    return problems


def check_records(records, ref, exact_fields=frozenset()):
    """All problems of one op's output: invariants of each record, then the reference."""
    problems = []
    for i, record in enumerate(records):
        problems += invariant_problems(record, f"record[{i}]")
    return problems + compare(records, ref, exact_fields)
