"""Pure helpers of the repository benchmark: statistics, the golden
figure splitter, failure counting and metrics-registry reads.

Kept free of process and file-system side effects so that
test_benchlib.py can pin each rule on plain inputs.
"""

import math
import re
import statistics

# Percentiles tried, highest first, by tail_percentile(): the tail
# metric is p99 whenever a run has the samples to support it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

# Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile as a share of
    the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(values, candidates=TAIL_PERCENTILES,
                    min_beyond=TAIL_MIN_BEYOND):
    """The highest candidate percentile with at least min_beyond
    samples above its rank, as (percentile, value, sample count).

    With too few samples for any candidate the maximum is reported as
    the 100th percentile, so the caller still gets a defined value
    together with the count that explains it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for pct in sorted(candidates, reverse=True):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return 100.0, ordered[-1], n


_SECTION = re.compile(r"^===== (.+) =====\n\n", re.M)


def split_sections(text):
    """Split `experiments` figure output into [(title, body)].

    Each section is printed as '===== <title> =====', a blank line,
    the figure text, and one separating newline; the body returned is
    the figure text alone, byte for byte what its FigureDef built.
    """
    matches = list(_SECTION.finditer(text))
    sections = []
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[m.end():end]
        if body.endswith("\n"):
            body = body[:-1]
        sections.append((m.group(1), body))
    return sections


def parse_figure_list(text):
    """`experiments --list` output -> {title: id}."""
    titles = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            titles[parts[1]] = parts[0]
    return titles


def figure_mismatches(stdout, titles, golden):
    """Figure ids whose section is missing from stdout or differs from
    its golden text. titles maps section title -> id; golden maps id
    -> expected text."""
    got = {}
    for title, body in split_sections(stdout):
        got[titles.get(title, title)] = body
    return sorted(fid for fid, want in golden.items() if got.get(fid) != want)


def count_failures(outcomes):
    """(attempted, failed) over per-operation outcomes.

    An outcome is True (succeeded), False (failed), or a status code
    where 0 means success and anything else (not served, refused,
    wrong output) a failure.
    """
    attempted = 0
    failed = 0
    for ok in outcomes:
        attempted += 1
        if ok is False or (not isinstance(ok, bool) and ok != 0):
            failed += 1
    return attempted, failed


def _lookup(doc, name):
    for section in ("stable", "volatile"):
        node = doc.get(section, {})
        for part in name.split("."):
            if not isinstance(node, dict) or part not in node:
                node = None
                break
            node = node[part]
        if node is not None:
            return node
    return None


def _is_histogram(node):
    return isinstance(node, dict) and "buckets" in node and "count" in node


def metric_total(doc, name):
    """A counter's value summed over its labels (0 when absent)."""
    node = _lookup(doc, name)
    if node is None:
        return 0
    if isinstance(node, (int, float)):
        return node
    return sum(v for v in node.values() if isinstance(v, (int, float)))


def metric_labels(doc, name):
    """Number of labels a labeled counter carries."""
    node = _lookup(doc, name)
    return len(node) if isinstance(node, dict) else 0


def histogram_totals(doc, name):
    """(sample count, sample sum) of a histogram over its labels."""
    node = _lookup(doc, name)
    if node is None:
        return 0, 0
    hists = [node] if _is_histogram(node) else list(node.values())
    return (sum(h["count"] for h in hists), sum(h["sum"] for h in hists))
