"""Pure helpers of the COBRA benchmark: statistics, span self time, and
parsers for cobra_search progress lines and cobra_serve result
documents. Nothing here runs a simulation, so test_bench_lib.py can
check it in milliseconds."""

import statistics

# Below this percentile the sample with ten beyond it is no tail.
TAIL_MIN_PCT = 75.0


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, min_beyond=10, min_pct=TAIL_MIN_PCT):
    """The highest percentile with at least @min_beyond samples beyond
    it: the (n - min_beyond)-th smallest of n samples, at percentile
    100 (n - min_beyond) / n. Returns (value, percentile,
    samples_beyond). The percentile follows the sample count smoothly,
    so runs with a few more or fewer operations report the same tail
    rather than jumping between fixed steps. When it would fall below
    @min_pct (under 40 samples at the defaults) it is no tail, so the
    maximum is returned as percentile 100 with 0 beyond; the metric
    always exists and the shortfall is visible beside it."""
    if not samples:
        raise ValueError("no samples")
    s = sorted(samples)
    rank = len(s) - min_beyond
    if rank >= 1 and 100.0 * rank / len(s) >= min_pct:
        return s[rank - 1], 100.0 * rank / len(s), min_beyond
    return s[-1], 100.0, 0


def host_normalised(times, probes, ref_s):
    """@times scaled to the reference host's speed: each time multiplied
    by @ref_s over the host-speed probe measured beside it (@probes,
    one per time). A program change moves the result as it moves wall
    time on a steady host; a drift of the host's own speed moves the
    probe too and cancels."""
    if len(times) != len(probes):
        raise ValueError("one probe per time")
    return [t * ref_s / p for t, p in zip(times, probes)]


def count_failed(checks):
    """Operations whose output check failed; @checks holds one bool
    (True = output correct) per attempted operation."""
    return sum(1 for ok in checks if not ok)


def union_length(intervals, lo, hi):
    """Total length of the union of @intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the time covered by
    its children. Children may overlap one another (parallel workers,
    or a child recorded by another process); their union is counted
    once. Aggregate children (count > 1) fold many sequential calls
    into one summed duration, so they are subtracted as a sum rather
    than as an interval. Returns {span id: seconds}, never negative."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        children = kids.get(s["id"], [])
        timed = [(c["start"], c["end"]) for c in children
                 if c.get("count", 1) == 1]
        summed = sum(c["end"] - c["start"] for c in children
                     if c.get("count", 1) > 1)
        out[s["id"]] = max(0.0, (hi - lo) - union_length(timed, lo, hi)
                           - summed)
    return out


def layer_of(name):
    """Layer of a span name: 'core.frontend.tick' -> 'core'."""
    return name.split(".", 1)[0]


def layer_self_times(spans):
    """Summed self time per layer."""
    st = self_times(spans)
    out = {}
    for s in spans:
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + st[s["id"]]
    return out


def renumber(spans, first_id):
    """Give spans from another source unique ids from @first_id on,
    keeping parent links intact. Each source keeps its own clock; self
    time only ever compares a span with its own children."""
    remap = {s["id"]: first_id + i for i, s in enumerate(spans)}
    out = []
    for s in spans:
        t = dict(s)
        t["id"] = remap[s["id"]]
        t["parent"] = remap.get(s["parent"], -1)
        out.append(t)
    return out


# cobra_search --progress markers, in the order the driver prints them.
PROGRESS_STEPS = (
    ("pool:", "search.pool_s"),
    ("tier 0:", "search.tier0_s"),
    ("surrogate:", "search.surrogate_s"),
    ("tier 1:", "search.tier1_s"),
    ("tier 2:", "search.tier2_warp_s"),
    ("tier 3:", "search.tier3_detailed_s"),
    ("frontier:", "search.frontier_s"),
)


def parse_progress(lines, start, end):
    """Tier times from the arrival times of cobra_search --progress
    lines. @lines holds (arrival_time, text) pairs read from stderr;
    @start and @end bracket the process. Each tier's time runs from
    the previous marker (or process start) to its own marker; a tier
    whose line never came (no surrogate when the pool is evaluated
    exhaustively) gets 0. `search.exit_s` is the time after the last
    marker: artifact write-out and process exit."""
    seen = {}
    for t, text in lines:
        body = text.strip()
        if body.startswith("cobra_search: "):
            body = body[len("cobra_search: "):]
        for marker, key in PROGRESS_STEPS:
            if body.startswith(marker) and key not in seen:
                seen[key] = t
    out, prev = {}, start
    for _, key in PROGRESS_STEPS:
        if key in seen:
            out[key] = seen[key] - prev
            prev = seen[key]
        else:
            out[key] = 0.0
    out["search.exit_s"] = end - prev
    out["complete"] = len(seen) >= len(PROGRESS_STEPS) - 1 and \
        "search.frontier_s" in seen
    return out


# Point fields that describe host timing or cache behaviour rather than
# the simulated estimate; everything else must repeat exactly.
HOST_FIELDS = ("wall_seconds", "attempts")
WARP_HOST_FIELDS = ("warm_hits", "ff_insts")


def parse_serve_result(doc):
    """Summary of one cobra_serve result document (parsed JSON):
    status, wall time and warm hits of its single point, and the
    simulated estimate with host-side fields removed."""
    points = doc.get("points") or []
    out = {"status": doc.get("status"), "points": len(points)}
    if len(points) != 1:
        return out
    p = points[0]
    warp = p.get("warp") or {}
    out["point_status"] = p.get("status")
    out["wall_seconds"] = p.get("wall_seconds")
    out["warm_hits"] = warp.get("warm_hits")
    out["intervals"] = warp.get("intervals")
    est = {k: v for k, v in p.items()
           if k not in HOST_FIELDS and k != "warp"}
    est["warp"] = {k: v for k, v in warp.items()
                   if k not in WARP_HOST_FIELDS}
    out["estimate"] = est
    return out


def serve_op_ok(summary, reference, intervals):
    """Output check of one served request: status ok, every interval a
    warm hit, and the estimate equal to the cold priming request's."""
    return (summary.get("status") == "ok"
            and summary.get("point_status") == "ok"
            and summary.get("warm_hits") == intervals
            and summary.get("intervals") == intervals
            and summary.get("estimate") == reference.get("estimate"))
