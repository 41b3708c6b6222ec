#!/usr/bin/env python3
"""Validates the observability artifacts the REPL can emit.

Four modes, selectable by leading flag (default: Chrome trace):

  check_trace.py trace.json [--require-span NAME]...
      Chrome trace-event JSON from --trace-out: parses, has the
      traceEvents envelope, every event carries pid/tid/ts (dur for
      complete "X" events), and each --require-span name is present.

  check_trace.py --events events.jsonl
      Structured event log from --events-out: every line is a JSON
      object carrying seq / steady_ns / wall_us / type, seq strictly
      increasing, steady_ns monotone non-decreasing.

  check_trace.py --prom metrics.prom
      Prometheus text exposition from --metrics-out: every sample line
      is `name[{labels}] value` with a datacon_-prefixed metric name,
      every metric has a preceding # TYPE, histogram buckets are
      cumulative (monotone in le) and agree with _count at +Inf.

  check_trace.py --agree trace.json events.jsonl metrics.prom
      The three artifacts of one session render the same per-query
      records: every query.finish event matches the `evaluate` span with
      the same eval_index on every count they share, and — when no event
      was dropped — datacon_query_fixpoint_rounds_sum/_count equal the
      sum of the query.finish `rounds` fields and their number. Expects
      events recorded for the whole session (REPL --events-out).

Exits 0 on success, 1 with a diagnostic otherwise.
"""

import json
import math
import re
import sys


def fail(msg):
    print(f"check_trace: {msg}", file=sys.stderr)
    return 1


def check_chrome_trace(path, required):
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail(f"{path}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail(f"{path}: missing traceEvents envelope")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return fail(f"{path}: traceEvents is empty")

    names = set()
    tids = set()
    spans = 0
    for n, event in enumerate(events):
        for field in ("ph", "pid", "tid", "name"):
            if field not in event:
                return fail(f"{path}: event {n} lacks {field!r}: {event}")
        ph = event["ph"]
        if ph == "M":
            continue
        if "ts" not in event:
            return fail(f"{path}: event {n} lacks 'ts': {event}")
        tids.add(event["tid"])
        names.add(event["name"])
        if ph == "X":
            spans += 1
            if "dur" not in event or event["dur"] < 0:
                return fail(f"{path}: X event {n} lacks a valid 'dur': {event}")

    if spans == 0:
        return fail(f"{path}: no complete ('X') span events")
    for name in required:
        if name not in names:
            return fail(
                f"{path}: required span {name!r} absent "
                f"(saw: {', '.join(sorted(names))})"
            )

    print(
        f"check_trace: {path} OK — {len(events)} event(s), {spans} span(s), "
        f"{len(tids)} thread track(s)"
    )
    return 0


def check_events_jsonl(path):
    """--events-out JSONL: parseable, required keys, ordered timestamps."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"{path}: {e}")
    if not lines:
        return fail(f"{path}: no events recorded")

    prev_seq = None
    prev_steady = None
    types = set()
    for n, line in enumerate(lines, start=1):
        try:
            event = json.loads(line)
        except ValueError as e:
            return fail(f"{path}:{n}: not valid JSON: {e}")
        if not isinstance(event, dict):
            return fail(f"{path}:{n}: line is not a JSON object")
        for key in ("seq", "steady_ns", "wall_us", "type"):
            if key not in event:
                return fail(f"{path}:{n}: event lacks {key!r}: {line}")
        if not isinstance(event["type"], str) or not event["type"]:
            return fail(f"{path}:{n}: 'type' is not a non-empty string")
        for key in ("seq", "steady_ns", "wall_us"):
            if not isinstance(event[key], int):
                return fail(f"{path}:{n}: {key!r} is not an integer")
        if prev_seq is not None and event["seq"] <= prev_seq:
            return fail(
                f"{path}:{n}: seq {event['seq']} not strictly "
                f"increasing (previous {prev_seq})"
            )
        if prev_steady is not None and event["steady_ns"] < prev_steady:
            return fail(
                f"{path}:{n}: steady_ns {event['steady_ns']} went "
                f"backwards (previous {prev_steady})"
            )
        prev_seq = event["seq"]
        prev_steady = event["steady_ns"]
        types.add(event["type"])

    print(
        f"check_trace: {path} OK — {len(lines)} event(s), "
        f"{len(types)} type(s): {', '.join(sorted(types))}"
    )
    return 0


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[0-9.eE+\-]+|\+Inf|-Inf|NaN)$"
)


def check_prometheus(path):
    """--metrics-out exposition: TYPE headers, cumulative buckets."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"{path}: {e}")
    if not lines:
        return fail(f"{path}: empty exposition")

    typed = {}       # metric family name -> declared type
    samples = 0
    buckets = {}     # family -> list of (le, value) in order
    counts = {}      # family -> _count value
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "histogram"):
                return fail(f"{path}:{n}: malformed TYPE line: {line}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            return fail(f"{path}:{n}: malformed sample line: {line!r}")
        name = m.group("name")
        if not name.startswith("datacon_"):
            return fail(f"{path}:{n}: metric {name!r} lacks datacon_ prefix")
        value = float(m.group("value"))
        samples += 1
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        declared = typed.get(family) or typed.get(name)
        if declared is None:
            return fail(f"{path}:{n}: sample {name!r} has no # TYPE header")
        if declared == "counter" and not name.endswith("_total"):
            return fail(f"{path}:{n}: counter {name!r} lacks _total suffix")
        if name.endswith("_bucket"):
            labels = m.group("labels") or ""
            le = re.match(r'^le="([^"]*)"$', labels)
            if not le:
                return fail(f"{path}:{n}: bucket lacks an le label: {line}")
            bound = math.inf if le.group(1) == "+Inf" else float(le.group(1))
            buckets.setdefault(family, []).append((bound, value))
        elif name.endswith("_count"):
            counts[family] = value

    for family, series in buckets.items():
        bounds = [b for b, _ in series]
        values = [v for _, v in series]
        if bounds != sorted(bounds):
            return fail(f"{path}: {family} bucket bounds not sorted")
        if values != sorted(values):
            return fail(f"{path}: {family} buckets not cumulative: {values}")
        if not bounds or bounds[-1] != math.inf:
            return fail(f"{path}: {family} lacks a +Inf bucket")
        if family not in counts:
            return fail(f"{path}: {family} lacks a _count sample")
        if counts[family] != values[-1]:
            return fail(
                f"{path}: {family} _count {counts[family]} disagrees "
                f"with +Inf bucket {values[-1]}"
            )

    if samples == 0:
        return fail(f"{path}: no sample lines")
    print(
        f"check_trace: {path} OK — {samples} sample(s), "
        f"{len(typed)} metric familie(s), {len(buckets)} histogram(s)"
    )
    return 0


def _load_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f.read().splitlines()]


def check_agree(trace_path, events_path, prom_path):
    """query.finish vs evaluate spans vs the query.* histograms."""
    try:
        with open(trace_path, "rb") as f:
            trace = json.load(f)
        events = _load_jsonl(events_path)
        with open(prom_path, "r", encoding="utf-8") as f:
            prom = f.read().splitlines()
    except (OSError, ValueError) as e:
        return fail(f"--agree: {e}")

    spans = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X" and event.get("name") == "evaluate":
            args = event.get("args", {})
            if "eval_index" not in args:
                return fail(f"{trace_path}: evaluate span lacks eval_index")
            spans[args["eval_index"]] = args
    finishes = [e for e in events if e.get("type") == "query.finish"]
    if not finishes:
        return fail(f"{events_path}: no query.finish events")

    for finish in finishes:
        index = finish.get("eval_index")
        span = spans.get(index)
        if span is None:
            return fail(f"{trace_path}: no evaluate span for eval_index {index}")
        shared = [k for k in finish if k in span and isinstance(finish[k], int)]
        for key in shared:
            if finish[key] != span[key]:
                return fail(
                    f"eval_index {index}: query.finish {key}={finish[key]} "
                    f"but evaluate span {key}={span[key]}"
                )

    dropped = bool(events) and events[0]["seq"] != 0
    if not dropped:
        samples = {}
        for line in prom:
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#"):
                samples[parts[0]] = float(parts[1])
        family = "datacon_query_fixpoint_rounds"
        rounds = sum(f.get("rounds", 0) for f in finishes)
        if samples.get(family + "_sum") != rounds:
            return fail(
                f"{prom_path}: {family}_sum {samples.get(family + '_sum')} "
                f"!= sum of query.finish rounds {rounds}"
            )
        if samples.get(family + "_count") != len(finishes):
            return fail(
                f"{prom_path}: {family}_count "
                f"{samples.get(family + '_count')} != {len(finishes)} "
                f"query.finish event(s)"
            )

    print(
        f"check_trace: --agree OK — {len(finishes)} evaluation(s) agree "
        f"across trace, events"
        + (" (events dropped: histograms not compared)" if dropped
           else " and metrics")
    )
    return 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "--events":
        if len(argv) != 3:
            return fail("usage: check_trace.py --events events.jsonl")
        return check_events_jsonl(argv[2])
    if len(argv) >= 3 and argv[1] == "--prom":
        if len(argv) != 3:
            return fail("usage: check_trace.py --prom metrics.prom")
        return check_prometheus(argv[2])
    if len(argv) >= 2 and argv[1] == "--agree":
        if len(argv) != 5:
            return fail(
                "usage: check_trace.py --agree trace.json events.jsonl "
                "metrics.prom"
            )
        return check_agree(argv[2], argv[3], argv[4])
    if len(argv) < 2:
        return fail(
            "usage: check_trace.py trace.json [--require-span NAME]... | "
            "--events events.jsonl | --prom metrics.prom | "
            "--agree trace.json events.jsonl metrics.prom"
        )
    path = argv[1]
    required = []
    i = 2
    while i < len(argv):
        if argv[i] == "--require-span" and i + 1 < len(argv):
            required.append(argv[i + 1])
            i += 2
        else:
            return fail(f"unknown argument {argv[i]!r}")
    return check_chrome_trace(path, required)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
