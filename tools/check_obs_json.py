#!/usr/bin/env python3
"""Validates kappa observability dumps (CI traced-smoke / watched-smoke).

usage:
  check_obs_json.py trace   <trace.json>   <expected_ranks>
  check_obs_json.py metrics <metrics.json> <expected_ranks>
  check_obs_json.py watch   <watch.jsonl>  <expected_ranks> \\
                    [--allow-stalls | --expect-stall]

Stdlib only. Checks the documented shapes (README "Observability"):

trace — Chrome "Trace Event Format": traceEvents is a non-empty list
whose entries carry ph in {M, X, C, i}, pid 0 and an integer tid (the
rank); every rank contributes at least one span; the span taxonomy's
phase spans are present; otherData pins num_ranks and per-rank
dropped/clock-offset arrays of the right length. A nonzero ring-overflow
drop count FAILS the check — the trace silently lost events, so the
buffer (KAPPA_TRACE_BUFFER) must grow.

metrics — schema kappa.metrics.v2: a {"schema", "counters", "metrics"}
document whose entries are {"type", "value"} pairs with the value's JSON
shape matching the declared type; the run keys partition.cut /
run.num_pes / time.total_s / run.backend must be present and run.num_pes
must equal the expected rank count. The counters are checked against
the document's own `counters` declaration, not a key list kept here:
every declared counter {group G, name N, unit, fold} has a u64 total
G.N and a u64[] per-rank list G.per_rank.N with run.num_pes entries, and
the total equals the fold (sum or max) of the list. With more than one
rank, two cross-rank invariants catch a rank reported as silent zeros:
every rank passed the same non-zero number of barriers, and the messages
sent over all ranks equal the messages received.

watch — a kappa-watch JSONL stream (one JSON object per line) mixing
kappa.snapshot.v1 periodic snapshots and kappa.stall.v1 stall reports.
At least one snapshot must be present; snapshot seq values are strictly
increasing per emitting rank; the per-rank table lists every rank
exactly once with a state in {alive, stalled, dead, unknown} and the
delta counters are non-negative integers. A stall report in the stream
FAILS the check — a clean run has none — unless --allow-stalls is
given; --expect-stall inverts that: at least one stall report must be
present and each is shape-checked (progress word, non-empty open-span
stack, recent-event ring, queue depths, peer table).
"""
import json
import sys

VALID_PH = {"M", "X", "C", "i"}
REQUIRED_SPANS = ("phase.coarsen", "phase.initial", "phase.refine")
REQUIRED_METRICS = ("partition.cut", "run.num_pes", "time.total_s",
                    "run.backend")
FOLDS = {"sum": sum, "max": lambda values: max(values, default=0)}


def fail(message):
    print(f"check_obs_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path, ranks):
    with open(path) as handle:
        doc = json.load(handle)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    span_ranks = set()
    span_names = set()
    for event in events:
        ph = event.get("ph")
        if ph not in VALID_PH:
            fail(f"bad ph in event {event!r}")
        if event.get("pid") != 0 or not isinstance(event.get("tid"), int):
            fail(f"bad pid/tid in event {event!r}")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"bad ts in event {event!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"bad dur in event {event!r}")
            span_ranks.add(event["tid"])
            span_names.add(event.get("name"))
    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail("otherData missing")
    if other.get("num_ranks") != ranks:
        fail(f"num_ranks {other.get('num_ranks')!r}, expected {ranks}")
    dropped = other.get("dropped_per_rank")
    offsets = other.get("clock_offset_ns")
    if not isinstance(dropped, list) or len(dropped) != ranks:
        fail(f"dropped_per_rank wrong shape: {dropped!r}")
    if not isinstance(offsets, list) or len(offsets) != ranks:
        fail(f"clock_offset_ns wrong shape: {offsets!r}")
    if any(d != 0 for d in dropped):
        fail(f"ring-overflow drops {dropped} — raise KAPPA_TRACE_BUFFER")
    missing_ranks = set(range(ranks)) - span_ranks
    if missing_ranks:
        fail(f"ranks without any span: {sorted(missing_ranks)}")
    missing_spans = [n for n in REQUIRED_SPANS if n not in span_names]
    if missing_spans:
        fail(f"required spans missing: {missing_spans}")
    print(f"check_obs_json: trace ok — {len(events)} events, "
          f"{len(span_names)} span names, {ranks} ranks, 0 dropped")


def check_metrics(path, ranks):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != "kappa.metrics.v2":
        fail(f"schema {doc.get('schema')!r}, expected kappa.metrics.v2")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        fail("metrics missing or empty")
    shapes = {
        "u64": lambda v: isinstance(v, int) and v >= 0,
        "i64": lambda v: isinstance(v, int),
        "f64": lambda v: isinstance(v, (int, float)) or v is None,
        "str": lambda v: isinstance(v, str),
        "u64[]": lambda v: isinstance(v, list)
        and all(isinstance(x, int) and x >= 0 for x in v),
        "f64[]": lambda v: isinstance(v, list)
        and all(isinstance(x, (int, float)) or x is None for x in v),
    }
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"type", "value"}:
            fail(f"metric {name!r} is not a type/value pair: {entry!r}")
        checker = shapes.get(entry["type"])
        if checker is None:
            fail(f"metric {name!r} has unknown type {entry['type']!r}")
        if not checker(entry["value"]):
            fail(f"metric {name!r} value does not match type "
                 f"{entry['type']!r}: {entry['value']!r}")
    missing = [n for n in REQUIRED_METRICS if n not in metrics]
    if missing:
        fail(f"required metrics missing: {missing}")
    num_pes = metrics["run.num_pes"]["value"]
    if num_pes != ranks:
        fail(f"run.num_pes {num_pes}, expected {ranks}")
    per_rank = check_counters(doc.get("counters"), metrics, num_pes)
    if num_pes > 1:
        barriers = per_rank.get(("comm", "barriers"))
        sent = per_rank.get(("comm", "messages_sent"))
        received = per_rank.get(("comm", "messages_received"))
        if barriers is None or sent is None or received is None:
            fail("comm barriers / messages_sent / messages_received "
                 "not declared")
        if len(set(barriers)) != 1 or barriers[0] == 0:
            fail(f"comm.per_rank.barriers {barriers}: every rank passes "
                 f"the same non-zero number of barriers")
        if sum(sent) != sum(received):
            fail(f"messages sent {sum(sent)} != received {sum(received)} "
                 f"over all ranks ({sent} vs {received})")
    print(f"check_obs_json: metrics ok — {len(metrics)} entries, "
          f"{len(per_rank)} declared counters, {ranks} ranks")


def check_counters(counters, metrics, num_pes):
    """Checks every declared counter's total and per-rank list; returns
    {(group, name): per-rank list}."""
    if not isinstance(counters, list) or not counters:
        fail("counters declaration missing or empty")
    per_rank = {}
    for decl in counters:
        if not isinstance(decl, dict) \
                or set(decl) != {"group", "name", "unit", "fold"} \
                or not all(isinstance(v, str) and v for v in decl.values()):
            fail(f"bad counter declaration {decl!r}")
        if decl["fold"] not in FOLDS:
            fail(f"counter {decl!r} has unknown fold {decl['fold']!r}")
        key = (decl["group"], decl["name"])
        if key in per_rank:
            fail(f"counter {key} declared twice")
        total_name = f"{decl['group']}.{decl['name']}"
        list_name = f"{decl['group']}.per_rank.{decl['name']}"
        total = metrics.get(total_name)
        values = metrics.get(list_name)
        if total is None or total["type"] != "u64":
            fail(f"declared counter {total_name} has no u64 total")
        if values is None or values["type"] != "u64[]":
            fail(f"declared counter {list_name} has no u64[] per-rank list")
        if len(values["value"]) != num_pes:
            fail(f"{list_name} has {len(values['value'])} entries, "
                 f"run.num_pes is {num_pes}")
        folded = FOLDS[decl["fold"]](values["value"])
        if total["value"] != folded:
            fail(f"{total_name} = {total['value']}, but the {decl['fold']} "
                 f"of {list_name} {values['value']} is {folded}")
        per_rank[key] = values["value"]
    return per_rank


VALID_STATES = {"alive", "stalled", "dead", "unknown"}
VALID_LANES = {"app", "collective", "heartbeat"}
SNAPSHOT_DELTAS = ("wire_bytes_sent_delta", "wire_bytes_received_delta",
                   "heartbeat_frames_delta", "heartbeat_words_delta",
                   "pairs_delta", "advances_delta")


def is_u64(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_rank_table(table, ranks, where):
    if not isinstance(table, list) or len(table) != ranks:
        fail(f"{where}: rank table wrong shape (expected {ranks} rows): "
             f"{table!r}")
    seen = set()
    for row in table:
        if not isinstance(row, dict):
            fail(f"{where}: rank table row is not an object: {row!r}")
        for key in ("rank", "level", "iteration", "pairs", "advances",
                    "age_ms"):
            if not is_u64(row.get(key)):
                fail(f"{where}: rank row {key!r} bad: {row!r}")
        if row.get("state") not in VALID_STATES:
            fail(f"{where}: bad state {row.get('state')!r} in {row!r}")
        if not isinstance(row.get("phase"), str):
            fail(f"{where}: bad phase in {row!r}")
        seen.add(row["rank"])
    if seen != set(range(ranks)):
        fail(f"{where}: rank table does not list every rank exactly once: "
             f"{sorted(seen)}")


def check_snapshot(record, ranks, line_no):
    where = f"line {line_no} (snapshot)"
    for key in ("seq", "t_ns", "rank"):
        if not is_u64(record.get(key)):
            fail(f"{where}: {key!r} bad: {record.get(key)!r}")
    if record.get("num_ranks") != ranks:
        fail(f"{where}: num_ranks {record.get('num_ranks')!r}, "
             f"expected {ranks}")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict) or set(metrics) != set(SNAPSHOT_DELTAS):
        fail(f"{where}: metrics key set wrong: {metrics!r}")
    for key in SNAPSHOT_DELTAS:
        if not is_u64(metrics[key]):
            fail(f"{where}: metrics {key!r} bad: {metrics[key]!r}")
    check_rank_table(record.get("ranks"), ranks, where)


def check_stall(record, ranks, line_no):
    where = f"line {line_no} (stall)"
    for key in ("rank", "t_ns", "stalled_ms"):
        if not is_u64(record.get(key)):
            fail(f"{where}: {key!r} bad: {record.get(key)!r}")
    progress = record.get("progress")
    if not isinstance(progress, dict):
        fail(f"{where}: progress missing")
    for key in ("level", "iteration", "pairs", "advances", "last_advance_ns"):
        if not is_u64(progress.get(key)):
            fail(f"{where}: progress {key!r} bad: {progress!r}")
    if not isinstance(progress.get("phase"), str):
        fail(f"{where}: progress phase bad: {progress!r}")
    spans = record.get("open_spans")
    if not isinstance(spans, list) or not spans \
            or not all(isinstance(s, str) for s in spans):
        fail(f"{where}: open_spans must be a non-empty list of span names: "
             f"{spans!r}")
    recent = record.get("recent")
    if not isinstance(recent, list):
        fail(f"{where}: recent missing")
    for event in recent:
        if not isinstance(event, dict) or not isinstance(
                event.get("name"), str) or not is_u64(event.get("t_ns")):
            fail(f"{where}: bad recent event {event!r}")
    depths = record.get("queue_depths")
    if not isinstance(depths, list):
        fail(f"{where}: queue_depths missing")
    for depth in depths:
        if not isinstance(depth, dict) or not is_u64(depth.get("source")) \
                or depth.get("lane") not in VALID_LANES \
                or not is_u64(depth.get("depth")):
            fail(f"{where}: bad queue depth {depth!r}")
    check_rank_table(record.get("peers"), ranks, where)


def check_watch(path, ranks, allow_stalls, expect_stall):
    snapshots = 0
    stalls = 0
    last_seq = {}  # emitting rank -> last snapshot seq
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                fail(f"line {line_no}: not valid JSON ({error})")
            if not isinstance(record, dict):
                fail(f"line {line_no}: record is not an object")
            schema = record.get("schema")
            if schema == "kappa.snapshot.v1":
                check_snapshot(record, ranks, line_no)
                rank, seq = record["rank"], record["seq"]
                if rank in last_seq and seq <= last_seq[rank]:
                    fail(f"line {line_no}: snapshot seq not increasing for "
                         f"rank {rank}: {seq} after {last_seq[rank]}")
                last_seq[rank] = seq
                snapshots += 1
            elif schema == "kappa.stall.v1":
                check_stall(record, ranks, line_no)
                stalls += 1
            else:
                fail(f"line {line_no}: unknown schema {schema!r}")
    if snapshots == 0:
        fail("no kappa.snapshot.v1 records — the sampler never ran")
    if stalls and not (allow_stalls or expect_stall):
        fail(f"{stalls} stall report(s) in a run expected to be clean")
    if expect_stall and stalls == 0:
        fail("--expect-stall, but no kappa.stall.v1 record present")
    print(f"check_obs_json: watch ok — {snapshots} snapshots, "
          f"{stalls} stall reports, {ranks} ranks")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = set(a for a in argv[1:] if a.startswith("--"))
    known_flags = {"--allow-stalls", "--expect-stall"}
    if len(args) != 3 or args[0] not in ("trace", "metrics", "watch") \
            or not flags <= known_flags \
            or (flags and args[0] != "watch"):
        print(__doc__, file=sys.stderr)
        return 2
    kind, path, ranks = args[0], args[1], int(args[2])
    if kind == "trace":
        check_trace(path, ranks)
    elif kind == "metrics":
        check_metrics(path, ranks)
    else:
        check_watch(path, ranks, "--allow-stalls" in flags,
                    "--expect-stall" in flags)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
