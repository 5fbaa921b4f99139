//! JSON support for the benchmark harness: schema validators for every
//! document the simulator and the bench binaries write.
//!
//! The workspace deliberately has no external dependencies, so the
//! `BENCH_*.json` files and the simulator's reports are written with plain
//! format strings. They are read back through the workspace's one JSON
//! reader and escaper, [`hypersio_types::json`], re-exported here, and the
//! validators below pin each format's shape (required fields and their
//! types) in CI.

pub use hypersio_types::json::{escape, parse, Json, ParseError};

/// Checks that `doc` matches the `bench_hotpath/v1` schema (see the
/// `bench_hotpath` binary): required top-level fields, a non-empty `cases`
/// array, and every per-case metric present with the right type — including
/// the per-stage timing block every current build emits. Threshold checks
/// are deliberately out of scope — CI runners are not comparable machines;
/// only the *shape* of the output is pinned.
pub fn validate_hotpath_schema(doc: &Json) -> Result<(), String> {
    validate_hotpath_doc(doc, true)
}

/// [`validate_hotpath_schema`] minus the `stages` requirement: the check a
/// document must pass to be *embedded as a baseline*, since a baseline may
/// come from a build that predates per-stage timing.
pub fn validate_hotpath_baseline(doc: &Json) -> Result<(), String> {
    validate_hotpath_doc(doc, false)
}

/// The five `stages` timers every case of a current build carries.
const STAGE_FIELDS: [&str; 5] = [
    "arrival_ns",
    "prefetch_ns",
    "lookup_ns",
    "walk_ns",
    "completion_ns",
];

/// Schema body shared between the top-level document and an embedded
/// baseline. `require_stages` is relaxed for the baseline: a baseline may
/// come from a build that predates per-stage timing, but when the block is
/// present it must still be well-formed.
fn validate_hotpath_doc(doc: &Json, require_stages: bool) -> Result<(), String> {
    let obj = doc.as_obj().ok_or("top level must be an object")?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("bench_hotpath/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing string field 'schema'".into()),
    }
    for field in ["scale", "warmup_packets", "peak_rss_bytes"] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field '{field}'"))?;
    }
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'cases'")?;
    if cases.is_empty() {
        return Err("'cases' must not be empty".into());
    }
    for (i, case) in cases.iter().enumerate() {
        case.get("config")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("case {i}: missing string field 'config'"))?;
        for field in [
            "tenants",
            "wall_s",
            "packets",
            "packets_per_sec",
            "translation_requests",
            "ns_per_translation",
            "utilization",
        ] {
            case.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("case {i}: missing numeric field '{field}'"))?;
        }
        match case.get("stages") {
            Some(stages) => {
                for field in STAGE_FIELDS {
                    stages.get(field).and_then(Json::as_num).ok_or_else(|| {
                        format!("case {i}: stages: missing numeric field '{field}'")
                    })?;
                }
            }
            None if require_stages => {
                return Err(format!("case {i}: missing object field 'stages'"));
            }
            None => {}
        }
        // `arch` names the walk geometry the case ran under ("x86-4",
        // "sv39x4", ...). Required in current builds; a baseline may
        // predate the field, but when present it must be a string.
        match case.get("arch") {
            Some(arch) => {
                arch.as_str()
                    .ok_or_else(|| format!("case {i}: 'arch' must be a string"))?;
            }
            None if require_stages => {
                return Err(format!("case {i}: missing string field 'arch'"));
            }
            None => {}
        }
    }
    // `baseline`, when present, must itself be a schema-valid document
    // (minus the stages requirement: it may predate per-stage timing).
    if let Some(baseline) = obj.get("baseline") {
        validate_hotpath_doc(baseline, false).map_err(|e| format!("baseline: {e}"))?;
    }
    Ok(())
}

/// Checks that `doc` matches the `bench_scale/v1` schema (see the
/// `bench_scale` binary): required top-level fields and a non-empty
/// `points` array with every per-point metric present and the tenant
/// counts strictly ascending. The ordering is part of the schema because
/// the RSS protocol depends on it: Linux's `VmHWM` watermark is monotone
/// over the process lifetime, so per-point peaks are honest upper bounds
/// only when the points run smallest-first. Thresholds are out of scope —
/// only the shape is pinned.
pub fn validate_scale_schema(doc: &Json) -> Result<(), String> {
    doc.as_obj().ok_or("top level must be an object")?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("bench_scale/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing string field 'schema'".into()),
    }
    for field in [
        "requests_per_tenant",
        "warmup_packets",
        "table_budget_bytes",
    ] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field '{field}'"))?;
    }
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'points'")?;
    if points.is_empty() {
        return Err("'points' must not be empty".into());
    }
    let mut prev_tenants = 0.0f64;
    for (i, point) in points.iter().enumerate() {
        for field in [
            "tenants",
            "wall_s",
            "packets",
            "packets_per_sec",
            "translation_requests",
            "utilization",
            "peak_rss_bytes",
            "dram_reads_per_packet",
        ] {
            point
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("point {i}: missing numeric field '{field}'"))?;
        }
        let tenants = point.get("tenants").and_then(Json::as_num).unwrap_or(0.0);
        if tenants <= prev_tenants {
            return Err(format!(
                "point {i}: tenant counts must be strictly ascending \
                 (the VmHWM peak-RSS watermark is monotone)"
            ));
        }
        prev_tenants = tenants;
    }
    Ok(())
}

/// Checks one `"name": {hits, misses, evictions, hit_rate}` cache block.
fn validate_cache_block(doc: &Json, name: &str) -> Result<(), String> {
    let block = doc
        .get(name)
        .ok_or_else(|| format!("missing object field '{name}'"))?;
    for field in ["hits", "misses", "evictions", "hit_rate"] {
        block
            .get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{name}: missing numeric field '{field}'"))?;
    }
    Ok(())
}

/// Checks one `{count, mean, p50, p95, p99, max}` latency-summary block.
fn validate_latency_block(value: &Json, ctx: &str) -> Result<(), String> {
    for field in ["count", "mean", "p50", "p95", "p99", "max"] {
        value
            .get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{ctx}: missing numeric field '{field}'"))?;
    }
    Ok(())
}

/// The six additive latency components of the span layer, as they appear
/// both in the report's `latency_breakdown.components_ps` object and as
/// child-slice names in a `hypersio-spans/v1` trace.
const SPAN_COMPONENT_FIELDS: [&str; 6] = [
    "lookup",
    "ptb_wait",
    "pcie",
    "walk",
    "retry_wait",
    "pri_wait",
];

/// Checks that `doc` matches the `sim_report/v1` schema emitted by
/// `SimReport::to_json` (the `--report-json` CLI output): every headline
/// counter, the four cache blocks, the IOMMU block, the latency summary,
/// and — when per-tenant collection was enabled — the fairness summary and
/// one well-formed entry per tenant. Value thresholds are out of scope;
/// only the shape is pinned.
pub fn validate_report_schema(doc: &Json) -> Result<(), String> {
    doc.as_obj().ok_or("top level must be an object")?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("sim_report/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing string field 'schema'".into()),
    }
    for field in ["config", "workload", "interleaving"] {
        doc.get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field '{field}'"))?;
    }
    for field in [
        "tenants",
        "packets_processed",
        "packets_dropped",
        "drop_fraction",
        "bytes",
        "elapsed_ps",
        "gbps",
        "utilization",
        "translation_requests",
        "pb_served_fraction",
        "prefetches_issued",
        "prefetch_fills_late",
        "prefetch_fills_expired",
    ] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field '{field}'"))?;
    }
    for cache in ["devtlb", "prefetch_buffer", "l2_cache", "l3_cache"] {
        validate_cache_block(doc, cache)?;
    }
    let iommu = doc.get("iommu").ok_or("missing object field 'iommu'")?;
    for field in ["requests", "dram_accesses", "full_walks", "faults"] {
        iommu
            .get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("iommu: missing numeric field '{field}'"))?;
    }
    let latency = doc
        .get("latency_ps")
        .ok_or("missing object field 'latency_ps'")?;
    validate_latency_block(latency, "latency_ps")?;
    match doc.get("latency_breakdown") {
        None => return Err("missing field 'latency_breakdown' (may be null)".into()),
        Some(Json::Null) => {}
        Some(lb) => {
            lb.get("packets")
                .and_then(Json::as_num)
                .ok_or("latency_breakdown: missing numeric field 'packets'")?;
            let comps = lb
                .get("components_ps")
                .ok_or("latency_breakdown: missing object field 'components_ps'")?;
            for field in SPAN_COMPONENT_FIELDS {
                comps.get(field).and_then(Json::as_num).ok_or_else(|| {
                    format!("latency_breakdown components_ps: missing numeric field '{field}'")
                })?;
            }
            for field in ["service_ps", "wait_ps", "total_ps"] {
                lb.get(field)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("latency_breakdown: missing numeric field '{field}'"))?;
            }
            match lb.get("per_tenant") {
                None => {
                    return Err(
                        "latency_breakdown: missing field 'per_tenant' (may be null)".into(),
                    )
                }
                Some(Json::Null) => {}
                Some(rows) => {
                    let rows = rows
                        .as_arr()
                        .ok_or("latency_breakdown: 'per_tenant' must be null or an array")?;
                    for (i, row) in rows.iter().enumerate() {
                        for field in ["did", "packets", "total_ps"] {
                            row.get(field).and_then(Json::as_num).ok_or_else(|| {
                                format!(
                                    "latency_breakdown tenant {i}: missing numeric field '{field}'"
                                )
                            })?;
                        }
                        let comps = row.get("components_ps").ok_or_else(|| {
                            format!(
                                "latency_breakdown tenant {i}: missing object field \
                                 'components_ps'"
                            )
                        })?;
                        for field in SPAN_COMPONENT_FIELDS {
                            comps.get(field).and_then(Json::as_num).ok_or_else(|| {
                                format!(
                                    "latency_breakdown tenant {i}: missing numeric field '{field}'"
                                )
                            })?;
                        }
                    }
                }
            }
        }
    }
    match doc.get("per_tenant") {
        None => return Err("missing field 'per_tenant' (may be null)".into()),
        Some(Json::Null) => {}
        Some(pt) => {
            let fairness = pt
                .get("fairness")
                .ok_or("per_tenant: missing object field 'fairness'")?;
            for field in ["min_packets", "max_packets", "jain"] {
                fairness
                    .get(field)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("fairness: missing numeric field '{field}'"))?;
            }
            let tenants = pt
                .get("tenants")
                .and_then(Json::as_arr)
                .ok_or("per_tenant: missing array field 'tenants'")?;
            for (i, t) in tenants.iter().enumerate() {
                for field in [
                    "did",
                    "packets",
                    "bytes",
                    "drops",
                    "devtlb_hits",
                    "devtlb_misses",
                    "pb_hits",
                ] {
                    t.get(field)
                        .and_then(Json::as_num)
                        .ok_or_else(|| format!("tenant {i}: missing numeric field '{field}'"))?;
                }
                let lat = t
                    .get("latency_ps")
                    .ok_or_else(|| format!("tenant {i}: missing object field 'latency_ps'"))?;
                validate_latency_block(lat, &format!("tenant {i} latency_ps"))?;
            }
        }
    }
    Ok(())
}

/// Checks that `doc` matches the `hypersio-timeseries/v1` schema emitted
/// by `TimeSeriesSampler::to_json` (the `--timeseries-out` CLI output with
/// a `.json` path): the window size, the nominal link rate, and every
/// per-window metric.
pub fn validate_timeseries_schema(doc: &Json) -> Result<(), String> {
    doc.as_obj().ok_or("top level must be an object")?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hypersio-timeseries/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing string field 'schema'".into()),
    }
    for field in ["window_ps", "link_gbps"] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field '{field}'"))?;
    }
    let windows = doc
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'windows'")?;
    for (i, w) in windows.iter().enumerate() {
        for field in [
            "start_us",
            "packets",
            "drops",
            "gbps",
            "utilization",
            "devtlb_hit_rate",
            "pb_hits",
            "walks_done",
            "ptb_occupancy",
            "walks_in_flight",
            "faulted_drops",
        ] {
            w.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("window {i}: missing numeric field '{field}'"))?;
        }
    }
    Ok(())
}

/// Checks an `hypersio-events/v1` JSON Lines trace (the `--trace-out` CLI
/// output): the meta line's schema tag and bookkeeping fields, that every
/// following line is a JSON object with a timestamp and a kind, that the
/// resilience kind (`memory_pressure`) carries its full payload, and that
/// the meta line's `recorded` count matches the number of event lines.
pub fn validate_events_jsonl(text: &str) -> Result<(), String> {
    let mut lines = text.lines();
    let meta_line = lines.next().ok_or("empty trace")?;
    let meta = parse(meta_line).map_err(|e| format!("meta line: {e}"))?;
    match meta.get("schema").and_then(Json::as_str) {
        Some("hypersio-events/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("meta line: missing string field 'schema'".into()),
    }
    for field in ["recorded", "overwritten", "record_bytes"] {
        meta.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("meta line: missing numeric field '{field}'"))?;
    }
    let mut events = 0u64;
    for (i, line) in lines.enumerate() {
        let ev = parse(line).map_err(|e| format!("event line {}: {e}", i + 1))?;
        ev.get("t_ps")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event line {}: missing numeric field 't_ps'", i + 1))?;
        let kind = ev
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event line {}: missing string field 'kind'", i + 1))?;
        // The run-resilience kind carries a payload an operator acts on
        // (how much memory was shed); pin it.
        let required: &[&str] = match kind {
            "memory_pressure" => &["rss_bytes", "shed_entries"],
            _ => &[],
        };
        for field in required {
            ev.get(field).and_then(Json::as_num).ok_or_else(|| {
                format!(
                    "event line {}: '{kind}' missing numeric field '{field}'",
                    i + 1
                )
            })?;
        }
        events += 1;
    }
    let recorded = meta.get("recorded").and_then(Json::as_num).unwrap_or(0.0) as u64;
    if recorded != events {
        return Err(format!(
            "meta says {recorded} recorded events, found {events} lines"
        ));
    }
    Ok(())
}

/// Checks that `doc` matches the `hypersio-spans/v1` schema emitted by
/// `write_chrome_trace` (the `--spans-out` CLI output): the bookkeeping
/// header, and a `traceEvents` array in Chrome trace-event form — metadata
/// (`ph:"M"`) records plus complete (`ph:"X"`) slices, where every slice
/// carries `pid`/`tid`/`ts`/`dur` and every `"packet"` slice carries the
/// span args. The number of `"packet"` slices must equal `recorded`, and
/// every non-packet slice name must be one of the six latency components.
pub fn validate_spans_schema(doc: &Json) -> Result<(), String> {
    doc.as_obj().ok_or("top level must be an object")?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hypersio-spans/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing string field 'schema'".into()),
    }
    for field in ["recorded", "overwritten"] {
        doc.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field '{field}'"))?;
    }
    doc.get("truncated")
        .and_then(Json::as_bool)
        .ok_or("missing boolean field 'truncated'")?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'traceEvents'")?;
    let mut packets = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string field 'name'"))?;
        match ev.get("ph").and_then(Json::as_str) {
            Some("M") => {}
            Some("X") => {
                for field in ["pid", "tid", "ts", "dur"] {
                    ev.get(field)
                        .and_then(Json::as_num)
                        .ok_or_else(|| format!("event {i}: missing numeric field '{field}'"))?;
                }
                if name == "packet" {
                    packets += 1;
                    let args = ev
                        .get("args")
                        .ok_or_else(|| format!("event {i}: packet slice missing 'args'"))?;
                    for field in [
                        "seq",
                        "did",
                        "sid",
                        "latency_ps",
                        "ptb_retries",
                        "fault_retries",
                    ] {
                        args.get(field).and_then(Json::as_num).ok_or_else(|| {
                            format!("event {i}: args: missing numeric field '{field}'")
                        })?;
                    }
                } else if !SPAN_COMPONENT_FIELDS.contains(&name) {
                    return Err(format!("event {i}: unknown slice name '{name}'"));
                }
            }
            Some(other) => return Err(format!("event {i}: unknown phase '{other}'")),
            None => return Err(format!("event {i}: missing string field 'ph'")),
        }
    }
    let recorded = doc.get("recorded").and_then(Json::as_num).unwrap_or(0.0) as u64;
    if recorded != packets {
        return Err(format!(
            "header says {recorded} recorded spans, found {packets} packet slices"
        ));
    }
    Ok(())
}

/// FNV-1a over 64 bits — the checksum the `hypersio-checkpoint/v1` writer
/// uses, reimplemented here so the validator stays independent of the
/// simulator crate's encoder (a drift in either side fails CI).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parses a `"0x..."` 64-bit hex string header field.
fn checkpoint_hex(doc: &Json, field: &str) -> Result<u64, String> {
    let s = doc
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{field}'"))?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("'{field}' must be a 0x-prefixed hex string"))?;
    u64::from_str_radix(digits, 16)
        .map_err(|_| format!("'{field}' must be a 0x-prefixed hex string"))
}

/// Checks an `hypersio-checkpoint/v1` file (the `--checkpoint-out` CLI
/// output): one JSON header line carrying the schema tag, the run
/// identity (`config`, `tenants`, `fingerprint`), and the body's shape
/// (`words`, `crc`) — followed by a binary little-endian `u64` body whose
/// length and FNV-1a-64 checksum must match the header. Whether the body
/// decodes into a *run's* state is out of scope (that needs the run's
/// immutable inputs); this pins the container format.
pub fn validate_checkpoint(bytes: &[u8]) -> Result<(), String> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("no header line (missing newline)")?;
    let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| "header is not UTF-8")?;
    let doc = parse(header).map_err(|e| format!("header: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hypersio-checkpoint/v1") => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing string field 'schema'".into()),
    }
    doc.get("config")
        .and_then(Json::as_str)
        .ok_or("missing string field 'config'")?;
    doc.get("tenants")
        .and_then(Json::as_u64)
        .ok_or("missing whole-number field 'tenants'")?;
    checkpoint_hex(&doc, "fingerprint")?;
    let crc = checkpoint_hex(&doc, "crc")?;
    let words = doc
        .get("words")
        .and_then(Json::as_u64)
        .ok_or("missing whole-number field 'words'")?;
    let body = &bytes[newline + 1..];
    if body.len() as u64 != words * 8 {
        return Err(format!(
            "header promises {words} words ({} bytes), body has {} bytes",
            words * 8,
            body.len()
        ));
    }
    let actual = fnv1a64(body);
    if actual != crc {
        return Err(format!(
            "body checksum mismatch: header says {crc:#018x}, body hashes to {actual:#018x}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> String {
        r#"{
            "schema": "bench_hotpath/v1",
            "scale": 400, "warmup_packets": 2000, "peak_rss_bytes": 1048576,
            "cases": [{
                "config": "HyperTRIO", "arch": "x86-4", "tenants": 128, "wall_s": 1.5,
                "packets": 100, "packets_per_sec": 66.6,
                "translation_requests": 300, "ns_per_translation": 5000.0,
                "utilization": 0.8,
                "stages": {"arrival_ns": 100, "prefetch_ns": 200, "lookup_ns": 300,
                           "walk_ns": 400, "completion_ns": 500}
            }]
        }"#
        .to_string()
    }

    /// A case without the `stages` block or the `arch` field, as
    /// pre-timing, pre-geometry builds emitted.
    fn legacy_doc() -> String {
        let doc = valid_doc().replace(r#""arch": "x86-4", "#, "");
        let start = doc.find(",\n                \"stages\"").unwrap();
        let end = doc[start..].find('}').unwrap() + start + 1;
        format!("{}{}", &doc[..start], &doc[end..])
    }

    #[test]
    fn schema_accepts_valid_output() {
        let doc = parse(&valid_doc()).unwrap();
        assert_eq!(validate_hotpath_schema(&doc), Ok(()));
    }

    #[test]
    fn schema_accepts_embedded_baseline() {
        let with_baseline = format!(
            r#"{{"schema": "bench_hotpath/v1", "scale": 1, "warmup_packets": 0,
                "peak_rss_bytes": 0, "baseline": {},
                "cases": [{{"config": "Base", "arch": "x86-4", "tenants": 128, "wall_s": 1,
                "packets": 1, "packets_per_sec": 1, "translation_requests": 3,
                "ns_per_translation": 1, "utilization": 0.5,
                "stages": {{"arrival_ns": 1, "prefetch_ns": 1, "lookup_ns": 1,
                            "walk_ns": 1, "completion_ns": 1}}}}]}}"#,
            valid_doc()
        );
        let doc = parse(&with_baseline).unwrap();
        assert_eq!(validate_hotpath_schema(&doc), Ok(()));
    }

    #[test]
    fn schema_rejects_missing_fields() {
        let doc = parse(r#"{"schema": "bench_hotpath/v1", "cases": []}"#).unwrap();
        assert!(validate_hotpath_schema(&doc).is_err());
        let doc = parse(&valid_doc().replace("ns_per_translation", "nanos")).unwrap();
        let err = validate_hotpath_schema(&doc).unwrap_err();
        assert!(err.contains("ns_per_translation"), "{err}");
        let doc = parse(&valid_doc().replace("bench_hotpath/v1", "v999")).unwrap();
        assert!(validate_hotpath_schema(&doc).is_err());
    }

    #[test]
    fn schema_requires_stages_in_current_output() {
        // A current-build document must carry the per-stage block...
        let doc = parse(&legacy_doc()).unwrap();
        let err = validate_hotpath_schema(&doc).unwrap_err();
        assert!(err.contains("stages"), "{err}");
        // ...complete: a half-present block is rejected everywhere.
        let doc = parse(&valid_doc().replace("walk_ns", "walker_ns")).unwrap();
        let err = validate_hotpath_schema(&doc).unwrap_err();
        assert!(err.contains("walk_ns"), "{err}");
    }

    #[test]
    fn schema_requires_arch_in_current_output() {
        // A current-build case must name its walk geometry...
        let doc = parse(&valid_doc().replace(r#""arch": "x86-4", "#, "")).unwrap();
        let err = validate_hotpath_schema(&doc).unwrap_err();
        assert!(err.contains("arch"), "{err}");
        // ...as a string, everywhere.
        let doc = parse(&valid_doc().replace(r#""arch": "x86-4""#, r#""arch": 4"#)).unwrap();
        let err = validate_hotpath_schema(&doc).unwrap_err();
        assert!(err.contains("arch"), "{err}");
        // A baseline from a pre-geometry build is tolerated: legacy_doc
        // carries no arch and passes the baseline check.
        assert_eq!(
            validate_hotpath_baseline(&parse(&legacy_doc()).unwrap()),
            Ok(())
        );
    }

    #[test]
    fn schema_tolerates_stageless_baseline() {
        // An embedded baseline may come from a build that predates
        // per-stage timing — stages is optional there, but the current
        // cases still require it.
        let with_old_baseline = format!(
            r#"{{"schema": "bench_hotpath/v1", "scale": 1, "warmup_packets": 0,
                "peak_rss_bytes": 0, "baseline": {},
                "cases": [{{"config": "Base", "arch": "x86-4", "tenants": 128, "wall_s": 1,
                "packets": 1, "packets_per_sec": 1, "translation_requests": 3,
                "ns_per_translation": 1, "utilization": 0.5,
                "stages": {{"arrival_ns": 1, "prefetch_ns": 1, "lookup_ns": 1,
                            "walk_ns": 1, "completion_ns": 1}}}}]}}"#,
            legacy_doc()
        );
        let doc = parse(&with_old_baseline).unwrap();
        assert_eq!(validate_hotpath_schema(&doc), Ok(()));
        // A stages block the baseline *does* carry must still be complete.
        let bad = with_old_baseline.replace(&legacy_doc(), &valid_doc().replace("lookup_ns", "l"));
        let err = validate_hotpath_schema(&parse(&bad).unwrap()).unwrap_err();
        assert!(
            err.contains("baseline") && err.contains("lookup_ns"),
            "{err}"
        );
    }

    fn valid_scale_doc() -> String {
        r#"{
            "schema": "bench_scale/v1",
            "requests_per_tenant": 24, "warmup_packets": 1000,
            "table_budget_bytes": 268435456,
            "points": [
                {"tenants": 1000, "wall_s": 0.1, "packets": 8000,
                 "packets_per_sec": 80000.0, "translation_requests": 24000,
                 "utilization": 0.9, "peak_rss_bytes": 10485760,
                 "dram_reads_per_packet": 20.5},
                {"tenants": 10000, "wall_s": 1.0, "packets": 80000,
                 "packets_per_sec": 80000.0, "translation_requests": 240000,
                 "utilization": 0.8, "peak_rss_bytes": 20971520,
                 "dram_reads_per_packet": 31.25}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn scale_schema_accepts_valid_output() {
        let doc = parse(&valid_scale_doc()).unwrap();
        assert_eq!(validate_scale_schema(&doc), Ok(()));
    }

    #[test]
    fn scale_schema_rejects_missing_fields_and_wrong_schema() {
        let doc = parse(&valid_scale_doc().replace("peak_rss_bytes", "rss")).unwrap();
        let err = validate_scale_schema(&doc).unwrap_err();
        assert!(err.contains("peak_rss_bytes"), "{err}");
        let doc = parse(&valid_scale_doc().replace("table_budget_bytes", "budget")).unwrap();
        assert!(validate_scale_schema(&doc).is_err());
        let doc = parse(&valid_scale_doc().replace("dram_reads_per_packet", "reads")).unwrap();
        let err = validate_scale_schema(&doc).unwrap_err();
        assert!(err.contains("dram_reads_per_packet"), "{err}");
        let doc = parse(&valid_scale_doc().replace("bench_scale/v1", "v999")).unwrap();
        assert!(validate_scale_schema(&doc).is_err());
        let doc = parse(
            r#"{"schema": "bench_scale/v1", "requests_per_tenant": 1,
            "warmup_packets": 0, "table_budget_bytes": 0, "points": []}"#,
        )
        .unwrap();
        let err = validate_scale_schema(&doc).unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");
    }

    #[test]
    fn scale_schema_requires_ascending_tenant_counts() {
        // Descending (or equal) points would make the monotone VmHWM
        // watermark attribute a large run's RSS to a small one.
        let doc =
            parse(&valid_scale_doc().replace("\"tenants\": 10000", "\"tenants\": 500")).unwrap();
        let err = validate_scale_schema(&doc).unwrap_err();
        assert!(err.contains("ascending"), "{err}");
    }

    fn valid_report() -> String {
        let cache = r#"{"hits": 1, "misses": 2, "evictions": 0, "hit_rate": 0.33}"#;
        let latency = r#"{"count": 3, "mean": 10, "p50": 9, "p95": 12, "p99": 12, "max": 12}"#;
        format!(
            r#"{{
                "schema": "sim_report/v1",
                "config": "HyperTRIO", "workload": "websearch", "interleaving": "RR1",
                "tenants": 2, "packets_processed": 3, "packets_dropped": 0,
                "drop_fraction": 0, "bytes": 4626, "elapsed_ps": 100000,
                "gbps": 198.5, "utilization": 0.99, "translation_requests": 9,
                "devtlb": {cache}, "prefetch_buffer": {cache},
                "pb_served_fraction": 0.1, "prefetches_issued": 4,
                "prefetch_fills_late": 0, "prefetch_fills_expired": 0,
                "iommu": {{"requests": 2, "dram_accesses": 5, "full_walks": 1, "faults": 0}},
                "l2_cache": {cache}, "l3_cache": {cache},
                "latency_ps": {latency},
                "latency_breakdown": null,
                "per_tenant": {{
                    "fairness": {{"min_packets": 1, "max_packets": 2, "jain": 0.9}},
                    "tenants": [{{"did": 0, "packets": 1, "bytes": 1542, "drops": 0,
                                  "devtlb_hits": 1, "devtlb_misses": 2, "pb_hits": 0,
                                  "latency_ps": {latency}}}]
                }}
            }}"#
        )
    }

    #[test]
    fn report_schema_accepts_valid_document() {
        let doc = parse(&valid_report()).unwrap();
        assert_eq!(validate_report_schema(&doc), Ok(()));
        // `per_tenant` may be null when collection was not enabled.
        let doc = parse(&{
            let s = valid_report();
            let cut = s.find("\"per_tenant\"").unwrap();
            format!("{}\"per_tenant\": null }}", &s[..cut])
        })
        .unwrap();
        assert_eq!(validate_report_schema(&doc), Ok(()));
    }

    #[test]
    fn report_schema_rejects_missing_fields() {
        let doc = parse(&valid_report().replace("translation_requests", "xlations")).unwrap();
        let err = validate_report_schema(&doc).unwrap_err();
        assert!(err.contains("translation_requests"), "{err}");
        let doc = parse(&valid_report().replace("\"p99\": 12", "\"p99\": \"12\"")).unwrap();
        assert!(validate_report_schema(&doc).is_err());
        let doc = parse(&valid_report().replace("sim_report/v1", "sim_report/v2")).unwrap();
        assert!(validate_report_schema(&doc).is_err());
        let doc = parse(&valid_report().replace("\"jain\": 0.9", "\"jain\": null")).unwrap();
        let err = validate_report_schema(&doc).unwrap_err();
        assert!(err.contains("jain"), "{err}");
    }

    fn breakdown_block() -> String {
        let comps = r#"{"lookup": 10, "ptb_wait": 5, "pcie": 9, "walk": 4,
                        "retry_wait": 2, "pri_wait": 0}"#;
        format!(
            r#"{{"packets": 3, "components_ps": {comps},
                 "service_ps": 28, "wait_ps": 2, "total_ps": 30,
                 "per_tenant": [{{"did": 0, "packets": 3,
                                  "components_ps": {comps}, "total_ps": 30}}]}}"#
        )
    }

    #[test]
    fn report_schema_validates_latency_breakdown() {
        // Null is accepted (spans off) — exercised by valid_report().
        // A populated block must be complete.
        let with_block = valid_report().replace(
            "\"latency_breakdown\": null",
            &format!("\"latency_breakdown\": {}", breakdown_block()),
        );
        let doc = parse(&with_block).unwrap();
        assert_eq!(validate_report_schema(&doc), Ok(()));
        // A missing component key is rejected.
        let doc = parse(&with_block.replace("\"retry_wait\"", "\"retrywait\"")).unwrap();
        let err = validate_report_schema(&doc).unwrap_err();
        assert!(err.contains("retry_wait"), "{err}");
        // The field itself must be present (null or object).
        let cut = valid_report().replace("\"latency_breakdown\": null,", "");
        let err = validate_report_schema(&parse(&cut).unwrap()).unwrap_err();
        assert!(err.contains("latency_breakdown"), "{err}");
    }

    fn valid_spans_doc() -> String {
        r#"{
            "schema": "hypersio-spans/v1", "displayTimeUnit": "ns",
            "recorded": 1, "overwritten": 0, "truncated": false,
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "hypersio packets"}},
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
                 "args": {"name": "did 0"}},
                {"name": "packet", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": 2.2,
                 "args": {"seq": 0, "did": 0, "sid": 0, "latency_ps": 2200000,
                          "ptb_retries": 0, "fault_retries": 0}},
                {"name": "lookup", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": 0.002},
                {"name": "walk", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0.002, "dur": 2.198}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn spans_schema_accepts_valid_document() {
        let doc = parse(&valid_spans_doc()).unwrap();
        assert_eq!(validate_spans_schema(&doc), Ok(()));
    }

    #[test]
    fn spans_schema_rejects_malformed_documents() {
        for (mutation, needle) in [
            (
                valid_spans_doc().replace("hypersio-spans/v1", "spans/v9"),
                "unknown schema",
            ),
            (
                valid_spans_doc().replace("\"truncated\": false,", ""),
                "truncated",
            ),
            (valid_spans_doc().replace("\"dur\": 2.2,", ""), "dur"),
            (
                valid_spans_doc().replace("\"name\": \"walk\"", "\"name\": \"warp\""),
                "unknown slice name",
            ),
            (
                valid_spans_doc().replace("\"recorded\": 1", "\"recorded\": 2"),
                "packet slices",
            ),
            (
                valid_spans_doc().replace("\"latency_ps\": 2200000,", ""),
                "latency_ps",
            ),
        ] {
            let err = validate_spans_schema(&parse(&mutation).unwrap()).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in {err}");
        }
    }

    #[test]
    fn timeseries_schema_accepts_and_rejects() {
        let good = r#"{
            "schema": "hypersio-timeseries/v1", "window_ps": 10000000, "link_gbps": 200,
            "windows": [{"start_us": 0.0, "packets": 5, "drops": 1, "gbps": 120.5,
                         "utilization": 0.6, "devtlb_hit_rate": 0.8, "pb_hits": 2,
                         "walks_done": 3, "ptb_occupancy": 0.4, "walks_in_flight": 1.2,
                         "faulted_drops": 0}]
        }"#;
        let doc = parse(good).unwrap();
        assert_eq!(validate_timeseries_schema(&doc), Ok(()));
        let doc = parse(&good.replace("ptb_occupancy", "occupancy")).unwrap();
        let err = validate_timeseries_schema(&doc).unwrap_err();
        assert!(err.contains("ptb_occupancy"), "{err}");
        let doc = parse(&good.replace("\"windows\"", "\"rows\"")).unwrap();
        assert!(validate_timeseries_schema(&doc).is_err());
    }

    #[test]
    fn events_jsonl_accepts_and_rejects() {
        let good = concat!(
            r#"{"schema":"hypersio-events/v1","recorded":2,"overwritten":0,"record_bytes":32}"#,
            "\n",
            r#"{"t_ps":10,"kind":"packet_arrival","did":0,"sid":1}"#,
            "\n",
            r#"{"t_ps":20,"kind":"devtlb_hit","did":0}"#,
            "\n"
        );
        assert_eq!(validate_events_jsonl(good), Ok(()));
        // Count mismatch between the meta line and the body.
        let short = good.lines().take(2).collect::<Vec<_>>().join("\n");
        let err = validate_events_jsonl(&short).unwrap_err();
        assert!(err.contains("2 recorded"), "{err}");
        // Event lines must carry a timestamp.
        let bad = good.replace(r#""t_ps":20,"#, "");
        assert!(validate_events_jsonl(&bad).is_err());
        assert!(validate_events_jsonl("").is_err());
    }

    #[test]
    fn events_jsonl_pins_resilience_event_payloads() {
        let good = concat!(
            r#"{"schema":"hypersio-events/v1","recorded":2,"overwritten":0,"record_bytes":32}"#,
            "\n",
            r#"{"t_ps":0,"kind":"packet_drop","did":3}"#,
            "\n",
            r#"{"t_ps":50,"kind":"memory_pressure","rss_bytes":1048576,"shed_entries":42}"#,
            "\n"
        );
        assert_eq!(validate_events_jsonl(good), Ok(()));
        let err = validate_events_jsonl(&good.replace(r#""shed_entries":42"#, r#""shed":42"#))
            .unwrap_err();
        assert!(err.contains("shed_entries"), "{err}");
        let err =
            validate_events_jsonl(&good.replace(r#""rss_bytes":1048576"#, r#""rss_bytes":"1""#))
                .unwrap_err();
        assert!(err.contains("rss_bytes"), "{err}");
    }

    /// A structurally valid checkpoint file, built by hand the way the
    /// simulator writes them.
    fn checkpoint_file(words: &[u64]) -> Vec<u8> {
        let mut body = Vec::new();
        for w in words {
            body.extend_from_slice(&w.to_le_bytes());
        }
        let header = format!(
            concat!(
                r#"{{"schema":"hypersio-checkpoint/v1","config":"HyperTRIO","tenants":128,"#,
                r#""fingerprint":"0x00000000deadbeef","words":{},"crc":"{:#018x}"}}"#,
                "\n"
            ),
            words.len(),
            fnv1a64(&body),
        );
        let mut out = header.into_bytes();
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn checkpoint_accepts_a_well_formed_file() {
        assert_eq!(validate_checkpoint(&checkpoint_file(&[1, 2, 3])), Ok(()));
        assert_eq!(validate_checkpoint(&checkpoint_file(&[])), Ok(()));
    }

    #[test]
    fn checkpoint_rejects_structural_damage() {
        let good = checkpoint_file(&[7, 8, 9]);
        // No newline at all: not even a header.
        let err = validate_checkpoint(b"just bytes").unwrap_err();
        assert!(err.contains("newline"), "{err}");
        // Truncated body.
        let err = validate_checkpoint(&good[..good.len() - 4]).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
        // A flipped body bit fails the checksum.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let err = validate_checkpoint(&flipped).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        // Wrong schema tag.
        let as_text = String::from_utf8(checkpoint_file(&[]).to_vec()).unwrap();
        let err = validate_checkpoint(as_text.replace("/v1", "/v9").as_bytes()).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
        // Hex fields must be 0x-prefixed strings.
        let err = validate_checkpoint(as_text.replace("\"0x00000000deadbeef\"", "12").as_bytes())
            .unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // Counts must be exact whole numbers: `1e19` words would overflow
        // the byte count.
        for (field, bad) in [
            ("\"words\":0", "\"words\":1e19"),
            ("\"tenants\":128", "\"tenants\":12.5"),
        ] {
            let err = validate_checkpoint(as_text.replace(field, bad).as_bytes()).unwrap_err();
            assert!(err.contains("whole-number"), "{bad}: {err}");
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // The same vectors the simulator's encoder pins.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
