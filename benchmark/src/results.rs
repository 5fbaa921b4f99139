//! Result records: the line the benchmark prints, the record it appends to
//! `results.jsonl`, the schema check over such files, and the comparison
//! of two of them under the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;

use bench::json::{self, Json};

use crate::measure::RunResult;
use crate::metrics::{self, Better, Metric};
use crate::stats::Summary;
use crate::workloads::Workload;

/// Schema tag of a `results.jsonl` record.
pub const SCHEMA: &str = "hypertrio-benchmark/v1";

/// The run's identity, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunId {
    /// The workload.
    pub workload: Workload,
    /// Trace and fault-plan seed.
    pub seed: u64,
    /// Time budget in seconds.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of timed reps.
    pub trace: bool,
}

/// A number as JSON: every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// The last line of a run's output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (`{"name": {"value": v, "unit": u}}`).
pub fn result_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failures.is_empty(),
        r.attempted,
        r.failures.len()
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.metric.name,
            num(m.value),
            m.metric.unit
        );
    }
    out.push_str("}}");
    out
}

/// The `results.jsonl` record of a run: its identity, outcome, the host's
/// median slowdown against the reference host, and each metric with the
/// summary of its samples (n, min, p25, median, p75, max).
pub fn record(id: &RunId, r: &RunResult) -> String {
    let mut out = format!(
        "{{\"schema\": \"{SCHEMA}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"host_slowdown\": {}, \"failures\": [",
        id.workload.name(),
        id.seed,
        id.seconds,
        u8::from(id.trace),
        r.failures.is_empty(),
        r.attempted,
        r.failures.len(),
        num(r.slowdown)
    );
    for (i, f) in r.failures.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", json::escape(f));
    }
    out.push_str("], \"metrics\": {");
    for (i, m) in r.metrics.iter().enumerate() {
        let s = Summary::of(&m.samples);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"min\": {}, \
             \"p25\": {}, \"median\": {}, \"p75\": {}, \"max\": {}}}",
            m.metric.name,
            num(m.value),
            m.metric.unit,
            s.n,
            num(s.min),
            num(s.p25),
            num(s.median),
            num(s.p75),
            num(s.max)
        );
    }
    out.push_str("}}");
    out
}

/// One parsed, schema-checked record.
#[derive(Debug, Clone)]
pub struct Record {
    /// The workload.
    pub workload: Workload,
    /// Trace and fault-plan seed.
    pub seed: u64,
    /// Traced pass or timed reps.
    pub trace: bool,
    /// Whether every simulation of the run passed its checks.
    pub correct: bool,
    /// `(metric name, value)`, in table order.
    pub values: Vec<(&'static str, f64)>,
}

fn whole(v: &Json, what: &str) -> Result<u64, String> {
    match v.as_num() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(53) => Ok(n as u64),
        _ => Err(format!("{what} must be a whole number")),
    }
}

/// Parses and schema-checks one `results.jsonl` line.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing key '{key}'"));
    if field("schema")?.as_str() != Some(SCHEMA) {
        return Err(format!("schema must be \"{SCHEMA}\""));
    }
    let name = field("workload")?
        .as_str()
        .ok_or("workload must be a string")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = whole(field("seed")?, "seed")?;
    if whole(field("seconds")?, "seconds")? == 0 {
        return Err("seconds must be at least 1".into());
    }
    let trace = match whole(field("trace")?, "trace")? {
        0 => false,
        1 => true,
        _ => return Err("trace must be 0 or 1".into()),
    };
    let correct = field("correct")?
        .as_bool()
        .ok_or("correct must be a boolean")?;
    let attempted = whole(field("attempted")?, "attempted")?;
    let failed = whole(field("failed")?, "failed")?;
    if attempted == 0 || failed > attempted {
        return Err(format!(
            "need 1 <= attempted and failed <= attempted, got {attempted}/{failed}"
        ));
    }
    if !field("host_slowdown")?.as_num().is_some_and(|s| s > 0.0) {
        return Err("host_slowdown must be a positive number".into());
    }
    let failures = field("failures")?
        .as_arr()
        .ok_or("failures must be an array")?;
    if failures.len() as u64 != failed || correct != (failed == 0) {
        return Err("failures, failed and correct disagree".into());
    }
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics must be an object")?;
    let expected = metrics::for_trace(trace);
    if metrics.len() != expected.len() {
        return Err(format!(
            "expected {} metrics, found {}",
            expected.len(),
            metrics.len()
        ));
    }
    let mut values = Vec::with_capacity(expected.len());
    for m in expected {
        let entry = metrics
            .get(m.name)
            .ok_or_else(|| format!("missing metric '{}'", m.name))?;
        if entry.get("unit").and_then(Json::as_str) != Some(m.unit) {
            return Err(format!("metric '{}' must have unit '{}'", m.name, m.unit));
        }
        let get = |k: &str| {
            entry
                .get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("metric '{}' lacks a numeric '{k}'", m.name))
        };
        let value = get("value")?;
        let order = ["min", "p25", "median", "p75", "max"]
            .map(get)
            .into_iter()
            .collect::<Result<Vec<f64>, String>>()?;
        if whole(entry.get("n").unwrap_or(&Json::Null), "n")? == 0
            || order.windows(2).any(|w| w[0] > w[1])
            || !(order[0]..=order[4]).contains(&value)
        {
            return Err(format!(
                "metric '{}': need n >= 1 and min <= p25 <= median <= p75 <= max bracketing the value",
                m.name
            ));
        }
        values.push((m.name, value));
    }
    Ok(Record {
        workload,
        seed,
        trace,
        correct,
        values,
    })
}

/// Parses every non-empty line of a `results.jsonl` file.
pub fn parse_file(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_record(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// An end-to-end bound from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// The metric.
    pub metric: &'static Metric,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document; each
/// entry must name one of this program's end-to-end metrics and agree with
/// it on the better direction.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks an end_to_end array")?
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bound without a name")?;
            let metric = metrics::end_to_end(name)
                .ok_or_else(|| format!("{name} is not an end-to-end metric"))?;
            if e.get("better").and_then(Json::as_str) != Some(metric.better.as_str()) {
                return Err(format!(
                    "{name}: better must be \"{}\"",
                    metric.better.as_str()
                ));
            }
            let bound = e
                .get("bound")
                .and_then(Json::as_num)
                .filter(|b| (0.0..=1.0).contains(b))
                .ok_or_else(|| format!("{name}: bound must be a share in 0..=1"))?;
            Ok(Bound { metric, bound })
        })
        .collect()
}

/// How one (workload, metric) pair moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every B run beats every A run, or B's median is better by more
    /// than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Within,
    /// A side's run-to-run spread (IQR over median) exceeds the bound, so
    /// the comparison cannot tell.
    Unresolved,
}

/// Judges B against A under `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive = B worse than A, as a share of A's median.
    let worse = match better {
        Better::Higher => (sa.median - sb.median) / sa.median,
        Better::Lower => (sb.median - sa.median) / sa.median,
    };
    let b_dominates = match better {
        Better::Higher => sb.min > sa.max,
        Better::Lower => sb.max < sa.min,
    };
    let v = if b_dominates {
        Verdict::Better
    } else if sa.spread().max(sb.spread()) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (v, worse)
}

/// Compares result files A (baseline) and B: every end-to-end metric on
/// every workload under its bound, and `model.*` exactly for each
/// (workload, seed) traced in both. Returns the report text and whether B
/// passes (no worse metric, no model mismatch, no failed run).
pub fn compare(bounds: &[Bound], a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for bad in b.iter().filter(|r| !r.correct) {
        ok = false;
        let _ = writeln!(
            out,
            "{:<14} seed {}: B has a failed run",
            bad.workload.name(),
            bad.seed
        );
    }
    for w in Workload::ALL {
        for bound in bounds {
            let name = bound.metric.name;
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| r.workload == w && !r.trace && r.correct)
                    .flat_map(|r| r.values.iter().filter(|(n, _)| *n == name))
                    .map(|&(_, v)| v)
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{:<14} {name:<16} missing on one side", w.name());
                continue;
            }
            let (v, worse) = verdict(&va, &vb, bound.metric.better, bound.bound);
            ok &= v != Verdict::Worse;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let _ = writeln!(
                out,
                "{:<14} {name:<16} A {:>12.6} (IQR {:>5.1}%, n={:>2})  B {:>12.6} (IQR {:>5.1}%, n={:>2})  \
                 worse by {:>+6.2}% (bound {:>4.1}%)  {v:?}",
                w.name(),
                sa.median,
                sa.spread() * 100.0,
                sa.n,
                sb.median,
                sb.spread() * 100.0,
                sb.n,
                worse * 100.0,
                bound.bound * 100.0,
            );
        }
    }
    let mut checked = 0;
    for ra in a.iter().filter(|r| r.trace) {
        let same_run = |r: &&Record| r.trace && r.workload == ra.workload && r.seed == ra.seed;
        for rb in b.iter().filter(same_run) {
            checked += 1;
            // Both value lists are in table order.
            for (&(name, va), &(_, vb)) in ra.values.iter().zip(&rb.values) {
                if name.starts_with("model.") && va.to_bits() != vb.to_bits() {
                    ok = false;
                    let _ = writeln!(
                        out,
                        "{:<14} seed {}: {name} differs: A {va} B {vb}",
                        ra.workload.name(),
                        ra.seed
                    );
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "model.* compared exactly on {checked} traced run pair(s)"
    );
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measured;

    fn run_result(trace: bool, failures: Vec<String>) -> RunResult {
        let metrics = metrics::for_trace(trace)
            .iter()
            .map(|metric| Measured {
                metric,
                value: 2.0,
                samples: vec![1.0, 2.0, 3.0],
            })
            .collect();
        RunResult {
            metrics,
            attempted: 3,
            failures,
            slowdown: 1.25,
            spans: Vec::new(),
        }
    }

    fn id(trace: bool) -> RunId {
        RunId {
            workload: Workload::Ht1024,
            seed: 7,
            seconds: 20,
            trace,
        }
    }

    #[test]
    fn records_round_trip_through_the_validator() {
        for trace in [false, true] {
            let rec = parse_record(&record(&id(trace), &run_result(trace, vec![]))).unwrap();
            assert_eq!(
                (rec.workload, rec.seed, rec.trace),
                (Workload::Ht1024, 7, trace)
            );
            assert!(rec.correct);
            assert_eq!(rec.values.len(), metrics::for_trace(trace).len());
        }
        let failed = record(
            &id(false),
            &run_result(false, vec!["rep 1: \"bad\"".into()]),
        );
        assert!(!parse_record(&failed).unwrap().correct);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(&run_result(false, vec![]));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), 2);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn validator_rejects_malformed_records() {
        let good = record(&id(false), &run_result(false, vec![]));
        let cases = [
            good.replace("hypertrio-benchmark/v1", "other/v1"),
            good.replace("\"ht-1024\"", "\"nope\""),
            good.replace("\"trace\": 0", "\"trace\": 2"),
            good.replace("\"attempted\": 3", "\"attempted\": 0"),
            good.replace("\"host_slowdown\": 1.25", "\"host_slowdown\": 0"),
            good.replace("\"correct\": true", "\"correct\": false"),
            good.replace("\"unit\": \"s\"", "\"unit\": \"ms\""),
            good.replace("\"min\": 1", "\"min\": 9"),
            good.replace(", \"peak_rss_mb\"", ", \"x\": {}, \"peak_rss_mb\""),
            good[..good.len() - 2].to_string(),
        ];
        for bad in cases {
            assert_ne!(bad, good);
            assert!(parse_record(&bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 102.0, 99.0, 100.0];
        let steady = |x: f64| [x, x + 1.0, x + 2.0, x - 1.0, x];
        let v = |b: &[f64], better| verdict(&a, b, better, 0.10).0;
        assert_eq!(v(&steady(100.0), Better::Higher), Verdict::Within);
        assert_eq!(v(&steady(80.0), Better::Higher), Verdict::Worse);
        assert_eq!(v(&steady(80.0), Better::Lower), Verdict::Better);
        assert_eq!(v(&steady(120.0), Better::Lower), Verdict::Worse);
        // A wide spread cannot resolve a 15% drop …
        assert_eq!(
            v(&[60.0, 85.0, 85.0, 110.0, 130.0], Better::Higher),
            Verdict::Unresolved
        );
        // … but a side that beats every run of the other is better anyway.
        assert_eq!(
            v(&[103.0, 150.0, 200.0, 260.0, 300.0], Better::Higher),
            Verdict::Better
        );
    }

    #[test]
    fn compare_flags_worse_metrics_and_model_mismatches() {
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "sim_pkts_per_s", "unit": "pkts/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let rec = |trace: bool, value: f64| {
            let mut r = run_result(trace, vec![]);
            for m in &mut r.metrics {
                m.value = value;
                m.samples = vec![value];
            }
            parse_record(&record(&id(trace), &r)).unwrap()
        };
        let a = vec![rec(false, 100.0), rec(true, 5.0)];
        assert!(compare(&bounds, &a, &[rec(false, 99.0), rec(true, 5.0)]).1);
        assert!(!compare(&bounds, &a, &[rec(false, 80.0), rec(true, 5.0)]).1);
        let (text, ok) = compare(&bounds, &a, &[rec(false, 100.0), rec(true, 6.0)]);
        assert!(!ok);
        assert!(text.contains("model.report_digest differs"), "{text}");
    }
}
