//! The `fault_plan/v1` JSON file format.
//!
//! Fault plans are authored by hand (CI, experiments), so the loader is
//! strict: the text is read by the workspace's one JSON reader,
//! [`hypersio_types::json`] (a malformed document, a repeated key or an
//! out-of-range number is an error at its byte offset), every key must be
//! one the format defines, every field must have its type, and integers
//! must be exact ([`Json::as_u64`]). Value ranges are then checked in one
//! place, [`FaultPlan::validate`], which programmatic plans pass through
//! too. Every error names the field path, e.g. `storms[0].did: ...`.
//!
//! ```json
//! {
//!   "schema": "fault_plan/v1",
//!   "seed": 42,
//!   "fault_rate": 0.01,
//!   "pri_latency_us": 10.0,
//!   "backoff": {"base_slots": 1, "cap_slots": 64, "max_retries": 8},
//!   "storm_period_us": 100.0,
//!   "storms": [{"at_us": 50.0, "did": 3}, {"at_us": 75.0, "global": true}],
//!   "churns": [{"at_us": 60.0, "did": 1}]
//! }
//! ```
//!
//! Every field except `schema` is optional and defaults to the
//! [`FaultPlan::none`] value.

use std::collections::BTreeMap;

use hypersio_types::json::{self, Json};
use hypersio_types::{Did, SimDuration, SimTime};

use super::{BackoffPolicy, ChurnEvent, FaultPlan, StormEvent};

/// The fields of the object `val` at `path`, which must hold no key
/// outside `known`.
fn object<'a>(
    val: &'a Json,
    path: &str,
    known: &[&str],
) -> Result<&'a BTreeMap<String, Json>, String> {
    let fields = val
        .as_obj()
        .ok_or_else(|| format!("{path}: expected an object, got {}", val.type_name()))?;
    match fields.keys().find(|k| !known.contains(&k.as_str())) {
        Some(key) if path.is_empty() => Err(format!("unknown key '{key}'")),
        Some(key) => Err(format!("unknown key '{path}.{key}'")),
        None => Ok(fields),
    }
}

fn num(val: &Json, context: &str) -> Result<f64, String> {
    val.as_num()
        .ok_or_else(|| format!("{context}: expected a number, got {}", val.type_name()))
}

fn u64_field(val: &Json, context: &str) -> Result<u64, String> {
    let n = num(val, context)?;
    val.as_u64()
        .ok_or_else(|| format!("{context}: expected a non-negative integer below 2^53, got {n}"))
}

fn u32_field(val: &Json, context: &str) -> Result<u32, String> {
    let n = u64_field(val, context)?;
    u32::try_from(n).map_err(|_| format!("{context}: {n} exceeds the u32 range"))
}

/// A time in µs, as picoseconds.
fn time_us(val: &Json, context: &str) -> Result<u64, String> {
    let n = num(val, context)?;
    if n < 0.0 {
        return Err(format!("{context}: time must be non-negative, got {n}"));
    }
    let ps = n * 1e6;
    if ps >= 2f64.powi(64) {
        return Err(format!(
            "{context}: {n:e} us overflows the picosecond clock"
        ));
    }
    Ok(ps as u64)
}

impl FaultPlan {
    /// Parses a `fault_plan/v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a missing or
    /// wrong `schema` tag, an unknown key, mistyped fields, or values that
    /// fail [`FaultPlan::validate`].
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema") {
            Some(Json::Str(s)) if s == "fault_plan/v1" => {}
            Some(Json::Str(s)) => return Err(format!("unknown schema '{s}'")),
            _ => return Err("missing string field 'schema'".to_string()),
        }
        let fields = object(
            &doc,
            "",
            &[
                "schema",
                "seed",
                "fault_rate",
                "pri_latency_us",
                "storm_period_us",
                "backoff",
                "storms",
                "churns",
            ],
        )?;
        let mut plan = FaultPlan::none();
        if let Some(v) = fields.get("seed") {
            plan.seed = u64_field(v, "seed")?;
        }
        if let Some(v) = fields.get("fault_rate") {
            plan.fault_rate = num(v, "fault_rate")?;
        }
        if let Some(v) = fields.get("pri_latency_us") {
            plan.pri_latency = SimDuration::from_ps(time_us(v, "pri_latency_us")?);
        }
        if let Some(v) = fields.get("storm_period_us") {
            plan.storm_period = Some(SimDuration::from_ps(time_us(v, "storm_period_us")?));
        }
        if let Some(v) = fields.get("backoff") {
            plan.backoff = backoff(v)?;
        }
        if let Some(v) = fields.get("storms") {
            let items = v
                .as_arr()
                .ok_or_else(|| format!("storms: expected an array, got {}", v.type_name()))?;
            for (i, item) in items.iter().enumerate() {
                plan.storms.push(storm(item, i)?);
            }
        }
        if let Some(v) = fields.get("churns") {
            let items = v
                .as_arr()
                .ok_or_else(|| format!("churns: expected an array, got {}", v.type_name()))?;
            for (i, item) in items.iter().enumerate() {
                plan.churns.push(churn(item, i)?);
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn backoff(val: &Json) -> Result<BackoffPolicy, String> {
    let fields = object(val, "backoff", &["base_slots", "cap_slots", "max_retries"])?;
    let mut b = BackoffPolicy::default();
    if let Some(v) = fields.get("base_slots") {
        b.base_slots = u64_field(v, "backoff.base_slots")?;
    }
    if let Some(v) = fields.get("cap_slots") {
        b.cap_slots = u64_field(v, "backoff.cap_slots")?;
    }
    if let Some(v) = fields.get("max_retries") {
        b.max_retries = u32_field(v, "backoff.max_retries")?;
    }
    Ok(b)
}

/// The required `at_us` field of a storm or churn entry.
fn at(fields: &BTreeMap<String, Json>, context: &str) -> Result<SimTime, String> {
    let v = fields
        .get("at_us")
        .ok_or_else(|| format!("{context}: missing field 'at_us'"))?;
    Ok(SimTime::from_ps(time_us(v, &format!("{context}.at_us"))?))
}

fn storm(val: &Json, index: usize) -> Result<StormEvent, String> {
    let context = format!("storms[{index}]");
    let fields = object(val, &context, &["at_us", "did", "global"])?;
    let at = at(fields, &context)?;
    let global = match fields.get("global") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| {
            format!(
                "{context}.global: expected a boolean, got {}",
                v.type_name()
            )
        })?,
    };
    let did = match (global, fields.get("did")) {
        (true, Some(_)) => {
            return Err(format!(
                "{context}: 'global' and 'did' are mutually exclusive"
            ));
        }
        (true, None) => None,
        (false, Some(v)) => Some(Did::new(u32_field(v, &format!("{context}.did"))?)),
        (false, None) => {
            return Err(format!("{context}: needs either 'did' or 'global': true"));
        }
    };
    Ok(StormEvent { at, did })
}

fn churn(val: &Json, index: usize) -> Result<ChurnEvent, String> {
    let context = format!("churns[{index}]");
    let fields = object(val, &context, &["at_us", "did"])?;
    let at = at(fields, &context)?;
    let did = fields
        .get("did")
        .ok_or_else(|| format!("{context}: missing field 'did'"))
        .and_then(|v| u32_field(v, &format!("{context}.did")))?;
    Ok(ChurnEvent {
        at,
        did: Did::new(did),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::MAX_PRI_LATENCY_US;

    const GOOD: &str = r#"{
        "schema": "fault_plan/v1",
        "seed": 42,
        "fault_rate": 0.01,
        "pri_latency_us": 10.5,
        "backoff": {"base_slots": 2, "cap_slots": 32, "max_retries": 6},
        "storm_period_us": 100,
        "storms": [{"at_us": 50, "did": 3}, {"at_us": 75, "global": true}],
        "churns": [{"at_us": 60, "did": 1}]
    }"#;

    #[test]
    fn full_plan_round_trips() {
        let plan = FaultPlan::from_json(GOOD).expect("plan parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.fault_rate, 0.01);
        assert_eq!(plan.pri_latency.as_ps(), 10_500_000);
        assert_eq!(plan.storm_period, Some(SimDuration::from_us(100)));
        assert_eq!(plan.backoff.base_slots, 2);
        assert_eq!(plan.backoff.cap_slots, 32);
        assert_eq!(plan.backoff.max_retries, 6);
        assert_eq!(plan.storms.len(), 2);
        assert_eq!(plan.storms[0].did, Some(Did::new(3)));
        assert_eq!(plan.storms[0].at, SimTime::from_ps(50_000_000));
        assert_eq!(plan.storms[1].did, None);
        assert_eq!(
            plan.churns,
            vec![ChurnEvent {
                at: SimTime::from_ps(60_000_000),
                did: Did::new(1),
            }]
        );
        assert!(!plan.is_none());
    }

    #[test]
    fn minimal_plan_defaults_everything() {
        let plan = FaultPlan::from_json(r#"{"schema": "fault_plan/v1"}"#).expect("parses");
        assert_eq!(plan, FaultPlan::none());
    }

    /// Asserts that `{"schema": "fault_plan/v1", <fields>}` is rejected
    /// with an error containing `needle`, for each `(fields, needle)`.
    fn assert_rejected(cases: &[(&str, &str)]) {
        for (fields, needle) in cases {
            let text = format!(r#"{{"schema": "fault_plan/v1", {fields}}}"#);
            let err = FaultPlan::from_json(&text).unwrap_err();
            assert!(
                err.contains(needle),
                "{fields}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{}trailing",
            r#"{"schema": "fault_plan/v1", }"#,
            r#"{"schema": "fault_plan/v1" "seed": 1}"#,
            r#"{"schema": 7}"#,
        ] {
            let err = FaultPlan::from_json(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} must fail with a message");
        }
        // A repeated key is an error where it repeats, not "first wins".
        let err = FaultPlan::from_json(
            r#"{"schema":"fault_plan/v1","fault_rate":0.5,"fault_rate":0.01}"#,
        )
        .unwrap_err();
        assert!(err.contains("byte 43: duplicate key"), "{err}");
    }

    #[test]
    fn rejects_wrong_or_missing_schema() {
        assert!(FaultPlan::from_json("{}").unwrap_err().contains("schema"));
        assert!(FaultPlan::from_json(r#"{"schema": "fault_plan/v2"}"#)
            .unwrap_err()
            .contains("unknown schema"));
    }

    #[test]
    fn rejects_mistyped_and_out_of_range_fields() {
        assert_rejected(&[
            (r#""seed": "x""#, "seed"),
            (r#""seed": 1.5"#, "integer"),
            // Integers past 2^53 would load rounded or saturated.
            (r#""seed": 9007199254740993"#, "seed"),
            (r#""seed": 12345678901234567"#, "seed"),
            (r#""seed": 18446744073709551616"#, "seed"),
            (
                r#""backoff": {"base_slots": 18446744073709551615, "cap_slots": 18446744073709551615}"#,
                "backoff.base_slots",
            ),
            (r#""fault_rate": 2.0"#, "fault_rate"),
            (r#""pri_latency_us": -1"#, "non-negative"),
            (r#""pri_latency_us": 1000000001"#, "pri_latency"),
            (r#""pri_latency_us": 1e300"#, "pri_latency"),
            (r#""storm_period_us": 0"#, "storm_period"),
            (r#""storm_period_us": 1e300"#, "storm_period_us"),
        ]);
        // The bounds themselves load exactly.
        let plan = FaultPlan::from_json(
            r#"{"schema": "fault_plan/v1", "seed": 9007199254740991, "pri_latency_us": 1e9}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, (1 << 53) - 1);
        assert_eq!(plan.pri_latency, SimDuration::from_us(MAX_PRI_LATENCY_US));
    }

    #[test]
    fn rejects_bad_storm_and_churn_entries() {
        assert_rejected(&[
            (r#""storms": [{"at_us": 1}]"#, "'did' or 'global'"),
            (
                r#""storms": [{"at_us": 1, "did": 0, "global": true}]"#,
                "mutually exclusive",
            ),
            (r#""storms": [{"did": 0}]"#, "at_us"),
            (
                r#""storms": [{"at_us": 1, "global": "yes", "did": 4}]"#,
                "storms[0].global: expected a boolean",
            ),
            (
                r#""storms": [{"at_us": 1e300, "did": 0}]"#,
                "storms[0].at_us",
            ),
            (r#""storms": [3]"#, "storms[0]: expected an object"),
            (r#""churns": [{"at_us": 1}]"#, "churns[0]"),
            (r#""churns": 3"#, "array"),
        ]);
    }

    #[test]
    fn rejects_unknown_keys() {
        assert_rejected(&[
            (r#""fault_rat": 0.5"#, "unknown key 'fault_rat'"),
            (
                r#""backoff": {"base_slot": 2}"#,
                "unknown key 'backoff.base_slot'",
            ),
            (
                r#""storms": [{"at_us": 1, "did": 0}, {"at_us": 2, "global": true, "dids": [3]}]"#,
                "unknown key 'storms[1].dids'",
            ),
            (
                r#""churns": [{"at_us": 1, "did": 0, "slab": 9}]"#,
                "unknown key 'churns[0].slab'",
            ),
        ]);
    }

    #[test]
    fn string_escapes_and_unicode_survive() {
        // Schema comparison exercises the string reader; escapes must not
        // corrupt adjacent characters.
        let err = FaultPlan::from_json(r#"{"schema": "fault "}"#).unwrap_err();
        assert!(!err.is_empty());
        let err = FaultPlan::from_json("{\"schema\": \"plan-\u{00e9}\"}").unwrap_err();
        assert!(err.contains("plan-\u{00e9}"), "{err}");
        // Every JSON escape decodes, so both spell the same schema tag.
        for slash in [r"\/".to_string(), format!("{}u002f", '\\')] {
            let text = format!(r#"{{"schema": "fault_plan{slash}v1", "seed": 3}}"#);
            assert_eq!(FaultPlan::from_json(&text).unwrap().seed, 3, "{text}");
        }
    }
}
