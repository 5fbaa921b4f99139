//! The `hypersio-checkpoint/v1` on-disk run-checkpoint format.
//!
//! A checkpoint is one textual JSON header line followed by a binary
//! little-endian `u64`-word body:
//!
//! ```text
//! {"schema":"hypersio-checkpoint/v1","config":"HyperTRIO","tenants":128,
//!  "fingerprint":"0x...","words":N,"crc":"0x..."}\n
//! <N words x 8 bytes, little-endian>
//! ```
//!
//! The body is the pipeline's full mutable state in pipeline order
//! ([`Simulation::snapshot_words`]); everything re-derivable (page tables,
//! SID map, fault schedule, walk memo) is rebuilt at construction, so a
//! checkpoint stays small and resume stays bit-exact (`DESIGN.md` §16).
//! Three layers reject a bad file, each with a typed [`CheckpointError`]:
//! the header (read by the workspace's one JSON reader,
//! [`hypersio_types::json`]: schema, run identity), an FNV-1a-64 checksum
//! over the body bytes, and the word-level decoder's own shape validation.
//! Corrupt input can produce an error but never a panic and never a
//! silently wrong resume.

use std::fmt;

use hypersio_cache::WordReader;
use hypersio_types::json::{self, escape, Json};

use crate::model::Simulation;

/// Schema tag of the checkpoint header line.
pub const CHECKPOINT_SCHEMA: &str = "hypersio-checkpoint/v1";

/// Why a checkpoint file could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The header line is missing, not valid UTF-8/JSON, or carries an
    /// unknown schema tag.
    Header(String),
    /// The header parsed but names a different run (configuration,
    /// tenant count, or parameter fingerprint mismatch).
    RunMismatch(String),
    /// The body is not exactly the header's word count.
    Truncated {
        /// Words promised by the header.
        expected_words: u64,
        /// Whole words actually present.
        actual_words: u64,
    },
    /// The body bytes fail the header's checksum.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The body words do not decode into this run's state shape.
    Corrupt,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Header(msg) => write!(f, "bad checkpoint header: {msg}"),
            CheckpointError::RunMismatch(msg) => {
                write!(f, "checkpoint belongs to a different run: {msg}")
            }
            CheckpointError::Truncated {
                expected_words,
                actual_words,
            } => write!(
                f,
                "checkpoint body truncated: header promises {expected_words} words, \
                 found {actual_words}"
            ),
            CheckpointError::Checksum { expected, actual } => write!(
                f,
                "checkpoint body checksum mismatch: header says {expected:#018x}, \
                 body hashes to {actual:#018x}"
            ),
            CheckpointError::Corrupt => {
                write!(f, "checkpoint body does not decode into this run's state")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit over `bytes` (the body integrity checksum — fast, no
/// dependencies, and byte-order independent because the body is already
/// canonical little-endian).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reads header field `key` with `read`, one of [`Json`]'s typed
/// accessors; `what` names the expected type in the error.
fn header_field<'a, T>(
    header: &'a Json,
    key: &str,
    read: fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<T, CheckpointError> {
    let value = header
        .get(key)
        .ok_or_else(|| CheckpointError::Header(format!("missing field {key:?}")))?;
    read(value).ok_or_else(|| CheckpointError::Header(format!("field {key:?} is not {what}")))
}

/// A `"0x..."` hexadecimal header field.
fn hex_field(header: &Json, key: &str) -> Result<u64, CheckpointError> {
    let s = header_field(header, key, Json::as_str, "a string")?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| CheckpointError::Header(format!("field {key:?} is not 0x-hex")))?;
    u64::from_str_radix(digits, 16)
        .map_err(|_| CheckpointError::Header(format!("field {key:?} is not 0x-hex")))
}

impl Simulation {
    /// A 64-bit identity fingerprint of this run's immutable inputs
    /// (architecture, parameters, trace shape). Two runs with the same
    /// fingerprint rebuild the same re-derivable state, which is what
    /// makes a checkpoint portable between them.
    fn fingerprint(&self) -> u64 {
        let trace = self.trace();
        // The trailing `(0, 1)` is the v1 DID layout `(first, stride)` the
        // trace cursor still writes; it keeps v1 fingerprints unchanged.
        let identity = format!(
            "{:?}\n{:?}\n{}\n{}\n{:?}\n(0, 1)",
            self.config(),
            self.params(),
            trace.tenants(),
            trace.seed(),
            trace.interleaving(),
        );
        fnv1a64(identity.as_bytes())
    }

    /// Encodes this run's full mutable state as a `hypersio-checkpoint/v1`
    /// file image. Only meaningful at a batch-frame boundary — which is
    /// the only place [`Simulation::run_controlled`] calls it.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut words = Vec::new();
        self.snapshot_words(&mut words);
        let mut body = Vec::with_capacity(words.len() * 8);
        for w in &words {
            body.extend_from_slice(&w.to_le_bytes());
        }
        let header = format!(
            concat!(
                r#"{{"schema":"{}","config":"{}","tenants":{},"#,
                r#""fingerprint":"{:#018x}","words":{},"crc":"{:#018x}"}}"#,
                "\n"
            ),
            CHECKPOINT_SCHEMA,
            escape(&self.config().name),
            self.trace().tenants(),
            self.fingerprint(),
            words.len(),
            fnv1a64(&body),
        );
        let mut out = header.into_bytes();
        out.extend_from_slice(&body);
        out
    }

    /// Restores a checkpoint into this simulation, which must be freshly
    /// constructed from the same configuration, parameters, and trace as
    /// the run that wrote it.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first validation layer
    /// the bytes failed. After an error the simulation's state is
    /// unspecified and must be discarded (reconstruct before retrying) —
    /// but the error path never panics and a `Ok(())` never resumes into
    /// a state that diverges from the original run.
    pub fn resume_from_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| CheckpointError::Header("no header line".into()))?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| CheckpointError::Header("header is not UTF-8".into()))?;
        let header = json::parse(header).map_err(|e| CheckpointError::Header(e.to_string()))?;
        let schema = header_field(&header, "schema", Json::as_str, "a string")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Header(format!(
                "unknown schema {schema:?} (expected {CHECKPOINT_SCHEMA:?})"
            )));
        }
        let config = header_field(&header, "config", Json::as_str, "a string")?;
        if config != self.config().name {
            return Err(CheckpointError::RunMismatch(format!(
                "config {:?} vs this run's {:?}",
                config,
                self.config().name
            )));
        }
        let tenants = header_field(&header, "tenants", Json::as_u64, "an integer")?;
        if tenants != self.trace().tenants() as u64 {
            return Err(CheckpointError::RunMismatch(format!(
                "{} tenants vs this run's {}",
                tenants,
                self.trace().tenants()
            )));
        }
        let fingerprint = hex_field(&header, "fingerprint")?;
        if fingerprint != self.fingerprint() {
            return Err(CheckpointError::RunMismatch(
                "parameter fingerprint differs (different seed, latencies, \
                 fault plan, or architecture)"
                    .into(),
            ));
        }
        let expected_words = header_field(&header, "words", Json::as_u64, "an integer")?;
        let crc = hex_field(&header, "crc")?;

        let body = &bytes[newline + 1..];
        let actual_words = (body.len() / 8) as u64;
        if !body.len().is_multiple_of(8) || actual_words != expected_words {
            return Err(CheckpointError::Truncated {
                expected_words,
                actual_words,
            });
        }
        let actual_crc = fnv1a64(body);
        if actual_crc != crc {
            return Err(CheckpointError::Checksum {
                expected: crc,
                actual: actual_crc,
            });
        }
        let words: Vec<u64> = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        let mut reader = WordReader::new(&words);
        self.restore_words(&mut reader)
            .ok_or(CheckpointError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
    use hypertrio_core::TranslationConfig;

    fn sim(tenants: u32, seed: u64) -> Simulation {
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
            .scale(2000)
            .seed(seed)
            .build();
        Simulation::new(TranslationConfig::hypertrio(), SimParams::paper(), trace)
    }

    /// `bytes` with the first `from` in its header line replaced by `to`.
    fn edit_header(bytes: &[u8], from: &str, to: &str) -> Vec<u8> {
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        [header.replacen(from, to, 1).as_bytes(), &bytes[newline..]].concat()
    }

    #[test]
    fn fresh_checkpoint_round_trips() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let mut back = sim(8, 3);
        back.resume_from_bytes(&bytes).expect("round trip");
        // And the restored run reproduces the original's report exactly.
        assert_eq!(back.run(), sim(8, 3).run());
    }

    #[test]
    fn header_is_one_json_line_with_the_schema() {
        let bytes = sim(4, 0).checkpoint_bytes();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        assert!(header.starts_with(&format!("{{\"schema\":\"{CHECKPOINT_SCHEMA}\"")));
        assert!(header.contains("\"config\":\"HyperTRIO\""));
        assert!(header.contains("\"tenants\":4"));
        assert!(header.ends_with('}'));
    }

    #[test]
    fn config_names_needing_escapes_resume() {
        for name in ["has\"quote", "back\\slash", "new\nline", "\"\\\""] {
            let build = || {
                let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 4)
                    .scale(2000)
                    .build();
                let config = TranslationConfig::base().with_name(name);
                Simulation::new(config, SimParams::paper(), trace)
            };
            let bytes = build().checkpoint_bytes();
            build()
                .resume_from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("config name {name:?}: {e}"));
        }
        // The name is compared decoded, so any JSON spelling of it resumes.
        let respelled = edit_header(
            &sim(4, 0).checkpoint_bytes(),
            r#""config":"HyperTRIO""#,
            &format!(r#""config":"Hyper{}u0054RIO""#, '\\'),
        );
        sim(4, 0)
            .resume_from_bytes(&respelled)
            .expect("an escaped config name resumes");
    }

    #[test]
    fn wrong_config_is_a_run_mismatch() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 8)
            .scale(2000)
            .seed(3)
            .build();
        let mut base = Simulation::new(TranslationConfig::base(), SimParams::paper(), trace);
        assert!(matches!(
            base.resume_from_bytes(&bytes),
            Err(CheckpointError::RunMismatch(_))
        ));
    }

    #[test]
    fn wrong_seed_is_a_run_mismatch() {
        let bytes = sim(8, 3).checkpoint_bytes();
        assert!(matches!(
            sim(8, 4).resume_from_bytes(&bytes),
            Err(CheckpointError::RunMismatch(_))
        ));
    }

    #[test]
    fn wrong_tenant_count_is_a_run_mismatch() {
        let bytes = sim(8, 3).checkpoint_bytes();
        assert!(matches!(
            sim(9, 3).resume_from_bytes(&bytes),
            Err(CheckpointError::RunMismatch(_))
        ));
    }

    #[test]
    fn truncated_body_is_typed() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let cut = &bytes[..bytes.len() - 9];
        assert!(matches!(
            sim(8, 3).resume_from_bytes(cut),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn flipped_body_bit_fails_the_checksum() {
        let mut bytes = sim(8, 3).checkpoint_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            sim(8, 3).resume_from_bytes(&bytes),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn garbage_and_empty_inputs_are_header_errors() {
        for garbage in [&b""[..], b"not a checkpoint", &[0xff; 64][..]] {
            assert!(matches!(
                sim(2, 0).resume_from_bytes(garbage),
                Err(CheckpointError::Header(_))
            ));
        }
        // A fault-plan JSON file is valid JSON but the wrong schema.
        let plan = b"{\"schema\":\"fault_plan/v1\",\"fault_rate\":0.1}\n";
        assert!(matches!(
            sim(2, 0).resume_from_bytes(plan),
            Err(CheckpointError::Header(_))
        ));
        // A repeated key is malformed, not "the first one wins".
        let repeated = edit_header(
            &sim(2, 0).checkpoint_bytes(),
            "\"tenants\":2,",
            "\"tenants\":2,\"tenants\":2,",
        );
        assert!(matches!(
            sim(2, 0).resume_from_bytes(&repeated),
            Err(CheckpointError::Header(_))
        ));
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
