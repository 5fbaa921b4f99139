//! Typed errors for the `hypertrio` binary.
//!
//! Every user-facing failure — bad arguments, unreadable files, malformed
//! fault plans — flows through [`SimError`] and exits with a nonzero code;
//! `main` never panics on bad input.

use std::fmt;

use hypersio_trace::TraceBuildError;

use crate::cli::ParseError;

/// A user-facing failure of the `hypertrio` binary.
#[derive(Debug)]
pub enum SimError {
    /// Invalid command-line arguments.
    Parse(ParseError),
    /// An input or output file could not be read or written.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A fault-plan file was read but could not be parsed or validated.
    FaultPlan {
        /// The plan file's path.
        path: String,
        /// What was wrong with it.
        message: String,
    },
    /// A checkpoint file was read but rejected (wrong run, truncated,
    /// corrupt — see [`hypersio_sim::CheckpointError`]).
    Checkpoint {
        /// The checkpoint file's path.
        path: String,
        /// Which validation layer rejected it.
        source: hypersio_sim::CheckpointError,
    },
    /// The trace could not be built from the arguments (a tenant count
    /// whose default SIDs reach the SID bound).
    Trace(TraceBuildError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Parse(err) => write!(f, "{err}"),
            SimError::Io { path, source } => write!(f, "{path}: {source}"),
            SimError::FaultPlan { path, message } => {
                write!(f, "{path}: invalid fault plan: {message}")
            }
            SimError::Checkpoint { path, source } => write!(f, "{path}: {source}"),
            SimError::Trace(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Parse(err) => Some(err),
            SimError::Io { source, .. } => Some(source),
            SimError::FaultPlan { .. } => None,
            SimError::Checkpoint { source, .. } => Some(source),
            SimError::Trace(err) => Some(err),
        }
    }
}

impl From<ParseError> for SimError {
    fn from(err: ParseError) -> Self {
        SimError::Parse(err)
    }
}

impl From<TraceBuildError> for SimError {
    fn from(err: TraceBuildError) -> Self {
        SimError::Trace(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_path() {
        let err = SimError::Io {
            path: "plan.json".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(err.to_string().contains("plan.json"));
        let err = SimError::FaultPlan {
            path: "plan.json".into(),
            message: "wrong schema".into(),
        };
        assert!(err.to_string().contains("wrong schema"));
        let err = SimError::from(ParseError("bad --tenants".into()));
        assert_eq!(err.to_string(), "bad --tenants");
        let err = SimError::Checkpoint {
            path: "run.ckpt".into(),
            source: hypersio_sim::CheckpointError::Corrupt,
        };
        assert!(err.to_string().contains("run.ckpt"));
        let err = SimError::from(TraceBuildError("SID 0x1000000 is not below".into()));
        assert!(err.to_string().contains("0x1000000"));
    }
}
