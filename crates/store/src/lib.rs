//! # qwm-store — the durable design store
//!
//! Everything that makes a warm `qwm serve` fast is expensive to
//! rebuild: characterized device tables (34×34 grid fits per
//! polarity per corner), parsed netlists, and the per-net commit
//! books the incremental flow early-stops against. This crate
//! persists exactly that state in an append-only, checksummed,
//! single-file record log so a killed-and-restarted server answers
//! its first query via the dirty-cone incremental path with reports
//! bitwise-identical to a never-restarted reference (DESIGN.md §16).
//!
//! Layers, bottom up:
//!
//! * [`log`] — the framed record log: fixed header (magic +
//!   version), per-record CRC-32 + length framing, torn-tail
//!   truncation on open, explicit compaction. Knows nothing about
//!   timing.
//! * [`codec`] — the versioned binary codec for the domain records:
//!   netlists, single-corner and per-corner commit snapshots,
//!   session metadata, and characterized device tables keyed by a
//!   technology fingerprint.
//! * [`DesignStore`] — the high-level API the server drives:
//!   `open` replays the log into a [`RecoveredState`],
//!   `append_*` persist new state, `compact` rewrites the log
//!   keeping only live records.
//!
//! Zero external dependencies, like every other crate in the
//! workspace; durability is plain `write_all` + flush (crash-safety
//! targets process death, not power loss).

pub mod codec;
pub mod design;
pub mod log;

pub use codec::{tech_fingerprint, DeviceTableRecord, SessionSnapshot};
pub use design::{DesignStore, RecoveredSession, RecoveredState, StoreStatus};
pub use log::{RecordLog, MAX_RECORD};

use std::fmt;

/// Structured failure of any store operation. Corruption is always
/// an error, never a panic and never silently bad data; the one
/// sanctioned data loss is torn-tail truncation on open (the
/// append-in-flight-at-kill case), which is counted, not erred.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io {
        /// Operation that failed (open/read/write/rename/...).
        op: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with the `QWMSTORE` magic.
    BadMagic,
    /// The header version is not one this build can read.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A fully-contained record failed validation (CRC mismatch,
    /// unknown kind, malformed payload).
    Corrupt {
        /// Byte offset of the offending record's frame.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// A record frame declared a zero-length payload.
    ZeroLength {
        /// Byte offset of the offending frame.
        offset: u64,
    },
    /// A record frame declared a payload larger than [`MAX_RECORD`].
    Oversized {
        /// Byte offset of the offending frame.
        offset: u64,
        /// The declared payload length.
        len: u64,
    },
    /// A domain payload failed to decode or re-validate.
    Codec {
        /// Which record kind was being decoded.
        context: &'static str,
        /// What exactly failed.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, source } => write!(f, "store io ({op}): {source}"),
            StoreError::BadMagic => write!(f, "store: bad magic (not a QWMSTORE file)"),
            StoreError::BadVersion { found } => {
                write!(f, "store: unsupported format version {found}")
            }
            StoreError::Corrupt { offset, detail } => {
                write!(f, "store: corrupt record at offset {offset}: {detail}")
            }
            StoreError::ZeroLength { offset } => {
                write!(f, "store: zero-length record at offset {offset}")
            }
            StoreError::Oversized { offset, len } => write!(
                f,
                "store: oversized record at offset {offset}: {len} bytes exceeds the \
                 {MAX_RECORD}-byte cap"
            ),
            StoreError::Codec { context, detail } => {
                write!(f, "store: {context} payload: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    pub(crate) fn io(op: &'static str, source: std::io::Error) -> Self {
        StoreError::Io { op, source }
    }
}

/// Store-level result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
