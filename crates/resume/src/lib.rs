//! Crash-safe checkpoint files for the TimberWolfMC reproduction.
//!
//! Long annealing runs die to signals, OOM kills, and panics; this
//! crate makes their state durable. A checkpoint is a single JSON
//! document with a versioned, checksummed envelope:
//!
//! ```json
//! {"magic":"twmc-ckpt","version":1,"checksum":<fnv1a64>,"payload":{…}}
//! ```
//!
//! * Writes are **atomic and durable**: the document is written to a
//!   `.tmp` sibling, fsynced, renamed over the target, and the parent
//!   directory is fsynced, so a crash — including power loss — leaves
//!   either the old checkpoint or the new one, never a torn file
//!   ([`write_checkpoint`]; [`write_checkpoint_with`] takes the [`Vfs`]
//!   for fault-injection tests).
//! * Reads are **paranoid**: magic, version, and an FNV-1a checksum
//!   over the serialized payload are all verified, and every failure is
//!   a typed [`CheckpointError`] ([`read_checkpoint`]).
//! * Payloads are [`serde::Value`] trees. Each checkpointed type of the
//!   pipeline crates declares its layout once through the
//!   [`codec::Codec`] trait, most as one key list given to
//!   [`codec_struct!`]. Floats are stored as their IEEE-754 bit
//!   patterns (`u64`), which keeps the parse→re-serialize text
//!   roundtrip exact — the property the checksum verification and the
//!   bit-identical-resume contract both rest on.
//!
//! [`CheckpointWriter`] adds the `--checkpoint-every N` cadence on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use std::sync::Arc;

use serde::Value;
use twmc_fault::{atomic_write_durable, RealVfs, Vfs};
use twmc_obs::validate::parse_json;

use crate::codec::Codec;

pub mod codec;

/// Leading tag every checkpoint file carries.
pub const MAGIC: &str = "twmc-ckpt";
/// Current checkpoint format version. Version 2 added the adaptive
/// tempering-ladder state (per-rung temperatures, per-pair gap ratios,
/// per-pair swap counters) and the all-rung quench payload. Version 3
/// stores tempering rungs as the same replica records multi-start uses
/// (cooling run included) and adds the ladder's round count to the
/// quench payload. Version 4 keeps only the annealer's decisions and
/// accumulated cost totals in a placement snapshot (the resumed process
/// derives shapes, site layouts, expansions, pin positions and net
/// spans from them), drops the replica record's seed and the config
/// digest's `rounds` key. Older checkpoints are rejected rather than
/// silently misresumed.
pub const VERSION: u64 = 4;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open/read/write/rename).
    Io(io::Error),
    /// No checkpoint file exists at the given path — almost always a
    /// mistyped `--resume` argument.
    Missing(PathBuf),
    /// The checkpoint file exists but could not be read (permissions,
    /// a directory instead of a file, …).
    Unreadable {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying filesystem error.
        source: io::Error,
    },
    /// The file parsed but does not carry the `twmc-ckpt` magic.
    BadMagic(String),
    /// The file's format version is not [`VERSION`].
    BadVersion(u64),
    /// The payload does not hash to the recorded checksum — the file
    /// was corrupted or hand-edited.
    BadChecksum {
        /// Checksum recorded in the envelope.
        expected: u64,
        /// Checksum of the payload actually present.
        found: u64,
    },
    /// The file is truncated or not a well-formed checkpoint document;
    /// the message names the first defect.
    Corrupt(String),
    /// The checkpoint is valid but was taken by a run with a different
    /// configuration (seed, circuit, strategy, …) than the one resuming.
    ConfigMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Missing(path) => write!(
                f,
                "no checkpoint at `{}` — check the path (the file a `--checkpoint` run \
                 writes is what `--resume` expects)",
                path.display()
            ),
            CheckpointError::Unreadable { path, source } => write!(
                f,
                "checkpoint `{}` exists but cannot be read: {source}",
                path.display()
            ),
            CheckpointError::BadMagic(m) => {
                write!(f, "not a twmc checkpoint (magic `{m}`)")
            }
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::BadChecksum { expected, found } => write!(
                f,
                "checkpoint checksum mismatch (recorded {expected:#x}, payload hashes to {found:#x})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::ConfigMismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a over `bytes` — small, dependency-free, and good enough to
/// catch truncation and bit rot (this is an integrity check, not an
/// adversarial one).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes `payload` into the full checkpoint document text.
pub fn encode(payload: &Value) -> String {
    let body = serde_json::to_string(payload).expect("value trees always serialize");
    let checksum = fnv1a64(body.as_bytes());
    format!("{{\"magic\":\"{MAGIC}\",\"version\":{VERSION},\"checksum\":{checksum},\"payload\":{body}}}")
}

/// Parses and verifies a checkpoint document, returning the payload.
pub fn decode(text: &str) -> Result<Value, CheckpointError> {
    let doc = parse_json(text).map_err(CheckpointError::Corrupt)?;
    if !matches!(doc, Value::Object(_)) {
        return Err(CheckpointError::Corrupt(
            "top level is not a JSON object".to_owned(),
        ));
    }
    let magic = match codec::get(&doc, "magic") {
        Ok(v) => String::decode(v)
            .map_err(|_| CheckpointError::Corrupt("`magic` is not a string".into()))?,
        Err(_) => return Err(CheckpointError::BadMagic("<missing>".to_owned())),
    };
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = codec::field(&doc, "version")?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let expected = codec::field(&doc, "checksum")?;
    let payload = codec::get(&doc, "payload")?;
    // Floats are stored as u64 bit patterns, so the payload contains
    // only ints/strings/bools/containers and the parse→serialize text
    // roundtrip is exact — hashing the re-serialized text verifies the
    // bytes the writer hashed.
    let body = serde_json::to_string(payload).expect("value trees always serialize");
    let found = fnv1a64(body.as_bytes());
    if found != expected {
        return Err(CheckpointError::BadChecksum { expected, found });
    }
    Ok(payload.clone())
}

/// Atomically and durably writes `payload` as a checkpoint at `path`:
/// the document goes to a `.tmp` sibling, is fsynced, renamed into
/// place, and the parent directory is fsynced, so readers only ever
/// observe a complete, verifiable file — even after power loss.
pub fn write_checkpoint(path: &Path, payload: &Value) -> Result<(), CheckpointError> {
    write_checkpoint_with(&RealVfs, path, payload)
}

/// [`write_checkpoint`] through an explicit [`Vfs`]: the daemon's
/// fault-injection tests route checkpoint writes through a `FaultVfs`
/// here.
pub fn write_checkpoint_with(
    vfs: &dyn Vfs,
    path: &Path,
    payload: &Value,
) -> Result<(), CheckpointError> {
    let text = encode(payload);
    atomic_write_durable(vfs, path, text.as_bytes())?;
    Ok(())
}

/// Reads and fully verifies the checkpoint at `path`.
///
/// Filesystem failures come back typed — [`CheckpointError::Missing`]
/// for a path with no file behind it, [`CheckpointError::Unreadable`]
/// for one that exists but cannot be read — so callers (the CLI's
/// `--resume`, the daemon's preempted-job resume) report an actionable
/// operational error instead of a raw OS string.
pub fn read_checkpoint(path: &Path) -> Result<Value, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            CheckpointError::Missing(path.to_path_buf())
        } else {
            CheckpointError::Unreadable {
                path: path.to_path_buf(),
                source: e,
            }
        }
    })?;
    decode(&text)
}

/// Periodic checkpoint sink: owns the target path and the
/// `--checkpoint-every` cadence.
#[derive(Debug, Clone)]
pub struct CheckpointWriter {
    path: PathBuf,
    every: u64,
    written: u64,
    vfs: Arc<dyn Vfs>,
}

impl CheckpointWriter {
    /// A writer flushing to `path` every `every` temperature steps
    /// (`every` is clamped to ≥ 1). Writes go through [`RealVfs`]
    /// unless overridden, and always run the full write, fsync, rename,
    /// directory-fsync sequence.
    pub fn new(path: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointWriter {
            path: path.into(),
            every: every.max(1),
            written: 0,
            vfs: Arc::new(RealVfs),
        }
    }

    /// Route writes through an explicit [`Vfs`] (fault injection).
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Whether the 0-based step index `step` ends a cadence interval.
    pub fn due(&self, step: u64) -> bool {
        (step + 1).is_multiple_of(self.every)
    }

    /// Writes one checkpoint (atomic and durable, see
    /// [`write_checkpoint_with`]).
    pub fn write(&mut self, payload: &Value) -> Result<(), CheckpointError> {
        write_checkpoint_with(self.vfs.as_ref(), &self.path, payload)?;
        self.written += 1;
        Ok(())
    }

    /// Checkpoints written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The target path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Value {
        Value::Object(vec![
            ("step".to_owned(), Value::UInt(17)),
            ("t".to_owned(), 1234.5678f64.encode()),
            ("phase".to_owned(), Value::Str("stage1".to_owned())),
            (
                "rng".to_owned(),
                Value::Array(vec![Value::UInt(u64::MAX), Value::UInt(3)]),
            ),
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let payload = sample_payload();
        let text = encode(&payload);
        assert!(text.starts_with("{\"magic\":\"twmc-ckpt\",\"version\":4,"));
        let back = decode(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), {
            serde_json::to_string(&payload).unwrap()
        });
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("twmc-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let payload = sample_payload();
        write_checkpoint(&path, &payload).unwrap();
        // The temp sibling must be gone after the rename.
        assert!(!dir.join("run.ckpt.tmp").exists());
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&payload).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic_version_and_checksum() {
        let text = encode(&sample_payload());

        let wrong_magic = text.replace("twmc-ckpt", "not-a-ckpt");
        assert!(matches!(
            decode(&wrong_magic),
            Err(CheckpointError::BadMagic(m)) if m == "not-a-ckpt"
        ));

        let current = format!("\"version\":{VERSION}");
        let wrong_version = text.replace(&current, "\"version\":99");
        assert!(matches!(
            decode(&wrong_version),
            Err(CheckpointError::BadVersion(99))
        ));

        // Version-1 (static ladder), version-2 (separate rung records,
        // no ladder round count in the quench) and version-3 (derived
        // placement data in every snapshot) envelopes are rejected as
        // version skew, not misread.
        for old in 1..VERSION {
            let text = text.replace(&current, &format!("\"version\":{old}"));
            assert!(matches!(decode(&text), Err(CheckpointError::BadVersion(v)) if v == old));
        }

        let tampered = text.replace("\"step\":17", "\"step\":18");
        assert!(matches!(
            decode(&tampered),
            Err(CheckpointError::BadChecksum { .. })
        ));
    }

    #[test]
    fn rejects_truncated_and_garbage_input() {
        let text = encode(&sample_payload());
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(
                matches!(decode(&text[..cut]), Err(CheckpointError::Corrupt(_))),
                "truncation at {cut} must be Corrupt"
            );
        }
        assert!(matches!(
            decode("[1,2,3]"),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            decode("{\"version\":1}"),
            Err(CheckpointError::BadMagic(_))
        ));
    }

    #[test]
    fn missing_file_is_typed_and_names_the_path() {
        let err = read_checkpoint(Path::new("/nonexistent/run.ckpt")).unwrap_err();
        assert!(matches!(&err, CheckpointError::Missing(p) if p.ends_with("run.ckpt")));
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent/run.ckpt"), "{msg}");
        assert!(msg.contains("--resume"), "{msg}");
    }

    #[test]
    fn unreadable_file_is_typed() {
        // A directory where a file is expected: read_to_string fails
        // with something other than NotFound on every platform.
        let dir = std::env::temp_dir().join(format!("twmc-resume-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = read_checkpoint(&dir).unwrap_err();
        assert!(matches!(&err, CheckpointError::Unreadable { path, .. } if path == &dir));
        assert!(err.to_string().contains("cannot be read"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_cadence() {
        let w = CheckpointWriter::new("x.ckpt", 5);
        let due: Vec<u64> = (0..12).filter(|&s| w.due(s)).collect();
        assert_eq!(due, vec![4, 9]);
        // every = 0 clamps to every step.
        let w = CheckpointWriter::new("x.ckpt", 0);
        assert!((0..4).all(|s| w.due(s)));
    }

    #[test]
    fn errors_display_usefully() {
        let e = CheckpointError::BadChecksum {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(CheckpointError::BadVersion(7).to_string().contains("7"));
        assert!(CheckpointError::ConfigMismatch("seed 1 vs 2".into())
            .to_string()
            .contains("seed"));
    }
}
