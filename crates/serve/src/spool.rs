//! The spool: one directory per job holding everything the daemon
//! knows about it, so queued and preempted work survives a restart.
//!
//! Layout under the spool root:
//!
//! ```text
//! <root>/<job id>/
//!   spec.json       submission (netlist + knobs), written once
//!   state.json      lifecycle state + counters, rewritten atomically
//!   events.jsonl    the job's telemetry stream (append-only)
//!   job.ckpt        preemption checkpoint (absent unless interrupted)
//!   result.json     final report (done jobs only)
//!   placement.txt   final placement (done jobs only)
//!   trace.jsonl     span-trace capture (terminal jobs only)
//! ```
//!
//! All JSON writes go through tmp-file + fsync + rename + directory
//! fsync (the [`twmc_fault::atomic_write_durable`] discipline, same as
//! the checkpoint crate), so a crash — including power loss — never
//! leaves a torn file. The startup scan sweeps stale `.tmp` siblings a
//! crash mid-write left behind, and moves job directories whose
//! `spec.json`/`state.json` cannot be parsed into `<root>/quarantine/`
//! for operator inspection instead of failing adoption.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Value;
use twmc_fault::{atomic_write_durable, RealVfs, Vfs};

use crate::job::{JobSpec, JobState};
use crate::json::{self, obj};

/// Name of the directory unreadable job dirs are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Handle to the daemon's spool directory.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// Everything `state.json` records about a job's progress.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// How many times the job was preempted.
    pub preemptions: u64,
    /// How many times a worker resumed it from its checkpoint.
    pub resumes: u64,
    /// Error text (failed jobs only).
    pub error: String,
    /// Final TEIL (done jobs only; NaN until then).
    pub teil: f64,
}

impl Default for JobStatus {
    fn default() -> Self {
        JobStatus {
            state: JobState::Queued,
            preemptions: 0,
            resumes: 0,
            error: String::new(),
            teil: f64::NAN,
        }
    }
}

impl JobStatus {
    /// Serializes for `state.json` and the status endpoint.
    pub fn value(&self) -> Value {
        let mut fields = vec![
            ("state", Value::Str(self.state.as_str().to_owned())),
            ("preemptions", Value::UInt(self.preemptions)),
            ("resumes", Value::UInt(self.resumes)),
        ];
        if !self.error.is_empty() {
            fields.push(("error", Value::Str(self.error.clone())));
        }
        if self.teil.is_finite() {
            fields.push(("teil", Value::Float(self.teil)));
        }
        obj(fields)
    }

    /// Decodes a [`JobStatus::value`] tree.
    pub fn from_value(v: &Value) -> Result<JobStatus, String> {
        let state = json::get_str(v, "state")
            .and_then(JobState::parse)
            .ok_or_else(|| "state.json lacks a valid `state`".to_owned())?;
        Ok(JobStatus {
            state,
            preemptions: json::get_u64(v, "preemptions").unwrap_or(0),
            resumes: json::get_u64(v, "resumes").unwrap_or(0),
            error: json::get_str(v, "error").unwrap_or("").to_owned(),
            teil: json::get_f64(v, "teil").unwrap_or(f64::NAN),
        })
    }
}

/// One job recovered by the startup scan.
#[derive(Debug)]
pub struct RecoveredJob {
    /// The persisted submission.
    pub spec: JobSpec,
    /// Its persisted status (a `running` state means the previous
    /// daemon died mid-run; the caller demotes it to `preempted` if a
    /// checkpoint exists, else back to `queued`).
    pub status: JobStatus,
    /// Whether `job.ckpt` exists.
    pub has_checkpoint: bool,
}

/// What the startup scan found.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Recovered jobs, ordered by submission sequence.
    pub jobs: Vec<RecoveredJob>,
    /// Names of job directories moved into `quarantine/` because their
    /// `spec.json`/`state.json` was unreadable or torn.
    pub quarantined: Vec<String>,
    /// Stale `.tmp` siblings (crash mid-atomic-write) that were swept.
    pub swept_tmp: u64,
}

impl Spool {
    /// Opens (creating if needed) the spool at `root`, writing through
    /// the real filesystem.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Spool> {
        Spool::open_with(root, Arc::new(RealVfs))
    }

    /// Opens the spool with an explicit [`Vfs`] — the hook the
    /// fault-injection tests use to tear and fail spool writes.
    pub fn open_with(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> io::Result<Spool> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Spool { root, vfs })
    }

    /// The spool root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Path of the job's telemetry stream.
    pub fn events_path(&self, id: &str) -> PathBuf {
        self.dir(id).join("events.jsonl")
    }

    /// Path of the job's preemption checkpoint.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.dir(id).join("job.ckpt")
    }

    /// The [`Vfs`] spool writes go through.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// Creates the job directory and persists its spec and initial
    /// status. The spool root is fsynced so the new directory entry
    /// survives power loss together with the files inside it.
    pub fn create_job(&self, spec: &JobSpec) -> io::Result<()> {
        let dir = self.dir(&spec.id);
        fs::create_dir_all(&dir)?;
        self.atomic_write(
            &dir.join("spec.json"),
            json::to_text(&spec.value()).as_bytes(),
        )?;
        self.write_status(&spec.id, &JobStatus::default())?;
        self.vfs.sync_dir(&self.root)
    }

    /// Atomically rewrites the job's `state.json`.
    pub fn write_status(&self, id: &str, status: &JobStatus) -> io::Result<()> {
        self.atomic_write(
            &self.dir(id).join("state.json"),
            json::to_text(&status.value()).as_bytes(),
        )
    }

    /// Writes the final report of a completed job.
    pub fn write_result(&self, id: &str, report: &Value) -> io::Result<()> {
        self.atomic_write(
            &self.dir(id).join("result.json"),
            serde_json::to_string_pretty(report)
                .expect("value trees always serialize")
                .as_bytes(),
        )
    }

    /// Reads the final report of a completed job, if present.
    pub fn read_result(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.dir(id).join("result.json")).ok()
    }

    /// Writes the final placement of a completed job.
    pub fn write_placement(&self, id: &str, text: &str) -> io::Result<()> {
        self.atomic_write(&self.dir(id).join("placement.txt"), text.as_bytes())
    }

    /// Reads the final placement of a completed job, if present.
    pub fn read_placement(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.dir(id).join("placement.txt")).ok()
    }

    /// Path of the job's persisted span-trace capture.
    pub fn trace_path(&self, id: &str) -> PathBuf {
        self.dir(id).join("trace.jsonl")
    }

    /// Writes the span-trace capture of a terminal job.
    pub fn write_trace(&self, id: &str, capture: &str) -> io::Result<()> {
        self.atomic_write(&self.trace_path(id), capture.as_bytes())
    }

    /// Reads the persisted span-trace capture, if present.
    pub fn read_trace(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.trace_path(id)).ok()
    }

    /// Reads the job's telemetry stream, truncated at the last newline
    /// so a concurrent buffered write never yields a torn final line.
    pub fn read_events(&self, id: &str) -> io::Result<String> {
        let mut text = fs::read_to_string(self.events_path(id))?;
        match text.rfind('\n') {
            Some(cut) => text.truncate(cut + 1),
            None => text.clear(),
        }
        Ok(text)
    }

    /// Removes the job's checkpoint (after successful completion).
    pub fn remove_checkpoint(&self, id: &str) {
        let _ = self.vfs.remove_file(&self.checkpoint_path(id));
    }

    /// Truncates the job's event stream at its last newline, discarding
    /// a torn final line a crash mid-append left behind. Must run
    /// before a resumed job re-opens the stream in append mode, or the
    /// torn fragment would glue onto the first resumed record and
    /// corrupt the whole stitched stream.
    pub fn truncate_events_to_last_newline(&self, id: &str) -> io::Result<()> {
        let path = self.events_path(id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let keep = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(pos) => pos + 1,
            None => 0,
        };
        if keep != bytes.len() {
            atomic_write_durable(self.vfs.as_ref(), &path, &bytes[..keep])?;
        }
        Ok(())
    }

    /// Scans the spool for persisted jobs, ordered by submission
    /// sequence. Stale `.tmp` siblings from a crash mid-atomic-write
    /// are deleted; directories whose `spec.json`/`state.json` is
    /// unreadable or torn are moved into `<root>/quarantine/` for
    /// operator inspection (reported to stderr) rather than wedging
    /// startup or being half-adopted.
    pub fn scan(&self) -> io::Result<ScanOutcome> {
        let mut out = ScanOutcome::default();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let dir = entry.path();
            if dir.file_name().is_some_and(|n| n == QUARANTINE_DIR) {
                continue;
            }
            out.swept_tmp += sweep_tmp_files(&dir);
            match read_job(&dir) {
                Ok(Some(mut job)) => {
                    job.has_checkpoint = dir.join("job.ckpt").exists();
                    out.jobs.push(job);
                }
                Ok(None) => {}
                Err(e) => {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    eprintln!(
                        "twmc serve: quarantining spool entry {}: {e}",
                        dir.display()
                    );
                    match self.quarantine(&dir, &name) {
                        Ok(()) => out.quarantined.push(name),
                        Err(qe) => eprintln!(
                            "twmc serve: could not quarantine {}: {qe} (leaving in place)",
                            dir.display()
                        ),
                    }
                }
            }
        }
        out.jobs.sort_by_key(|j| j.spec.seq);
        Ok(out)
    }

    /// Moves a corrupt job directory under `quarantine/`, deduplicating
    /// the target name if an earlier incarnation is already there.
    fn quarantine(&self, dir: &Path, name: &str) -> io::Result<()> {
        let qroot = self.root.join(QUARANTINE_DIR);
        fs::create_dir_all(&qroot)?;
        let mut target = qroot.join(name);
        let mut n = 1;
        while target.exists() {
            target = qroot.join(format!("{name}.{n}"));
            n += 1;
        }
        self.vfs.rename(dir, &target)?;
        self.vfs.sync_dir(&self.root)
    }

    /// Writes `bytes` to `path` with the full fsync discipline: tmp
    /// sibling, fsync, rename, parent-directory fsync.
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        atomic_write_durable(self.vfs.as_ref(), path, bytes)
    }
}

/// Deletes `*.tmp` files inside a job directory (both the appended
/// `state.json.tmp` convention and the legacy `state.tmp` one); returns
/// how many were removed.
fn sweep_tmp_files(dir: &Path) -> u64 {
    let mut swept = 0;
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path.extension().is_some_and(|e| e == "tmp") && path.is_file();
        if is_tmp && fs::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Reads one spool directory; `Ok(None)` when it holds no `spec.json`
/// (a foreign directory, not an error).
fn read_job(dir: &Path) -> Result<Option<RecoveredJob>, String> {
    let spec_path = dir.join("spec.json");
    if !spec_path.exists() {
        return Ok(None);
    }
    let spec_text = fs::read_to_string(&spec_path).map_err(|e| format!("spec.json: {e}"))?;
    let spec = JobSpec::from_value(
        &twmc_obs::validate::parse_json(&spec_text).map_err(|e| format!("spec.json: {e}"))?,
    )?;
    let status = match fs::read_to_string(dir.join("state.json")) {
        Ok(text) => JobStatus::from_value(
            &twmc_obs::validate::parse_json(&text).map_err(|e| format!("state.json: {e}"))?,
        )?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => JobStatus::default(),
        Err(e) => return Err(format!("state.json: {e}")),
    };
    Ok(Some(RecoveredJob {
        spec,
        status,
        has_checkpoint: false,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_netlist::{synthesize, write_netlist, SynthParams};

    fn spec(id: &str, seq: u64) -> JobSpec {
        JobSpec {
            id: id.into(),
            seq,
            netlist: write_netlist(&synthesize(&SynthParams {
                cells: 4,
                nets: 6,
                pins: 18,
                seed: seq,
                ..Default::default()
            })),
            ..Default::default()
        }
    }

    fn temp_spool(tag: &str) -> Spool {
        let dir = std::env::temp_dir().join(format!("twmc-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Spool::open(dir).unwrap()
    }

    #[test]
    fn status_roundtrip() {
        let status = JobStatus {
            state: JobState::Preempted,
            preemptions: 2,
            resumes: 1,
            error: String::new(),
            teil: 123.5,
        };
        let text = json::to_text(&status.value());
        let back = JobStatus::from_value(&twmc_obs::validate::parse_json(&text).unwrap()).unwrap();
        assert_eq!(back.state, JobState::Preempted);
        assert_eq!((back.preemptions, back.resumes), (2, 1));
        assert_eq!(back.teil, 123.5);
    }

    #[test]
    fn create_scan_recovers_in_seq_order() {
        let spool = temp_spool("scan");
        for (id, seq) in [("j2", 2), ("j1", 1), ("j3", 3)] {
            spool.create_job(&spec(id, seq)).unwrap();
        }
        let st = JobStatus {
            state: JobState::Preempted,
            preemptions: 1,
            ..Default::default()
        };
        spool.write_status("j2", &st).unwrap();
        fs::write(spool.checkpoint_path("j2"), b"x").unwrap();
        // A foreign directory without spec.json is ignored.
        fs::create_dir_all(spool.root().join("not-a-job")).unwrap();

        let scan = spool.scan().unwrap();
        let jobs = &scan.jobs;
        let ids: Vec<&str> = jobs.iter().map(|j| j.spec.id.as_str()).collect();
        assert_eq!(ids, ["j1", "j2", "j3"]);
        assert_eq!(jobs[1].status.state, JobState::Preempted);
        assert!(jobs[1].has_checkpoint && !jobs[0].has_checkpoint);
        assert!(scan.quarantined.is_empty());
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn events_read_cuts_torn_tail() {
        let spool = temp_spool("events");
        spool.create_job(&spec("j1", 1)).unwrap();
        fs::write(spool.events_path("j1"), "{\"a\":1}\n{\"b\":2}\n{\"tor").unwrap();
        assert_eq!(spool.read_events("j1").unwrap(), "{\"a\":1}\n{\"b\":2}\n");
        // On-disk truncation repairs the file itself before a resumed
        // worker re-opens it in append mode.
        spool.truncate_events_to_last_newline("j1").unwrap();
        assert_eq!(
            fs::read_to_string(spool.events_path("j1")).unwrap(),
            "{\"a\":1}\n{\"b\":2}\n"
        );
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn scan_quarantines_torn_metadata_and_sweeps_tmp() {
        let spool = temp_spool("quarantine");
        spool.create_job(&spec("good", 1)).unwrap();
        spool.create_job(&spec("torn-spec", 2)).unwrap();
        spool.create_job(&spec("torn-state", 3)).unwrap();
        // Tear the metadata files and drop stale tmp siblings.
        let spec_path = spool.root().join("torn-spec").join("spec.json");
        let full = fs::read(&spec_path).unwrap();
        fs::write(&spec_path, &full[..full.len() / 2]).unwrap();
        fs::write(spool.root().join("torn-state").join("state.json"), b"{\"st").unwrap();
        fs::write(spool.root().join("good").join("state.json.tmp"), b"stale").unwrap();
        fs::write(spool.root().join("good").join("state.tmp"), b"legacy").unwrap();

        let scan = spool.scan().unwrap();
        let ids: Vec<&str> = scan.jobs.iter().map(|j| j.spec.id.as_str()).collect();
        assert_eq!(ids, ["good"]);
        let mut q = scan.quarantined.clone();
        q.sort();
        assert_eq!(q, ["torn-spec", "torn-state"]);
        assert_eq!(scan.swept_tmp, 2);
        assert!(!spool.root().join("good").join("state.json.tmp").exists());
        assert!(spool
            .root()
            .join(QUARANTINE_DIR)
            .join("torn-spec")
            .join("spec.json")
            .exists());
        // A rescan adopts the good job again and quarantines nothing new.
        let rescan = spool.scan().unwrap();
        assert_eq!(rescan.jobs.len(), 1);
        assert!(rescan.quarantined.is_empty());
        let _ = fs::remove_dir_all(spool.root());
    }
}
