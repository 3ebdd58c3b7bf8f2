//! Deterministic filesystem fault injection for crash-consistency tests.
//!
//! Every durable write path in the daemon stack (checkpoint envelopes in
//! `twmc-resume`, the job spool in `twmc-serve`, the JSONL telemetry sink in
//! `twmc-obs`) funnels its syscalls through the [`Vfs`] trait defined here.
//! Production code uses [`RealVfs`], a thin passthrough to `std::fs` that
//! adds the fsync discipline the paper-era code skipped. Tests swap in
//! [`FaultVfs`], which injects failures from a seeded, fully deterministic
//! [`FaultSchedule`]:
//!
//! * **EIO / ENOSPC** on write, sync, or rename (`eio=write`,
//!   `enospc=sync_file`) — the classic full-disk and dying-device cases;
//! * **torn writes** (`torn=write`) — the write call reports success but
//!   only a seeded prefix of the bytes reaches the file, modelling a
//!   kernel page writeback cut short by power loss;
//! * **crashpoints** (`crash=state.json:after_rename`) — named markers
//!   between each syscall of the atomic-write sequence. Hitting one
//!   either latches the [`FaultVfs`] into a "machine is off" state where
//!   every subsequent operation fails (the in-process test mode), or
//!   aborts the process outright (`with_abort`, for scripted kill tests).
//!
//! The schedule also carries the replica orchestrator's worker faults
//! (`panic=replica:<k>@<round>`, [`FaultSchedule::replica_round`]), so
//! one grammar describes every fault a test can inject.
//!
//! The one atomic-write sequence everything shares is
//! [`atomic_write_durable`]: write `path.tmp`, fsync it, rename over
//! `path`, fsync the parent directory — with a crashpoint before and after
//! every step ([`ATOMIC_STAGES`]). A recovery harness can therefore
//! enumerate every possible crash prefix of a durable write and assert the
//! reader survives each one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How hard a durable write tries to survive power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No fsync at all: fast, but a crash can lose or tear the write.
    /// Only appropriate for files that are rebuilt from scratch anyway.
    None,
    /// Fsync the file before rename, but not the parent directory. The
    /// file contents are safe; the rename itself may be lost on power
    /// failure (the old version reappears).
    File,
    /// Fsync the file before rename and the parent directory after: the
    /// full discipline. A crash leaves either the old or the new
    /// version, never a torn or missing file.
    Full,
}

/// Abstraction over the syscalls a durable write path performs.
///
/// Implementations must be shareable across threads; the daemon hands one
/// `Arc<dyn Vfs>` to the spool, the checkpoint writer, and the telemetry
/// sink.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Write `bytes` to `path`, creating or truncating it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Read the full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Flush `path`'s data and metadata to stable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Flush the directory entry table of `dir` to stable storage, making
    /// renames and unlinks inside it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically rename `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// A named marker between syscalls of a compound sequence. The real
    /// VFS does nothing; a fault VFS may simulate a crash here. Sequences
    /// must propagate the error and stop immediately when this fails.
    fn crashpoint(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }
}

/// The production [`Vfs`]: a passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directories are fsynced by opening them read-only and calling
        // fsync on the handle; on platforms where that is unsupported
        // (notably Windows) the open itself fails and we degrade to a
        // no-op rather than poisoning an otherwise-successful write.
        match fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// Stage names of the [`atomic_write_durable`] sequence, in order.
///
/// A crashpoint named `"<file_name>:<stage>"` fires before/after each
/// syscall; a recovery harness iterates this list to cover every prefix.
pub const ATOMIC_STAGES: &[&str] = &[
    "before_write",
    "after_write",
    "after_sync_file",
    "after_rename",
    "after_sync_dir",
];

/// Sibling path used for the atomic-write scratch file: `<path>.tmp`.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".tmp");
    PathBuf::from(s)
}

/// The canonical crash-safe write: tmp file, fsync, rename, dir fsync.
///
/// Crashpoints named `"<file_name>:<stage>"` (see [`ATOMIC_STAGES`]) fire
/// between each step so a [`FaultVfs`] can freeze the disk at any prefix
/// of the sequence. With [`Durability::Full`] a crash at any point leaves
/// either the old file intact or the new file complete — never a torn
/// `path`, though a stale `.tmp` sibling may remain for the startup scan
/// to sweep.
pub fn atomic_write_durable(
    vfs: &dyn Vfs,
    path: &Path,
    bytes: &[u8],
    durability: Durability,
) -> io::Result<()> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string_lossy().into_owned());
    let tmp = tmp_sibling(path);
    vfs.crashpoint(&format!("{name}:before_write"))?;
    vfs.write(&tmp, bytes)?;
    vfs.crashpoint(&format!("{name}:after_write"))?;
    if durability != Durability::None {
        vfs.sync_file(&tmp)?;
    }
    vfs.crashpoint(&format!("{name}:after_sync_file"))?;
    vfs.rename(&tmp, path)?;
    vfs.crashpoint(&format!("{name}:after_rename"))?;
    if durability == Durability::Full {
        if let Some(dir) = path.parent() {
            vfs.sync_dir(dir)?;
        }
    }
    vfs.crashpoint(&format!("{name}:after_sync_dir"))?;
    Ok(())
}

/// Which fault a schedule clause injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O error (`EIO`).
    Eio,
    /// Out of space (`ENOSPC`).
    Enospc,
    /// The write reports success but only a seeded prefix lands on disk.
    Torn,
    /// Simulated crash: latch the VFS dead (or abort the process).
    Crash,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "eio" => Some(FaultKind::Eio),
            "enospc" => Some(FaultKind::Enospc),
            "torn" => Some(FaultKind::Torn),
            "crash" => Some(FaultKind::Crash),
            _ => None,
        }
    }

    fn error(&self) -> io::Error {
        match self {
            // 5 = EIO, 28 = ENOSPC on Linux.
            FaultKind::Eio => io::Error::from_raw_os_error(5),
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::Torn => io::Error::other("torn write"),
            FaultKind::Crash => io::Error::other("simulated crash"),
        }
    }
}

/// One clause of a [`FaultSchedule`]: inject `kind` on the `nth` matching
/// occurrence of operation `op` whose path (or crashpoint name) contains
/// `pattern`.
#[derive(Debug, Clone)]
struct FaultRule {
    kind: FaultKind,
    /// Operation name: `write`, `sync_file`, `sync_dir`, `rename`,
    /// `remove_file`, `read`, or `crashpoint`.
    op: String,
    /// Substring the target path / crashpoint name must contain
    /// (empty = match all).
    pattern: String,
    /// Fire on the nth match (1-based); 0 = every match.
    nth: u64,
    hits: u64,
    fired: bool,
}

impl FaultRule {
    fn matches(&mut self, op: &str, target: &str) -> bool {
        if self.op != op || !target.contains(&self.pattern) {
            return false;
        }
        self.hits += 1;
        if self.nth == 0 {
            return true;
        }
        if self.fired || self.hits != self.nth {
            return false;
        }
        self.fired = true;
        true
    }
}

/// A parsed, seeded fault schedule.
///
/// Spec grammar (comma- or semicolon-separated clauses):
///
/// ```text
/// seed=42, enospc=write:state.json@2, torn=write:run.ckpt, crash=job.ckpt:after_rename
/// ```
///
/// * `seed=N` — seeds the deterministic torn-write length choice;
/// * `<fault>=<op>[:<pattern>][@<nth>]` with fault ∈ `eio | enospc |
///   torn`, op ∈ `write | sync_file | sync_dir | rename | remove_file |
///   read`, `pattern` a path substring, `nth` the 1-based occurrence to
///   hit (omitted = every occurrence);
/// * `crash=<pattern>[@<nth>]` — fire at the crashpoint whose name
///   contains `pattern` (crashpoint names are `"<file>:<stage>"`, e.g.
///   `state.json:after_rename`);
/// * `panic=replica:<k>@<round>` — the annealing worker of replica (or
///   rung) `k` panics when it reaches round `round` of its ensemble
///   ([`FaultSchedule::replica_round`]). The filesystem never sees
///   these clauses; the replica orchestrator probes them.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    seed: u64,
    rules: Vec<FaultRule>,
    /// `(replica, round)` coordinates of the `panic=` clauses.
    panics: Vec<(usize, usize)>,
}

impl FaultSchedule {
    /// Parse a schedule spec; returns a human-readable error for bad
    /// clauses.
    pub fn parse(spec: &str) -> Result<FaultSchedule, String> {
        let mut sched = FaultSchedule::default();
        for clause in spec.split([',', ';']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}`: expected key=value"))?;
            let (key, val) = (key.trim(), val.trim());
            if key == "seed" {
                sched.seed = val
                    .parse()
                    .map_err(|_| format!("fault clause `{clause}`: bad seed"))?;
                continue;
            }
            if key == "panic" {
                let at = val
                    .strip_prefix("replica:")
                    .and_then(|at| at.split_once('@'))
                    .and_then(|(k, round)| Some((k.parse().ok()?, round.parse().ok()?)))
                    .ok_or_else(|| {
                        format!("fault clause `{clause}`: expected panic=replica:<k>@<round>")
                    })?;
                sched.panics.push(at);
                continue;
            }
            let kind = FaultKind::parse(key)
                .ok_or_else(|| format!("fault clause `{clause}`: unknown fault `{key}`"))?;
            let (body, nth) = match val.rsplit_once('@') {
                Some((body, n)) => (
                    body,
                    n.parse::<u64>()
                        .map_err(|_| format!("fault clause `{clause}`: bad occurrence"))?,
                ),
                None => (val, 0),
            };
            let (op, pattern) = if kind == FaultKind::Crash {
                ("crashpoint".to_string(), body.to_string())
            } else {
                match body.split_once(':') {
                    Some((op, pat)) => (op.to_string(), pat.to_string()),
                    None => (body.to_string(), String::new()),
                }
            };
            const OPS: &[&str] = &[
                "write",
                "sync_file",
                "sync_dir",
                "rename",
                "remove_file",
                "read",
                "crashpoint",
            ];
            if !OPS.contains(&op.as_str()) {
                return Err(format!("fault clause `{clause}`: unknown op `{op}`"));
            }
            sched.rules.push(FaultRule {
                kind,
                op,
                pattern,
                nth,
                hits: 0,
                fired: false,
            });
        }
        Ok(sched)
    }

    /// Convenience: a schedule with a single crashpoint clause matching
    /// `pattern` on its first occurrence.
    pub fn crash_at(pattern: &str) -> FaultSchedule {
        FaultSchedule {
            rules: vec![FaultRule {
                kind: FaultKind::Crash,
                op: "crashpoint".to_string(),
                pattern: pattern.to_string(),
                nth: 1,
                hits: 0,
                fired: false,
            }],
            ..FaultSchedule::default()
        }
    }

    /// Whether any `panic=` clause is present.
    pub fn has_replica_panics(&self) -> bool {
        !self.panics.is_empty()
    }

    /// The replica probe: panics with `injected fault: replica <k> at
    /// round <r>` when a `panic=replica:<k>@<r>` clause names this
    /// coordinate. The probe keeps no state, so a run resumed from a
    /// checkpoint taken before the coordinate meets the fault again, as
    /// the uninterrupted run did.
    pub fn replica_round(&self, replica: usize, round: usize) {
        if self.panics.contains(&(replica, round)) {
            panic!("injected fault: replica {replica} at round {round}");
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`Vfs`] that injects faults from a [`FaultSchedule`].
///
/// All real I/O is delegated to `std::fs`; the schedule decides which
/// calls fail instead (or, for torn writes, half-succeed). Once a crash
/// fires, the VFS latches: every subsequent operation fails with a
/// "crashed" error, modelling a machine that is off. With
/// [`with_abort`](FaultVfs::with_abort) the crash calls
/// `std::process::abort()` instead, for harnesses that really do restart
/// a process.
#[derive(Debug)]
pub struct FaultVfs {
    sched: Mutex<FaultSchedule>,
    crashed: AtomicBool,
    abort_on_crash: bool,
    torn_writes: AtomicBool,
}

impl FaultVfs {
    /// Build a fault VFS over a parsed schedule (latch-mode crashes).
    pub fn new(sched: FaultSchedule) -> FaultVfs {
        FaultVfs {
            sched: Mutex::new(sched),
            crashed: AtomicBool::new(false),
            abort_on_crash: false,
            torn_writes: AtomicBool::new(false),
        }
    }

    /// Make crashpoint hits abort the process instead of latching.
    /// Use only under a harness that expects the process to die.
    pub fn with_abort(mut self) -> FaultVfs {
        self.abort_on_crash = true;
        self
    }

    /// True once a crash clause has fired (latch mode). All operations
    /// fail from that moment on; the on-disk state is frozen exactly as
    /// it was at the crashpoint.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Did any torn-write clause fire yet?
    pub fn tore(&self) -> bool {
        self.torn_writes.load(Ordering::SeqCst)
    }

    fn check(&self, op: &str, target: &Path) -> io::Result<Option<FaultKind>> {
        self.check_name(op, &target.to_string_lossy())
    }

    fn check_name(&self, op: &str, target: &str) -> io::Result<Option<FaultKind>> {
        if self.crashed() {
            return Err(io::Error::other("vfs crashed (simulated power loss)"));
        }
        let mut sched = self.sched.lock().unwrap();
        for rule in &mut sched.rules {
            if rule.matches(op, target) {
                if rule.kind == FaultKind::Crash {
                    drop(sched);
                    if self.abort_on_crash {
                        eprintln!("twmc-fault: aborting at crashpoint `{target}`");
                        std::process::abort();
                    }
                    self.crashed.store(true, Ordering::SeqCst);
                    return Err(io::Error::other(format!("simulated crash at `{target}`")));
                }
                return Ok(Some(rule.kind));
            }
        }
        Ok(None)
    }

    fn torn_len(&self, path: &Path, full: usize) -> usize {
        let sched = self.sched.lock().unwrap();
        let mut h = sched.seed ^ 0x7477_6d63_5f66_6c74; // "twmc_flt"
        for b in path.to_string_lossy().as_bytes() {
            h = splitmix64(h ^ u64::from(*b));
        }
        if full == 0 {
            0
        } else {
            (splitmix64(h) % full as u64) as usize
        }
    }
}

impl Vfs for FaultVfs {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.check("write", path)? {
            Some(FaultKind::Torn) => {
                self.torn_writes.store(true, Ordering::SeqCst);
                let keep = self.torn_len(path, bytes.len());
                let mut f = fs::File::create(path)?;
                f.write_all(&bytes[..keep])?;
                // The caller sees success: exactly what a page-cache
                // write followed by power loss looks like.
                Ok(())
            }
            Some(kind) => Err(kind.error()),
            None => fs::write(path, bytes),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.check("read", path)? {
            Some(kind) => Err(kind.error()),
            None => {
                let mut buf = Vec::new();
                fs::File::open(path)?.read_to_end(&mut buf)?;
                Ok(buf)
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.check("sync_file", path)? {
            Some(kind) => Err(kind.error()),
            None => fs::File::open(path)?.sync_all(),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.check("sync_dir", dir)? {
            Some(kind) => Err(kind.error()),
            None => match fs::File::open(dir) {
                Ok(d) => d.sync_all(),
                Err(_) => Ok(()),
            },
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.check("rename", to)? {
            Some(kind) => Err(kind.error()),
            None => fs::rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.check("remove_file", path)? {
            Some(kind) => Err(kind.error()),
            None => fs::remove_file(path),
        }
    }

    fn crashpoint(&self, name: &str) -> io::Result<()> {
        match self.check_name("crashpoint", name)? {
            Some(kind) => Err(kind.error()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("twmc-fault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_vfs_atomic_write_roundtrips() {
        let dir = tmpdir("real");
        let path = dir.join("state.json");
        atomic_write_durable(&RealVfs, &path, b"{\"a\":1}", Durability::Full).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"a\":1}");
        assert!(!tmp_sibling(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_parses_and_rejects() {
        let s = FaultSchedule::parse("seed=7, enospc=write:state.json@2, crash=ckpt:after_rename")
            .unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.rules.len(), 2);
        assert!(FaultSchedule::parse("bogus=write").is_err());
        assert!(FaultSchedule::parse("eio=frobnicate").is_err());
        assert!(FaultSchedule::parse("eio").is_err());
        assert!(FaultSchedule::parse("eio=write:x@zz").is_err());
    }

    #[test]
    fn replica_panic_clauses_parse_and_fire_at_their_coordinate() {
        let s = FaultSchedule::parse("seed=1, panic=replica:2@5; panic=replica:0@0").unwrap();
        assert_eq!(s.panics, [(2, 5), (0, 0)]);
        assert!(s.rules.is_empty() && s.has_replica_panics());
        s.replica_round(2, 4);
        s.replica_round(1, 5);
        let caught = std::panic::catch_unwind(|| s.replica_round(2, 5)).unwrap_err();
        let msg = caught.downcast_ref::<String>().expect("formatted message");
        assert_eq!(msg, "injected fault: replica 2 at round 5");
        for bad in [
            "panic=2@5",
            "panic=replica:2",
            "panic=replica:x@5",
            "panic=replica:2@-1",
        ] {
            assert!(FaultSchedule::parse(bad).is_err(), "{bad}");
        }
        assert!(!FaultSchedule::parse("eio=write")
            .unwrap()
            .has_replica_panics());
    }

    #[test]
    fn enospc_fires_on_nth_occurrence_only() {
        let dir = tmpdir("nth");
        let vfs = FaultVfs::new(FaultSchedule::parse("enospc=write:state.json@2").unwrap());
        let path = dir.join("state.json");
        vfs.write(&path, b"one").unwrap();
        let err = vfs.write(&path, b"two").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        vfs.write(&path, b"three").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"three");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_reports_success_but_truncates_deterministically() {
        let dir = tmpdir("torn");
        let vfs = FaultVfs::new(FaultSchedule::parse("seed=3, torn=write:run.ckpt@1").unwrap());
        let path = dir.join("run.ckpt");
        let payload = vec![b'x'; 1000];
        vfs.write(&path, &payload).unwrap();
        let len1 = fs::read(&path).unwrap().len();
        assert!(len1 < payload.len(), "torn write must shorten the file");
        assert!(vfs.tore());
        // Same seed, same path => same tear point.
        let vfs2 = FaultVfs::new(FaultSchedule::parse("seed=3, torn=write:run.ckpt@1").unwrap());
        vfs2.write(&path, &payload).unwrap();
        assert_eq!(fs::read(&path).unwrap().len(), len1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_latches_and_freezes_disk_state() {
        let dir = tmpdir("crash");
        let path = dir.join("state.json");
        fs::write(&path, b"old").unwrap();
        let vfs = FaultVfs::new(FaultSchedule::crash_at("state.json:after_sync_file"));
        let err = atomic_write_durable(&vfs, &path, b"new", Durability::Full).unwrap_err();
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(vfs.crashed());
        // Frozen at after_sync_file: tmp exists with full contents, the
        // target still holds the old version, and the dead VFS rejects
        // further work.
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert_eq!(fs::read(tmp_sibling(&path)).unwrap(), b"new");
        assert!(vfs.write(&path, b"again").is_err());
        assert!(vfs.read(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_atomic_stage_crash_leaves_old_or_new_never_torn() {
        for stage in ATOMIC_STAGES {
            let dir = tmpdir(&format!("stage-{stage}"));
            let path = dir.join("job.ckpt");
            fs::write(&path, b"old-version").unwrap();
            let vfs = FaultVfs::new(FaultSchedule::crash_at(&format!("job.ckpt:{stage}")));
            let res = atomic_write_durable(&vfs, &path, b"new-version", Durability::Full);
            if *stage == "after_sync_dir" {
                // The final crashpoint fires after the sequence is
                // already durable; the write itself errors but the new
                // version is on disk.
                assert!(res.is_err());
                assert_eq!(fs::read(&path).unwrap(), b"new-version");
            } else {
                assert!(res.is_err());
                let got = fs::read(&path).unwrap();
                assert!(
                    got == b"old-version" || got == b"new-version",
                    "stage {stage}: target must be old or new, got {} bytes",
                    got.len()
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn eio_on_sync_dir_surfaces_with_full_durability_only() {
        let dir = tmpdir("syncdir");
        let path = dir.join("spec.json");
        let vfs = FaultVfs::new(FaultSchedule::parse("eio=sync_dir").unwrap());
        assert!(atomic_write_durable(&vfs, &path, b"x", Durability::Full).is_err());
        // File mode never touches the directory, so the same schedule
        // passes.
        let vfs = FaultVfs::new(FaultSchedule::parse("eio=sync_dir").unwrap());
        atomic_write_durable(&vfs, &path, b"x", Durability::File).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"x");
        let _ = fs::remove_dir_all(&dir);
    }
}
