//! Job model: what a placement job is, its lifecycle state machine,
//! and the (de)serialization of both for the wire and the spool.

use serde::Value;
use twmc_core::{ParallelParams, PlacedCellRecord, Strategy, TimberWolfConfig};
use twmc_netlist::{parse_netlist, parse_yal, Netlist};
use twmc_place::PlaceParams;

use crate::http::Request;
use crate::json::{self, obj};

/// The lifecycle of a job.
///
/// ```text
/// queued -> running -> done
///             |    \-> failed
///             v
///         preempted -> (queued again) -> running -> …
///   queued/running -> cancelled
/// ```
///
/// `preempted` is re-enqueued automatically (or, across a daemon
/// restart, re-enqueued on startup from its spool checkpoint); `done`,
/// `failed`, and `cancelled` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Assigned to a worker and annealing.
    Running,
    /// Interrupted at a round boundary with a checkpoint; will resume.
    Preempted,
    /// Completed; placement and report are available.
    Done,
    /// The pipeline errored or panicked.
    Failed,
    /// Removed by the client before completion.
    Cancelled,
}

impl JobState {
    /// The stable wire string of this state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire string back into a state.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "preempted" => JobState::Preempted,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job can never run again.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One placement job as submitted: the circuit plus the run knobs the
/// CLI would have taken as flags.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Daemon-assigned job id (`"j1"`, `"j2"`, …).
    pub id: String,
    /// Submission sequence number — the FIFO tiebreak within a
    /// priority class, preserved across preemption and restarts.
    pub seq: u64,
    /// Optional client label (diagnostics only).
    pub label: String,
    /// Scheduling priority; higher runs sooner and may preempt lower.
    pub priority: i64,
    /// Netlist text (in-house `.twn` format, or YAL).
    pub netlist: String,
    /// Whether `netlist` is YAL rather than `.twn`.
    pub yal: bool,
    /// Master RNG seed.
    pub seed: u64,
    /// Attempts per cell (`A_c`); the quality/CPU dial.
    pub ac: usize,
    /// Stage-1 replicas.
    pub replicas: usize,
    /// Worker threads inside the job (default 1: the daemon's own pool
    /// provides the parallelism across jobs).
    pub threads: usize,
    /// Orchestration strategy (`multistart` / `tempering`).
    pub strategy: Strategy,
    /// Tempering swap interval.
    pub swap_interval: usize,
    /// Client-supplied `Idempotency-Key` (empty when none). Persisted
    /// in `spec.json` so a retry after a daemon restart still dedupes
    /// against the already-accepted job.
    pub idempotency_key: String,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            id: String::new(),
            seq: 0,
            label: String::new(),
            priority: 0,
            netlist: String::new(),
            yal: false,
            seed: 42,
            ac: 25,
            replicas: 1,
            threads: 1,
            strategy: Strategy::MultiStart,
            swap_interval: 1,
            idempotency_key: String::new(),
        }
    }
}

impl JobSpec {
    /// Builds a spec from a `POST /jobs` request. Two body forms are
    /// accepted: an `application/json` object (`{"netlist": "...",
    /// "seed": 7, …}`), or a raw netlist body with the knobs as query
    /// parameters (`POST /jobs?seed=7&ac=10` — the curl-friendly form).
    pub fn from_request(req: &Request) -> Result<JobSpec, String> {
        let body =
            std::str::from_utf8(&req.body).map_err(|_| "request body is not UTF-8".to_owned())?;
        let json_body = req.content_type.contains("json")
            || (req.content_type.is_empty() && body.trim_start().starts_with('{'));
        let mut spec = JobSpec {
            idempotency_key: req.idempotency_key.clone(),
            ..JobSpec::default()
        };
        if json_body {
            let v = twmc_obs::validate::parse_json(body)
                .map_err(|e| format!("request body is not valid JSON: {e}"))?;
            spec.netlist = json::get_str(&v, "netlist")
                .ok_or_else(|| "JSON body needs a string `netlist` field".to_owned())?
                .to_owned();
            spec.label = json::get_str(&v, "label").unwrap_or("").to_owned();
            spec.yal = json::get_bool(&v, "yal")
                .unwrap_or_else(|| json::get_str(&v, "format") == Some("yal"));
            if let Some(p) = json::get_i64(&v, "priority") {
                spec.priority = p;
            }
            if let Some(s) = json::get_u64(&v, "seed") {
                spec.seed = s;
            }
            if let Some(n) = json::get_u64(&v, "ac") {
                spec.ac = n as usize;
            }
            if let Some(n) = json::get_u64(&v, "replicas") {
                spec.replicas = n as usize;
            }
            if let Some(n) = json::get_u64(&v, "threads") {
                spec.threads = n as usize;
            }
            if let Some(s) = json::get_str(&v, "strategy") {
                spec.strategy = s.parse()?;
            }
            if let Some(n) = json::get_u64(&v, "swap_interval") {
                spec.swap_interval = n as usize;
            }
        } else {
            spec.netlist = body.to_owned();
            spec.label = req.query_param("label").unwrap_or("").to_owned();
            spec.yal = matches!(req.query_param("format"), Some("yal"))
                || matches!(req.query_param("yal"), Some("1" | "true"));
            let num = |name: &str, what: &str| -> Result<Option<i64>, String> {
                match req.query_param(name) {
                    None | Some("") => Ok(None),
                    Some(raw) => raw
                        .parse()
                        .map(Some)
                        .map_err(|_| format!("query parameter `{name}` ({what}) is not a number")),
                }
            };
            if let Some(p) = num("priority", "scheduling priority")? {
                spec.priority = p;
            }
            if let Some(s) = num("seed", "RNG seed")? {
                spec.seed = s as u64;
            }
            if let Some(n) = num("ac", "attempts per cell")? {
                spec.ac = n.max(0) as usize;
            }
            if let Some(n) = num("replicas", "replica count")? {
                spec.replicas = n.max(0) as usize;
            }
            if let Some(n) = num("threads", "job threads")? {
                spec.threads = n.max(0) as usize;
            }
            if let Some(s) = req.query_param("strategy") {
                spec.strategy = s.parse()?;
            }
            if let Some(n) = num("swap-interval", "swap interval")? {
                spec.swap_interval = n.max(0) as usize;
            }
        }
        if spec.netlist.trim().is_empty() {
            return Err("job has an empty netlist".to_owned());
        }
        if spec.ac == 0 {
            return Err("`ac` must be at least 1".to_owned());
        }
        // Replica-count and swap-interval constraints are owned by the
        // orchestrator; reject here so a bad spec is a clean 400 at
        // submission time, not a failed job.
        spec.config().parallel.validate()?;
        // Fail bad circuits at submission time (a clean 400), not in a
        // worker (an opaque `failed` job).
        spec.parse_netlist()?;
        Ok(spec)
    }

    /// Parses the embedded netlist text.
    pub fn parse_netlist(&self) -> Result<Netlist, String> {
        if self.yal {
            parse_yal(&self.netlist).map_err(|e| format!("YAL netlist: {e}"))
        } else {
            parse_netlist(&self.netlist).map_err(|e| format!("netlist: {e}"))
        }
    }

    /// The pipeline configuration this job runs under — the same
    /// mapping the CLI's `place` flags use.
    pub fn config(&self) -> TimberWolfConfig {
        TimberWolfConfig {
            place: PlaceParams {
                attempts_per_cell: self.ac,
                ..Default::default()
            },
            parallel: ParallelParams {
                replicas: self.replicas,
                threads: self.threads,
                strategy: self.strategy,
                swap_interval: self.swap_interval,
            },
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Serializes the spec for the spool (`spec.json`).
    pub fn value(&self) -> Value {
        let mut fields = vec![
            ("id", Value::Str(self.id.clone())),
            ("seq", Value::UInt(self.seq)),
            ("label", Value::Str(self.label.clone())),
            ("priority", Value::Int(self.priority)),
            ("netlist", Value::Str(self.netlist.clone())),
            ("yal", Value::Bool(self.yal)),
            ("seed", Value::UInt(self.seed)),
            ("ac", Value::UInt(self.ac as u64)),
            ("replicas", Value::UInt(self.replicas as u64)),
            ("threads", Value::UInt(self.threads as u64)),
            ("strategy", Value::Str(self.strategy.to_string())),
            ("swap_interval", Value::UInt(self.swap_interval as u64)),
        ];
        if !self.idempotency_key.is_empty() {
            fields.push(("idempotency_key", Value::Str(self.idempotency_key.clone())));
        }
        obj(fields)
    }

    /// Decodes a [`JobSpec::value`] tree.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let strategy: Strategy = json::get_str(v, "strategy")
            .ok_or_else(|| "spec lacks `strategy`".to_owned())?
            .parse()?;
        Ok(JobSpec {
            id: json::get_str(v, "id")
                .ok_or_else(|| "spec lacks `id`".to_owned())?
                .to_owned(),
            seq: json::get_u64(v, "seq").ok_or_else(|| "spec lacks `seq`".to_owned())?,
            label: json::get_str(v, "label").unwrap_or("").to_owned(),
            priority: json::get_i64(v, "priority").unwrap_or(0),
            netlist: json::get_str(v, "netlist")
                .ok_or_else(|| "spec lacks `netlist`".to_owned())?
                .to_owned(),
            yal: json::get_bool(v, "yal").unwrap_or(false),
            seed: json::get_u64(v, "seed").unwrap_or(42),
            ac: json::get_u64(v, "ac").unwrap_or(25) as usize,
            replicas: json::get_u64(v, "replicas").unwrap_or(1) as usize,
            threads: json::get_u64(v, "threads").unwrap_or(1) as usize,
            strategy,
            swap_interval: json::get_u64(v, "swap_interval").unwrap_or(1) as usize,
            idempotency_key: json::get_str(v, "idempotency_key").unwrap_or("").to_owned(),
        })
    }
}

/// Renders a placement as text: the CLI's `--placement` file and the
/// daemon's `/placement` body. One line per cell, byte-stable for a
/// given placement, which is what the bit-identical preemption/resume
/// checks compare.
pub fn placement_text(cells: &[PlacedCellRecord]) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for c in cells {
        let _ = writeln!(
            text,
            "{} {} {} {:?} instance={} aspect={:.3}",
            c.name, c.pos.x, c.pos.y, c.orientation, c.instance, c.aspect
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_netlist::{synthesize, write_netlist, SynthParams};

    fn tiny_netlist_text() -> String {
        write_netlist(&synthesize(&SynthParams {
            cells: 4,
            nets: 6,
            pins: 20,
            seed: 1,
            ..Default::default()
        }))
    }

    fn raw_request(query: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/jobs".into(),
            query: query.into(),
            content_type: String::new(),
            idempotency_key: String::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn state_strings_roundtrip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Preempted,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("bogus"), None);
        assert!(JobState::Done.terminal() && !JobState::Preempted.terminal());
    }

    #[test]
    fn raw_body_with_query_params() {
        let text = tiny_netlist_text();
        let req = raw_request("seed=9&ac=7&priority=3&label=smoke", &text);
        let spec = JobSpec::from_request(&req).unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.ac, 7);
        assert_eq!(spec.priority, 3);
        assert_eq!(spec.label, "smoke");
        assert_eq!(spec.netlist, text);
        spec.parse_netlist().unwrap();
    }

    #[test]
    fn json_body_form() {
        let text = tiny_netlist_text();
        let body = json::to_text(&obj(vec![
            ("netlist", Value::Str(text.clone())),
            ("seed", Value::UInt(5)),
            ("ac", Value::UInt(11)),
            ("priority", Value::Int(-1)),
            ("strategy", Value::Str("tempering".into())),
            ("replicas", Value::UInt(2)),
        ]));
        let mut req = raw_request("", &body);
        req.content_type = "application/json".into();
        let spec = JobSpec::from_request(&req).unwrap();
        assert_eq!(spec.seed, 5);
        assert_eq!(spec.ac, 11);
        assert_eq!(spec.priority, -1);
        assert_eq!(spec.strategy, Strategy::Tempering);
        assert_eq!(spec.replicas, 2);
    }

    #[test]
    fn rejects_bad_submissions() {
        assert!(JobSpec::from_request(&raw_request("", "")).is_err());
        assert!(JobSpec::from_request(&raw_request("", "not a netlist")).is_err());
        assert!(JobSpec::from_request(&raw_request("seed=abc", &tiny_netlist_text())).is_err());
        let mut req = raw_request("", "{\"seed\":1}");
        req.content_type = "application/json".into();
        let err = JobSpec::from_request(&req).unwrap_err();
        assert!(err.contains("netlist"), "{err}");
    }

    #[test]
    fn rejects_degenerate_parallel_knobs() {
        let text = tiny_netlist_text();
        let err = JobSpec::from_request(&raw_request("swap-interval=0", &text)).unwrap_err();
        assert!(
            err.contains("swap_interval") && err.contains("valid range"),
            "{err}"
        );
        let err = JobSpec::from_request(&raw_request("strategy=tempering&replicas=1", &text))
            .unwrap_err();
        assert!(err.contains("at least 2 replicas"), "{err}");
        let err = JobSpec::from_request(&raw_request("replicas=0", &text)).unwrap_err();
        assert!(err.contains("replicas"), "{err}");
    }

    #[test]
    fn spec_spool_roundtrip() {
        let mut spec = JobSpec {
            id: "j7".into(),
            seq: 7,
            label: "x".into(),
            priority: 2,
            netlist: tiny_netlist_text(),
            ..Default::default()
        };
        spec.strategy = Strategy::Tempering;
        let text = json::to_text(&spec.value());
        let back = JobSpec::from_value(&twmc_obs::validate::parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn idempotency_key_rides_request_and_spool() {
        let text = tiny_netlist_text();
        let mut req = raw_request("seed=3", &text);
        req.idempotency_key = "retry-key-1".into();
        let spec = JobSpec::from_request(&req).unwrap();
        assert_eq!(spec.idempotency_key, "retry-key-1");
        let back = JobSpec::from_value(
            &twmc_obs::validate::parse_json(&json::to_text(&spec.value())).unwrap(),
        )
        .unwrap();
        assert_eq!(back.idempotency_key, "retry-key-1");
        // Absent key serializes to nothing and decodes to empty.
        let plain = JobSpec {
            netlist: text,
            ..Default::default()
        };
        assert!(!json::to_text(&plain.value()).contains("idempotency_key"));
    }

    #[test]
    fn config_maps_the_knobs() {
        let spec = JobSpec {
            ac: 33,
            seed: 12,
            replicas: 3,
            ..Default::default()
        };
        let config = spec.config();
        assert_eq!(config.place.attempts_per_cell, 33);
        assert_eq!(config.seed, 12);
        assert_eq!(config.parallel.replicas, 3);
        assert_eq!(config.parallel.threads, 1);
    }
}
