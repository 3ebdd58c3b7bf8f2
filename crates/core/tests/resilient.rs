//! Pipeline-level crash-safety: interrupt the full TimberWolfMC flow
//! mid-stage-1 or mid-stage-2, resume from the checkpoint, and land on
//! the bit-identical final chip.
//!
//! Event streams at this level carry wall-clock fields, so these tests
//! compare the *results* (placement, TEIL bits, chip, routed length);
//! the telemetry prefix/suffix contract is proven per-stage in
//! `twmc-parallel`'s resilience tests, and a stage-2 cut's stitched
//! stream is compared here through the reader, wall clocks aside.

use std::path::PathBuf;

use twmc_analyze::{metrics, parse_stream, Metrics, RunStream};
use twmc_core::{run_timberwolf_resilient, RunCtrl, RunOutcome, Strategy, TimberWolfConfig};
use twmc_netlist::{synthesize, Netlist, SynthParams};
use twmc_obs::{CancelToken, JsonlRecorder, NullRecorder, StopReason};
use twmc_place::PlaceParams;
use twmc_resume::{read_checkpoint, CheckpointWriter};

fn circuit() -> Netlist {
    synthesize(&SynthParams {
        cells: 8,
        nets: 16,
        pins: 50,
        custom_fraction: 0.25,
        seed: 2,
        avg_cell_dim: 20,
        ..Default::default()
    })
}

fn config(replicas: usize) -> TimberWolfConfig {
    let mut cfg = TimberWolfConfig {
        place: PlaceParams {
            attempts_per_cell: 8,
            normalization_samples: 8,
            ..Default::default()
        },
        refine: twmc_refine::RefineParams {
            router: twmc_route::RouterParams {
                m_alternatives: 6,
                per_level: 3,
            },
        },
        seed: 5,
        ..Default::default()
    };
    cfg.parallel.replicas = replicas;
    cfg.parallel.strategy = Strategy::MultiStart;
    cfg
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twmc-core-resilient-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}.ckpt"))
}

/// Runs the pipeline to completion under `opts`, returning the result
/// and the total moves its cancel token accounted.
fn complete(
    nl: &Netlist,
    cfg: &TimberWolfConfig,
    opts: RunCtrl,
) -> (twmc_core::TimberWolfResult, u64) {
    let token = opts.cancel.clone();
    match run_timberwolf_resilient(nl, cfg, opts, &mut NullRecorder).expect("run succeeds") {
        RunOutcome::Complete(r) => (r, token.moves()),
        RunOutcome::Interrupted(i) => {
            panic!("unexpected interrupt ({:?}) in {}", i.reason, i.stage)
        }
    }
}

fn assert_same_chip(a: &twmc_core::TimberWolfResult, b: &twmc_core::TimberWolfResult) {
    assert_eq!(a.teil.to_bits(), b.teil.to_bits(), "final TEIL differs");
    assert_eq!(a.chip, b.chip, "chip bbox differs");
    assert_eq!(a.routed_length, b.routed_length, "routed length differs");
    assert_eq!(a.placement, b.placement, "placement differs");
    assert_eq!(
        a.stage1.teil.to_bits(),
        b.stage1.teil.to_bits(),
        "stage-1 TEIL differs"
    );
}

/// Interrupt at `budget` moves (checkpointing every 3 steps), resume
/// from the checkpoint, and demand the bit-identical final chip.
fn assert_interrupt_resume_identical(replicas: usize, budget: u64, stage: &str, tag: &str) {
    let nl = circuit();
    let cfg = config(replicas);
    let (reference, _) = complete(&nl, &cfg, RunCtrl::default());

    let path = temp_path(tag);
    let opts = RunCtrl {
        cancel: CancelToken::new().with_max_moves(budget),
        writer: Some(CheckpointWriter::new(&path, 3)),
        ..Default::default()
    };
    let cut = match run_timberwolf_resilient(&nl, &cfg, opts, &mut NullRecorder)
        .expect("interrupted run succeeds")
    {
        RunOutcome::Interrupted(i) => i,
        RunOutcome::Complete(_) => panic!("budget {budget} did not interrupt"),
    };
    assert_eq!(cut.reason, StopReason::MoveBudget);
    assert_eq!(cut.stage, stage, "interrupt landed in the wrong stage");
    assert_eq!(cut.placement.len(), nl.cells().len());
    assert!(cut.teil > 0.0 && cut.cost > 0.0);

    let payload = read_checkpoint(&path).expect("checkpoint readable");
    let resumed = RunCtrl {
        resume: Some(payload),
        ..Default::default()
    };
    let (result, _) = complete(&nl, &cfg, resumed);
    assert_same_chip(&reference, &result);
}

#[test]
fn default_options_match_the_plain_pipeline() {
    let nl = circuit();
    let cfg = config(1);
    let plain = twmc_core::run_timberwolf(&nl, &cfg);
    let (resilient, moves) = complete(&nl, &cfg, RunCtrl::default());
    assert_same_chip(&plain, &resilient);
    assert!(moves > 0, "cancel token saw no move accounting");
}

#[test]
fn stage1_interrupt_then_resume_is_bit_identical() {
    // ~10% of a full run's moves is deep inside the stage-1 cooling.
    let nl = circuit();
    let cfg = config(1);
    let (_, total) = complete(&nl, &cfg, RunCtrl::default());
    assert_interrupt_resume_identical(1, total / 10, "stage1", "stage1-single");
}

#[test]
fn multistart_stage1_interrupt_then_resume_is_bit_identical() {
    let nl = circuit();
    let cfg = config(2);
    let (_, total) = complete(&nl, &cfg, RunCtrl::default());
    assert_interrupt_resume_identical(2, total / 10, "stage1", "stage1-multistart");
}

#[test]
fn stage2_interrupt_resumes_from_the_stage1_complete_checkpoint() {
    // total-1 moves trips the budget at the very last accounted step,
    // which lives in the final stage-2 refinement anneal.
    let nl = circuit();
    let cfg = config(1);
    let (_, total) = complete(&nl, &cfg, RunCtrl::default());
    assert_interrupt_resume_identical(1, total - 1, "stage2", "stage2-cut");
}

/// Runs the pipeline under `opts` into a JSONL memory sink.
fn recorded(nl: &Netlist, cfg: &TimberWolfConfig, opts: RunCtrl) -> (RunOutcome, String) {
    let mut rec = JsonlRecorder::new(Vec::new());
    let outcome = run_timberwolf_resilient(nl, cfg, opts, &mut rec).expect("run succeeds");
    let bytes = rec.finish().expect("memory sink");
    (outcome, String::from_utf8(bytes).expect("utf-8 stream"))
}

/// What a stitched stream shares with the uninterrupted one: steps,
/// routings, stage spans in order and metrics, wall clocks aside.
fn comparable(s: &RunStream) -> impl PartialEq + std::fmt::Debug {
    let spans: Vec<_> = s
        .spans
        .iter()
        .map(|x| (x.stage.clone(), x.iteration))
        .collect();
    let timeless = Metrics {
        wall_us: 0,
        ..metrics(s)
    };
    (s.temps.clone(), s.routes.clone(), spans, timeless)
}

#[test]
fn stage2_cut_stitches_to_the_uninterrupted_stream() {
    // The resumed run re-runs all of stage 2 from the stage-1-complete
    // checkpoint, so the stitched file holds the cut attempt's partial
    // stage 2 and then all of it again: the reader keeps the second.
    let nl = circuit();
    let cfg = config(1);
    let (_, full_text) = recorded(&nl, &cfg, RunCtrl::default());
    let full = parse_stream(&full_text).expect("uninterrupted stream parses");
    let attempts = |phase: &str| -> u64 {
        let steps = full.temps.iter().filter(|t| t.phase == phase);
        steps.map(|t| t.attempts).sum()
    };
    let budget = attempts("stage1") + attempts("stage2") / 2;

    let path = temp_path("stage2-stitch");
    let opts = RunCtrl {
        cancel: CancelToken::new().with_max_moves(budget),
        writer: Some(CheckpointWriter::new(&path, 3)),
        ..Default::default()
    };
    let (outcome, cut_text) = recorded(&nl, &cfg, opts);
    assert!(matches!(outcome, RunOutcome::Interrupted(cut) if cut.stage == "stage2"));
    let resumed = RunCtrl {
        resume: Some(read_checkpoint(&path).expect("checkpoint readable")),
        ..Default::default()
    };
    let (_, resumed_text) = recorded(&nl, &cfg, resumed);
    let stitched = parse_stream(&(cut_text + &resumed_text)).expect("stitched stream parses");
    assert_eq!(comparable(&stitched), comparable(&full));
}

#[test]
fn stage2_phase_checkpoint_alone_reproduces_the_run() {
    // No interrupt at all: a completed run leaves its stage-1-complete
    // checkpoint behind; resuming from it must re-run stage 2 to the
    // same chip.
    let nl = circuit();
    let cfg = config(2);
    let path = temp_path("stage2-clean");
    let opts = RunCtrl {
        writer: Some(CheckpointWriter::new(&path, 1_000_000)),
        ..Default::default()
    };
    let (reference, _) = complete(&nl, &cfg, opts);

    let payload = read_checkpoint(&path).expect("checkpoint readable");
    assert_eq!(
        twmc_resume::codec::field::<String>(&payload, "phase").expect("phase field"),
        "stage2"
    );
    let resumed = RunCtrl {
        resume: Some(payload),
        ..Default::default()
    };
    let (result, _) = complete(&nl, &cfg, resumed);
    assert_same_chip(&reference, &result);
}

#[test]
fn checkpoint_from_a_different_run_is_rejected() {
    let nl = circuit();
    let cfg = config(1);
    let path = temp_path("mismatch");
    let opts = RunCtrl {
        writer: Some(CheckpointWriter::new(&path, 1_000_000)),
        ..Default::default()
    };
    let _ = complete(&nl, &cfg, opts);

    let mut other = config(1);
    other.seed = 6;
    let payload = read_checkpoint(&path).expect("checkpoint readable");
    let resumed = RunCtrl {
        resume: Some(payload),
        ..Default::default()
    };
    let err = match run_timberwolf_resilient(&nl, &other, resumed, &mut NullRecorder) {
        Err(e) => e,
        Ok(_) => panic!("mismatched checkpoint was accepted"),
    };
    assert!(
        err.to_string().contains("does not match"),
        "unexpected error: {err}"
    );
}

/// Runs `cfg` on `nl` with a writer that flushes only when the run
/// stops or leaves stage 1, cut at `budget` moves (`None` runs to the
/// end, leaving the stage-2 mark), and returns the checkpoint's text.
fn checkpoint_text(nl: &Netlist, cfg: &TimberWolfConfig, budget: Option<u64>, tag: &str) -> String {
    let path = temp_path(tag);
    let opts = RunCtrl {
        cancel: budget.map_or_else(CancelToken::new, |m| CancelToken::new().with_max_moves(m)),
        writer: Some(CheckpointWriter::new(&path, 1_000_000)),
        ..Default::default()
    };
    let outcome = run_timberwolf_resilient(nl, cfg, opts, &mut NullRecorder).expect("run succeeds");
    assert_eq!(
        matches!(outcome, RunOutcome::Interrupted(_)),
        budget.is_some(),
        "{tag}: the budget decides whether the run is cut"
    );
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    text
}

/// The bytes of one checkpoint of every payload phase on the fixed
/// circuit: a single run and a 3-replica multi-start cut in stage 1,
/// a 3-rung tempering run cut in its ladder and in its quench, and the
/// stage-2 mark a completed 2-rung tempering run leaves behind. Any
/// change to a payload's keys, their order, the value variants or the
/// float bit patterns moves a pin.
#[test]
fn checkpoint_bytes_of_every_phase_are_pinned() {
    let nl = circuit();
    let tempering = |replicas: usize| {
        let mut cfg = config(replicas);
        cfg.parallel.strategy = Strategy::Tempering;
        cfg
    };
    let cases = [
        ("pin-single", config(1), Some(2_000), "multistart"),
        ("pin-multistart", config(3), Some(6_000), "multistart"),
        ("pin-ladder", tempering(3), Some(10_000), "tempering"),
        ("pin-quench", tempering(3), Some(41_000), "quench"),
        ("pin-stage2", tempering(2), None, "stage2"),
    ];
    let pins = [
        15_286_698_169_866_396_254,
        9_186_576_948_896_199_273,
        7_401_155_822_752_087_507,
        8_556_904_968_842_603_088,
        10_227_552_538_848_547_932,
    ];
    for ((tag, cfg, budget, phase), pin) in cases.into_iter().zip(pins) {
        let text = checkpoint_text(&nl, &cfg, budget, tag);
        let tagged = format!("\"payload\":{{\"phase\":\"{phase}\",");
        assert!(text.contains(&tagged), "{tag}: not a `{phase}` checkpoint");
        assert_eq!(twmc_resume::fnv1a64(text.as_bytes()), pin, "{tag}");
    }
}
