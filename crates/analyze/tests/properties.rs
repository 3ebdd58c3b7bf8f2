//! Property-based tests for the analyzer: any synthesized valid stream
//! produces a report without panicking, report and diff output is
//! deterministic, and arbitrary text never panics the parser.

use proptest::prelude::*;

use twmc_analyze::testgen::{synth_stream, SynthSpec};
use twmc_analyze::{
    analyze, diff_runs, format_findings, format_report, parse_stream, worst, Severity,
};

fn arb_spec() -> impl Strategy<Value = SynthSpec> {
    let alpha = prop_oneof![Just(None), (0.55f64..0.99).prop_map(Some)];
    (
        0.05f64..20.0,
        100.0f64..1.0e5,
        1.5f64..8.0,
        100u64..5000,
        1.0e4f64..1.0e7,
        (alpha, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(s_t, w_inf, rho, attempts, cost0, (constant_alpha, violation, dirty))| SynthSpec {
                s_t,
                w_inf,
                rho,
                attempts,
                cost0,
                constant_alpha,
                route_overflow_violation: violation,
                dirty_final_route: dirty,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any synthesized stream — law-abiding or deliberately bent —
    /// parses, validates, and yields a report without panicking, and
    /// both the text and JSON renderings are deterministic.
    #[test]
    fn every_valid_stream_yields_a_deterministic_report(spec in arb_spec()) {
        let jsonl = synth_stream(&spec);
        let stream = parse_stream(&jsonl).expect("synthetic streams validate");
        let report = analyze(&stream);
        prop_assert!(!report.findings.is_empty());
        prop_assert!(report.metrics.temp_steps > 0);

        let again = analyze(&parse_stream(&jsonl).expect("still validates"));
        prop_assert_eq!(&report, &again);
        prop_assert_eq!(format_report(&report), format_report(&again));
        prop_assert_eq!(
            serde_json::to_string(&report).expect("report serializes"),
            serde_json::to_string(&again).expect("report serializes")
        );
    }

    /// Law-abiding specs are judged healthy; a bent cooling schedule or
    /// a broken overflow rule is always flagged as a failure.
    #[test]
    fn health_verdict_tracks_the_injected_defects(
        s_t in 0.05f64..20.0,
        attempts in 100u64..5000,
        bend_schedule in any::<bool>(),
        break_overflow in any::<bool>(),
    ) {
        let spec = SynthSpec {
            s_t,
            attempts,
            constant_alpha: if bend_schedule { Some(0.95) } else { None },
            route_overflow_violation: break_overflow,
            ..SynthSpec::default()
        };
        let report = analyze(&parse_stream(&synth_stream(&spec)).expect("validates"));
        let expect_healthy = !bend_schedule && !break_overflow;
        prop_assert_eq!(
            report.healthy(),
            expect_healthy,
            "spec {:?}:\n{}",
            spec,
            format_report(&report)
        );
    }

    /// Diffing a run against itself never regresses; the diff output is
    /// deterministic for any pair of synthesized runs.
    #[test]
    fn self_diff_is_clean_and_diff_is_deterministic(a in arb_spec(), b in arb_spec()) {
        let ma = analyze(&parse_stream(&synth_stream(&a)).expect("validates")).metrics;
        let mb = analyze(&parse_stream(&synth_stream(&b)).expect("validates")).metrics;
        prop_assert_eq!(worst(&diff_runs(&ma, &ma)), Severity::Pass);
        let d1 = diff_runs(&ma, &mb);
        let d2 = diff_runs(&ma, &mb);
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(format_findings(&d1), format_findings(&d2));
    }

    /// Arbitrary bytes are rejected with an error, never a panic.
    #[test]
    fn arbitrary_text_never_panics_the_parser(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_stream(&text);
    }

    /// Truncating a valid stream never panics: the prefix either
    /// validates as a fragment or fails with a line-numbered error.
    #[test]
    fn truncated_streams_never_panic(cut in 0usize..4000) {
        let jsonl = synth_stream(&SynthSpec::default());
        let cut = cut.min(jsonl.len());
        if jsonl.is_char_boundary(cut) {
            let _ = parse_stream(&jsonl[..cut]);
        }
    }
}
