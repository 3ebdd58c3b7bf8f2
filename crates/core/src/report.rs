//! Human-readable reports in the style of the paper's tables.

use twmc_obs::Event;
use twmc_parallel::{ParallelReport, Strategy};

use crate::{BaselineResult, TimberWolfResult};

/// One comparison row of a Table-4-style report.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Circuit name.
    pub circuit: String,
    /// Cells / nets / pins.
    pub cells: usize,
    /// Net count.
    pub nets: usize,
    /// Pin count.
    pub pins: usize,
    /// TimberWolfMC TEIL.
    pub teil: f64,
    /// TimberWolfMC chip dimensions.
    pub area: (i64, i64),
    /// TEIL reduction versus the comparison method, in percent.
    pub teil_reduction_pct: f64,
    /// Area reduction versus the comparison method, in percent.
    pub area_reduction_pct: f64,
    /// Name of the comparison method.
    pub versus: &'static str,
}

/// Builds a comparison row between a TimberWolfMC run and a baseline.
pub fn compare(
    circuit: &str,
    stats: &twmc_netlist::CircuitStats,
    twmc: &TimberWolfResult,
    baseline: &BaselineResult,
) -> ComparisonRow {
    let teil_red = 100.0 * (1.0 - twmc.teil / baseline.teil.max(1e-9));
    let area_red = 100.0 * (1.0 - twmc.chip_area() as f64 / baseline.chip_area().max(1) as f64);
    ComparisonRow {
        circuit: circuit.to_owned(),
        cells: stats.cells,
        nets: stats.nets,
        pins: stats.pins,
        teil: twmc.teil,
        area: (twmc.chip.width(), twmc.chip.height()),
        teil_reduction_pct: teil_red,
        area_reduction_pct: area_red,
        versus: baseline.method,
    }
}

/// Formats rows as the paper's Table 4 (fixed-width text).
pub fn format_table4(rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Circuit  Cells  Nets  Pins      TEIL        Area (x*y)   TEIL Red.%  Area Red.%  vs\n",
    );
    let mut teil_sum = 0.0;
    let mut area_sum = 0.0;
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>5} {:>5} {:>5} {:>9.0}  {:>7} x {:<7} {:>9.1}  {:>9.1}  {}\n",
            r.circuit,
            r.cells,
            r.nets,
            r.pins,
            r.teil,
            r.area.0,
            r.area.1,
            r.teil_reduction_pct,
            r.area_reduction_pct,
            r.versus,
        ));
        teil_sum += r.teil_reduction_pct;
        area_sum += r.area_reduction_pct;
    }
    if !rows.is_empty() {
        out.push_str(&format!(
            "{:<8} {:>30} {:>21} {:>9.1}  {:>9.1}\n",
            "Avg.",
            "",
            "",
            teil_sum / rows.len() as f64,
            area_sum / rows.len() as f64,
        ));
    }
    out
}

/// Formats a multi-replica orchestration report: one row per replica
/// (per rung for tempering) plus the swap statistics.
pub fn format_parallel_report(report: &ParallelReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} x{} on {} thread(s):\n",
        report.strategy, report.replicas, report.threads
    ));
    let tempering = report.strategy == Strategy::Tempering;
    out.push_str(if tempering {
        "  rung        seed      T(rung)       TEIL       cost  accept%\n"
    } else {
        "  replica     seed       TEIL       cost  accept%\n"
    });
    for r in &report.replica_reports {
        let marker = if r.replica == report.best_replica {
            '*'
        } else {
            ' '
        };
        if tempering {
            out.push_str(&format!(
                "{marker} {:<7} {:>8} {:>12.1} {:>10.0} {:>10.1} {:>8.1}\n",
                r.replica,
                r.seed % 100_000_000,
                r.rung_temperature.unwrap_or(f64::NAN),
                r.teil,
                r.cost,
                100.0 * r.acceptance_rate(),
            ));
        } else {
            out.push_str(&format!(
                "{marker} {:<7} {:>8} {:>10.0} {:>10.1} {:>8.1}\n",
                r.replica,
                r.seed % 100_000_000,
                r.teil,
                r.cost,
                100.0 * r.acceptance_rate(),
            ));
        }
    }
    if tempering {
        out.push_str(&format!(
            "  swaps: {}/{} accepted ({:.0}%)\n",
            report.swaps.accepts,
            report.swaps.attempts,
            100.0 * report.swaps.acceptance_rate(),
        ));
        for (i, p) in report.swaps.pairs.iter().enumerate() {
            out.push_str(&format!(
                "    pair {}-{}: {}/{} accepted ({:.0}%)\n",
                i,
                i + 1,
                p.accepts,
                p.attempts,
                100.0 * p.acceptance_rate(),
            ));
        }
    }
    out
}

/// Formats a recorded telemetry stream as a human-readable table: one
/// row per annealing run (phase/iteration/replica), wall-clock totals
/// per pipeline stage, and swap statistics. This is the terminal view
/// behind the CLI's `--telemetry-summary`.
pub fn format_telemetry_summary(events: &[Event]) -> String {
    // Aggregate per annealing run, in first-seen order.
    struct Run {
        key: (String, u64, i64),
        steps: usize,
        attempts: usize,
        accepts: usize,
        last_t: f64,
        last_cost: f64,
        last_teil: f64,
    }
    let mut runs: Vec<Run> = Vec::new();
    let mut routes: Vec<&twmc_obs::RouteIter> = Vec::new();
    let mut stages: Vec<(&'static str, u64, usize)> = Vec::new();
    let mut swap_attempts = 0usize;
    let mut swap_accepts = 0usize;
    let mut out = String::new();

    for ev in events {
        match ev {
            Event::RunStart(s) => {
                out.push_str(&format!(
                    "run: seed {}  {} cells  {} nets  {} pins  {} replica(s) [{}]\n",
                    s.seed, s.cells, s.nets, s.pins, s.replicas, s.strategy
                ));
            }
            Event::PlaceTemp(p) => {
                let key = (p.phase.to_owned(), p.iteration, p.replica);
                let run = match runs.iter_mut().find(|r| r.key == key) {
                    Some(r) => r,
                    None => {
                        runs.push(Run {
                            key,
                            steps: 0,
                            attempts: 0,
                            accepts: 0,
                            last_t: 0.0,
                            last_cost: 0.0,
                            last_teil: 0.0,
                        });
                        runs.last_mut().expect("just pushed")
                    }
                };
                run.steps += 1;
                run.attempts += p.attempts;
                run.accepts += p.accepts;
                run.last_t = p.temperature;
                run.last_cost = p.cost.total;
                run.last_teil = p.teil;
            }
            Event::RouteIter(r) => routes.push(r),
            Event::StageSpan(s) => match stages.iter_mut().find(|(name, _, _)| *name == s.stage) {
                Some((_, us, n)) => {
                    *us += s.wall_us;
                    *n += 1;
                }
                None => stages.push((s.stage, s.wall_us, 1)),
            },
            Event::ReplicaSummary(_) => {}
            Event::Swap(s) => {
                swap_attempts += 1;
                swap_accepts += s.accepted as usize;
            }
            Event::RunEnd(e) => {
                out.push_str(&format!(
                    "done: TEIL {:.0}  chip {} x {}  routed {}  in {:.2}s\n",
                    e.teil,
                    e.chip_width,
                    e.chip_height,
                    e.routed_length,
                    e.wall_us as f64 / 1e6,
                ));
            }
            Event::ReplicaFailed(f) => {
                out.push_str(&format!(
                    "warning: replica {} failed in {} at round {}: {}\n",
                    f.replica, f.phase, f.round, f.error
                ));
            }
            Event::RunInterrupted(i) => {
                out.push_str(&format!(
                    "interrupted ({}) in {}: TEIL {:.0}  cost {:.0}  after {:.2}s\n",
                    i.reason,
                    i.stage,
                    i.teil,
                    i.cost,
                    i.wall_us as f64 / 1e6,
                ));
            }
        }
    }

    if !runs.is_empty() {
        out.push_str("anneal runs:\n");
        out.push_str(
            "  phase            steps   attempts    accepts  accept%    final T  final cost\n",
        );
        for r in &runs {
            let label = match (r.key.0.as_str(), r.key.2) {
                ("stage2", _) => format!("{}/{}", r.key.0, r.key.1),
                (_, rep) if rep >= 0 => format!("{}[{}]", r.key.0, rep),
                _ => r.key.0.clone(),
            };
            out.push_str(&format!(
                "  {:<15} {:>6} {:>10} {:>10} {:>8.1} {:>10.3} {:>11.0}\n",
                label,
                r.steps,
                r.attempts,
                r.accepts,
                100.0 * r.accepts as f64 / r.attempts.max(1) as f64,
                r.last_t,
                r.last_cost,
            ));
        }
    }
    if !routes.is_empty() {
        out.push_str("global routing:\n");
        out.push_str(
            "  phase            nets  unrouted  overflow (start->end)      length  reassigns\n",
        );
        for r in &routes {
            out.push_str(&format!(
                "  {:<15} {:>5} {:>9} {:>10} -> {:<10} {:>9} {:>10}\n",
                format!("{}/{}", r.phase, r.iteration),
                r.nets,
                r.unrouted,
                r.overflow_start,
                r.overflow,
                r.total_length,
                r.reassignments,
            ));
        }
    }
    if !stages.is_empty() {
        out.push_str("stage wall-clock:\n");
        for (name, us, n) in &stages {
            out.push_str(&format!(
                "  {:<20} {:>8.3}s  ({} span(s))\n",
                name,
                *us as f64 / 1e6,
                n
            ));
        }
    }
    if swap_attempts > 0 {
        out.push_str(&format!(
            "swaps: {swap_accepts}/{swap_attempts} accepted ({:.0}%)\n",
            100.0 * swap_accepts as f64 / swap_attempts as f64
        ));
    }
    if out.is_empty() {
        out.push_str("no telemetry events recorded\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::Rect;

    fn fake_row(teil_red: f64) -> ComparisonRow {
        ComparisonRow {
            circuit: "i1".into(),
            cells: 33,
            nets: 121,
            pins: 452,
            teil: 7431.0,
            area: (236, 223),
            teil_reduction_pct: teil_red,
            area_reduction_pct: 14.0,
            versus: "quadratic",
        }
    }

    #[test]
    fn parallel_report_formats_both_strategies() {
        use twmc_parallel::{ReplicaReport, SwapReport};
        let rows = vec![
            ReplicaReport {
                replica: 0,
                seed: 42,
                rung_temperature: None,
                teil: 1000.0,
                cost: 1200.0,
                attempts: 100,
                accepts: 40,
                teil_trajectory: vec![2000.0, 1000.0],
            },
            ReplicaReport {
                replica: 1,
                seed: 77,
                rung_temperature: None,
                teil: 900.0,
                cost: 1100.0,
                attempts: 100,
                accepts: 35,
                teil_trajectory: vec![2100.0, 900.0],
            },
        ];
        let mut report = ParallelReport {
            strategy: Strategy::MultiStart,
            replicas: 2,
            threads: 2,
            best_replica: 1,
            replica_reports: rows,
            swaps: SwapReport::default(),
            failed: Vec::new(),
        };
        let text = format_parallel_report(&report);
        assert!(text.contains("multistart x2"), "{text}");
        assert!(text.contains("* 1"), "{text}");
        assert!(!text.contains("swaps"), "{text}");

        report.strategy = Strategy::Tempering;
        report.replica_reports[0].rung_temperature = Some(1.0e5);
        report.replica_reports[1].rung_temperature = Some(5.0);
        report.swaps = SwapReport {
            attempts: 10,
            accepts: 3,
            pairs: vec![twmc_parallel::PairSwap {
                attempts: 10,
                accepts: 3,
            }],
        };
        let text = format_parallel_report(&report);
        assert!(text.contains("tempering x2"), "{text}");
        assert!(text.contains("T(rung)"), "{text}");
        assert!(text.contains("swaps: 3/10"), "{text}");
        assert!(text.contains("pair 0-1: 3/10"), "{text}");
    }

    #[test]
    fn telemetry_summary_renders_runs_spans_and_swaps() {
        use twmc_obs::{CostBreakdown, PlaceTemp, RunEnd, RunStart, StageSpan, Swap};
        let temp = |step: usize, t: f64| {
            Event::PlaceTemp(PlaceTemp {
                phase: "stage1",
                iteration: 0,
                replica: -1,
                step,
                temperature: t,
                s_t: 1.0,
                window_x: 10.0,
                window_y: 10.0,
                inner: 100,
                attempts: 100,
                accepts: 40,
                cost: CostBreakdown {
                    total: 500.0,
                    c1: 400.0,
                    overlap: 10,
                    overlap_penalty: 90.0,
                    c3: 10.0,
                },
                teil: 450.0,
                index_rebuilds: 0,
                index_updates: 5,
                classes: vec![],
            })
        };
        let events = vec![
            Event::RunStart(RunStart {
                seed: 9,
                cells: 8,
                nets: 16,
                pins: 50,
                replicas: 2,
                strategy: "tempering",
            }),
            temp(0, 100.0),
            temp(1, 85.0),
            Event::StageSpan(StageSpan {
                stage: "stage1",
                iteration: 0,
                wall_us: 1_500_000,
            }),
            Event::Swap(Swap {
                round: 0,
                lower: 0,
                upper: 1,
                t_lower: 2.0,
                t_upper: 1.0,
                s_t: 1.0,
                accepted: true,
            }),
            Event::RunEnd(RunEnd {
                teil: 1234.0,
                chip_width: 100,
                chip_height: 90,
                routed_length: 2000,
                wall_us: 3_000_000,
            }),
        ];
        let text = format_telemetry_summary(&events);
        assert!(text.contains("seed 9"), "{text}");
        // Two steps aggregated into one stage1 row, 200 attempts / 80 accepts.
        assert!(text.contains("200"), "{text}");
        assert!(text.contains("40.0"), "{text}");
        assert!(text.contains("1.500s"), "{text}");
        assert!(text.contains("swaps: 1/1"), "{text}");
        assert!(text.contains("done: TEIL 1234"), "{text}");
        assert!(!format_telemetry_summary(&[]).is_empty());
    }

    #[test]
    fn table_formats_rows_and_average() {
        let t = format_table4(&[fake_row(26.0), fake_row(10.0)]);
        assert!(t.contains("i1"));
        assert!(t.contains("236"));
        assert!(t.contains("Avg."));
        assert!(t.contains("18.0"), "{t}");
    }

    #[test]
    fn reductions_signed_correctly() {
        let stats = twmc_netlist::CircuitStats {
            cells: 2,
            nets: 1,
            pins: 2,
            total_area: 10,
            avg_area: 5.0,
            total_perimeter: 20,
            avg_pin_density: 0.1,
        };
        let baseline = BaselineResult {
            method: "greedy",
            teil: 200.0,
            chip: Rect::from_wh(0, 0, 20, 20),
            routed_length: 0,
            cells: vec![],
        };
        // A result with half the TEIL and a quarter of the area.
        let twmc = TimberWolfResult {
            stage1: fake_stage1(),
            parallel: None,
            stage2: fake_stage2(),
            placement: vec![],
            teil: 100.0,
            chip: Rect::from_wh(0, 0, 10, 10),
            routed_length: 1,
        };
        let row = compare("c", &stats, &twmc, &baseline);
        assert!((row.teil_reduction_pct - 50.0).abs() < 1e-9);
        assert!((row.area_reduction_pct - 75.0).abs() < 1e-9);
    }

    fn fake_stage1() -> twmc_place::Stage1Result {
        twmc_place::Stage1Result {
            teil: 120.0,
            c1: 120.0,
            residual_overlap: 0,
            c3: 0.0,
            chip: Rect::from_wh(0, 0, 10, 10),
            t_infinity: 1e5,
            s_t: 1.0,
            history: vec![],
            moves: Default::default(),
        }
    }

    fn fake_stage2() -> twmc_refine::Stage2Result {
        twmc_refine::Stage2Result {
            records: vec![],
            final_routing: twmc_route::GlobalRouting {
                graph: Default::default(),
                routes: vec![],
                assignment: twmc_route::Assignment {
                    choice: vec![],
                    total_length: 0,
                    overflow: 0,
                    overflow_start: 0,
                    edge_usage: vec![],
                    attempts: 0,
                    reassignments: 0,
                },
                node_density: vec![],
                pin_attachments: vec![],
                unrouted: 0,
            },
            teil: 100.0,
            chip: Rect::from_wh(0, 0, 10, 10),
        }
    }
}
