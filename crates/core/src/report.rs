//! Human-readable reports in the style of the paper's tables.

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
