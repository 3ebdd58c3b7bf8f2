//! The run tables `twmc report` prints after its findings.

use crate::stream::{RunStream, TempRec};

/// Renders a parsed stream as four tables: one row per anneal scope
/// (phase, iteration, replica) in first-seen order, one row per
/// `route_iter`, the wall clock of each stage summed over its spans, and
/// the swap acceptance. A table with no records is left out.
pub fn format_runs(stream: &RunStream) -> String {
    let mut out = String::new();
    // Per scope: its last step, step count, attempts and accepts.
    let mut scopes: Vec<(&TempRec, usize, u64, u64)> = Vec::new();
    for t in &stream.temps {
        let same = |s: &TempRec| {
            s.phase == t.phase && s.iteration == t.iteration && s.replica == t.replica
        };
        match scopes.iter_mut().find(|(last, ..)| same(last)) {
            Some(s) => *s = (t, s.1 + 1, s.2 + t.attempts, s.3 + t.accepts),
            None => scopes.push((t, 1, t.attempts, t.accepts)),
        }
    }
    if !scopes.is_empty() {
        out.push_str("anneal runs:\n");
        out.push_str(
            "  phase            steps   attempts    accepts  accept%    final T  final cost\n",
        );
        for (t, steps, attempts, accepts) in scopes {
            let label = match (t.phase.as_str(), t.replica) {
                ("stage2", _) => format!("stage2/{}", t.iteration),
                (phase, rep) if rep >= 0 => format!("{phase}[{rep}]"),
                (phase, _) => phase.to_owned(),
            };
            let pct = 100.0 * accepts as f64 / attempts.max(1) as f64;
            let (temp, cost) = (t.temperature, t.cost_total);
            out.push_str(&format!(
                "  {label:<15} {steps:>6} {attempts:>10} {accepts:>10} {pct:>8.1} {temp:>10.3} {cost:>11.0}\n"
            ));
        }
    }
    if !stream.routes.is_empty() {
        out.push_str("global routing:\n");
        out.push_str(
            "  phase            nets  unrouted  overflow (start->end)      length  reassigns\n",
        );
        for r in &stream.routes {
            let label = format!("{}/{}", r.phase, r.iteration);
            out.push_str(&format!(
                "  {label:<15} {:>5} {:>9} {:>10} -> {:<10} {:>9} {:>10}\n",
                r.nets, r.unrouted, r.overflow_start, r.overflow, r.total_length, r.reassignments,
            ));
        }
    }
    let mut stages: Vec<(&str, u64, usize)> = Vec::new();
    for s in &stream.spans {
        match stages.iter_mut().find(|(name, ..)| *name == s.stage) {
            Some((_, us, n)) => (*us, *n) = (*us + s.wall_us, *n + 1),
            None => stages.push((&s.stage, s.wall_us, 1)),
        }
    }
    if !stages.is_empty() {
        out.push_str("stage wall-clock:\n");
        for (name, us, n) in stages {
            let secs = us as f64 / 1e6;
            out.push_str(&format!("  {name:<20} {secs:>8.3}s  ({n} span(s))\n"));
        }
    }
    if !stream.swaps.is_empty() {
        let accepts = stream.swaps.iter().filter(|s| s.accepted).count();
        let attempts = stream.swaps.len();
        let pct = 100.0 * accepts as f64 / attempts as f64;
        out.push_str(&format!(
            "swaps: {accepts}/{attempts} accepted ({pct:.0}%)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::parse_stream;

    /// A `place_temp` step of 100 attempts and 40 accepts.
    fn temp(phase: &str, iteration: i64, replica: i64, temperature: f64) -> String {
        format!(
            "{{\"kind\":\"place_temp\",\"phase\":\"{phase}\",\"iteration\":{iteration},\
             \"replica\":{replica},\"step\":0,\"temperature\":{temperature},\"s_t\":1.0,\
             \"window_x\":10.0,\"window_y\":10.0,\"inner\":100,\"attempts\":100,\"accepts\":40,\
             \"cost\":{{\"total\":500.0,\"c1\":400.0,\"overlap_penalty\":90.0,\"c3\":10.0}},\
             \"teil\":450.0,\"index_rebuilds\":0,\"classes\":[]}}\n"
        )
    }

    /// The whitespace-split cells of the first row labelled `label`.
    fn row<'a>(text: &'a str, label: &str) -> Vec<&'a str> {
        let mut rows = text
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>());
        rows.find(|cells| cells.first() == Some(&label))
            .expect(label)
    }

    #[test]
    fn run_tables_aggregate_scopes_routes_spans_and_swaps() {
        let jsonl = [
            temp("tempering", 0, 1, 120.0),
            temp("stage1", 0, -1, 100.0),
            temp("stage1", 0, -1, 85.0),
            "{\"kind\":\"stage_span\",\"stage\":\"stage1\",\"iteration\":0,\"wall_us\":1500000}\n"
                .into(),
            "{\"kind\":\"swap\",\"round\":0,\"lower\":0,\"upper\":1,\"t_lower\":2.0,\
             \"t_upper\":1.0,\"s_t\":1.0,\"accepted\":true}\n"
                .into(),
            temp("stage2", 1, -1, 3.0),
            "{\"kind\":\"route_iter\",\"phase\":\"stage2\",\"iteration\":1,\"nets\":16,\
             \"unrouted\":0,\"alts_total\":40,\"alts_max\":4,\"overflow_start\":7,\"overflow\":2,\
             \"total_length\":900,\"attempts\":30,\"reassignments\":6,\"usage_total\":50,\
             \"util_hist\":[1,2,3,0,0]}\n"
                .into(),
        ]
        .concat();
        let text = format_runs(&parse_stream(&jsonl).unwrap());
        // Two stage-1 steps make one row with the last step's T and cost.
        let stage1 = ["stage1", "2", "200", "80", "40.0", "85.000", "500"];
        assert_eq!(row(&text, "stage1"), stage1, "{text}");
        let rung = ["tempering[1]", "1", "100", "40", "40.0", "120.000", "500"];
        assert_eq!(row(&text, "tempering[1]"), rung);
        let stage2 = ["stage2/1", "1", "100", "40", "40.0", "3.000", "500"];
        assert_eq!(row(&text, "stage2/1"), stage2);
        let at = |label: &str| text.find(label).unwrap();
        assert!(at("tempering[1]") < at("stage1 ") && at("stage1 ") < at("stage2/1"));
        let route = ["stage2/1", "16", "0", "7", "->", "2", "900", "6"];
        assert_eq!(row(&text[at("global routing:")..], "stage2/1"), route);
        assert!(
            text.contains("  stage1                  1.500s  (1 span(s))\n"),
            "{text}"
        );
        assert!(text.contains("swaps: 1/1 accepted (100%)\n"), "{text}");
        assert_eq!(format_runs(&RunStream::default()), "");
    }
}
