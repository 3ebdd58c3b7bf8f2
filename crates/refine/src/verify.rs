//! Channel-width verification: is a placement ready for detailed
//! routing?
//!
//! The paper's headline claim is that TimberWolfMC placements "require
//! very little placement modification during detailed routing" — i.e.
//! after stage 2, every channel already has the width the routed
//! densities demand (`w = (d + 2)·t_s`, eq. 22). This module checks that
//! claim for any placement + routing pair and reports the violations a
//! detailed router would have to fix.

use twmc_route::GlobalRouting;

/// One channel whose separation is below its required width.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthViolation {
    /// Channel node index in the routing's graph.
    pub node: usize,
    /// The channel's geometric separation.
    pub separation: i64,
    /// The eq. 22 required width for its routed density.
    pub required: f64,
    /// Routed density of the channel.
    pub density: u32,
}

impl WidthViolation {
    /// How much the channel is short, in grid units.
    pub fn deficit(&self) -> f64 {
        self.required - self.separation as f64
    }
}

/// The verification report.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthReport {
    /// Channels checked.
    pub channels: usize,
    /// Channels that carry at least one net.
    pub used_channels: usize,
    /// Violations, sorted by decreasing deficit.
    pub violations: Vec<WidthViolation>,
    /// Sum of deficits — the total extra spacing a detailed router
    /// would have to create by moving cells.
    pub total_deficit: f64,
}

impl WidthReport {
    /// Fraction of used channels in violation.
    pub fn violation_rate(&self) -> f64 {
        if self.used_channels == 0 {
            0.0
        } else {
            self.violations.len() as f64 / self.used_channels as f64
        }
    }
}

/// Checks every channel of a routing against eq. 22.
pub fn verify_channel_widths(routing: &GlobalRouting, track_spacing: f64) -> WidthReport {
    let mut violations = Vec::new();
    let mut used = 0;
    for (node, gn) in routing.graph.nodes.iter().enumerate() {
        let density = routing.node_density.get(node).copied().unwrap_or(0);
        if density > 0 {
            used += 1;
        }
        let required = routing.required_width(node, track_spacing);
        let separation = gn.region.separation();
        if (separation as f64) < required {
            violations.push(WidthViolation {
                node,
                separation,
                required,
                density,
            });
        }
    }
    violations.sort_by(|a, b| {
        b.deficit()
            .partial_cmp(&a.deficit())
            .expect("deficits are finite")
    });
    let total_deficit = violations.iter().map(|v| v.deficit()).sum();
    WidthReport {
        channels: routing.graph.len(),
        used_channels: used,
        violations,
        total_deficit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::{Point, Rect, TileSet};
    use twmc_route::{global_route, NetPins, PlacedGeometry, RouterParams};

    fn corridor(gap: i64, nets: usize) -> GlobalRouting {
        let geometry = PlacedGeometry {
            cells: vec![
                (TileSet::rect(20, 30), Point::new(-20 - gap / 2, -15)),
                (TileSet::rect(20, 30), Point::new(gap - gap / 2, -15)),
            ],
            core: Rect::from_wh(-40, -25, 80, 50),
        };
        let pins: Vec<NetPins> = (0..nets as i64)
            .map(|k| NetPins {
                points: vec![
                    vec![Point::new(-gap / 2, -12 + 2 * k)],
                    vec![Point::new(gap - gap / 2, -12 + 2 * k)],
                ],
            })
            .collect();
        global_route(&geometry, &pins, &RouterParams::default(), 1)
    }

    #[test]
    fn wide_channel_passes() {
        // 1 net needs (1+2)*2 = 6; a 30-wide corridor is fine.
        let r = corridor(30, 1);
        let report = verify_channel_widths(&r, 2.0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.used_channels > 0);
        assert_eq!(report.total_deficit, 0.0);
    }

    #[test]
    fn overloaded_channel_is_flagged() {
        // 10 nets need (10+2)*2 = 24; a 6-wide corridor violates.
        let r = corridor(6, 10);
        let report = verify_channel_widths(&r, 2.0);
        assert!(!report.violations.is_empty());
        let worst = &report.violations[0];
        assert_eq!(worst.density, 10);
        assert_eq!(worst.separation, 6);
        assert_eq!(worst.required, 24.0);
        assert_eq!(worst.deficit(), 18.0);
        assert!(report.violation_rate() > 0.0);
    }

    #[test]
    fn violations_sorted_by_deficit() {
        let r = corridor(6, 10);
        let report = verify_channel_widths(&r, 2.0);
        for w in report.violations.windows(2) {
            assert!(w[0].deficit() >= w[1].deficit());
        }
    }
}
