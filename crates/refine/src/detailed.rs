//! Detailed-routing check: run the constrained left-edge channel router
//! on every channel of a global routing and verify the paper's two
//! linked claims — channel routers achieve `t ≤ d + 1` tracks, so the
//! allocated width `w = (d + 2)·t_s` (eq. 22) suffices and the placement
//! needs no modification during detailed routing.

use twmc_channel::{route_channel, ChannelProblem, ChannelSide};
use twmc_geom::{Point, TRACK_PITCH};
use twmc_route::{ChannelKind, GlobalRouting};

/// The detailed-routing outcome of one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelCheck {
    /// Channel node index in the routing's graph.
    pub node: usize,
    /// Global-router density `d` of the channel.
    pub global_density: u32,
    /// Tracks `t` the detailed router needed.
    pub tracks: usize,
    /// Doglegs introduced.
    pub doglegs: usize,
    /// The channel's geometric separation.
    pub separation: i64,
    /// Whether `t ≤ d + 1` (the paper's router-quality assumption).
    pub within_bound: bool,
    /// Whether the detailed route fits the separation:
    /// `(t + 1) · t_s ≤ separation` (t tracks plus edge margins).
    pub fits: bool,
}

/// Aggregate result of a detailed-routing pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetailedCheck {
    /// Per-channel outcomes (channels carrying at least one net).
    pub channels: Vec<ChannelCheck>,
    /// Channels the detailed router could not route (constraint cycles
    /// beyond the dogleg budget).
    pub failed: usize,
}

impl DetailedCheck {
    /// Fraction of routed channels with `t ≤ d + 1`.
    pub fn bound_rate(&self) -> f64 {
        if self.channels.is_empty() {
            return 1.0;
        }
        self.channels.iter().filter(|c| c.within_bound).count() as f64 / self.channels.len() as f64
    }

    /// Fraction of routed channels whose detailed route fits the
    /// geometric separation — the "no placement modification needed"
    /// condition at the detailed level.
    pub fn fit_rate(&self) -> f64 {
        if self.channels.is_empty() {
            return 1.0;
        }
        self.channels.iter().filter(|c| c.fits).count() as f64 / self.channels.len() as f64
    }
}

/// Builds and routes the channel-routing problem of every used channel.
pub fn detailed_check(routing: &GlobalRouting) -> DetailedCheck {
    let mut problems: Vec<ChannelProblem> = vec![ChannelProblem::new(); routing.graph.len()];
    let mut used = vec![false; routing.graph.len()];

    let column_of = |node: usize, p: Point| -> i64 {
        match routing.graph.nodes[node].region.kind {
            ChannelKind::Vertical => p.y,
            ChannelKind::Horizontal => p.x,
        }
    };
    let side_of = |node: usize, p: Point| -> ChannelSide {
        let r = &routing.graph.nodes[node].region;
        let (lo, hi, v) = match r.kind {
            ChannelKind::Vertical => (r.rect.lo().x, r.rect.hi().x, p.x),
            ChannelKind::Horizontal => (r.rect.lo().y, r.rect.hi().y, p.y),
        };
        if (v - lo).abs() <= (hi - v).abs() {
            ChannelSide::Lo
        } else {
            ChannelSide::Hi
        }
    };

    // Pin terminals.
    for (net, attachments) in routing.pin_attachments.iter().enumerate() {
        for &(node, pos) in attachments {
            problems[node].add(column_of(node, pos), net as u32, Some(side_of(node, pos)));
            used[node] = true;
        }
    }
    // Crossing terminals: where a net's tree hops between adjacent
    // channels, both channels get a floating terminal at the shared
    // boundary.
    for (net, route) in routing.routes.iter().enumerate() {
        let Some(tree) = route else { continue };
        for &(a, b) in &tree.edges {
            let ra = routing.graph.nodes[a].region.rect;
            let rb = routing.graph.nodes[b].region.rect;
            let shared = ra.intersect(rb).unwrap_or(ra).center();
            problems[a].add(column_of(a, shared), net as u32, None);
            problems[b].add(column_of(b, shared), net as u32, None);
            used[a] = true;
            used[b] = true;
        }
    }

    let mut out = DetailedCheck::default();
    for (node, problem) in problems.into_iter().enumerate() {
        if !used[node] || problem.is_empty() {
            continue;
        }
        match route_channel(&problem) {
            Ok(route) => {
                let d = routing.node_density[node];
                let t = route.track_count();
                let separation = routing.graph.nodes[node].region.separation();
                out.channels.push(ChannelCheck {
                    node,
                    global_density: d,
                    tracks: t,
                    doglegs: route.doglegs,
                    separation,
                    within_bound: t as i64 <= d as i64 + 1,
                    fits: ((t as f64 + 1.0) * TRACK_PITCH) <= separation as f64,
                });
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::{Rect, TileSet};
    use twmc_route::{global_route, NetPins, PlacedGeometry, RouterParams};

    fn corridor_routing(nets: usize, gap: i64) -> GlobalRouting {
        let geometry = PlacedGeometry {
            cells: vec![
                (TileSet::rect(20, 40), Point::new(-20 - gap / 2, -20)),
                (TileSet::rect(20, 40), Point::new(gap - gap / 2, -20)),
            ],
            core: Rect::from_wh(-40, -30, 80, 60),
        };
        let pins: Vec<NetPins> = (0..nets as i64)
            .map(|k| NetPins {
                points: vec![
                    vec![Point::new(-gap / 2, -16 + 4 * k)],
                    vec![Point::new(gap - gap / 2, -14 + 4 * k)],
                ],
            })
            .collect();
        global_route(&geometry, &pins, &RouterParams::default(), 7)
    }

    #[test]
    fn corridor_channel_routes_within_bound() {
        let routing = corridor_routing(5, 24);
        let check = detailed_check(&routing);
        assert_eq!(check.failed, 0);
        assert!(!check.channels.is_empty());
        // The central channel carries all 5 nets.
        let central = check
            .channels
            .iter()
            .max_by_key(|c| c.global_density)
            .expect("channels");
        assert_eq!(central.global_density, 5);
        // The staggered pin columns route in about d tracks.
        assert!(
            central.within_bound,
            "t = {} vs d = {}",
            central.tracks, central.global_density
        );
        // 24 separation / 2 pitch fits (5+1) easily.
        assert!(central.fits);
        assert!(check.bound_rate() > 0.9, "{}", check.bound_rate());
    }

    /// Nets whose trunks overlap along the channel (pins near opposite
    /// ends) genuinely compete for tracks.
    fn congested_corridor(nets: usize, gap: i64) -> GlobalRouting {
        let geometry = PlacedGeometry {
            cells: vec![
                (TileSet::rect(20, 40), Point::new(-20 - gap / 2, -20)),
                (TileSet::rect(20, 40), Point::new(gap - gap / 2, -20)),
            ],
            core: Rect::from_wh(-40, -30, 80, 60),
        };
        let pins: Vec<NetPins> = (0..nets as i64)
            .map(|k| NetPins {
                points: vec![
                    vec![Point::new(-gap / 2, -18 + k)],
                    vec![Point::new(gap - gap / 2, 18 - k)],
                ],
            })
            .collect();
        global_route(&geometry, &pins, &RouterParams::default(), 7)
    }

    #[test]
    fn narrow_corridor_fails_fit_but_still_routes() {
        let routing = congested_corridor(8, 6);
        let check = detailed_check(&routing);
        assert_eq!(check.failed, 0);
        let central = check
            .channels
            .iter()
            .max_by_key(|c| c.tracks)
            .expect("channels");
        // Overlapping trunks: several tracks needed, and a 6-wide
        // channel at pitch 2 cannot hold them.
        assert!(central.tracks >= 3, "tracks {}", central.tracks);
        assert!(!central.fits);
    }

    #[test]
    fn crossing_nets_share_one_track() {
        // Staggered crossings have disjoint trunk spans: one track does
        // it, however many nets cross — the detailed router agreeing
        // that eq. 22's density model is conservative for crossings.
        let routing = corridor_routing(8, 6);
        let check = detailed_check(&routing);
        assert_eq!(check.failed, 0);
        let central = check
            .channels
            .iter()
            .max_by_key(|c| c.global_density)
            .expect("channels");
        assert_eq!(central.global_density, 8);
        assert!(central.tracks <= 2, "tracks {}", central.tracks);
    }

    #[test]
    fn empty_routing_is_vacuously_fine() {
        let routing = corridor_routing(0, 20);
        let check = detailed_check(&routing);
        assert_eq!(check.failed, 0);
        assert_eq!(check.fit_rate(), 1.0);
    }
}
