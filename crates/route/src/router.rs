//! The global router driver: channel graph → phase 1 (alternative route
//! enumeration) → phase 2 (congestion-driven selection) → channel
//! densities (paper §4.2).

use rand::rngs::StdRng;
use rand::SeedableRng;

use twmc_geom::Point;
use twmc_obs::{CancelToken, Event, Interval, NullRecorder, Recorder, RouteIter, StopReason};

use crate::mpaths::SearchSpace;
use crate::steiner::enumerate_in;
use crate::{
    assign_routes, build_channel_graph, Assignment, ChannelGraph, PlacedGeometry, RouteTree,
};

/// Global router parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterParams {
    /// Number of alternative routes stored per net (`M`; the paper uses
    /// "on the order of 20 or more").
    pub m_alternatives: usize,
    /// Alternative paths explored per Prim step of the multi-pin
    /// enumeration.
    pub per_level: usize,
    /// Wiring track separation `t_s`.
    pub track_spacing: f64,
    /// Extra track-equivalents reserved in every channel beyond the
    /// eq. 22 allocation — the paper's §5 evaluation assumed power and
    /// ground lines "about twice a normal wire width ... present in
    /// every channel", i.e. `reserved_tracks = 2.0` per rail pair.
    pub reserved_tracks: f64,
}

impl Default for RouterParams {
    fn default() -> Self {
        RouterParams {
            m_alternatives: 20,
            per_level: 4,
            track_spacing: 2.0,
            reserved_tracks: 0.0,
        }
    }
}

/// One net's connection points: per point, the candidate (electrically
/// equivalent) pin positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPins {
    /// `points[i]` lists the equivalent positions of connection point `i`.
    pub points: Vec<Vec<Point>>,
}

/// The routing result.
#[derive(Debug, Clone)]
pub struct GlobalRouting {
    /// The channel graph routed over.
    pub graph: ChannelGraph,
    /// Chosen route per net (`None` for nets that could not be routed,
    /// e.g. when the channel graph is disconnected by an illegal
    /// placement).
    pub routes: Vec<Option<RouteTree>>,
    /// The phase-2 assignment record.
    pub assignment: Assignment,
    /// Distinct nets through each channel node — the density that sets
    /// the required channel width `w = (d + 2)·t_s` (eq. 22).
    pub node_density: Vec<u32>,
    /// Per net, the chosen attachment of each connection point: the
    /// channel node it enters the graph at and the pin's position
    /// (empty for unrouted nets). Feeds detailed-routing checks.
    pub pin_attachments: Vec<Vec<(usize, Point)>>,
    /// Reserved track-equivalents per channel (power/ground allowance,
    /// copied from [`RouterParams::reserved_tracks`]).
    pub reserved_tracks: f64,
    /// Nets that could not be routed.
    pub unrouted: usize,
}

impl GlobalRouting {
    /// Total routed length `L`.
    pub fn total_length(&self) -> i64 {
        self.assignment.total_length
    }

    /// Residual capacity overflow `X`.
    pub fn overflow(&self) -> i64 {
        self.assignment.overflow
    }

    /// Required width of channel node `i` per eq. 22, plus any reserved
    /// power/ground tracks: `(d + 2 + reserved) · t_s`.
    pub fn required_width(&self, node: usize, track_spacing: f64) -> f64 {
        (self.node_density[node] as f64 + 2.0 + self.reserved_tracks) * track_spacing
    }
}

/// Runs the full global-routing flow on a placed circuit.
///
/// Each net's connection points are mapped onto channel-graph nodes by
/// perpendicular projection ([`ChannelGraph::attach_pin`]); phase 1
/// enumerates up to `M` alternative route trees; phase 2 selects one per
/// net under the capacity constraints.
pub fn global_route(
    geometry: &PlacedGeometry,
    nets: &[NetPins],
    params: &RouterParams,
    seed: u64,
) -> GlobalRouting {
    global_route_with(geometry, nets, params, seed, &mut NullRecorder, "route", 0)
}

/// [`global_route`] with a telemetry sink: emits one
/// [`RouteIter`] event labeled `phase`/`iteration` summarizing the
/// execution — phase-1 alternative counts, the phase-2 interchange's
/// overflow trajectory (`overflow_start` → `overflow`), rip-up
/// counters, and the channel-edge utilization histogram. Recording
/// never touches the router's RNG stream, so the routing is
/// bit-identical to [`global_route`] for any recorder.
pub fn global_route_with(
    geometry: &PlacedGeometry,
    nets: &[NetPins],
    params: &RouterParams,
    seed: u64,
    rec: &mut dyn Recorder,
    phase: &'static str,
    iteration: u64,
) -> GlobalRouting {
    match route_inner(geometry, nets, params, seed, rec, phase, iteration, None) {
        Ok(r) => r,
        Err(_) => unreachable!("routing without a token cannot be cancelled"),
    }
}

/// [`global_route_with`] under a cancellation token, polled once per net
/// during the phase-1 enumeration (the dominant cost for large nets).
/// `Err` means the routing was abandoned mid-flight — no partial result
/// is returned, since a half-enumerated alternative set would bias the
/// phase-2 selection. A run that is not stopped is bit-identical to
/// [`global_route_with`].
#[allow(clippy::too_many_arguments)]
pub fn global_route_cancellable(
    geometry: &PlacedGeometry,
    nets: &[NetPins],
    params: &RouterParams,
    seed: u64,
    rec: &mut dyn Recorder,
    phase: &'static str,
    iteration: u64,
    cancel: &CancelToken,
) -> Result<GlobalRouting, StopReason> {
    route_inner(
        geometry,
        nets,
        params,
        seed,
        rec,
        phase,
        iteration,
        Some(cancel),
    )
}

#[allow(clippy::too_many_arguments)]
fn route_inner(
    geometry: &PlacedGeometry,
    nets: &[NetPins],
    params: &RouterParams,
    seed: u64,
    rec: &mut dyn Recorder,
    phase: &'static str,
    iteration: u64,
    cancel: Option<&CancelToken>,
) -> Result<GlobalRouting, StopReason> {
    let route_time = Interval::RouteIter.open();
    // The calling thread's `main` lane: one `route_net` span per net's
    // phase-1 enumeration and a `route_select` span for the phase-2
    // interchange, inside the `route_iter` span that closing
    // `route_time` adds to the same lane, inside the caller's stage
    // span. Per-net clocks are read only when a tracer is attached; the
    // RNG is never touched, so routing stays bit-identical.
    let tracer = rec.tracer().cloned();
    let mut lane = tracer.as_ref().map(|tr| tr.lane("main"));
    let graph = build_channel_graph(geometry, params.track_spacing);
    let mut rng = StdRng::seed_from_u64(seed);
    // Search buffers and distance tables shared by every net's phase-1
    // enumeration.
    let mut space = SearchSpace::new(graph.len());

    let mut alternatives: Vec<Vec<RouteTree>> = Vec::with_capacity(nets.len());
    let mut net_points: Vec<Vec<Vec<(usize, i64, Point)>>> = Vec::with_capacity(nets.len());
    for net in nets {
        if let Some(reason) = cancel.and_then(|c| c.check()) {
            return Err(reason);
        }
        let net_t0 = lane.as_ref().map(|_| std::time::Instant::now());
        if graph.is_empty() {
            alternatives.push(Vec::new());
            net_points.push(Vec::new());
            continue;
        }
        // Per connection point: candidate attach nodes with the pin's
        // perpendicular-projection offset (distance from the pin to the
        // channel node), which contributes to the route length (§4.1).
        let points: Vec<Vec<(usize, i64, Point)>> = net
            .points
            .iter()
            .map(|cands| {
                let mut nodes: Vec<(usize, i64, Point)> = cands
                    .iter()
                    .filter_map(|&p| {
                        graph
                            .attach_pin(p)
                            .map(|n| (n, graph.nodes[n].center.manhattan(p), p))
                    })
                    .collect();
                nodes.sort_unstable_by_key(|&(n, off, _)| (n, off));
                // Keep the smallest offset per node.
                nodes.dedup_by_key(|&mut (n, _, _)| n);
                nodes
            })
            .filter(|nodes| !nodes.is_empty())
            .collect();
        if points.len() < 2 {
            alternatives.push(Vec::new());
            net_points.push(Vec::new());
            continue;
        }
        let node_lists: Vec<Vec<usize>> = points
            .iter()
            .map(|p| p.iter().map(|&(n, _, _)| n).collect())
            .collect();
        let mut trees = enumerate_in(
            &mut space,
            &graph,
            &node_lists,
            params.m_alternatives,
            params.per_level,
        );
        // Charge each tree the offsets of the candidates it actually
        // connects (the cheapest in-tree candidate per point), then
        // re-rank: this is how electrically-equivalent pins shorten nets.
        for tree in &mut trees {
            let mut extra = 0;
            for cands in &points {
                let best = cands
                    .iter()
                    .filter(|(n, _, _)| tree.nodes.binary_search(n).is_ok())
                    .map(|&(_, off, _)| off)
                    .min()
                    .unwrap_or(0);
                extra += best;
            }
            tree.length += extra;
        }
        trees.sort_by(|a, b| a.length.cmp(&b.length).then(a.edges.cmp(&b.edges)));
        alternatives.push(trees);
        net_points.push(points);
        if let (Some(lane), Some(t0)) = (lane.as_mut(), net_t0) {
            lane.span("route_net", "route", t0, t0.elapsed());
        }
    }

    let select_t0 = lane.as_ref().map(|_| std::time::Instant::now());
    let assignment = assign_routes(&graph, &alternatives, &mut rng)
        .expect("alternatives enumerated on this graph");
    if let (Some(lane), Some(t0)) = (lane.as_mut(), select_t0) {
        lane.span("route_select", "route", t0, t0.elapsed());
    }

    // Node densities: distinct nets through each node; chosen pin
    // attachments per connection point.
    let mut node_density = vec![0u32; graph.len()];
    let mut routes = Vec::with_capacity(nets.len());
    let mut pin_attachments = Vec::with_capacity(nets.len());
    let mut unrouted = 0;
    for (net, alts) in alternatives.iter().enumerate() {
        if alts.is_empty() {
            routes.push(None);
            pin_attachments.push(Vec::new());
            unrouted += 1;
            continue;
        }
        let tree = alts[assignment.choice[net]].clone();
        for &n in &tree.nodes {
            node_density[n] += 1;
        }
        let attach: Vec<(usize, Point)> = net_points[net]
            .iter()
            .filter_map(|cands| {
                cands
                    .iter()
                    .filter(|(n, _, _)| tree.nodes.binary_search(n).is_ok())
                    .min_by_key(|&&(_, off, _)| off)
                    .map(|&(n, _, p)| (n, p))
            })
            .collect();
        pin_attachments.push(attach);
        routes.push(Some(tree));
    }

    if rec.enabled() {
        let mut util_hist = [0u64; 5];
        let mut usage_total = 0u64;
        for (&d, e) in assignment.edge_usage.iter().zip(&graph.edges) {
            usage_total += d as u64;
            let util = d as f64 / (e.capacity as f64).max(1.0);
            let bucket = if d == 0 {
                0
            } else if util <= 0.5 {
                1
            } else if util <= 0.9 {
                2
            } else if util <= 1.0 {
                3
            } else {
                4
            };
            util_hist[bucket] += 1;
        }
        rec.record(&Event::RouteIter(RouteIter {
            phase,
            iteration,
            nets: nets.len(),
            unrouted,
            alts_total: alternatives.iter().map(|a| a.len()).sum(),
            alts_max: alternatives.iter().map(|a| a.len()).max().unwrap_or(0),
            overflow_start: assignment.overflow_start,
            overflow: assignment.overflow,
            total_length: assignment.total_length,
            attempts: assignment.attempts,
            reassignments: assignment.reassignments,
            usage_total,
            util_hist,
        }));
    }

    if let Some(hub) = rec.hub() {
        hub.route_overflow.set(assignment.overflow);
    }
    // Check the lane back in so the interval's span lands on its ring.
    drop(lane);
    route_time.close(rec);

    Ok(GlobalRouting {
        graph,
        routes,
        assignment,
        node_density,
        pin_attachments,
        reserved_tracks: params.reserved_tracks,
        unrouted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::{Rect, TileSet};

    fn quad_geometry() -> PlacedGeometry {
        PlacedGeometry {
            cells: vec![
                (TileSet::rect(10, 10), Point::new(-15, -15)),
                (TileSet::rect(10, 10), Point::new(5, -15)),
                (TileSet::rect(10, 10), Point::new(-15, 5)),
                (TileSet::rect(10, 10), Point::new(5, 5)),
            ],
            core: Rect::from_wh(-20, -20, 40, 40),
        }
    }

    #[test]
    fn routes_simple_nets() {
        let g = quad_geometry();
        // Net 0: SW right edge to SE left edge; Net 1: SW top to NW bottom.
        let nets = vec![
            NetPins {
                points: vec![vec![Point::new(-5, -10)], vec![Point::new(5, -10)]],
            },
            NetPins {
                points: vec![vec![Point::new(-10, -5)], vec![Point::new(-10, 5)]],
            },
        ];
        let r = global_route(&g, &nets, &RouterParams::default(), 1);
        assert_eq!(r.unrouted, 0);
        assert_eq!(r.overflow(), 0);
        assert!(r.routes.iter().all(|t| t.is_some()));
        // Densities: at least the attachment channels carry the nets.
        assert!(r.node_density.iter().any(|&d| d > 0));
        // Required widths follow eq. 22.
        let node = r
            .node_density
            .iter()
            .position(|&d| d > 0)
            .expect("some dense node");
        assert_eq!(
            r.required_width(node, 2.0),
            (r.node_density[node] as f64 + 2.0) * 2.0
        );
    }

    #[test]
    fn multi_pin_net_with_equivalents() {
        let g = quad_geometry();
        let nets = vec![NetPins {
            points: vec![
                vec![Point::new(-5, -10)],
                // Equivalent pair on different cells' edges.
                vec![Point::new(5, -10), Point::new(5, 10)],
                vec![Point::new(-10, 5)],
            ],
        }];
        let r = global_route(&g, &nets, &RouterParams::default(), 2);
        assert_eq!(r.unrouted, 0);
        let tree = r.routes[0].as_ref().expect("routed");
        assert!(tree.length > 0);
    }

    #[test]
    fn degenerate_net_is_reported_unrouted() {
        let g = PlacedGeometry {
            cells: vec![(TileSet::rect(10, 10), Point::new(-5, -5))],
            core: Rect::from_wh(-5, -5, 10, 10), // cell fills the core: no channels
        };
        let nets = vec![NetPins {
            points: vec![vec![Point::new(-5, 0)], vec![Point::new(5, 0)]],
        }];
        let r = global_route(&g, &nets, &RouterParams::default(), 3);
        assert_eq!(r.unrouted, 1);
        assert!(r.routes[0].is_none());
    }

    #[test]
    fn reserved_tracks_widen_requirements() {
        // The paper's §5 evaluation assumed power/ground rails of about
        // two normal wire widths in every channel.
        let g = quad_geometry();
        let nets = vec![NetPins {
            points: vec![vec![Point::new(-5, -10)], vec![Point::new(5, -10)]],
        }];
        let plain = global_route(&g, &nets, &RouterParams::default(), 4);
        let pg = global_route(
            &g,
            &nets,
            &RouterParams {
                reserved_tracks: 2.0,
                ..Default::default()
            },
            4,
        );
        // Same routing, wider requirement: +reserved*t_s on every node.
        for node in 0..plain.graph.len() {
            assert_eq!(
                pg.required_width(node, 2.0),
                plain.required_width(node, 2.0) + 4.0
            );
        }
    }

    #[test]
    fn deterministic() {
        let g = quad_geometry();
        let nets = vec![NetPins {
            points: vec![vec![Point::new(-5, -10)], vec![Point::new(5, -10)]],
        }];
        let a = global_route(&g, &nets, &RouterParams::default(), 9);
        let b = global_route(&g, &nets, &RouterParams::default(), 9);
        assert_eq!(a.total_length(), b.total_length());
    }
}
