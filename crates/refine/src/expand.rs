//! Static cell-edge expansions from routed channel densities
//! (paper §4.3).
//!
//! After global routing, every channel's density is known, and since
//! exactly two cell edges border each channel, the spacing requirement
//! between them is immediate: `w = (d + 2)·t_s` (eq. 22), half of which
//! is associated with each bordering edge. Each cell edge is expanded
//! outward by its half, and these expansions stay *static* for the
//! duration of one placement-refinement step.

use twmc_geom::{Side, TRACK_PITCH};
use twmc_route::GlobalRouting;

/// Computes per-cell `(left, right, bottom, top)` expansions from a
/// routing: each cell side takes the maximum half-required-width over all
/// channels that side borders; sides bordering no channel get one track.
pub fn static_expansions(routing: &GlobalRouting, n_cells: usize) -> Vec<(i64, i64, i64, i64)> {
    let base = TRACK_PITCH as i64;
    let mut req = vec![[base; 4]; n_cells];
    let idx = |side: Side| -> usize {
        match side {
            Side::Left => 0,
            Side::Right => 1,
            Side::Bottom => 2,
            Side::Top => 3,
        }
    };
    for (node, gn) in routing.graph.nodes.iter().enumerate() {
        let w = routing.required_width(node);
        let half = (w / 2.0).ceil() as i64;
        for edge in [&gn.region.lo_edge, &gn.region.hi_edge] {
            if let Some(cell) = edge.cell {
                if cell < n_cells {
                    let k = idx(edge.side);
                    req[cell][k] = req[cell][k].max(half);
                }
            }
        }
    }
    req.into_iter().map(|r| (r[0], r[1], r[2], r[3])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::{Point, Rect, TileSet};
    use twmc_route::{global_route, NetPins, PlacedGeometry, RouterParams};

    fn routed_pair() -> (GlobalRouting, usize) {
        let geometry = PlacedGeometry {
            cells: vec![
                (TileSet::rect(10, 10), Point::new(-15, -5)),
                (TileSet::rect(10, 10), Point::new(5, -5)),
            ],
            core: Rect::from_wh(-25, -15, 50, 30),
        };
        // Three nets through the central channel.
        let nets: Vec<NetPins> = (0..3)
            .map(|k| NetPins {
                points: vec![
                    vec![Point::new(-5, -4 + 3 * k)],
                    vec![Point::new(5, -4 + 3 * k)],
                ],
            })
            .collect();
        (
            global_route(&geometry, &nets, &RouterParams::default(), 1),
            2,
        )
    }

    #[test]
    fn dense_channel_drives_expansion() {
        let (routing, n) = routed_pair();
        let exp = static_expansions(&routing, n);
        assert_eq!(exp.len(), 2);
        // The central channel carries 3 nets: required width
        // (3+2)*2 = 10, half = 5 on cell 0's right and cell 1's left.
        assert!(exp[0].1 >= 5, "cell0 right expansion {:?}", exp[0]);
        assert!(exp[1].0 >= 5, "cell1 left expansion {:?}", exp[1]);
        // Un-crossed sides get at least a track but less than the dense
        // side's requirement... the outer sides only carry density-0
        // channels: (0+2)*2/2 = 2.
        assert!(exp[0].0 >= 2 && exp[0].0 < 5, "{:?}", exp[0]);
    }

    #[test]
    fn sides_without_channels_get_one_track() {
        // A routing over an empty graph yields base expansions.
        let geometry = PlacedGeometry {
            cells: vec![(TileSet::rect(10, 10), Point::new(-5, -5))],
            core: Rect::from_wh(-5, -5, 10, 10),
        };
        let routing = global_route(&geometry, &[], &RouterParams::default(), 2);
        let exp = static_expansions(&routing, 1);
        assert_eq!(exp[0], (2, 2, 2, 2));
    }
}
