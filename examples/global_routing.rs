//! Global routing on a fixed placement: channel definition, the channel
//! graph, M-shortest-path route enumeration, and congestion-driven route
//! selection — the machinery of the paper's §4.1–4.2, shown in isolation.
//!
//! ```sh
//! cargo run --release --example global_routing
//! ```

use timberwolfmc::geom::{Point, Rect, TileSet};
use timberwolfmc::route::{
    critical_regions, global_route, ChannelKind, NetPins, PlacedGeometry, RouterParams,
};

fn main() {
    // A hand-made floorplan: five cells, one rectilinear, as in the
    // paper's Fig. 8.
    let geometry = PlacedGeometry {
        cells: vec![
            (TileSet::rect(30, 25), Point::new(-48, -40)), // C1 SW
            (TileSet::rect(30, 30), Point::new(-44, -4)),  // C2 NW
            (TileSet::rect(26, 20), Point::new(14, 16)),   // C3 NE
            (
                // C4: L-shaped like the paper's 12-edge cell
                TileSet::new(vec![
                    Rect::from_wh(0, 0, 36, 16),
                    Rect::from_wh(0, 16, 16, 18),
                ])
                .expect("L tiles disjoint"),
                Point::new(-6, -42),
            ),
            (TileSet::rect(20, 24), Point::new(24, -16)), // C5 E
        ],
        core: Rect::from_wh(-55, -50, 110, 96),
    };

    // Channel definition.
    let regions = critical_regions(&geometry);
    let vertical = regions
        .iter()
        .filter(|r| r.kind == ChannelKind::Vertical)
        .count();
    println!(
        "channel definition: {} critical regions ({} vertical, {} horizontal)",
        regions.len(),
        vertical,
        regions.len() - vertical
    );
    let overlapping = regions
        .iter()
        .enumerate()
        .flat_map(|(i, a)| regions[i + 1..].iter().map(move |b| (a, b)))
        .filter(|(a, b)| a.rect.overlap_area(b.rect) > 0)
        .count();
    println!("overlapping region pairs kept (Chen's method would drop these): {overlapping}");

    // Nets: pins sit on cell edges; net 2 has an equivalent pin pair.
    let nets = vec![
        NetPins {
            // C1 east edge to C4 west edge.
            points: vec![vec![Point::new(-18, -30)], vec![Point::new(-6, -30)]],
        },
        NetPins {
            // C2 north to C3 west, three-pin with C5 north.
            points: vec![
                vec![Point::new(-30, 26)],
                vec![Point::new(14, 24)],
                vec![Point::new(34, 8)],
            ],
        },
        NetPins {
            // C4 top to either of two equivalent C3 pins.
            points: vec![
                vec![Point::new(2, -8)],
                vec![Point::new(20, 16), Point::new(40, 16)],
            ],
        },
        NetPins {
            // A long cross-chip net.
            points: vec![vec![Point::new(-48, -20)], vec![Point::new(44, -4)]],
        },
    ];

    let params = RouterParams::default();
    let routing = global_route(&geometry, &nets, &params, 42);

    println!("\nglobal routing:");
    println!(
        "  channel graph: {} nodes, {} edges",
        routing.graph.len(),
        routing.graph.edges.len()
    );
    println!("  total length L = {}", routing.total_length());
    println!("  overflow X     = {}", routing.overflow());
    println!("  unrouted nets  = {}", routing.unrouted);

    for (i, route) in routing.routes.iter().enumerate() {
        match route {
            Some(tree) => println!(
                "  net {i}: length {:>4}, {} channels, {} segments",
                tree.length,
                tree.nodes.len(),
                tree.edges.len()
            ),
            None => println!("  net {i}: UNROUTED"),
        }
    }

    // Channel widths the refinement step would enforce (eq. 22).
    println!("\nbusiest channels (width = (d+2)*t_s):");
    let mut dense: Vec<(usize, u32)> = routing
        .node_density
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, d)| d > 0)
        .collect();
    dense.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    for &(node, d) in dense.iter().take(5) {
        let r = &routing.graph.nodes[node].region;
        println!(
            "  {:?} channel {} (separation {:>3}): density {}, required width {:.0}",
            r.kind,
            r.rect,
            r.separation(),
            d,
            routing.required_width(node)
        );
    }
}
