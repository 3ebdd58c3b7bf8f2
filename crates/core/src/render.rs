//! SVG rendering of placements and global routings, for visual
//! inspection of results (the paper's figures 7–12 are exactly such
//! views).

use std::fmt::Write as _;

use twmc_geom::Rect;
use twmc_route::{ChannelKind, GlobalRouting};

use crate::PlacedCellRecord;

/// Output width in pixels (the height follows the aspect ratio).
const WIDTH_PX: f64 = 800.0;

/// A muted qualitative palette for cells (cycled).
const CELL_COLORS: [&str; 8] = [
    "#7fa7d0", "#e0a66b", "#8fbf8f", "#c98ebf", "#d0cf7f", "#7fcfcf", "#d08f8f", "#a0a0d8",
];

/// Renders a placement (optionally with its routing) as an SVG document
/// 800 px wide: the routing's channels under the cells, each cell's
/// tiles labeled with its name, and the routed trees as polylines
/// between channel centers.
///
/// The viewport covers `chip` plus a small margin; y is flipped so the
/// chip's +y points up as in the paper's figures.
pub fn render_svg(
    placement: &[PlacedCellRecord],
    routing: Option<&GlobalRouting>,
    chip: Rect,
) -> String {
    let margin = (chip.width().max(chip.height()) as f64 * 0.04).max(4.0);
    let min_x = chip.lo().x as f64 - margin;
    let min_y = chip.lo().y as f64 - margin;
    let w = chip.width() as f64 + 2.0 * margin;
    let h = chip.height() as f64 + 2.0 * margin;
    let scale = WIDTH_PX / w;
    let px = |v: f64| v * scale;
    // Flip y: svg y grows downward.
    let tx = |x: i64| px(x as f64 - min_x);
    let ty = |y: i64| px(min_y + h - y as f64);

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"##,
        px(w),
        px(h),
        px(w),
        px(h)
    );
    let _ = writeln!(
        svg,
        r##"<rect x="0" y="0" width="{:.0}" height="{:.0}" fill="#fbfaf7"/>"##,
        px(w),
        px(h)
    );
    // Chip outline.
    let _ = writeln!(
        svg,
        r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="none" stroke="#444" stroke-width="1.5"/>"##,
        tx(chip.lo().x),
        ty(chip.hi().y),
        px(chip.width() as f64),
        px(chip.height() as f64)
    );

    // Channels below cells.
    if let Some(r) = routing {
        for (i, node) in r.graph.nodes.iter().enumerate() {
            let rect = node.region.rect;
            let dense = r.node_density.get(i).copied().unwrap_or(0);
            let fill = if dense > 0 { "#f2d7c0" } else { "#eeeeee" };
            let stroke = match node.region.kind {
                ChannelKind::Vertical => "#c8b9a8",
                ChannelKind::Horizontal => "#b9c8a8",
            };
            let _ = writeln!(
                svg,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{fill}" fill-opacity="0.5" stroke="{stroke}" stroke-width="0.4"/>"##,
                tx(rect.lo().x),
                ty(rect.hi().y),
                px(rect.width() as f64),
                px(rect.height() as f64)
            );
        }
    }

    // Cells (each tile of the rectilinear outline).
    for (k, cell) in placement.iter().enumerate() {
        let color = CELL_COLORS[k % CELL_COLORS.len()];
        for t in cell.shape.tiles() {
            let r = t.translate(cell.pos);
            let _ = writeln!(
                svg,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{color}" fill-opacity="0.85" stroke="#333" stroke-width="0.8"/>"##,
                tx(r.lo().x),
                ty(r.hi().y),
                px(r.width() as f64),
                px(r.height() as f64)
            );
        }
        let c = cell.bbox.center();
        let size = (px(cell.bbox.height() as f64) * 0.25).clamp(6.0, 16.0);
        let _ = writeln!(
            svg,
            r##"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="{size:.0}" text-anchor="middle" fill="#111">{}</text>"##,
            tx(c.x),
            ty(c.y) + size * 0.35,
            cell.name
        );
    }

    // Routes as polylines between the channel centers of each tree edge.
    if let Some(r) = routing {
        for (ni, route) in r.routes.iter().enumerate() {
            let Some(tree) = route else { continue };
            let hue = (ni * 47) % 360;
            for &(a, b) in &tree.edges {
                let pa = r.graph.nodes[a].center;
                let pb = r.graph.nodes[b].center;
                let _ = writeln!(
                    svg,
                    r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="hsl({hue},60%,40%)" stroke-width="1.1" stroke-opacity="0.75"/>"##,
                    tx(pa.x),
                    ty(pa.y),
                    tx(pb.x),
                    ty(pb.y)
                );
            }
        }
    }

    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use twmc_geom::{Orientation, Point, TileSet};

    fn record(name: &str, x: i64, y: i64, w: i64, h: i64) -> PlacedCellRecord {
        PlacedCellRecord {
            name: name.to_owned(),
            pos: Point::new(x, y),
            orientation: Orientation::R0,
            instance: 0,
            aspect: 0.0,
            bbox: Rect::from_wh(x, y, w, h),
            shape: TileSet::rect(w, h),
        }
    }

    #[test]
    fn renders_wellformed_svg() {
        let placement = vec![record("a", 0, 0, 10, 10), record("b", 20, 0, 8, 12)];
        let chip = Rect::from_wh(-5, -5, 40, 25);
        let svg = render_svg(&placement, None, chip);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One chip outline + background + 2 cell rects.
        assert_eq!(svg.matches("<rect").count(), 4);
        assert_eq!(svg.matches("<text").count(), 2);
        assert!(svg.contains(">a</text>"));
    }

    #[test]
    fn renders_routing_layers() {
        use twmc_route::{global_route, NetPins, PlacedGeometry, RouterParams};
        let geometry = PlacedGeometry {
            cells: vec![
                (TileSet::rect(10, 10), Point::new(-15, -5)),
                (TileSet::rect(10, 10), Point::new(5, -5)),
            ],
            core: Rect::from_wh(-20, -10, 40, 20),
        };
        let nets = vec![NetPins {
            points: vec![vec![Point::new(-5, 0)], vec![Point::new(5, 0)]],
        }];
        let routing = global_route(&geometry, &nets, &RouterParams::default(), 1);
        let placement = vec![record("a", -15, -5, 10, 10), record("b", 5, -5, 10, 10)];
        let svg = render_svg(&placement, Some(&routing), geometry.core);
        // Channels rendered as extra rects beyond background/outline/cells.
        assert!(svg.matches("<rect").count() > 4);
    }
}
