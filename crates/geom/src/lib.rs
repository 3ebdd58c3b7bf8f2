//! Geometry substrate for the TimberWolfMC reproduction.
//!
//! This crate provides the layout-grid geometry that the placement,
//! estimation, and routing crates build on:
//!
//! * [`Point`] / [`Span`] / [`Rect`] — integer grid primitives with the
//!   interval algebra used by channel definition;
//! * [`Orientation`] — the eight cell orientations (dihedral group D4)
//!   the paper considers for every cell;
//! * [`TileSet`] — rectilinear cell areas as unions of non-overlapping
//!   rectangular tiles, with the overlap function `O(i, j)` of the
//!   paper's eq. 8 (plain and with interconnect-allowance expansion);
//! * [`boundary_edges`] — exposed boundary extraction, feeding the
//!   per-edge interconnect-area estimate and critical-region pairing;
//! * [`decompose_rectilinear`] — vertex-loop to tile-set conversion;
//! * [`TRACK_PITCH`] — the wiring track pitch `t_s` that sizes channels.
//!
//! # Examples
//!
//! ```
//! use twmc_geom::{Orientation, Point, TileSet};
//!
//! let cell = TileSet::rect(10, 4);
//! let rotated = cell.oriented(Orientation::R90);
//! assert_eq!((rotated.width(), rotated.height()), (4, 10));
//! assert_eq!(
//!     cell.overlap_area_at(Point::new(0, 0), &rotated, Point::new(8, 0)),
//!     2 * 4,
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod edge;
mod orientation;
mod point;
mod polygon;
mod rect;
mod span;
mod tile;

pub use edge::{boundary_edges, BoundaryEdge, Side};
pub use orientation::Orientation;
pub use point::Point;
pub use polygon::{decompose_rectilinear, PolygonError};
pub use rect::Rect;
pub use span::{span_difference, span_union_len, Span};
pub use tile::{TileSet, TileSetError};

/// The center-to-center wiring track pitch `t_s`, in grid units. The
/// estimator's expected channel width `C_w` (eq. 1), the pin-site
/// capacities, the router's channel capacities and the required channel
/// width `w = (d + 2)·t_s` (eq. 22) all read this one value.
pub const TRACK_PITCH: f64 = 2.0;
