//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use twmc_geom::{
    boundary_edges, decompose_rectilinear, span_difference, span_union_len, Orientation, Point,
    Rect, Span, TileSet,
};

fn arb_point() -> impl Strategy<Value = Point> {
    (-1000i64..1000, -1000i64..1000).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), 1i64..200, 1i64..200).prop_map(|(p, w, h)| Rect::from_wh(p.x, p.y, w, h))
}

fn arb_span() -> impl Strategy<Value = Span> {
    (-1000i64..1000, -1000i64..1000).prop_map(|(a, b)| Span::new(a, b))
}

fn arb_orientation() -> impl Strategy<Value = Orientation> {
    prop::sample::select(Orientation::ALL.to_vec())
}

/// Non-overlapping tiles built as a horizontal strip of stacked columns.
fn arb_tileset() -> impl Strategy<Value = TileSet> {
    prop::collection::vec((1i64..20, 1i64..20), 1..6).prop_map(|cols| {
        let mut tiles = Vec::new();
        let mut x = 0;
        for (w, h) in cols {
            tiles.push(Rect::from_wh(x, 0, w, h));
            x += w;
        }
        TileSet::new(tiles).expect("strip tiles never overlap")
    })
}

/// Points close enough that tile sets placed at two of them often meet.
fn arb_near_point() -> impl Strategy<Value = Point> {
    (-60i64..60, -60i64..60).prop_map(|(x, y)| Point::new(x, y))
}

/// Per-side expansions `(left, right, bottom, top)`.
fn arb_expansions() -> impl Strategy<Value = (i64, i64, i64, i64)> {
    (0i64..25, 0i64..25, 0i64..25, 0i64..25)
}

fn grow(r: Rect, e: (i64, i64, i64, i64)) -> Rect {
    r.expand_sides(e.0, e.1, e.2, e.3)
}

proptest! {
    #[test]
    fn manhattan_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert_eq!(a.manhattan(b), b.manhattan(a));
        prop_assert_eq!(a.manhattan(a), 0);
        prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
    }

    #[test]
    fn rect_overlap_symmetric_and_bounded(a in arb_rect(), b in arb_rect()) {
        let o = a.overlap_area(b);
        prop_assert_eq!(o, b.overlap_area(a));
        prop_assert!(o >= 0);
        prop_assert!(o <= a.area().min(b.area()));
    }

    #[test]
    fn rect_overlap_matches_intersection(a in arb_rect(), b in arb_rect()) {
        match a.intersect(b) {
            Some(i) => prop_assert_eq!(a.overlap_area(b), i.area()),
            None => prop_assert_eq!(a.overlap_area(b), 0),
        }
    }

    #[test]
    fn span_difference_partitions(base in arb_span(), cover in prop::collection::vec(arb_span(), 0..6)) {
        let gaps = span_difference(base, &cover);
        // Gaps lie inside the base and are disjoint from every cover span's interior.
        for g in &gaps {
            prop_assert!(base.contains_span(*g));
            for c in &cover {
                prop_assert_eq!(g.overlap_len(*c), 0);
            }
        }
        // Gap total + covered total = base length.
        let covered: i64 = span_union_len(
            &cover.iter().filter_map(|c| c.intersect(base)).collect::<Vec<_>>(),
        );
        let gap_total: i64 = gaps.iter().map(|g| g.len()).sum();
        prop_assert_eq!(gap_total + covered, base.len());
    }

    #[test]
    fn orientation_group_closure(a in arb_orientation(), b in arb_orientation()) {
        let c = a.then(b);
        prop_assert!(Orientation::ALL.contains(&c));
    }

    #[test]
    fn orientation_roundtrip(o in arb_orientation(), p in (0i64..50, 0i64..30), dims in (1i64..51, 1i64..31)) {
        let (w, h) = dims;
        let p = Point::new(p.0 % (w + 1), p.1 % (h + 1));
        let q = o.apply(p, w, h);
        let (ww, hh) = o.apply_dims(w, h);
        prop_assert_eq!(o.inverse().apply(q, ww, hh), p);
    }

    #[test]
    fn orientation_preserves_distances(
        o in arb_orientation(),
        a in (0i64..40, 0i64..40),
        b in (0i64..40, 0i64..40),
    ) {
        let (w, h) = (40, 40);
        let (pa, pb) = (Point::new(a.0, a.1), Point::new(b.0, b.1));
        let (qa, qb) = (o.apply(pa, w, h), o.apply(pb, w, h));
        prop_assert_eq!(pa.manhattan(pb), qa.manhattan(qb));
    }

    #[test]
    fn tileset_overlap_symmetric(
        a in arb_tileset(),
        b in arb_tileset(),
        pa in arb_point(),
        pb in arb_point(),
    ) {
        prop_assert_eq!(
            a.overlap_area_at(pa, &b, pb),
            b.overlap_area_at(pb, &a, pa)
        );
    }

    #[test]
    fn tileset_self_overlap_is_area(a in arb_tileset(), p in arb_point()) {
        prop_assert_eq!(a.overlap_area_at(p, &a, p), a.area());
    }

    #[test]
    fn tileset_far_apart_no_overlap(a in arb_tileset(), b in arb_tileset()) {
        let far = Point::new(a.width() + 1, 0);
        prop_assert_eq!(a.overlap_area_at(Point::ORIGIN, &b, far), 0);
    }

    #[test]
    fn expanded_overlap_dominates_plain(
        a in arb_tileset(),
        b in arb_tileset(),
        d in (0i64..30, 0i64..30),
        e in 0i64..5,
    ) {
        let pb = Point::new(d.0, d.1);
        let exp = (e, e, e, e);
        let plain = a.overlap_area_at(Point::ORIGIN, &b, pb);
        let grown = a.expanded_overlap_area_at(Point::ORIGIN, exp, &b, pb, exp);
        prop_assert!(grown >= plain);
    }

    #[test]
    fn boundary_lengths_balance(ts in arb_tileset()) {
        use twmc_geom::Side;
        let edges = boundary_edges(&ts);
        let total = |s: Side| -> i64 {
            edges.iter().filter(|e| e.side == s).map(|e| e.len()).sum()
        };
        prop_assert_eq!(total(Side::Left), total(Side::Right));
        prop_assert_eq!(total(Side::Top), total(Side::Bottom));
        // Per-axis totals bound the bbox dimensions.
        prop_assert!(total(Side::Left) >= ts.height());
        prop_assert!(total(Side::Bottom) >= ts.width());
    }

    #[test]
    fn oriented_tileset_preserves_area_and_perimeter(ts in arb_tileset(), o in arb_orientation()) {
        let t = ts.oriented(o);
        prop_assert_eq!(t.area(), ts.area());
        prop_assert_eq!(t.perimeter(), ts.perimeter());
    }

    /// `set_oriented` into a reused set of another shape equals
    /// `oriented`, and orienting a rectangle is the rectangle of the
    /// oriented dims.
    #[test]
    fn in_place_forms_match_the_allocating_ones(
        ts in arb_tileset(),
        other in arb_tileset(),
        o in arb_orientation(),
        (w, h) in (1i64..200, 1i64..200),
    ) {
        let mut reused = other.clone();
        reused.set_oriented(&ts, o);
        prop_assert_eq!(&reused, &ts.oriented(o));
        let (ww, hh) = o.apply_dims(w, h);
        reused.set_rect(ww, hh);
        prop_assert_eq!(&reused, &TileSet::rect(w, h).oriented(o));
    }

    /// On single-tile sets the expanded overlap is the overlap of the
    /// two expanded rects: the shortcut that skips the tile loop.
    #[test]
    fn single_tile_expanded_overlap_is_the_rect_overlap(
        (w1, h1, w2, h2) in (1i64..120, 1i64..120, 1i64..120, 1i64..120),
        o in arb_orientation(),
        at in arb_near_point(),
        other_at in arb_near_point(),
        exp in arb_expansions(),
        other_exp in arb_expansions(),
    ) {
        let a = TileSet::rect(w1, h1).oriented(o);
        let b = TileSet::rect(w2, h2);
        let ra = grow(Rect::from_wh(at.x, at.y, a.width(), a.height()), exp);
        let rb = grow(Rect::from_wh(other_at.x, other_at.y, w2, h2), other_exp);
        prop_assert_eq!(
            a.expanded_overlap_area_at(at, exp, &b, other_at, other_exp),
            ra.overlap_area(rb)
        );
    }

    /// On any tile sets the expanded overlap is the tile-by-tile sum of
    /// expanded-tile intersections (paper eq. 8 on expanded tiles).
    #[test]
    fn expanded_overlap_is_the_tile_by_tile_sum(
        a in arb_tileset(),
        b in arb_tileset(),
        oa in arb_orientation(),
        ob in arb_orientation(),
        at in arb_near_point(),
        other_at in arb_near_point(),
        exp in arb_expansions(),
        other_exp in arb_expansions(),
    ) {
        let (a, b) = (a.oriented(oa), b.oriented(ob));
        let mut sum = 0;
        for t in a.tiles() {
            for u in b.tiles() {
                sum += grow(t.translate(at), exp)
                    .overlap_area(grow(u.translate(other_at), other_exp));
            }
        }
        prop_assert_eq!(a.expanded_overlap_area_at(at, exp, &b, other_at, other_exp), sum);
    }

    #[test]
    fn staircase_polygon_decomposes(steps in prop::collection::vec((1i64..10, 1i64..10), 1..6)) {
        // Build a staircase outline; its area is known by construction.
        let mut verts = vec![Point::new(0, 0)];
        let mut x = 0;
        let mut y = 0;
        for (dx, dy) in &steps {
            x += dx;
            verts.push(Point::new(x, y));
            y += dy;
            verts.push(Point::new(x, y));
        }
        verts.push(Point::new(0, y));
        let ts = decompose_rectilinear(&verts).expect("staircase is simple");
        // Area = sum over steps of width-so-far times rise.
        let mut area = 0;
        let mut width = 0;
        for (dx, dy) in &steps {
            width += dx;
            area += width * dy;
        }
        prop_assert_eq!(ts.area(), area);
    }
}
