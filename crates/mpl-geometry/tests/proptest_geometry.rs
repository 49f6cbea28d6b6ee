//! Property-based tests for the geometry substrate.

use mpl_geometry::{GridIndex, Interval, Nm, Point, Polygon, QueryIds, Rect};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-500i64..500, -500i64..500, 1i64..200, 1i64..200)
        .prop_map(|(x, y, w, h)| Rect::new(Nm(x), Nm(y), Nm(x + w), Nm(y + h)))
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-1000i64..1000, -1000i64..1000).prop_map(Point::from)
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-500i64..500, -500i64..500).prop_map(|(a, b)| Interval::new(Nm(a), Nm(b)))
}

proptest! {
    #[test]
    fn point_distance_symmetric_and_nonnegative(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.distance_squared(b), b.distance_squared(a));
        prop_assert!(a.distance_squared(b) >= 0);
        prop_assert_eq!(a.distance_squared(a), 0);
    }

    #[test]
    fn rect_distance_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.distance_squared(&b), b.distance_squared(&a));
    }

    #[test]
    fn rect_distance_zero_iff_intersecting(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.distance_squared(&b) == 0, a.intersects(&b));
    }

    #[test]
    fn rect_intersection_is_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(inter) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&inter));
            prop_assert!(b.contains_rect(&inter));
        }
    }

    #[test]
    fn rect_union_bbox_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union_bbox(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn expanding_reduces_distance(a in arb_rect(), b in arb_rect(), m in 0i64..50) {
        let margin = Nm(m);
        prop_assert!(a.expanded(margin).distance_squared(&b) <= a.distance_squared(&b));
    }

    #[test]
    fn translation_preserves_distance(a in arb_rect(), b in arb_rect(),
                                      dx in -300i64..300, dy in -300i64..300) {
        let (dx, dy) = (Nm(dx), Nm(dy));
        prop_assert_eq!(
            a.translated(dx, dy).distance_squared(&b.translated(dx, dy)),
            a.distance_squared(&b)
        );
    }

    #[test]
    fn interval_overlap_is_symmetric_and_bounded(a in arb_interval(), b in arb_interval()) {
        prop_assert_eq!(a.overlap(&b), b.overlap(&a));
        prop_assert!(a.overlap(&b) <= a.length());
        prop_assert!(a.overlap(&b) <= b.length());
    }

    #[test]
    fn interval_merge_preserves_membership(ivs in prop::collection::vec(arb_interval(), 0..12),
                                           x in -500i64..500) {
        let x = Nm(x);
        let covered_before = ivs.iter().any(|iv| iv.contains(x));
        let merged = Interval::merge_all(ivs);
        let covered_after = merged.iter().any(|iv| iv.contains(x));
        prop_assert_eq!(covered_before, covered_after);
        // Merged output is sorted and disjoint.
        for pair in merged.windows(2) {
            prop_assert!(pair[0].hi() < pair[1].lo());
        }
    }

    #[test]
    fn complement_is_disjoint_from_cover_interiors(
        covered in prop::collection::vec(arb_interval(), 0..8),
        span in arb_interval(),
    ) {
        let gaps = Interval::complement_within(span, &covered);
        for gap in &gaps {
            prop_assert!(span.contains_interval(gap));
            // The midpoint of a gap of positive length is not covered.
            if gap.length() > Nm(1) {
                let mid = Nm((gap.lo().value() + gap.hi().value()) / 2);
                prop_assert!(!covered.iter().any(|iv| iv.lo() < mid && mid < iv.hi()));
            }
        }
    }

    #[test]
    fn polygon_distance_never_exceeds_component_rect_distance(
        a in prop::collection::vec(arb_rect(), 1..4),
        b in prop::collection::vec(arb_rect(), 1..4),
    ) {
        let pa = Polygon::from_rects(a.clone()).expect("non-empty");
        let pb = Polygon::from_rects(b.clone()).expect("non-empty");
        let min_pair = a.iter()
            .flat_map(|ra| b.iter().map(move |rb| ra.distance_squared(rb)))
            .min()
            .expect("non-empty");
        prop_assert_eq!(pa.distance_squared(&pb), min_pair);
    }

    #[test]
    fn grid_index_matches_brute_force(
        rects in prop::collection::vec(arb_rect(), 1..40),
        query in arb_rect(),
        limit in 1i64..300,
        cell in 10i64..200,
    ) {
        let limit = Nm(limit);
        let index = GridIndex::build(Nm(cell), rects.iter().copied().enumerate());
        let mut got = index.query_within(&query, limit);
        got.sort_unstable();
        let mut expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| query.within_distance(r, limit))
            .map(|(i, _)| i)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn grid_index_visits_in_the_documented_order(
        entries in prop::collection::vec((0usize..12, arb_rect()), 1..60),
        window in (-12i64..12, -12i64..12, 0i64..4, 0i64..4),
        random_query in arb_rect(),
        on_cell_boundaries in 0u8..2,
        limit in 1i64..160,
        cell in 10i64..120,
    ) {
        // Several rectangles per id (12 ids over up to 60 entries), negative
        // coordinates, and half the queries a window whose edges lie on
        // cell boundaries.
        let limit = Nm(limit);
        let query = if on_cell_boundaries == 1 {
            let (x, y, w, h) = window;
            Rect::new(Nm(x * cell), Nm(y * cell), Nm((x + w) * cell), Nm((y + h) * cell))
        } else {
            random_query
        };
        let index = GridIndex::build(Nm(cell), entries.iter().copied());

        // Brute force: every matching entry once, ordered by the first cell
        // it shares with the query window (x, then y), then by insertion.
        let lo_cell = |value: Nm, margin: i64| (value.value() - margin).div_euclid(cell);
        let (qx0, qy0) = (lo_cell(query.xlo(), limit.value()), lo_cell(query.ylo(), limit.value()));
        let mut expected: Vec<((i64, i64), usize)> = entries
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| query.within_distance(r, limit))
            .map(|(slot, (_, r))| {
                ((lo_cell(r.xlo(), 0).max(qx0), lo_cell(r.ylo(), 0).max(qy0)), slot)
            })
            .collect();
        expected.sort_unstable();
        let expected: Vec<(usize, Rect, i64)> = expected
            .iter()
            .map(|&(_, slot)| {
                let (id, r) = entries[slot];
                (id, r, query.distance_squared(&r))
            })
            .collect();

        let mut visited = Vec::new();
        index.visit_within(&query, limit, |id, r, d2| visited.push((id, *r, d2)));
        prop_assert_eq!(&visited, &expected);

        // Ids: each once, in the order of its first visited rectangle, the
        // same from a fresh and from a reused buffer.
        let mut first_seen: Vec<usize> = Vec::new();
        for &(id, _, _) in &visited {
            if !first_seen.contains(&id) {
                first_seen.push(id);
            }
        }
        prop_assert_eq!(&index.query_within(&query, limit), &first_seen);
        let mut reused = QueryIds::default();
        index.query_within_into(&random_query, Nm(400), &mut reused);
        index.query_within_into(&query, limit, &mut reused);
        prop_assert_eq!(reused.as_slice(), &first_seen[..]);
    }
}
