//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the location-service semantics rely on:
//! intersection areas are bounded by the operand areas, `Enlarge` is
//! monotone and covering, and the projection round-trips. Runs on the
//! in-tree seeded harness ([`hiloc_util::prop`]); case counts mirror
//! the original proptest configuration.

use hiloc_geo::{Circle, GeoPoint, LocalProjection, Point, Polygon, Rect, Region};
use hiloc_util::prop::{check, Gen};
use hiloc_util::rng::RngExt;

const CASES: u32 = 256;

fn small_coord(g: &mut Gen) -> f64 {
    g.random_range(-1_000.0..1_000.0)
}

fn point(g: &mut Gen) -> Point {
    let x = small_coord(g);
    let y = small_coord(g);
    Point::new(x, y)
}

fn rect(g: &mut Gen) -> Rect {
    let a = point(g);
    let b = point(g);
    Rect::new(a, b)
}

fn circle(g: &mut Gen) -> Circle {
    let c = point(g);
    let r = g.random_range(0.1..500.0);
    Circle::new(c, r)
}

/// Convex polygon: a regular polygon, randomly scaled and translated.
fn convex_polygon(g: &mut Gen) -> Polygon {
    let c = point(g);
    let r = g.random_range(1.0..300.0);
    let n = g.random_range(3usize..12);
    Polygon::regular(c, r, n)
}

#[test]
fn rect_intersection_is_commutative_and_bounded() {
    check(CASES, |g| {
        let a = rect(g);
        let b = rect(g);
        let ab = a.intersection_area(&b);
        let ba = b.intersection_area(&a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab <= a.area() + 1e-9);
        assert!(ab <= b.area() + 1e-9);
        assert!(ab >= 0.0);
    });
}

#[test]
fn rect_union_contains_both() {
    check(CASES, |g| {
        let a = rect(g);
        let b = rect(g);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    });
}

#[test]
fn circle_polygon_intersection_bounded() {
    check(CASES, |g| {
        let c = circle(g);
        let p = convex_polygon(g);
        let a = c.intersection_area_with_polygon(&p);
        assert!(a >= -1e-9, "negative area {a}");
        assert!(a <= c.area() * (1.0 + 1e-9) + 1e-9, "{a} > circle {}", c.area());
        assert!(a <= p.area() * (1.0 + 1e-9) + 1e-9, "{a} > polygon {}", p.area());
    });
}

#[test]
fn circle_inside_polygon_has_full_overlap() {
    check(CASES, |g| {
        let center = point(g);
        let r = g.random_range(0.5..50.0);
        let c = Circle::new(center, r);
        // Polygon is the circle's bounding box enlarged: circle fully inside.
        let p = Polygon::from_rect(&c.bounding_rect().enlarged(1.0));
        let a = c.intersection_area_with_polygon(&p);
        assert!((a - c.area()).abs() < 1e-6 * c.area().max(1.0));
    });
}

/// The allocation-free rectangle intersection is the polygon path's
/// edge sum bit for bit, over circles inside, straddling an edge, on a
/// corner, tangent to an edge from outside, disjoint, and of zero
/// radius.
#[test]
fn circle_rect_matches_polygon_path() {
    check(CASES * 4, |g| {
        let min = point(g);
        let (w, h) = (g.random_range(0.5..1_500.0), g.random_range(0.5..1_500.0));
        let r = Rect::new(min, min + Point::new(w, h));
        let corners = r.corners();
        let on_edge = |g: &mut Gen| {
            let i = g.index(4);
            let t = g.random_range(0.0..1.0);
            corners[i] + (corners[(i + 1) % 4] - corners[i]) * t
        };
        let c = match g.index(6) {
            0 => {
                let rad = g.random_range(0.0..w.min(h) / 2.0);
                let p = Point::new(
                    g.random_range(min.x + rad..min.x + w - rad + 1e-9),
                    g.random_range(min.y + rad..min.y + h - rad + 1e-9),
                );
                Circle::new(p, rad)
            }
            1 => Circle::new(on_edge(g), g.random_range(0.1..2_000.0)),
            2 => {
                let jitter = Point::new(g.random_range(-1.0..1.0), g.random_range(-1.0..1.0));
                Circle::new(*g.pick(&corners) + jitter, g.random_range(0.1..500.0))
            }
            3 => {
                let rad = g.random_range(0.1..500.0);
                let p = Point::new(r.max().x + rad, g.random_range(min.y..min.y + h));
                Circle::new(p, rad)
            }
            4 => Circle::new(r.max() + Point::new(g.random_range(1.0..500.0), 0.0) * 2.0, 1.0),
            _ => Circle::new(on_edge(g), 0.0),
        };
        let via_rect = c.intersection_area_with_rect(&r);
        let via_poly = c.intersection_area_with_polygon(&Polygon::from_rect(&r));
        assert_eq!(via_rect.to_bits(), via_poly.to_bits(), "{c} vs {r}: {via_rect} vs {via_poly}");
    });
}

#[test]
fn circle_circle_lens_symmetric() {
    check(CASES, |g| {
        let a = circle(g);
        let b = circle(g);
        let ab = a.intersection_area_with_circle(&b);
        let ba = b.intersection_area_with_circle(&a);
        assert!((ab - ba).abs() < 1e-6 * ab.max(1.0));
        assert!(ab <= a.area().min(b.area()) * (1.0 + 1e-9) + 1e-9);
    });
}

#[test]
fn polygon_clip_area_bounded() {
    check(CASES, |g| {
        let p = convex_polygon(g);
        let r = rect(g);
        let a = p.intersection_area_with_rect(&r);
        assert!(a >= 0.0);
        assert!(a <= p.area() * (1.0 + 1e-9) + 1e-6);
        assert!(a <= r.area() * (1.0 + 1e-9) + 1e-6);
    });
}

#[test]
fn enlarge_covers_original() {
    check(CASES, |g| {
        let p = convex_polygon(g);
        let margin = g.random_range(0.0..100.0);
        let big = p.enlarged(margin);
        for v in p.vertices() {
            assert!(big.contains(*v), "vertex {v} escaped enlargement");
        }
        assert!(big.area() + 1e-9 >= p.area());
    });
}

#[test]
fn enlarge_rect_area_formula() {
    check(CASES, |g| {
        let r = rect(g);
        let margin = g.random_range(0.0..100.0);
        if r.area() <= 0.0 {
            return;
        }
        let e = r.enlarged(margin);
        let expect = (r.width() + 2.0 * margin) * (r.height() + 2.0 * margin);
        assert!((e.area() - expect).abs() < 1e-6);
    });
}

#[test]
fn projection_roundtrip() {
    check(CASES, |g| {
        let x = g.random_range(-20_000.0..20_000.0);
        let y = g.random_range(-20_000.0..20_000.0);
        let proj = LocalProjection::new(GeoPoint::new(48.7758, 9.1829));
        let p = Point::new(x, y);
        let back = proj.to_local(proj.to_geo(p));
        assert!(back.distance(p) < 1e-6);
    });
}

#[test]
fn planar_distance_close_to_haversine() {
    check(CASES, |g| {
        let x1 = g.random_range(-5_000.0..5_000.0);
        let y1 = g.random_range(-5_000.0..5_000.0);
        let x2 = g.random_range(-5_000.0..5_000.0);
        let y2 = g.random_range(-5_000.0..5_000.0);
        let proj = LocalProjection::new(GeoPoint::new(48.7758, 9.1829));
        let (a, b) = (Point::new(x1, y1), Point::new(x2, y2));
        let planar = a.distance(b);
        if planar <= 1.0 {
            return;
        }
        let sphere = proj.to_geo(a).distance(proj.to_geo(b));
        assert!((planar - sphere).abs() / planar < 1e-3, "{planar} vs {sphere}");
    });
}

#[test]
fn distance_triangle_inequality() {
    check(CASES, |g| {
        let a = point(g);
        let b = point(g);
        let c = point(g);
        assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    });
}

#[test]
fn region_overlap_fraction_in_unit_range() {
    check(CASES, |g| {
        let c = circle(g);
        let r = rect(g);
        if r.area() <= 1e-6 {
            return;
        }
        let region = Region::from(r);
        let frac = region.intersection_area_with_circle(&c) / c.area();
        assert!((-1e-9..=1.0 + 1e-6).contains(&frac), "overlap fraction {frac}");
    });
}

#[test]
fn polygon_contains_centroid_when_convex() {
    check(CASES, |g| {
        let p = convex_polygon(g);
        assert!(p.contains(p.centroid()));
    });
}

#[test]
fn rect_distance_zero_iff_contains() {
    check(CASES, |g| {
        let r = rect(g);
        let p = point(g);
        if r.area() <= 0.0 {
            return;
        }
        if r.contains(p) {
            assert_eq!(r.distance_to_point(p), 0.0);
        } else {
            assert!(r.distance_to_point(p) > 0.0);
        }
    });
}
