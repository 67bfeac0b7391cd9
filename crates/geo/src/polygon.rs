//! Simple polygons in the local planar frame.

use crate::{Point, Rect, GEO_EPS};
use std::fmt;

/// Error returned when a vertex list does not form a usable polygon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidPolygon {
    /// Fewer than three vertices.
    TooFewVertices,
    /// A vertex coordinate was NaN or infinite.
    NonFiniteVertex,
    /// The vertices are collinear (zero area).
    ZeroArea,
}

impl fmt::Display for InvalidPolygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidPolygon::TooFewVertices => write!(f, "polygon needs at least three vertices"),
            InvalidPolygon::NonFiniteVertex => write!(f, "polygon vertex is not finite"),
            InvalidPolygon::ZeroArea => write!(f, "polygon has zero area"),
        }
    }
}

impl std::error::Error for InvalidPolygon {}

/// A simple polygon with counter-clockwise vertex order.
///
/// The paper allows query and service areas to be "an arbitrary connected
/// polygon given by the geographic coordinates of its corners". `Polygon`
/// stores the corners in the local planar frame; construction normalizes
/// the winding to counter-clockwise so that signed-area computations are
/// predictable.
///
/// # Example
///
/// ```
/// use hiloc_geo::{Point, Polygon};
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(0.0, 10.0),
/// ]).unwrap();
/// assert_eq!(tri.area(), 50.0);
/// assert!(tri.contains(Point::new(2.0, 2.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from its corner points (either winding; the
    /// stored order is normalized to counter-clockwise).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPolygon`] when fewer than three vertices are
    /// given, a vertex is non-finite, or all vertices are collinear.
    pub fn new(vertices: Vec<Point>) -> Result<Self, InvalidPolygon> {
        if vertices.len() < 3 {
            return Err(InvalidPolygon::TooFewVertices);
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(InvalidPolygon::NonFiniteVertex);
        }
        let signed = signed_area(&vertices);
        if signed.abs() < GEO_EPS {
            return Err(InvalidPolygon::ZeroArea);
        }
        let mut vertices = vertices;
        if signed < 0.0 {
            vertices.reverse();
        }
        Ok(Polygon { vertices })
    }

    /// The polygon covering `rect` (counter-clockwise corners).
    pub fn from_rect(rect: &Rect) -> Self {
        Polygon { vertices: rect.corners().to_vec() }
    }

    /// A regular polygon with `sides` vertices approximating a circle.
    ///
    /// # Panics
    ///
    /// Panics if `sides < 3` or `radius <= 0`.
    pub fn regular(center: Point, radius: f64, sides: usize) -> Self {
        assert!(sides >= 3, "a polygon needs at least 3 sides");
        assert!(radius > 0.0, "radius must be positive");
        let vertices = (0..sides)
            .map(|i| {
                let theta = 2.0 * std::f64::consts::PI * i as f64 / sides as f64;
                center + Point::new(radius * theta.cos(), radius * theta.sin())
            })
            .collect();
        Polygon { vertices }
    }

    /// The convex hull of a point set (Andrew's monotone chain),
    /// as a counter-clockwise polygon.
    ///
    /// Useful for deriving a query area from observed positions (e.g.
    /// "the area my fleet currently covers").
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPolygon`] when fewer than three non-collinear
    /// points are supplied.
    pub fn convex_hull(points: &[Point]) -> Result<Self, InvalidPolygon> {
        if points.len() < 3 {
            return Err(InvalidPolygon::TooFewVertices);
        }
        if points.iter().any(|p| !p.is_finite()) {
            return Err(InvalidPolygon::NonFiniteVertex);
        }
        let mut pts = points.to_vec();
        pts.sort_by(|a, b| {
            a.x.partial_cmp(&b.x)
                .expect("finite coords")
                .then(a.y.partial_cmp(&b.y).expect("finite coords"))
        });
        pts.dedup_by(|a, b| a.distance(*b) < GEO_EPS);
        let n = pts.len();
        if n < 3 {
            return Err(InvalidPolygon::ZeroArea);
        }
        let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
        // Lower hull.
        for &p in &pts {
            while hull.len() >= 2 {
                let q = hull[hull.len() - 1];
                let r = hull[hull.len() - 2];
                if (q - r).cross(p - r) <= GEO_EPS {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        // Upper hull.
        let lower_len = hull.len() + 1;
        for &p in pts.iter().rev().skip(1) {
            while hull.len() >= lower_len {
                let q = hull[hull.len() - 1];
                let r = hull[hull.len() - 2];
                if (q - r).cross(p - r) <= GEO_EPS {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        hull.pop(); // last point equals the first
        Polygon::new(hull)
    }

    /// The vertices in counter-clockwise order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: a constructed polygon has at least three vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the directed edges `(v[i], v[i+1])`.
    pub fn edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| (self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Area in square meters (always positive).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices)
    }

    /// Perimeter in meters.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|(a, b)| a.distance(b)).sum()
    }

    /// The centroid (area-weighted).
    pub fn centroid(&self) -> Point {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        for (p, q) in self.edges() {
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// The axis-aligned bounding rectangle.
    pub fn bounding_rect(&self) -> Rect {
        Rect::bounding(self.vertices.iter().copied()).expect("polygon has vertices")
    }

    /// True when `p` lies inside or on the boundary (ray casting with an
    /// explicit on-edge test).
    pub fn contains(&self, p: Point) -> bool {
        // On-boundary check first: ray casting is unreliable exactly on
        // edges, and service-area membership must be stable there.
        for (a, b) in self.edges() {
            if point_on_segment(p, a, b) {
                return true;
            }
        }
        let mut inside = false;
        for (a, b) in self.edges() {
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// True when every interior angle turns the same way.
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = 0.0f64;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            let cross = (b - a).cross(c - b);
            if cross.abs() < GEO_EPS {
                continue;
            }
            if sign == 0.0 {
                sign = cross.signum();
            } else if cross.signum() != sign {
                return false;
            }
        }
        true
    }

    /// True when no two non-adjacent edges intersect (O(n²) check,
    /// intended for configuration validation, not hot paths).
    pub fn is_simple(&self) -> bool {
        let edges: Vec<(Point, Point)> = self.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                // Adjacent edges share an endpoint by construction.
                if j == i + 1 || (i == 0 && j == n - 1) {
                    continue;
                }
                if segments_intersect(edges[i].0, edges[i].1, edges[j].0, edges[j].1) {
                    return false;
                }
            }
        }
        true
    }

    /// Clips this polygon to a rectangle (Sutherland–Hodgman).
    ///
    /// Returns `None` when the intersection is empty or degenerate.
    pub fn clip_to_rect(&self, rect: &Rect) -> Option<Polygon> {
        let mut out = self.vertices.clone();
        // Four half-planes: x>=min.x, x<=max.x, y>=min.y, y<=max.y.
        type EdgeFn = fn(Point, f64) -> f64;
        let clips: [(EdgeFn, f64); 4] = [
            (|p, v| p.x - v, rect.min().x),
            (|p, v| v - p.x, rect.max().x),
            (|p, v| p.y - v, rect.min().y),
            (|p, v| v - p.y, rect.max().y),
        ];
        for (inside_fn, bound) in clips {
            if out.is_empty() {
                return None;
            }
            let input = std::mem::take(&mut out);
            let n = input.len();
            for i in 0..n {
                let cur = input[i];
                let next = input[(i + 1) % n];
                let cur_in = inside_fn(cur, bound) >= 0.0;
                let next_in = inside_fn(next, bound) >= 0.0;
                if cur_in {
                    out.push(cur);
                }
                if cur_in != next_in {
                    // Edge crosses the boundary: emit the crossing point.
                    let da = inside_fn(cur, bound);
                    let db = inside_fn(next, bound);
                    let t = da / (da - db);
                    out.push(cur.lerp(next, t));
                }
            }
        }
        Polygon::new(out).ok()
    }

    /// Area of the intersection with a rectangle, in square meters.
    pub fn intersection_area_with_rect(&self, rect: &Rect) -> f64 {
        self.clip_to_rect(rect).map_or(0.0, |p| p.area())
    }

    /// Enlarges the polygon outward by `margin` meters.
    ///
    /// For convex polygons this offsets every edge along its outward
    /// normal and re-intersects adjacent edges (miter join) — an exact
    /// offset up to the rounded corners, which it over-covers. For
    /// non-convex polygons it conservatively returns the polygon of the
    /// enlarged bounding rectangle. Both behaviors are safe for the
    /// paper's `Enlarge(area, reqAcc)` use, which only needs a superset
    /// of the true offset region to avoid missing range-query candidates.
    ///
    /// A non-positive `margin` returns the polygon unchanged.
    pub fn enlarged(&self, margin: f64) -> Polygon {
        if margin <= 0.0 {
            return self.clone();
        }
        if !self.is_convex() {
            return Polygon::from_rect(&self.bounding_rect().enlarged(margin));
        }
        let n = self.vertices.len();
        // Offset each edge outward; the polygon is CCW, so the outward
        // normal of edge (a, b) is the clockwise perpendicular.
        let offset_lines: Vec<(Point, Point)> = self
            .edges()
            .map(|(a, b)| {
                let dir = (b - a).normalized().unwrap_or(Point::new(1.0, 0.0));
                let outward = -dir.perp();
                (a + outward * margin, b + outward * margin)
            })
            .collect();
        let mut vertices = Vec::with_capacity(n);
        for i in 0..n {
            let prev = offset_lines[(i + n - 1) % n];
            let cur = offset_lines[i];
            match line_intersection(prev.0, prev.1, cur.0, cur.1) {
                Some(p) => vertices.push(p),
                // Collinear adjacent edges: the offset lines coincide.
                None => vertices.push(cur.0),
            }
        }
        Polygon::new(vertices).unwrap_or_else(|_| {
            Polygon::from_rect(&self.bounding_rect().enlarged(margin))
        })
    }

    /// Minimum distance from `p` to the polygon (zero when inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        self.boundary_distance(p)
    }

    /// Minimum distance from `p` to the polygon's boundary, whether `p`
    /// is inside or outside.
    pub fn boundary_distance(&self, p: Point) -> f64 {
        self.edges()
            .map(|(a, b)| point_segment_distance(p, a, b))
            .fold(f64::INFINITY, f64::min)
    }
}

impl From<Rect> for Polygon {
    fn from(rect: Rect) -> Self {
        Polygon::from_rect(&rect)
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[{} vertices, {:.1} m²]", self.len(), self.area())
    }
}

/// Signed area via the shoelace formula (positive for counter-clockwise).
fn signed_area(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    let mut sum = 0.0;
    for i in 0..n {
        sum += vertices[i].cross(vertices[(i + 1) % n]);
    }
    sum / 2.0
}

/// True when `p` lies on segment `ab` (within [`GEO_EPS`]).
fn point_on_segment(p: Point, a: Point, b: Point) -> bool {
    let ab = b - a;
    let ap = p - a;
    let len = ab.norm();
    if len < GEO_EPS {
        return p.distance(a) < GEO_EPS;
    }
    if ab.cross(ap).abs() / len > GEO_EPS {
        return false;
    }
    let t = ap.dot(ab) / (len * len);
    (-GEO_EPS..=1.0 + GEO_EPS).contains(&t)
}

/// Distance from point `p` to segment `ab`.
fn point_segment_distance(p: Point, a: Point, b: Point) -> f64 {
    let ab = b - a;
    let len_sq = ab.norm_sq();
    if len_sq < GEO_EPS * GEO_EPS {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

/// True when segments `ab` and `cd` properly intersect or touch.
fn segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool {
    let d1 = (b - a).cross(c - a);
    let d2 = (b - a).cross(d - a);
    let d3 = (d - c).cross(a - c);
    let d4 = (d - c).cross(b - c);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1.abs() < GEO_EPS && point_on_segment(c, a, b))
        || (d2.abs() < GEO_EPS && point_on_segment(d, a, b))
        || (d3.abs() < GEO_EPS && point_on_segment(a, c, d))
        || (d4.abs() < GEO_EPS && point_on_segment(b, c, d))
}

/// Intersection of infinite lines `p1p2` and `p3p4`; `None` when parallel.
fn line_intersection(p1: Point, p2: Point, p3: Point, p4: Point) -> Option<Point> {
    let d1 = p2 - p1;
    let d2 = p4 - p3;
    let denom = d1.cross(d2);
    if denom.abs() < GEO_EPS {
        return None;
    }
    let t = (p3 - p1).cross(d2) / denom;
    Some(p1 + d1 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::from_rect(&Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)))
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(InvalidPolygon::TooFewVertices)
        );
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(2.0, 2.0)
            ]),
            Err(InvalidPolygon::ZeroArea)
        );
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(f64::NAN, 0.0),
                Point::new(0.0, 1.0)
            ]),
            Err(InvalidPolygon::NonFiniteVertex)
        );
    }

    #[test]
    fn winding_normalized_to_ccw() {
        // Clockwise input.
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(signed_area(p.vertices()) > 0.0);
        assert_eq!(p.area(), 1.0);
    }

    #[test]
    fn area_perimeter_centroid() {
        let sq = unit_square();
        assert_eq!(sq.area(), 1.0);
        assert_eq!(sq.perimeter(), 4.0);
        let c = sq.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn containment_interior_boundary_exterior() {
        let sq = unit_square();
        assert!(sq.contains(Point::new(0.5, 0.5)));
        assert!(sq.contains(Point::new(0.0, 0.5))); // on edge
        assert!(sq.contains(Point::new(1.0, 1.0))); // on vertex
        assert!(!sq.contains(Point::new(1.5, 0.5)));
        assert!(!sq.contains(Point::new(-0.001, 0.5)));
    }

    #[test]
    fn concave_containment() {
        // L-shaped polygon.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap();
        assert!((l.area() - 3.0).abs() < 1e-12);
        assert!(l.contains(Point::new(0.5, 1.5)));
        assert!(!l.contains(Point::new(1.5, 1.5))); // in the notch
        assert!(!l.is_convex());
        assert!(l.is_simple());
    }

    #[test]
    fn self_intersecting_detected() {
        // Bowtie: vertex list crosses itself; shoelace area is near zero
        // for the symmetric case, so use an asymmetric bowtie.
        let bowtie = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 1.5),
        ])
        .unwrap();
        assert!(!bowtie.is_simple());
    }

    #[test]
    fn clip_to_overlapping_rect() {
        let sq = unit_square();
        let clip = Rect::new(Point::new(0.5, 0.5), Point::new(2.0, 2.0));
        let clipped = sq.clip_to_rect(&clip).unwrap();
        assert!((clipped.area() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clip_disjoint_is_none() {
        let sq = unit_square();
        let clip = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(sq.clip_to_rect(&clip).is_none());
        assert_eq!(sq.intersection_area_with_rect(&clip), 0.0);
    }

    #[test]
    fn clip_containing_rect_is_identity_area() {
        let sq = unit_square();
        let clip = Rect::new(Point::new(-5.0, -5.0), Point::new(6.0, 6.0));
        assert!((sq.intersection_area_with_rect(&clip) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_concave_polygon() {
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap();
        // Clip to upper half y >= 1 — only the 1x1 arm remains.
        let clip = Rect::new(Point::new(0.0, 1.0), Point::new(2.0, 2.0));
        assert!((l.intersection_area_with_rect(&clip) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn enlarge_square() {
        let sq = unit_square();
        let big = sq.enlarged(1.0);
        // Unit square offset by 1 with miter joins = 3x3 square.
        assert!((big.area() - 9.0).abs() < 1e-9);
        // The original is fully contained.
        for v in sq.vertices() {
            assert!(big.contains(*v));
        }
    }

    #[test]
    fn enlarge_triangle_contains_offset_band() {
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ])
        .unwrap();
        let big = tri.enlarged(2.0);
        assert!(big.area() > tri.area());
        // Points within 2 m outside each edge midpoint must be covered.
        for (a, b) in tri.edges() {
            let mid = a.midpoint(b);
            let outward = -(b - a).normalized().unwrap().perp();
            assert!(big.contains(mid + outward * 1.99));
        }
    }

    #[test]
    fn enlarge_concave_falls_back_to_bbox() {
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap();
        let big = l.enlarged(0.5);
        let bbox = l.bounding_rect().enlarged(0.5);
        assert!((big.area() - bbox.area()).abs() < 1e-9);
    }

    #[test]
    fn enlarge_nonpositive_is_identity() {
        let sq = unit_square();
        assert_eq!(sq.enlarged(0.0).area(), sq.area());
        assert_eq!(sq.enlarged(-3.0).area(), sq.area());
    }

    #[test]
    fn distance_to_point() {
        let sq = unit_square();
        assert_eq!(sq.distance_to_point(Point::new(0.5, 0.5)), 0.0);
        assert!((sq.distance_to_point(Point::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        assert!((sq.distance_to_point(Point::new(2.0, 2.0)) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn regular_polygon_approximates_circle() {
        let p = Polygon::regular(Point::new(5.0, 5.0), 2.0, 256);
        let circle_area = std::f64::consts::PI * 4.0;
        assert!((p.area() - circle_area).abs() / circle_area < 1e-3);
        assert!(p.is_convex());
        assert!(p.contains(Point::new(5.0, 5.0)));
    }

    #[test]
    fn convex_hull_of_square_with_interior_points() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
            Point::new(5.0, 5.0), // interior
            Point::new(2.0, 3.0), // interior
        ];
        let hull = Polygon::convex_hull(&pts).unwrap();
        assert_eq!(hull.len(), 4);
        assert!((hull.area() - 100.0).abs() < 1e-9);
        assert!(hull.is_convex());
        for p in &pts {
            assert!(hull.contains(*p));
        }
    }

    #[test]
    fn convex_hull_handles_duplicates_and_collinear() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0), // collinear with the corners below
            Point::new(10.0, 0.0),
            Point::new(5.0, 7.0),
        ];
        let hull = Polygon::convex_hull(&pts).unwrap();
        assert!(hull.is_convex());
        assert!((hull.area() - 35.0).abs() < 1e-9);
        // Degenerate inputs fail cleanly.
        assert!(Polygon::convex_hull(&[Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_err());
        // All-collinear input cannot form a hull (the chain collapses
        // to its endpoints).
        assert!(Polygon::convex_hull(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0)
        ])
        .is_err());
    }

    #[test]
    fn bounding_rect_covers_all_vertices() {
        let tri = Polygon::new(vec![
            Point::new(-1.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(1.0, 7.0),
        ])
        .unwrap();
        let bb = tri.bounding_rect();
        for v in tri.vertices() {
            assert!(bb.contains(*v));
        }
    }
}
