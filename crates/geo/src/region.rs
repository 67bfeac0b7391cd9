//! Unified area type for service areas and query areas.

use crate::{Circle, Point, Polygon, Rect};
use std::fmt;

/// A two-dimensional region in the local frame — either an axis-aligned
/// rectangle (the common, fast case for grid-partitioned service areas)
/// or an arbitrary simple polygon (the paper permits "an arbitrary
/// connected polygon" as a query area).
///
/// # Example
///
/// ```
/// use hiloc_geo::{Point, Rect, Region};
/// let region = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 50.0)));
/// assert_eq!(region.area(), 5_000.0);
/// assert!(region.contains(Point::new(10.0, 10.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// An axis-aligned rectangle.
    Rect(Rect),
    /// A simple polygon.
    Polygon(Polygon),
}

impl Region {
    /// Area in square meters.
    pub fn area(&self) -> f64 {
        match self {
            Region::Rect(r) => r.area(),
            Region::Polygon(p) => p.area(),
        }
    }

    /// True when `p` is inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        match self {
            Region::Rect(r) => r.contains(p),
            Region::Polygon(poly) => poly.contains(p),
        }
    }

    /// Half-open containment for rectangles (used so sibling service
    /// areas partition their parent); falls back to closed containment
    /// for polygons.
    pub fn contains_half_open(&self, p: Point) -> bool {
        match self {
            Region::Rect(r) => r.contains_half_open(p),
            Region::Polygon(poly) => poly.contains(p),
        }
    }

    /// The axis-aligned bounding rectangle.
    pub fn bounding_rect(&self) -> Rect {
        match self {
            Region::Rect(r) => *r,
            Region::Polygon(p) => p.bounding_rect(),
        }
    }

    /// True when this region and the rectangle share at least one point.
    ///
    /// Exact for rectangular regions; for polygons it tests the bounding
    /// box first and then performs an exact clip.
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        match self {
            Region::Rect(r) => r.intersects(rect),
            Region::Polygon(p) => {
                p.bounding_rect().intersects(rect) && p.intersection_area_with_rect(rect) > 0.0
                    || p.vertices().iter().any(|v| rect.contains(*v))
                    || rect.corners().iter().any(|c| p.contains(*c))
            }
        }
    }

    /// True when the whole circle lies inside the region (its boundary
    /// may touch the region's). Decided without computing an area: for a
    /// rectangle, the circle's bounding box is inside it; for a polygon,
    /// the centre is inside and no edge is nearer than the radius.
    pub fn contains_circle(&self, circle: &Circle) -> bool {
        match self {
            Region::Rect(r) => r.contains_rect(&circle.bounding_rect()),
            Region::Polygon(p) => {
                p.contains(circle.center) && p.boundary_distance(circle.center) >= circle.radius
            }
        }
    }

    /// Area of the intersection with a rectangle, in square meters.
    pub fn intersection_area_with_rect(&self, rect: &Rect) -> f64 {
        match self {
            Region::Rect(r) => r.intersection_area(rect),
            Region::Polygon(p) => p.intersection_area_with_rect(rect),
        }
    }

    /// Area of the intersection with a circle (a location area), in
    /// square meters. This is the numerator of the paper's
    /// `Overlap(a, o)` definition.
    pub fn intersection_area_with_circle(&self, circle: &Circle) -> f64 {
        match self {
            Region::Rect(r) => circle.intersection_area_with_rect(r),
            Region::Polygon(p) => circle.intersection_area_with_polygon(p),
        }
    }

    /// The region grown by `margin` meters on every side — the paper's
    /// `Enlarge(area, reqAcc)` used during range-query routing.
    pub fn enlarged(&self, margin: f64) -> Region {
        match self {
            Region::Rect(r) => Region::Rect(r.enlarged(margin)),
            Region::Polygon(p) => Region::Polygon(p.enlarged(margin)),
        }
    }

    /// Minimum distance from `p` to the region (zero when inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        match self {
            Region::Rect(r) => r.distance_to_point(p),
            Region::Polygon(poly) => poly.distance_to_point(p),
        }
    }

    /// The center of the bounding rectangle.
    pub fn center(&self) -> Point {
        self.bounding_rect().center()
    }
}

impl From<Rect> for Region {
    fn from(r: Rect) -> Self {
        Region::Rect(r)
    }
}

impl From<Polygon> for Region {
    fn from(p: Polygon) -> Self {
        Region::Polygon(p)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Rect(r) => write!(f, "{r}"),
            Region::Polygon(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect_region() -> Region {
        Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)))
    }

    fn tri_region() -> Region {
        Region::from(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(0.0, 10.0),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn area_dispatch() {
        assert_eq!(rect_region().area(), 100.0);
        assert_eq!(tri_region().area(), 50.0);
    }

    #[test]
    fn containment_dispatch() {
        assert!(rect_region().contains(Point::new(5.0, 5.0)));
        assert!(tri_region().contains(Point::new(1.0, 1.0)));
        assert!(!tri_region().contains(Point::new(9.0, 9.0)));
    }

    #[test]
    fn circle_overlap_both_variants() {
        let c = Circle::new(Point::new(5.0, 5.0), 1.0);
        let full = c.area();
        assert!((rect_region().intersection_area_with_circle(&c) - full).abs() < 1e-9);
        // Circle centered on the triangle's hypotenuse: about half in.
        let c2 = Circle::new(Point::new(5.0, 5.0), 0.5);
        let a = tri_region().intersection_area_with_circle(&c2);
        assert!((a - c2.area() / 2.0).abs() < 1e-6, "got {a}");
    }

    #[test]
    fn enlarge_both_variants() {
        assert_eq!(rect_region().enlarged(1.0).area(), 144.0);
        assert!(tri_region().enlarged(1.0).area() > 50.0);
    }

    #[test]
    fn intersects_rect_polygon_edge_cases() {
        let tri = tri_region();
        // Rect far away.
        assert!(!tri.intersects_rect(&Rect::new(Point::new(50.0, 50.0), Point::new(60.0, 60.0))));
        // Rect overlapping the corner.
        assert!(tri.intersects_rect(&Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0))));
        // Rect fully inside the triangle.
        assert!(tri.intersects_rect(&Rect::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0))));
        // Rect containing the whole triangle.
        assert!(tri.intersects_rect(&Rect::new(Point::new(-5.0, -5.0), Point::new(50.0, 50.0))));
    }

    #[test]
    fn distance_dispatch() {
        assert_eq!(rect_region().distance_to_point(Point::new(5.0, 5.0)), 0.0);
        assert!((rect_region().distance_to_point(Point::new(13.0, 5.0)) - 3.0).abs() < 1e-12);
        assert!(tri_region().distance_to_point(Point::new(10.0, 10.0)) > 0.0);
    }
}
