//! Exact query semantics from paper §3.2.

use super::{LocationDescriptor, ObjectId};
use hiloc_geo::{Point, Region};

/// The overlap degree `Overlap(a, o) = SIZE(a ∩ ld(o)) / SIZE(ld(o))`.
///
/// The paper assumes the object's true position is uniformly distributed
/// over its circular location area, so the overlap degree is the
/// probability the object really is inside `area`. For a degenerate
/// location area (`acc = 0`) the overlap is 1 when the recorded point is
/// inside the area and 0 otherwise. A location area wholly inside `area`
/// has overlap exactly 1, so it qualifies at `reqOverlap = 1`; one whose
/// bounding box misses `area` has overlap exactly 0. Neither case
/// computes an intersection area.
///
/// # Example
///
/// ```
/// use hiloc_core::model::semantics::overlap;
/// use hiloc_core::model::LocationDescriptor;
/// use hiloc_geo::{Point, Rect, Region};
///
/// let area = Region::from(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
/// // Location area centered on the boundary: overlap 0.5.
/// let ld = LocationDescriptor::new(Point::new(0.0, 50.0), 10.0);
/// assert!((overlap(&area, &ld) - 0.5).abs() < 1e-6);
/// ```
// lint:hot_path
pub fn overlap(area: &Region, ld: &LocationDescriptor) -> f64 {
    if ld.acc_m <= 0.0 {
        return if area.contains(ld.pos) { 1.0 } else { 0.0 };
    }
    let circle = ld.location_area();
    if area.contains_circle(&circle) {
        return 1.0;
    }
    if !area.bounding_rect().intersects(&circle.bounding_rect()) {
        return 0.0;
    }
    let inter = area.intersection_area_with_circle(&circle);
    (inter / circle.area()).clamp(0.0, 1.0)
}

/// Whether `(o, ld)` qualifies for a range query over `area` with the
/// requested accuracy and overlap thresholds:
///
/// `Overlap(a, o) ≥ reqOverlap > 0  ∧  ld(o).acc ≤ reqAcc`.
// lint:hot_path
pub fn qualifies_for_range(
    area: &Region,
    ld: &LocationDescriptor,
    req_acc_m: f64,
    req_overlap: f64,
) -> bool {
    if ld.acc_m > req_acc_m {
        return false;
    }
    if req_overlap <= 0.0 {
        // The paper restricts reqOverlap to (0, 1].
        return false;
    }
    overlap(area, ld) >= req_overlap
}

/// The result of [`select_neighbors`]: the chosen nearest object (when
/// any qualifies) and the near set.
pub type NeighborSelection =
    (Option<(ObjectId, LocationDescriptor)>, Vec<(ObjectId, LocationDescriptor)>);

/// Selects the nearest neighbor and the near set from candidate
/// descriptors (paper §3.2, nearest neighbor query):
///
/// * `nearest`: the accuracy-qualified object minimizing
///   `DISTANCE(ld.pos, p)` (ties broken by object id);
/// * `near_set`: all other qualified objects within
///   `DISTANCE(nearest, p) + nearQual`.
///
/// Candidates whose accuracy exceeds `req_acc_m` are ignored.
pub fn select_neighbors(
    p: Point,
    candidates: &[(ObjectId, LocationDescriptor)],
    req_acc_m: f64,
    near_qual_m: f64,
) -> NeighborSelection {
    let mut qualified: Vec<(ObjectId, LocationDescriptor, f64)> = candidates
        .iter()
        .filter(|(_, ld)| ld.acc_m <= req_acc_m)
        .map(|(oid, ld)| (*oid, *ld, ld.distance_to(p)))
        .collect();
    qualified.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let Some(&(best_oid, best_ld, best_d)) = qualified.first() else {
        return (None, Vec::new());
    };
    let near = qualified
        .iter()
        .skip(1)
        .take_while(|(_, _, d)| *d <= best_d + near_qual_m)
        .map(|(oid, ld, _)| (*oid, *ld))
        .collect();
    (Some((best_oid, best_ld)), near)
}

/// The guaranteed minimal distance from `p` to the selected nearest
/// object's *true* position: `DISTANCE(ld.pos, p) − ld.acc`, floored at
/// zero.
///
/// The paper offers this bound so a client can, e.g., "decide on the
/// maximum power it can use for wireless transmission without causing
/// interference".
pub fn guaranteed_min_distance(p: Point, nearest: &LocationDescriptor) -> f64 {
    (nearest.distance_to(p) - nearest.acc_m).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiloc_geo::{Polygon, Rect};
    use hiloc_util::prop::check;
    use hiloc_util::rng::{RngExt, SeedableRng, StdRng};

    fn rect_region(x0: f64, y0: f64, x1: f64, y1: f64) -> Region {
        Region::from(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
    }

    #[test]
    fn overlap_full_inside() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        let ld = LocationDescriptor::new(Point::new(50.0, 50.0), 10.0);
        assert!((overlap(&area, &ld) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_disjoint_is_zero() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        let ld = LocationDescriptor::new(Point::new(500.0, 500.0), 10.0);
        assert_eq!(overlap(&area, &ld), 0.0);
    }

    #[test]
    fn overlap_degenerate_accuracy() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        let inside = LocationDescriptor::new(Point::new(1.0, 1.0), 0.0);
        let outside = LocationDescriptor::new(Point::new(-1.0, 1.0), 0.0);
        assert_eq!(overlap(&area, &inside), 1.0);
        assert_eq!(overlap(&area, &outside), 0.0);
    }

    /// A location area wholly inside the query area is certainly inside
    /// it, so it qualifies at `reqOverlap = 1` — for rectangles and for
    /// polygons. The exact area sum alone lands a few ulps below 1 for
    /// a share of such circles.
    #[test]
    fn circles_wholly_inside_qualify_at_full_overlap() {
        let side = 1_280.0;
        let cell = rect_region(0.0, 0.0, side, side);
        // A regular octagon: its inradius bounds the circles drawn below.
        let centre = Point::new(side / 2.0, side / 2.0);
        let octagon = Region::from(Polygon::regular(centre, side / 2.0, 8));
        let inradius = side / 2.0 * (std::f64::consts::PI / 8.0).cos();
        let mut rng = StdRng::seed_from_u64(0x1A51DE);
        for _ in 0..20_000 {
            let r = rng.random_range(1.0..100.0);
            let p = Point::new(rng.random_range(r..side - r), rng.random_range(r..side - r));
            let ld = LocationDescriptor::new(p, r);
            assert_eq!(overlap(&cell, &ld), 1.0, "rectangle, {ld:?}");
            assert!(qualifies_for_range(&cell, &ld, r, 1.0), "rectangle, {ld:?}");
            if p.distance(centre) + r < inradius * (1.0 - 1e-9) {
                assert_eq!(overlap(&octagon, &ld), 1.0, "polygon, {ld:?}");
                assert!(qualifies_for_range(&octagon, &ld, r, 1.0), "polygon, {ld:?}");
            }
        }
    }

    /// The containment and disjointness shortcuts in [`overlap`] agree
    /// with the exact area ratio, and everywhere else `overlap` is that
    /// ratio, for rectangles and polygons.
    #[test]
    fn overlap_shortcuts_agree_with_exact_area() {
        check(1_024, |g| {
            let a = Point::new(g.random_range(-500.0..500.0), g.random_range(-500.0..500.0));
            let region = if g.chance(0.5) {
                let size = Point::new(g.random_range(1.0..800.0), g.random_range(1.0..800.0));
                Region::from(Rect::new(a, a + size))
            } else {
                let n = g.random_range(3usize..10);
                Region::from(Polygon::regular(a, g.random_range(5.0..400.0), n))
            };
            let ld = LocationDescriptor::new(
                Point::new(g.random_range(-900.0..900.0), g.random_range(-900.0..900.0)),
                g.random_range(0.5..300.0),
            );
            let circle = ld.location_area();
            let exact = (region.intersection_area_with_circle(&circle) / circle.area()).clamp(0.0, 1.0);
            let got = overlap(&region, &ld);
            if region.contains_circle(&circle) {
                assert_eq!(got, 1.0);
            } else if !region.bounding_rect().intersects(&circle.bounding_rect()) {
                assert_eq!(got, 0.0);
            }
            assert!((got - exact).abs() <= 1e-12, "{region} {ld:?}: {got} vs exact {exact}");
        });
    }

    #[test]
    fn range_qualification_thresholds() {
        let area = rect_region(0.0, 0.0, 100.0, 100.0);
        // Half-overlapping object.
        let ld = LocationDescriptor::new(Point::new(0.0, 50.0), 10.0);
        assert!(qualifies_for_range(&area, &ld, 25.0, 0.3));
        assert!(qualifies_for_range(&area, &ld, 25.0, 0.5 - 1e-9));
        assert!(!qualifies_for_range(&area, &ld, 25.0, 0.6));
        // Accuracy filter.
        assert!(!qualifies_for_range(&area, &ld, 5.0, 0.3));
        // reqOverlap must be positive.
        assert!(!qualifies_for_range(&area, &ld, 25.0, 0.0));
    }

    #[test]
    fn neighbor_selection_and_near_set() {
        let p = Point::ORIGIN;
        let cands = vec![
            (ObjectId(1), LocationDescriptor::new(Point::new(10.0, 0.0), 5.0)),
            (ObjectId(2), LocationDescriptor::new(Point::new(12.0, 0.0), 5.0)),
            (ObjectId(3), LocationDescriptor::new(Point::new(30.0, 0.0), 5.0)),
            // Too inaccurate — ignored even though nearest.
            (ObjectId(4), LocationDescriptor::new(Point::new(1.0, 0.0), 50.0)),
        ];
        let (best, near) = select_neighbors(p, &cands, 10.0, 5.0);
        assert_eq!(best.unwrap().0, ObjectId(1));
        let near_ids: Vec<ObjectId> = near.iter().map(|(o, _)| *o).collect();
        assert_eq!(near_ids, vec![ObjectId(2)]); // 12 <= 10+5, 30 > 15

        // nearQual = 0 ⇒ empty near set.
        let (_, near0) = select_neighbors(p, &cands, 10.0, 0.0);
        assert!(near0.is_empty());
    }

    #[test]
    fn neighbor_tie_breaks_by_id() {
        let p = Point::ORIGIN;
        let cands = vec![
            (ObjectId(9), LocationDescriptor::new(Point::new(5.0, 0.0), 1.0)),
            (ObjectId(2), LocationDescriptor::new(Point::new(0.0, 5.0), 1.0)),
        ];
        let (best, _) = select_neighbors(p, &cands, 10.0, 0.0);
        assert_eq!(best.unwrap().0, ObjectId(2));
    }

    #[test]
    fn no_qualified_candidates() {
        let (best, near) = select_neighbors(Point::ORIGIN, &[], 10.0, 5.0);
        assert!(best.is_none());
        assert!(near.is_empty());
    }

    #[test]
    fn min_distance_guarantee() {
        let ld = LocationDescriptor::new(Point::new(100.0, 0.0), 30.0);
        assert_eq!(guaranteed_min_distance(Point::ORIGIN, &ld), 70.0);
        // Accuracy larger than the distance: floor at zero.
        let close = LocationDescriptor::new(Point::new(10.0, 0.0), 30.0);
        assert_eq!(guaranteed_min_distance(Point::ORIGIN, &close), 0.0);
    }
}
