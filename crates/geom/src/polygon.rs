//! Polygons with holes — the paper's 2-primitives.
//!
//! A [`Polygon`] is one outer [`Ring`] plus zero or more hole rings, the
//! exact shape class the paper's prototype renders ("to handle polygons
//! with holes, the outer polygon is first drawn ... the inner polygon is
//! then drawn such that the pixels corresponding to it are negated").

use crate::bbox::BBox;
use crate::point::Point;
use crate::predicates::{point_in_ring, signed_area, Containment};
use crate::segment::Segment;

/// A simple closed ring of at least three vertices, stored without a
/// repeated closing vertex and normalized to counter-clockwise winding.
#[derive(Clone, Debug, PartialEq)]
pub struct Ring {
    vertices: Vec<Point>,
}

/// Errors from polygon construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three distinct vertices.
    TooFewVertices,
    /// The ring has (numerically) zero area.
    ZeroArea,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "ring needs at least 3 vertices"),
            PolygonError::ZeroArea => write!(f, "ring has zero area"),
        }
    }
}

impl std::error::Error for PolygonError {}

impl Ring {
    /// Builds a ring, dropping a repeated closing vertex if present and
    /// normalizing winding to counter-clockwise.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        let area = signed_area(&vertices);
        if area == 0.0 {
            return Err(PolygonError::ZeroArea);
        }
        if area < 0.0 {
            vertices.reverse();
        }
        Ok(Ring { vertices })
    }

    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    pub fn is_empty(&self) -> bool {
        false // by construction a ring has >= 3 vertices
    }

    /// Area (always positive after normalization).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices)
    }

    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    pub fn bbox(&self) -> BBox {
        BBox::from_points(self.vertices.iter().copied())
    }

    /// Iterator over the boundary edges (closing edge included).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Three-way containment of a point.
    pub fn contains(&self, p: Point) -> Containment {
        point_in_ring(p, &self.vertices)
    }

    /// Area centroid of the ring.
    pub fn centroid(&self) -> Point {
        let a = self.area();
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }
}

/// A polygonal region: one outer ring minus the union of its hole rings.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    outer: Ring,
    holes: Vec<Ring>,
}

impl Polygon {
    pub fn new(outer: Ring, holes: Vec<Ring>) -> Self {
        Polygon { outer, holes }
    }

    /// Convenience: polygon with no holes from raw vertices.
    pub fn simple(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        Ok(Polygon {
            outer: Ring::new(vertices)?,
            holes: Vec::new(),
        })
    }

    /// Axis-aligned rectangle polygon.
    pub fn rect(b: &BBox) -> Self {
        Polygon::simple(b.corners().to_vec()).expect("non-degenerate bbox")
    }

    /// Regular polygon approximating a circle (used by the `Circ` utility
    /// operator; the paper renders circles as polygons too).
    pub fn circle(center: Point, radius: f64, segments: usize) -> Self {
        Polygon::try_circle(center, radius, segments).expect("circle with positive radius")
    }

    /// [`circle`](Self::circle) as a value: `Err` where the tessellation
    /// has no area — a zero radius, or a radius that rounds away against
    /// the centre's magnitude.
    pub fn try_circle(center: Point, radius: f64, segments: usize) -> Result<Self, PolygonError> {
        let n = segments.max(8);
        let verts = (0..n)
            .map(|i| {
                let t = (i as f64 / n as f64) * std::f64::consts::TAU;
                center + Point::new(t.cos(), t.sin()) * radius
            })
            .collect();
        Polygon::simple(verts)
    }

    pub fn outer(&self) -> &Ring {
        &self.outer
    }

    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// Total vertex count across all rings (the paper's polygon
    /// "complexity" knob in Figure 10).
    pub fn num_vertices(&self) -> usize {
        self.outer.len() + self.holes.iter().map(Ring::len).sum::<usize>()
    }

    /// Area of the region (outer minus holes).
    pub fn area(&self) -> f64 {
        self.outer.area() - self.holes.iter().map(Ring::area).sum::<f64>()
    }

    pub fn bbox(&self) -> BBox {
        self.outer.bbox()
    }

    /// Iterator over every boundary edge (outer ring and holes).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.outer
            .edges()
            .chain(self.holes.iter().flat_map(|h| h.edges()))
    }

    /// Three-way containment of a point in the holed region.
    pub fn contains(&self, p: Point) -> Containment {
        match self.outer.contains(p) {
            Containment::Outside => Containment::Outside,
            Containment::OnBoundary => Containment::OnBoundary,
            Containment::Inside => {
                for hole in &self.holes {
                    match hole.contains(p) {
                        Containment::Inside => return Containment::Outside,
                        Containment::OnBoundary => return Containment::OnBoundary,
                        Containment::Outside => {}
                    }
                }
                Containment::Inside
            }
        }
    }

    /// Closed point-in-polygon test (boundary counts as inside) — the
    /// paper's `Location INSIDE Q` predicate.
    #[inline]
    pub fn contains_closed(&self, p: Point) -> bool {
        self.contains(p).is_inside_closed()
    }

    /// True when the two polygonal regions share at least one point —
    /// the paper's `Geometry INTERSECTS Q` predicate.
    ///
    /// Two regions intersect iff boundaries cross, or one contains a
    /// vertex (representative point) of the other.
    pub fn intersects(&self, other: &Polygon) -> bool {
        if !self.bbox().intersects(&other.bbox()) {
            return false;
        }
        // Boundary crossing.
        for e in self.edges() {
            for f in other.edges() {
                if e.intersects(&f) {
                    return true;
                }
            }
        }
        // Full containment either way: any representative vertex decides.
        self.contains_closed(other.outer.vertices()[0])
            || other.contains_closed(self.outer.vertices()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(side: f64) -> Polygon {
        Polygon::simple(vec![
            Point::new(0.0, 0.0),
            Point::new(side, 0.0),
            Point::new(side, side),
            Point::new(0.0, side),
        ])
        .unwrap()
    }

    fn donut() -> Polygon {
        let outer = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![
            Point::new(4.0, 4.0),
            Point::new(6.0, 4.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
        ])
        .unwrap();
        Polygon::new(outer, vec![hole])
    }

    #[test]
    fn ring_construction_errors() {
        assert_eq!(
            Ring::new(vec![Point::ORIGIN, Point::new(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices)
        );
        assert_eq!(
            Ring::new(vec![
                Point::ORIGIN,
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0)
            ]),
            Err(PolygonError::ZeroArea)
        );
    }

    #[test]
    fn ring_closing_vertex_dropped() {
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn winding_normalized() {
        let cw = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(cw.area() > 0.0);
    }

    #[test]
    fn square_metrics() {
        let sq = square(4.0);
        assert_eq!(sq.area(), 16.0);
        assert_eq!(sq.outer().perimeter(), 16.0);
        let c = sq.outer().centroid();
        assert!((c.x - 2.0).abs() < 1e-12 && (c.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn donut_area_and_containment() {
        let d = donut();
        assert_eq!(d.area(), 100.0 - 4.0);
        assert_eq!(d.contains(Point::new(1.0, 1.0)), Containment::Inside);
        assert_eq!(d.contains(Point::new(5.0, 5.0)), Containment::Outside); // in hole
        assert_eq!(d.contains(Point::new(4.0, 5.0)), Containment::OnBoundary); // hole edge
        assert_eq!(d.contains(Point::new(0.0, 5.0)), Containment::OnBoundary); // outer edge
        assert_eq!(d.contains(Point::new(20.0, 5.0)), Containment::Outside);
    }

    #[test]
    fn circle_polygon() {
        let c = Polygon::circle(Point::new(1.0, 1.0), 2.0, 128);
        // Area converges to pi*r^2 from below.
        let expect = std::f64::consts::PI * 4.0;
        assert!((c.area() - expect).abs() / expect < 0.01);
        assert!(c.contains_closed(Point::new(1.0, 1.0)));
        assert!(!c.contains_closed(Point::new(4.0, 4.0)));
    }

    #[test]
    fn polygon_intersects_overlapping() {
        let a = square(4.0);
        let b = Polygon::simple(vec![
            Point::new(2.0, 2.0),
            Point::new(6.0, 2.0),
            Point::new(6.0, 6.0),
            Point::new(2.0, 6.0),
        ])
        .unwrap();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn polygon_intersects_containment() {
        let big = square(10.0);
        let small = Polygon::simple(vec![
            Point::new(4.0, 4.0),
            Point::new(5.0, 4.0),
            Point::new(5.0, 5.0),
            Point::new(4.0, 5.0),
        ])
        .unwrap();
        // No edge crossings, but contained => intersects.
        assert!(big.intersects(&small));
        assert!(small.intersects(&big));
    }

    #[test]
    fn polygon_disjoint() {
        let a = square(1.0);
        let b = Polygon::simple(vec![
            Point::new(5.0, 5.0),
            Point::new(6.0, 5.0),
            Point::new(6.0, 6.0),
            Point::new(5.0, 6.0),
        ])
        .unwrap();
        assert!(!a.intersects(&b));
    }

    #[test]
    fn rect_helper() {
        let b = BBox::new(Point::new(1.0, 2.0), Point::new(3.0, 5.0));
        let r = Polygon::rect(&b);
        assert_eq!(r.area(), 6.0);
        assert!(r.contains_closed(Point::new(2.0, 3.0)));
    }

    #[test]
    fn num_vertices_counts_holes() {
        assert_eq!(donut().num_vertices(), 8);
        assert_eq!(square(1.0).num_vertices(), 4);
    }
}
