//! `SpatialTable`: a relational-flavored facade over the canvas engine.
//!
//! The paper positions the canvas as *the dual of a relational tuple*
//! (Section 7): systems keep ordinary tables whose spatial attributes
//! link to canvases rendered on demand, "unbeknownst to the users". This
//! module is that integration surface — a table of geometric objects
//! plus named numeric attributes, loadable from WKT, with query methods
//! that dispatch onto the Section 4 formulations by geometry type.

use std::collections::BTreeMap;

use crate::canvas::{AreaSource, LineSource, PointBatch};
use crate::device::Device;
use crate::queries::selection;
use canvas_geom::polygon::Polygon;
use canvas_geom::wkt::{parse_wkt, WktError};
use canvas_geom::{BBox, GeomObject, Primitive};
use canvas_raster::Viewport;

/// Errors from table construction and queries.
#[derive(Debug)]
pub enum TableError {
    /// WKT input failed to parse (row index + parser error).
    Wkt { row: usize, source: WktError },
    /// No attribute column has this name.
    MissingAttr { name: String },
    /// An attribute column's length does not match the table.
    AttrLength {
        name: String,
        expected: usize,
        got: usize,
    },
    /// The requested operation needs a homogeneous geometry type the
    /// table does not have.
    MixedGeometry { wanted: &'static str },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Wkt { row, source } => write!(f, "row {row}: {source}"),
            TableError::MissingAttr { name } => write!(f, "no attribute named '{name}'"),
            TableError::AttrLength {
                name,
                expected,
                got,
            } => write!(
                f,
                "attribute '{name}' has {got} values for {expected} records"
            ),
            TableError::MixedGeometry { wanted } => {
                write!(f, "operation requires all-{wanted} geometry")
            }
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Wkt { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A spatial data set: one geometric-object attribute (Definition 3)
/// plus named numeric attribute columns.
#[derive(Clone, Debug, Default)]
pub struct SpatialTable {
    objects: Vec<GeomObject>,
    attrs: BTreeMap<String, Vec<f32>>,
}

impl SpatialTable {
    pub fn new() -> Self {
        SpatialTable::default()
    }

    /// Builds a table from WKT rows (one geometry per line; blank lines
    /// skipped).
    pub fn from_wkt_lines(lines: &str) -> Result<Self, TableError> {
        let mut t = SpatialTable::new();
        for (row, line) in lines.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let obj = parse_wkt(line).map_err(|source| TableError::Wkt { row, source })?;
            t.objects.push(obj);
        }
        Ok(t)
    }

    /// Appends a record; returns its id.
    pub fn push(&mut self, object: GeomObject) -> u32 {
        self.objects.push(object);
        (self.objects.len() - 1) as u32
    }

    /// Attaches (or replaces) a numeric attribute column.
    pub fn set_attr(&mut self, name: &str, values: Vec<f32>) -> Result<(), TableError> {
        if values.len() != self.objects.len() {
            return Err(TableError::AttrLength {
                name: name.to_string(),
                expected: self.objects.len(),
                got: values.len(),
            });
        }
        self.attrs.insert(name.to_string(), values);
        Ok(())
    }

    pub fn attr(&self, name: &str) -> Option<&[f32]> {
        self.attrs.get(name).map(Vec::as_slice)
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub fn object(&self, id: u32) -> &GeomObject {
        &self.objects[id as usize]
    }

    pub fn objects(&self) -> &[GeomObject] {
        &self.objects
    }

    /// Union bounding box of all records.
    pub fn extent(&self) -> BBox {
        self.objects
            .iter()
            .fold(BBox::EMPTY, |b, o| b.union(&o.bbox()))
    }

    /// A viewport covering the table's extent (with a small margin so
    /// boundary geometry is never clipped).
    pub fn viewport(&self, max_dim: u32) -> Viewport {
        let b = self.extent();
        let margin = 0.01 * b.width().max(b.height()).max(1.0);
        Viewport::square_pixels(b.inflated(margin), max_dim)
    }

    /// The table as a point batch, if every record is a single point.
    /// `weight_attr` selects the weight column (unit weights otherwise).
    pub fn as_points(&self, weight_attr: Option<&str>) -> Result<PointBatch, TableError> {
        let mut pts = Vec::with_capacity(self.len());
        for o in &self.objects {
            match o.primitives() {
                [Primitive::Point(p)] => pts.push(*p),
                _ => return Err(TableError::MixedGeometry { wanted: "point" }),
            }
        }
        let weights = match weight_attr {
            Some(name) => self
                .attr(name)
                .ok_or_else(|| TableError::MissingAttr {
                    name: name.to_string(),
                })?
                .to_vec(),
            None => vec![1.0; pts.len()],
        };
        Ok(PointBatch {
            ids: (0..pts.len() as u32).collect(),
            points: pts,
            weights,
        })
    }

    /// The table as a polygon source, if every record is a single
    /// polygon.
    pub fn as_polygons(&self) -> Result<AreaSource, TableError> {
        let mut polys = Vec::with_capacity(self.len());
        for o in &self.objects {
            match o.primitives() {
                [Primitive::Area(p)] => polys.push(p.clone()),
                _ => return Err(TableError::MixedGeometry { wanted: "polygon" }),
            }
        }
        Ok(std::sync::Arc::new(polys))
    }

    /// The table as a polyline source, if every record is a single line.
    pub fn as_lines(&self) -> Result<LineSource, TableError> {
        let mut lines = Vec::with_capacity(self.len());
        for o in &self.objects {
            match o.primitives() {
                [Primitive::Line(l)] => lines.push(l.clone()),
                _ => return Err(TableError::MixedGeometry { wanted: "line" }),
            }
        }
        Ok(std::sync::Arc::new(lines))
    }

    /// Type I join `self ⋈ polygons` (`self` all points): every
    /// `(point_record, polygon_record)` pair with the point inside the
    /// polygon ([`join_points_polygons`](crate::queries::join::join_points_polygons),
    /// whose grid over the points prunes polygons before canvas work).
    pub fn join_points_in_polygons(
        &self,
        dev: &mut Device,
        vp: Viewport,
        polygons: &SpatialTable,
    ) -> Result<Vec<(u32, u32)>, TableError> {
        let points = self.as_points(None)?;
        let polys = polygons.as_polygons()?;
        Ok(crate::queries::join::join_points_polygons(
            dev, vp, &points, &polys,
        ))
    }

    /// Type II join `self ⋈ right` (both all polygons): every
    /// intersecting record pair
    /// ([`join_polygons_polygons`](crate::queries::join::join_polygons_polygons),
    /// MBR-filtered through a grid over the right side).
    pub fn join_intersecting_polygons(
        &self,
        dev: &mut Device,
        vp: Viewport,
        right: &SpatialTable,
    ) -> Result<Vec<(u32, u32)>, TableError> {
        let left = self.as_polygons()?;
        let right_polys = right.as_polygons()?;
        Ok(crate::queries::join::join_polygons_polygons(
            dev,
            vp,
            &left,
            &right_polys,
        ))
    }

    /// Group-by COUNT/SUM over a Type I join, RasterJoin style
    /// ([`aggregate_join_rasterjoin_pruned`](crate::queries::aggregate::aggregate_join_rasterjoin_pruned)):
    /// polygons whose MBR holds no point are pruned before any
    /// rasterization. Bit-identical to the unfiltered kernel.
    pub fn aggregate_points_in_polygons(
        &self,
        dev: &mut Device,
        vp: Viewport,
        polygons: &SpatialTable,
        weight_attr: Option<&str>,
    ) -> Result<crate::queries::aggregate::GroupAggregates, TableError> {
        let points = self.as_points(weight_attr)?;
        let polys = polygons.as_polygons()?;
        Ok(crate::queries::aggregate::aggregate_join_rasterjoin_pruned(
            dev, vp, &points, &polys,
        ))
    }

    /// `SELECT * FROM self WHERE Geometry INSIDE/INTERSECTS q` — the
    /// paper's headline: one entry point, any geometry type, same
    /// operators underneath. Returns matching record ids.
    pub fn select_in_polygon(
        &self,
        dev: &mut Device,
        vp: Viewport,
        q: &Polygon,
    ) -> Result<Vec<u32>, TableError> {
        if let Ok(points) = self.as_points(None) {
            return Ok(selection::select_points_in_polygon(dev, vp, &points, q).records);
        }
        if let Ok(polys) = self.as_polygons() {
            return Ok(selection::select_polygons_intersecting(dev, vp, &polys, q).records);
        }
        if let Ok(lines) = self.as_lines() {
            return Ok(selection::select_lines_intersecting(dev, vp, &lines, q).records);
        }
        Err(TableError::MixedGeometry {
            wanted: "homogeneous",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::Point;

    #[test]
    fn wkt_loading_and_extent() {
        let t = SpatialTable::from_wkt_lines("POINT (1 2)\n\nPOINT (5 6)\nPOINT (3 0)\n").unwrap();
        assert_eq!(t.len(), 3);
        let b = t.extent();
        assert_eq!(b.min, Point::new(1.0, 0.0));
        assert_eq!(b.max, Point::new(5.0, 6.0));
    }

    #[test]
    fn wkt_errors_carry_row() {
        let err = SpatialTable::from_wkt_lines("POINT (1 2)\nBOGUS (1)").unwrap_err();
        match err {
            TableError::Wkt { row, .. } => assert_eq!(row, 1),
            other => panic!("expected Wkt error, got {other}"),
        }
    }

    #[test]
    fn attrs_validated() {
        let mut t = SpatialTable::from_wkt_lines("POINT (0 0)\nPOINT (1 1)").unwrap();
        assert!(t.set_attr("fare", vec![1.0, 2.0]).is_ok());
        assert!(matches!(
            t.set_attr("bad", vec![1.0]),
            Err(TableError::AttrLength { .. })
        ));
        assert_eq!(t.attr("fare"), Some(&[1.0, 2.0][..]));
        assert_eq!(t.attr("missing"), None);
    }

    #[test]
    fn point_table_selection() {
        let mut t = SpatialTable::new();
        t.push(GeomObject::point(Point::new(2.0, 2.0)));
        t.push(GeomObject::point(Point::new(8.0, 8.0)));
        t.push(GeomObject::point(Point::new(3.0, 3.5)));
        let q = Polygon::simple(vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 1.0),
            Point::new(5.0, 5.0),
            Point::new(1.0, 5.0),
        ])
        .unwrap();
        let mut dev = Device::nvidia();
        let vp = t.viewport(128);
        let ids = t.select_in_polygon(&mut dev, vp, &q).unwrap();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn polygon_table_selection() {
        let t = SpatialTable::from_wkt_lines(
            "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))\n\
             POLYGON ((10 10, 12 10, 12 12, 10 12, 10 10))\n\
             POLYGON ((1 1, 4 1, 4 4, 1 4, 1 1))",
        )
        .unwrap();
        let q = Polygon::simple(vec![
            Point::new(1.5, 1.5),
            Point::new(6.0, 1.5),
            Point::new(6.0, 6.0),
            Point::new(1.5, 6.0),
        ])
        .unwrap();
        let mut dev = Device::nvidia();
        let vp = t.viewport(128);
        let ids = t.select_in_polygon(&mut dev, vp, &q).unwrap();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn line_table_selection() {
        let t = SpatialTable::from_wkt_lines("LINESTRING (0 5, 10 5)\nLINESTRING (0 20, 10 20)")
            .unwrap();
        let q = Polygon::simple(vec![
            Point::new(4.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 10.0),
            Point::new(4.0, 10.0),
        ])
        .unwrap();
        let mut dev = Device::nvidia();
        let vp =
            Viewport::square_pixels(BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 25.0)), 128);
        let ids = t.select_in_polygon(&mut dev, vp, &q).unwrap();
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn mixed_table_rejected() {
        let t = SpatialTable::from_wkt_lines("POINT (0 0)\nLINESTRING (0 0, 1 1)").unwrap();
        assert!(t.as_points(None).is_err());
        assert!(t.as_lines().is_err());
        let q = Polygon::simple(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ])
        .unwrap();
        let mut dev = Device::nvidia();
        let vp =
            Viewport::square_pixels(BBox::new(Point::new(-1.0, -1.0), Point::new(2.0, 2.0)), 32);
        assert!(t.select_in_polygon(&mut dev, vp, &q).is_err());
    }

    #[test]
    fn weighted_points_from_attr() {
        let mut t = SpatialTable::from_wkt_lines("POINT (1 1)\nPOINT (2 2)").unwrap();
        t.set_attr("fare", vec![7.5, 2.5]).unwrap();
        let batch = t.as_points(Some("fare")).unwrap();
        assert_eq!(batch.weights, vec![7.5, 2.5]);
        let err = t.as_points(Some("missing")).unwrap_err();
        assert!(
            matches!(&err, TableError::MissingAttr { name } if name == "missing"),
            "got {err:?}"
        );
        assert_eq!(err.to_string(), "no attribute named 'missing'");
    }

    #[test]
    fn grid_index_on_empty_and_singleton_tables() {
        // Regression: an empty side folds to BBox::EMPTY and a single
        // point to a zero-size extent; the grid each join builds must
        // take both without panicking.
        let empty = SpatialTable::new();
        let one = SpatialTable::from_wkt_lines("POINT (3 3)").unwrap();
        let zone = SpatialTable::from_wkt_lines("POLYGON ((1 1, 5 1, 5 5, 1 5, 1 1))").unwrap();
        let mut dev = Device::cpu();
        let vp =
            Viewport::square_pixels(BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 64);
        for (points, want) in [(&empty, vec![]), (&one, vec![(0, 0)])] {
            let got = points.join_points_in_polygons(&mut dev, vp, &zone).unwrap();
            assert_eq!(got, want);
            let agg = points
                .aggregate_points_in_polygons(&mut dev, vp, &zone, None)
                .unwrap();
            assert_eq!(agg.counts, vec![want.len() as u64]);
        }
        assert!(one
            .join_points_in_polygons(&mut dev, vp, &empty)
            .unwrap()
            .is_empty());
        assert!(zone
            .join_intersecting_polygons(&mut dev, vp, &empty)
            .unwrap()
            .is_empty());
        assert_eq!(
            zone.join_intersecting_polygons(&mut dev, vp, &zone)
                .unwrap(),
            vec![(0, 0)]
        );
    }

    #[test]
    fn table_joins_use_grid_index_and_match_direct_joins() {
        // The table joins are the query formulations, grid filter
        // included, over the tables' point and polygon views.
        let mut pts = SpatialTable::new();
        for p in [
            Point::new(2.0, 2.0),
            Point::new(8.0, 8.0),
            Point::new(3.0, 3.5),
            Point::new(9.0, 1.0),
        ] {
            pts.push(GeomObject::point(p));
        }
        let zones = SpatialTable::from_wkt_lines(
            "POLYGON ((1 1, 5 1, 5 5, 1 5, 1 1))\n\
             POLYGON ((7 7, 10 7, 10 10, 7 10, 7 7))\n\
             POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))",
        )
        .unwrap();
        let mut dev = Device::nvidia();
        let vp =
            Viewport::square_pixels(BBox::new(Point::new(0.0, 0.0), Point::new(25.0, 25.0)), 128);
        let got = pts.join_points_in_polygons(&mut dev, vp, &zones).unwrap();
        let want = crate::queries::join::join_points_polygons(
            &mut dev,
            vp,
            &pts.as_points(None).unwrap(),
            &zones.as_polygons().unwrap(),
        );
        assert_eq!(got, want);
        assert_eq!(got, vec![(0, 0), (2, 0), (1, 1)]);

        let more = SpatialTable::from_wkt_lines(
            "POLYGON ((3 3, 8 3, 8 8, 3 8, 3 3))\n\
             POLYGON ((15 15, 18 15, 18 18, 15 18, 15 15))",
        )
        .unwrap();
        let got2 = more
            .join_intersecting_polygons(&mut dev, vp, &zones)
            .unwrap();
        let want2 = crate::queries::join::join_polygons_polygons(
            &mut dev,
            vp,
            &more.as_polygons().unwrap(),
            &zones.as_polygons().unwrap(),
        );
        assert_eq!(got2, want2);
        assert_eq!(got2, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn table_aggregate_uses_grid_prefilter_and_matches_kernel() {
        let mut pts = SpatialTable::new();
        for p in [
            Point::new(2.0, 2.0),
            Point::new(3.5, 3.0),
            Point::new(8.0, 8.0),
            Point::new(9.0, 2.0),
        ] {
            pts.push(GeomObject::point(p));
        }
        pts.set_attr("w", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let zones = SpatialTable::from_wkt_lines(
            "POLYGON ((1 1, 5 1, 5 5, 1 5, 1 1))\n\
             POLYGON ((7 7, 10 7, 10 10, 7 10, 7 7))\n\
             POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))",
        )
        .unwrap();
        let mut dev = Device::cpu();
        let vp =
            Viewport::square_pixels(BBox::new(Point::new(0.0, 0.0), Point::new(25.0, 25.0)), 128);
        let got = pts
            .aggregate_points_in_polygons(&mut dev, vp, &zones, Some("w"))
            .unwrap();
        let mut dev_ref = Device::cpu();
        let want = crate::queries::aggregate::aggregate_join_rasterjoin(
            &mut dev_ref,
            vp,
            &pts.as_points(Some("w")).unwrap(),
            &zones.as_polygons().unwrap(),
        );
        assert_eq!(got, want);
        assert_eq!(got.counts, vec![2, 1, 0]);
        assert_eq!(got.sums, vec![3.0, 3.0, 0.0]);
    }

    #[test]
    fn grid_index_filters_candidates() {
        // Zones far from every point cost the table join no canvas
        // work: the grid over the points filters them out.
        let t =
            SpatialTable::from_wkt_lines("POINT (1 1)\nPOINT (9 9)\nPOINT (1.2 0.8)\nPOINT (5 5)")
                .unwrap();
        let near = "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))";
        let far = "POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))";
        let vp =
            Viewport::square_pixels(BBox::new(Point::new(0.0, 0.0), Point::new(25.0, 25.0)), 64);
        let run = |zones: &str| {
            let zones = SpatialTable::from_wkt_lines(zones).unwrap();
            let mut dev = Device::nvidia();
            let pairs = t.join_points_in_polygons(&mut dev, vp, &zones).unwrap();
            (pairs, dev.stats().passes)
        };
        let (pairs, passes) = run(near);
        assert_eq!(pairs, vec![(0, 0), (2, 0)]);
        assert_eq!(run(&format!("{near}\n{far}\n{far}")), (pairs, passes));
    }
}
