//! On-demand canvas rendering from vector data.
//!
//! The paper's prototype "creates the canvases on the fly by simply
//! rendering the geometry using the traditional graphics pipeline"
//! (Section 5.1): spatial data stays stored as tuples, and a query first
//! draws the relevant geometry into off-screen framebuffers. These
//! functions are those draw calls. They also populate the hybrid
//! boundary index and the certain-coverage plane that keep results
//! exact, and account for the host→device upload of the vector buffers.
//!
//! Polygon and polyline tables are drawn by the raster pipeline's tiled
//! draws. A point canvas is its run instead: the point draw projects
//! each point once and sorts the entries by pixel with one stable
//! counting sort ([`SortedRun::scatter`], banded on the device's pool),
//! and the canvas's planes are defined as the fold of that run, made
//! when something first reads a plane (`canvas` module docs). The draw
//! charges the counters the tiled point draw charges for the same batch,
//! and the cache charges the planes the canvas models
//! ([`Canvas::size_bytes`]) whether or not they exist; runs are not
//! charged.

use std::sync::Arc;

use crate::boundary::{AreaEntry, BoundaryIndex, LineEntry, PointEntry, SortedRun};
use crate::canvas::{fold_points, AreaSource, Canvas, LineSource, PointBatch};
use crate::device::Device;
use crate::info::{BlendFn, Texel};
use canvas_geom::polygon::Polygon;
use canvas_raster::{OpChain, Texture, Viewport, WorkerPool};

/// Renders a point batch into one canvas.
///
/// Every point shades `s[0] = (id, 1, weight)`; coincident points in one
/// pixel accumulate through [`BlendFn::PointAccumulate`], so the pixel's
/// `v1` is the point count and `v2` the weight sum — exactly the
/// encodings of Sections 4.1/4.3. Exact locations go to the boundary
/// index (points always need them). The canvas is its point run: its
/// planes are folded from the run when something first reads them
/// (`canvas` module docs).
pub fn render_points(dev: &mut Device, vp: Viewport, batch: &PointBatch) -> Canvas {
    draw_points(dev, vp, batch, &OpChain::new())
}

/// The one point draw: the pixel-sorted point run first
/// ([`point_run`] on the device's pool, charged as the tiled point draw
/// is), then, for a non-empty `chain`, the planes folded from the run in
/// row bands and `chain` run in place over them
/// (`Pipeline::run_chain_texture`). The live heatmap passes its
/// `V[HeatLog]` chain. An empty chain leaves the planes to be folded on
/// first read, so a canvas only ever walked never has them.
pub(crate) fn draw_points(
    dev: &mut Device,
    vp: Viewport,
    batch: &PointBatch,
    chain: &OpChain<'_, Texel>,
) -> Canvas {
    dev.pipeline().note_upload(batch.upload_bytes());
    let (ids, weights) = (&batch.ids, &batch.weights);
    let run = dev.pipeline().draw_points_sorted(batch.len(), |pool| {
        let run = point_run(pool, &vp, &batch.points, ids, weights);
        let in_view = run.len();
        (run, in_view)
    });
    let (w, h) = (vp.width(), vp.height());
    let boundary = BoundaryIndex::from_runs(run, SortedRun::new(w, h), SortedRun::new(w, h));
    if chain.is_empty() {
        return Canvas::from_points(vp, boundary);
    }
    let mut texels = Texture::new(w, h);
    let mut cover = Texture::new(w, h);
    dev.pool()
        .for_each_band1(w as usize, texels.texels_mut(), |y0, band| {
            let rows = y0 as u32..y0 as u32 + (band.len() / w as usize) as u32;
            fold_points(band, y0 * w as usize, boundary.points_in_rows(rows));
        });
    dev.pipeline()
        .run_chain_texture(&mut texels, Some(&mut cover), chain);
    Canvas::from_parts(vp, texels, cover, boundary, Vec::new(), Vec::new())
}

/// The point entries of a point render: the exact entry of every
/// in-viewport point (the paper stores "the actual location of the
/// points" per pixel, for refinement and result extraction), sorted
/// straight from the batch columns into pixel order by
/// [`SortedRun::scatter`] on `pool`. Shared by the point draw
/// ([`draw_points`]) and by live patches, which pass the appended
/// suffix of each column (a small delta sorts inline).
pub(crate) fn point_run(
    pool: &WorkerPool,
    vp: &Viewport,
    points: &[canvas_geom::Point],
    ids: &[u32],
    weights: &[f32],
) -> SortedRun<PointEntry> {
    let (w, h) = (vp.width(), vp.height());
    let pixel = |i: usize| vp.world_to_pixel(points[i]).map(|(x, y)| y * w + x);
    SortedRun::scatter(pool, w, h, points.len(), pixel, |i, pixel| PointEntry {
        pixel,
        record: ids[i],
        loc: points[i],
        weight: weights[i],
    })
}

/// The index of a polygon draw: one area entry per conservative
/// boundary fragment `(record, pixel)` the draw reported, filed under
/// `source` with the record `record_of` names.
fn area_index(
    pool: &WorkerPool,
    vp: &Viewport,
    source: u16,
    fragments: &[(u32, u32)],
    record_of: impl Fn(u32) -> u32 + Sync,
) -> BoundaryIndex {
    let (w, h) = (vp.width(), vp.height());
    let pixel = |i: usize| Some(fragments[i].1);
    let run = SortedRun::scatter(pool, w, h, fragments.len(), pixel, |i, pixel| AreaEntry {
        pixel,
        source,
        record: record_of(fragments[i].0),
    });
    BoundaryIndex::from_runs(SortedRun::new(w, h), run, SortedRun::new(w, h))
}

/// Renders one polygon from a shared table into its own canvas
/// (one canvas per record, Definition 6).
///
/// Interior pixels raise the certain-cover count; conservative boundary
/// pixels are linked to the vector polygon for exact refinement. The
/// texel encoding is `s[2] = (id, 1, 0)`.
pub fn render_polygon(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    record: usize,
    id: u32,
) -> Canvas {
    render_polygon_with(dev, vp, table, record, Texel::area(id, 1.0, 0.0), true)
}

/// As [`render_polygon`] with an explicit texel value and conservative
/// toggle (the approximate mode of Section 5.1 disables conservative
/// boundary tracking).
pub fn render_polygon_with(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    record: usize,
    texel: Texel,
    conservative: bool,
) -> Canvas {
    let (record, shade) = (Some(record), |_| texel);
    draw_areas(dev, vp, table, record, conservative, shade, Texel::over)
}

/// Renders *all* polygons of a table into one canvas, blending with the
/// given function — the fused `B*[⊕](C_Q)` of Section 5.1 (multi-polygon
/// constraints) executed as a single instanced draw.
pub fn render_polygon_set(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    blend: BlendFn,
) -> Canvas {
    let shade = |record| Texel::area(record, 1.0, 0.0);
    draw_areas(dev, vp, table, None, true, shade, |d, s| blend.apply(d, s))
}

/// The one polygon-table draw: `record`'s polygon, or the whole table
/// for `None`, drawn in one instanced tiled pass
/// (`Pipeline::draw_polygons_tiled`) that shades each fragment with
/// `shade(record)` and merges through `blend`, then indexed under the
/// table as one area source.
fn draw_areas(
    dev: &mut Device,
    vp: Viewport,
    table: &AreaSource,
    record: Option<usize>,
    conservative: bool,
    shade: impl Fn(u32) -> Texel + Sync,
    blend: impl Fn(Texel, Texel) -> Texel + Sync,
) -> Canvas {
    let mut canvas = Canvas::empty(vp);
    let source = canvas.add_area_source(table.clone());
    let polys = match record {
        Some(r) => std::slice::from_ref(&table[r]),
        None => &table[..],
    };
    let upload = polys.iter().map(|p| (p.num_vertices() * 16) as u64).sum();
    dev.pipeline().note_upload(upload);
    let boundary = {
        let (texels, cover, _) = canvas.planes_mut();
        dev.pipeline().draw_polygons_tiled(
            &vp,
            texels,
            cover,
            polys,
            conservative,
            |i, _| shade(i),
            blend,
        )
    };
    let record_of = |i: u32| record.map_or(i, |r| r as u32);
    *canvas.boundary_mut() = area_index(dev.pool(), &vp, source, &boundary, record_of);
    canvas
}

/// Renders a polyline table into one canvas (1-primitives; supercover
/// coverage, every pixel boundary-linked).
pub fn render_polylines(dev: &mut Device, vp: Viewport, table: &LineSource) -> Canvas {
    let mut canvas = Canvas::empty(vp);
    let source = canvas.add_line_source(table.clone());
    let upload: u64 = table.iter().map(|l| (l.vertices().len() * 16) as u64).sum();
    dev.pipeline().note_upload(upload);
    let boundary = {
        let (texels, _, _) = canvas.planes_mut();
        dev.pipeline().draw_polylines_tiled(
            &vp,
            texels,
            table,
            |record, _| Texel::line(record, 1.0, 0.0),
            |d, s| d.over(s),
        )
    };
    let (w, h) = (vp.width(), vp.height());
    let pixel = |i: usize| Some(boundary[i].1);
    let lines = SortedRun::scatter(dev.pool(), w, h, boundary.len(), pixel, |i, pixel| {
        LineEntry {
            pixel,
            source,
            record: boundary[i].0,
        }
    });
    *canvas.boundary_mut() =
        BoundaryIndex::from_runs(SortedRun::new(w, h), SortedRun::new(w, h), lines);
    canvas
}

/// Convenience: renders a standalone polygon (not yet in a table) by
/// wrapping it in a fresh single-entry table.
pub fn render_query_polygon(dev: &mut Device, vp: Viewport, poly: Polygon, id: u32) -> Canvas {
    let table: AreaSource = Arc::new(vec![poly]);
    render_polygon(dev, vp, &table, 0, id)
}

/// Count tag [`render_query_tag`] writes: far above any real overlap
/// count (f32 holds integers exactly to 2²⁴), so after the `⊕` blend
/// with a polygon table a pixel's 2-row count decomposes as
/// `inside_query · QUERY_TAG + polygon_count` — the constraint encoded
/// in the value rows, at pixel resolution (a heatmap is a
/// pixel-resolution product).
pub const QUERY_TAG: f32 = (1u32 << 20) as f32;

/// Renders a query region with the count tag: `s[2] = (u32::MAX,
/// QUERY_TAG, 0)`, id `u32::MAX` so it never shadows a table record
/// id — the `C_tag` plan leaf.
pub fn render_query_tag(dev: &mut Device, vp: Viewport, q: &Polygon) -> Canvas {
    let table: AreaSource = Arc::new(vec![q.clone()]);
    let texel = Texel::area(u32::MAX, QUERY_TAG, 0.0);
    render_polygon_with(dev, vp, &table, 0, texel, true)
}

/// Renders a *heterogeneous* geometric object (Definition 6 / Figure 3):
/// every primitive lands in the object-information row matching its
/// dimension, all sharing the record's `id`. This is the fully general
/// canvas representation — a complex object of points, lines and
/// polygons becomes one canvas with all three rows populated.
pub fn render_object(
    dev: &mut Device,
    vp: Viewport,
    object: &canvas_geom::GeomObject,
    id: u32,
) -> Canvas {
    use canvas_geom::Primitive;
    let mut canvas = Canvas::empty(vp);

    // 0-primitives: gather into one point batch.
    let pts: Vec<canvas_geom::Point> = object
        .of_dim(0)
        .filter_map(|p| match p {
            Primitive::Point(pt) => Some(*pt),
            _ => None,
        })
        .collect();
    if !pts.is_empty() {
        let n = pts.len();
        let batch = crate::canvas::PointBatch {
            points: pts,
            ids: vec![id; n],
            weights: vec![1.0; n],
        };
        let c = render_points(dev, vp, &batch);
        canvas = crate::ops::blend::blend(dev, &canvas, &c, crate::info::BlendFn::Over);
    }

    // 1-primitives.
    let lines: Vec<canvas_geom::Polyline> = object
        .of_dim(1)
        .filter_map(|p| match p {
            Primitive::Line(l) => Some(l.clone()),
            _ => None,
        })
        .collect();
    if !lines.is_empty() {
        let table: LineSource = Arc::new(lines);
        let mut c = render_polylines(dev, vp, &table);
        // All primitives belong to one record: rewrite the line ids.
        {
            let (texels, _, _) = c.planes_mut();
            dev.pipeline().par_map_texels(texels, |_, _, mut t| {
                if let Some(mut info) = t.get(1) {
                    info.id = id;
                    t.set(1, info);
                }
                t
            });
        }
        canvas = crate::ops::blend::blend(dev, &canvas, &c, crate::info::BlendFn::Over);
    }

    // 2-primitives: one shared table, each polygon rendered with the
    // record's id and union-blended in.
    let areas: Vec<Polygon> = object
        .of_dim(2)
        .filter_map(|p| match p {
            Primitive::Area(a) => Some(a.clone()),
            _ => None,
        })
        .collect();
    if !areas.is_empty() {
        let table: AreaSource = Arc::new(areas);
        for record in 0..table.len() {
            let c = render_polygon_with(dev, vp, &table, record, Texel::area(id, 1.0, 0.0), true);
            canvas = crate::ops::blend::blend(dev, &canvas, &c, crate::info::BlendFn::Over);
        }
    }
    canvas
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::{BBox, Point};

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            10,
            10,
        )
    }

    #[test]
    fn points_render_with_counts_and_entries() {
        let mut dev = Device::nvidia();
        let batch = PointBatch::from_points(vec![
            Point::new(2.5, 2.5),
            Point::new(2.6, 2.6), // same pixel as above
            Point::new(8.5, 1.5),
        ]);
        let c = render_points(&mut dev, vp(), &batch);
        assert_eq!(c.non_null_count(), 2);
        let t = c.texel(2, 2);
        let info = t.get(0).unwrap();
        assert_eq!(info.v1, 2.0); // two points accumulated
        assert_eq!(c.boundary().num_points(), 3);
        assert_eq!(c.point_records(), vec![0, 1, 2]);
        assert!(dev.stats().bytes_uploaded > 0);
    }

    #[test]
    fn a_point_canvas_is_its_run_until_a_plane_is_read() {
        let mut dev = Device::nvidia();
        let batch = PointBatch::from_points(vec![
            Point::new(2.5, 2.5),
            Point::new(2.6, 2.6),
            Point::new(8.5, 1.5),
        ]);
        let c = render_points(&mut dev, vp(), &batch);
        assert!(!c.planes_materialized());
        let modeled = Canvas::empty(vp()).size_bytes();
        assert_eq!(c.size_bytes(), modeled, "charged the planes it models");
        let pixel = c.pixel_index(2, 2);
        assert_eq!(c.exact_area_count(pixel, Point::new(2.5, 2.5)), 0);
        assert!(!c.planes_materialized(), "its cover is 0 without planes");
        // Rewriting the index folds the planes first: they stay the
        // drawn ones.
        let mut cut = c.clone();
        cut.boundary_mut().retain_points(|e| e.record == 2);
        assert!(cut.planes_materialized() && !c.planes_materialized());
        assert_eq!(cut.texel(2, 2), c.texel(2, 2));
        assert_eq!(c.texel(2, 2).get(0).unwrap().v1, 2.0);
        assert!(c.planes_materialized());
        assert_eq!(c.size_bytes(), modeled);
        // A draw with a chain folds eagerly, then runs it.
        let live = crate::versioned::render_live_heatmap(&mut dev, vp(), &batch, None);
        assert!(live.planes_materialized());
    }

    #[test]
    fn points_outside_viewport_dropped() {
        let mut dev = Device::nvidia();
        let batch = PointBatch::from_points(vec![Point::new(50.0, 50.0)]);
        let c = render_points(&mut dev, vp(), &batch);
        assert!(c.is_empty());
        assert_eq!(c.boundary().num_points(), 0);
    }

    #[test]
    fn weights_accumulate_in_v2() {
        let mut dev = Device::nvidia();
        let batch = PointBatch::with_weights(
            vec![Point::new(2.5, 2.5), Point::new(2.7, 2.7)],
            vec![10.0, 4.0],
        );
        let c = render_points(&mut dev, vp(), &batch);
        assert_eq!(c.texel(2, 2).get(0).unwrap().v2, 14.0);
        assert_eq!(c.point_weight_sum(), 14.0);
    }

    #[test]
    fn polygon_render_interior_cover_and_boundary_entries() {
        let mut dev = Device::nvidia();
        let poly = Polygon::simple(vec![
            Point::new(2.0, 2.0),
            Point::new(8.0, 2.0),
            Point::new(8.0, 8.0),
            Point::new(2.0, 8.0),
        ])
        .unwrap();
        let c = render_query_polygon(&mut dev, vp(), poly, 1);
        // Interior pixel: covered certainly, s[2] set.
        assert_eq!(c.cover().get(5, 5), 1);
        assert_eq!(c.texel(5, 5).get(2).unwrap().id, 1);
        // Boundary pixel: has an area entry, cover stays 0.
        let bpix = c.pixel_index(2, 2);
        assert!(!c.boundary().areas_at(bpix).is_empty());
        assert_eq!(c.cover().get(2, 2), 0);
        // Exact refinement resolves correctly at the boundary pixel:
        // pixel (2,2) spans [2,3)², entirely inside the square.
        assert_eq!(c.exact_area_count(bpix, Point::new(2.5, 2.5)), 1);
        // A location outside the polygon in an exterior pixel.
        assert_eq!(
            c.exact_area_count(c.pixel_index(0, 0), Point::new(0.5, 0.5)),
            0
        );
    }

    #[test]
    fn polygon_set_counts_overlap() {
        let mut dev = Device::nvidia();
        let a = Polygon::simple(vec![
            Point::new(1.0, 1.0),
            Point::new(6.0, 1.0),
            Point::new(6.0, 6.0),
            Point::new(1.0, 6.0),
        ])
        .unwrap();
        let b = Polygon::simple(vec![
            Point::new(4.0, 4.0),
            Point::new(9.0, 4.0),
            Point::new(9.0, 9.0),
            Point::new(4.0, 9.0),
        ])
        .unwrap();
        let table: AreaSource = Arc::new(vec![a, b]);
        let c = render_polygon_set(&mut dev, vp(), &table, BlendFn::AreaCount);
        // Overlap interior pixel: count 2 certain covers.
        assert_eq!(c.cover().get(5, 5), 2);
        assert_eq!(c.texel(5, 5).get(2).unwrap().v1, 2.0);
        // Exclusive interior pixels: count 1.
        assert_eq!(c.cover().get(2, 2), 1);
        assert_eq!(c.texel(2, 2).get(2).unwrap().v1, 1.0);
    }

    #[test]
    fn figure3_complex_object_renders_all_rows() {
        // The paper's Figure 3: two polygons (one with a hole) connected
        // by a line, with a point inside the hole — one canvas, same id
        // in every populated row.
        use canvas_geom::polygon::Ring;
        use canvas_geom::{GeomObject, Polyline, Primitive};
        let ellipse = Polygon::circle(Point::new(2.0, 5.0), 1.5, 32);
        let outer = Ring::new(vec![
            Point::new(5.0, 3.0),
            Point::new(9.0, 3.0),
            Point::new(9.0, 7.0),
            Point::new(5.0, 7.0),
        ])
        .unwrap();
        let hole = Ring::new(vec![
            Point::new(6.5, 4.5),
            Point::new(7.5, 4.5),
            Point::new(7.5, 5.5),
            Point::new(6.5, 5.5),
        ])
        .unwrap();
        let holed = Polygon::new(outer, vec![hole]);
        let connector = Polyline::new(vec![Point::new(3.5, 5.0), Point::new(5.0, 5.0)]).unwrap();
        let mut obj = GeomObject::new(vec![]);
        obj.push(Primitive::Area(ellipse));
        obj.push(Primitive::Area(holed));
        obj.push(Primitive::Line(connector));
        obj.push(Primitive::Point(Point::new(7.0, 5.0))); // in the hole

        let mut dev = Device::nvidia();
        let hi_vp = Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            64,
            64,
        );
        let c = render_object(&mut dev, hi_vp, &obj, 42);

        // Ellipse interior: only the 2-row, id 42.
        let t = c.value_at(Point::new(2.0, 5.0));
        assert_eq!(t.get(2).unwrap().id, 42);
        assert!(!t.has(0) && !t.has(1));
        // Square interior (not hole): 2-row.
        assert!(c.value_at(Point::new(5.5, 6.5)).has(2));
        // Point inside the hole: 0-row set; exact entry kept.
        let t = c.value_at(Point::new(7.0, 5.0));
        assert_eq!(t.get(0).unwrap().id, 42);
        // Connector midpoint: 1-row with the object id.
        let t = c.value_at(Point::new(4.3, 5.0));
        assert_eq!(t.get(1).unwrap().id, 42);
        // Background: ∅.
        assert!(c.value_at(Point::new(0.5, 0.5)).is_null());
    }

    #[test]
    fn polyline_renders_all_boundary() {
        let mut dev = Device::nvidia();
        let line =
            canvas_geom::Polyline::new(vec![Point::new(1.5, 1.5), Point::new(8.5, 1.5)]).unwrap();
        let table: LineSource = Arc::new(vec![line]);
        let c = render_polylines(&mut dev, vp(), &table);
        assert!(c.non_null_count() >= 8);
        assert_eq!(c.boundary().num_lines(), c.non_null_count());
        assert!(c.texel(4, 1).has(1));
    }
}
