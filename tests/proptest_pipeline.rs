//! Cross-crate property tests: the canvas pipeline agrees with exact
//! vector geometry on randomized inputs — the load-bearing invariant of
//! the whole reproduction (conservative rasterization + boundary
//! refinement ⇒ exact answers at any resolution).

use canvas_algebra::prelude::*;
use canvas_core::queries::selection;
use proptest::prelude::*;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// Strategy: a star polygon with a random MBR inside the extent.
fn arb_polygon() -> impl Strategy<Value = Polygon> {
    (
        5.0f64..45.0,
        5.0f64..45.0,
        20.0f64..50.0,
        20.0f64..50.0,
        6usize..64,
        0u64..10_000,
    )
        .prop_map(|(x0, y0, w, h, verts, seed)| {
            let mbr = BBox::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
            star_polygon(&mbr, verts, 0.6, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Canvas selection == exact PIP for random polygons, point sets and
    /// resolutions (including coarse grids where many pixels straddle
    /// edges).
    #[test]
    fn selection_exact_for_random_inputs(
        poly in arb_polygon(),
        n in 50usize..600,
        seed in 0u64..10_000,
        res in prop::sample::select(vec![32u32, 64, 128, 256]),
    ) {
        let pts = uniform_points(&extent(), n, seed);
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| poly.contains_closed(**p))
            .map(|(i, _)| i as u32)
            .collect();
        let vp = Viewport::square_pixels(extent(), res);
        let mut dev = Device::nvidia();
        let got = selection::select_points_in_polygon(
            &mut dev,
            vp,
            &PointBatch::from_points(pts),
            &poly,
        );
        prop_assert_eq!(got.records, want);
    }

    /// COUNT aggregation equals the selection cardinality for random
    /// configurations (Figure 7 plan consistency).
    #[test]
    fn count_equals_selection_cardinality(
        poly in arb_polygon(),
        n in 50usize..400,
        seed in 0u64..10_000,
    ) {
        let pts = uniform_points(&extent(), n, seed);
        let vp = Viewport::square_pixels(extent(), 64);
        let mut dev = Device::nvidia();
        let batch = PointBatch::from_points(pts);
        let sel = selection::select_points_in_polygon(&mut dev, vp, &batch, &poly);
        let count = canvas_core::queries::aggregate::count_points_in_polygon(
            &mut dev, vp, &batch, &poly,
        );
        prop_assert_eq!(count as usize, sel.records.len());
    }

    /// The conservative render's coverage is a superset of the standard
    /// render's, and both contain every exactly-inside pixel center.
    #[test]
    fn conservative_coverage_superset(poly in arb_polygon()) {
        let vp = Viewport::square_pixels(extent(), 64);
        let table: AreaSource = std::sync::Arc::new(vec![poly.clone()]);
        let mut dev = Device::nvidia();
        let cons = canvas_core::source::render_polygon_with(
            &mut dev, vp, &table, 0, Texel::area(1, 1.0, 0.0), true,
        );
        let std_r = canvas_core::source::render_polygon_with(
            &mut dev, vp, &table, 0, Texel::area(1, 1.0, 0.0), false,
        );
        for (x, y, _) in std_r.non_null() {
            prop_assert!(!cons.texel(x, y).is_null(),
                "conservative lost standard pixel ({}, {})", x, y);
        }
        // Every pixel whose center is strictly inside is covered.
        for y in 0..vp.height() {
            for x in 0..vp.width() {
                let c = vp.pixel_center(x, y);
                if matches!(poly.contains(c), canvas_geom::Containment::Inside) {
                    prop_assert!(!cons.texel(x, y).is_null(),
                        "missing interior pixel ({}, {})", x, y);
                }
            }
        }
    }

    /// Distance selection is exact against the metric, not the
    /// tessellated circle.
    #[test]
    fn distance_selection_metric_exact(
        cx in 20.0f64..80.0,
        cy in 20.0f64..80.0,
        d in 5.0f64..30.0,
        n in 50usize..400,
        seed in 0u64..10_000,
    ) {
        let pts = uniform_points(&extent(), n, seed);
        let c = Point::new(cx, cy);
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(c) <= d)
            .map(|(i, _)| i as u32)
            .collect();
        let vp = Viewport::square_pixels(extent(), 128);
        let mut dev = Device::nvidia();
        let got = selection::select_points_within_distance_exact(
            &mut dev,
            vp,
            &PointBatch::from_points(pts),
            c,
            d,
        );
        prop_assert_eq!(got.records, want);
    }

    /// Sequential ≡ parallel: rendering and querying the same random
    /// point/polygon workload on `Device::cpu` and `Device::cpu_parallel(n)`
    /// produces **bit-identical** canvases — texel plane, certain-cover
    /// plane, and boundary index all equal. This is what licenses the
    /// tiled pipeline: tiles merge in a fixed order and per-pixel blend
    /// order is the input primitive order, so thread count cannot leak
    /// into results. (Point accumulation per pixel also relies on the
    /// blend functions being associative-commutative per Section 3 —
    /// asserted separately in `algebra_laws.rs` — but the tiled pipeline
    /// does not even need that: it preserves input order outright.)
    #[test]
    fn sequential_equals_parallel_bitwise(
        poly in arb_polygon(),
        n in 50usize..600,
        seed in 0u64..10_000,
        threads in prop::sample::select(vec![2usize, 3, 4, 8]),
        res in prop::sample::select(vec![64u32, 128, 256]),
    ) {
        let pts = uniform_points(&extent(), n, seed);
        let batch = PointBatch::from_points(pts);
        let vp = Viewport::square_pixels(extent(), res);

        let mut seq_dev = Device::cpu();
        let seq = selection::select_points_in_polygon(&mut seq_dev, vp, &batch, &poly);
        let mut par_dev = Device::cpu_parallel(threads);
        let par = selection::select_points_in_polygon(&mut par_dev, vp, &batch, &poly);

        prop_assert_eq!(&seq.records, &par.records);
        prop_assert_eq!(seq.canvas.texels(), par.canvas.texels());
        prop_assert_eq!(seq.canvas.cover(), par.canvas.cover());
        prop_assert_eq!(seq.canvas.boundary(), par.canvas.boundary());
        // The modeled work is identical too: parallelism changes wall
        // clock, never the counted pipeline work.
        prop_assert_eq!(seq_dev.stats(), par_dev.stats());

        // The polygon side alone (conservative render with boundary
        // entries + cover counts) must also match plane-for-plane.
        let table: AreaSource = std::sync::Arc::new(vec![poly]);
        let c_seq = canvas_core::source::render_polygon(&mut seq_dev, vp, &table, 0, 1);
        let c_par = canvas_core::source::render_polygon(&mut par_dev, vp, &table, 0, 1);
        prop_assert_eq!(c_seq.texels(), c_par.texels());
        prop_assert_eq!(c_seq.cover(), c_par.cover());
        prop_assert_eq!(c_seq.boundary(), c_par.boundary());
    }

    /// Executor-pool determinism across the operators parallelized on
    /// the persistent pool: Value Transform (band-parallel full-screen
    /// pass), Map/scatter (pool-parallel γ evaluation with in-order
    /// blend apply), and the tiled draws (each tile rasterized in place
    /// by a claimed pool item). Texel/cover/boundary planes and the pipeline stats
    /// must be **bit-identical** across thread counts {1, 2, 3, 8}.
    /// Resolution 256² sits at the pool's minimum-work threshold, so
    /// the parallel code paths genuinely engage.
    #[test]
    fn executor_ops_bit_identical_across_thread_counts(
        poly in arb_polygon(),
        n in 100usize..600,
        seed in 0u64..10_000,
    ) {
        let pts = uniform_points(&extent(), n, seed);
        let batch = PointBatch::from_points(pts);
        let table: AreaSource = std::sync::Arc::new(vec![poly]);
        let vp = Viewport::square_pixels(extent(), 256);

        // One full operator chain per device; returns every plane the
        // chain produces plus the counted work.
        let run = |dev: &mut Device| {
            // Streaming tiled draws: point accumulation + conservative
            // polygon render (cover plane + boundary index).
            let cp = canvas_core::source::render_points(dev, vp, &batch);
            let cy = canvas_core::source::render_polygon(dev, vp, &table, 0, 1);
            // Value Transform: location- and value-dependent rewrite.
            let vt = value_transform(dev, &cp, |p, mut t| {
                if let Some(mut d) = t.get(0) {
                    d.v2 = (p.x * 0.25 + p.y) as f32;
                    t.set(0, d);
                }
                t
            });
            // Map = G[γ] ∘ D: scatter everything into one pixel with
            // float accumulation (order-sensitive ⇒ a real determinism
            // probe).
            let folded = map_scatter(
                dev,
                &vt,
                &ValueMap::to_constant(Point::new(0.5, 0.5)),
                vp,
                BlendFn::Accumulate,
            );
            (cp, cy, vt, folded, dev.stats())
        };

        let mut seq_dev = Device::cpu();
        let (s_cp, s_cy, s_vt, s_fold, s_stats) = run(&mut seq_dev);
        for threads in [2usize, 3, 8] {
            let mut dev = Device::cpu_parallel(threads);
            let (p_cp, p_cy, p_vt, p_fold, p_stats) = run(&mut dev);
            prop_assert_eq!(s_cp.texels(), p_cp.texels(), "points, {} threads", threads);
            prop_assert_eq!(s_cy.texels(), p_cy.texels(), "polygon, {} threads", threads);
            prop_assert_eq!(s_cy.cover(), p_cy.cover(), "cover, {} threads", threads);
            prop_assert_eq!(s_cy.boundary(), p_cy.boundary(), "boundary, {} threads", threads);
            prop_assert_eq!(s_vt.texels(), p_vt.texels(), "value_transform, {} threads", threads);
            prop_assert_eq!(s_fold.texels(), p_fold.texels(), "map_scatter, {} threads", threads);
            prop_assert_eq!(&s_stats, &p_stats, "stats, {} threads", threads);
        }
    }

    /// Voronoi canvas assignment matches the brute-force nearest site at
    /// every pixel center (up to exact ties).
    #[test]
    fn voronoi_matches_nearest_site(
        k in 2usize..8,
        seed in 0u64..10_000,
    ) {
        let sites = canvas_algebra::datagen::jittered_sites(&extent(), k, seed);
        let vp = Viewport::square_pixels(extent(), 32);
        let mut dev = Device::nvidia();
        let diagram = canvas_core::queries::voronoi::compute_voronoi(&mut dev, vp, &sites);
        for y in 0..vp.height() {
            for x in 0..vp.width() {
                let p = vp.pixel_center(x, y);
                let got = diagram.texel(x, y).get(2).unwrap().id as usize;
                let best = sites
                    .iter()
                    .map(|s| p.dist_sq(*s))
                    .fold(f64::INFINITY, f64::min);
                let got_d = p.dist_sq(sites[got]);
                prop_assert!(
                    (got_d as f32 - best as f32).abs() <= f32::EPSILON * (best as f32).max(1.0),
                    "pixel ({}, {}): got site {} at d² {}, best d² {}",
                    x, y, got, got_d, best
                );
            }
        }
    }
}
