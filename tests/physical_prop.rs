//! Property-based tests of the physical-design substrates: placement
//! legality, legalization invariants, router conservation.

use casyn::netlist::Point;
use casyn::place::instance::{PinRef, PlaceInstance, PlaceNet};
use casyn::place::{legalize_rows, place, Floorplan, PlacerOptions};
use casyn::route::{route_pin_sets, CongestionMap, RouteConfig};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = PlaceInstance> {
    (2usize..40, 1u64..500).prop_map(|(n, seed)| {
        // deterministic pseudo-random connectivity from the seed
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut inst = PlaceInstance {
            cell_width: (0..n).map(|_| 1.28 + (next() % 4) as f64 * 0.64).collect(),
            nets: Vec::new(),
        };
        let nets = n + (next() % n as u64) as usize;
        for _ in 0..nets {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            if a != b {
                inst.nets.push(PlaceNet { pins: vec![PinRef::Cell(a), PinRef::Cell(b)] });
            }
        }
        inst
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every placed cell lies inside the die.
    #[test]
    fn placement_stays_inside_die(inst in arb_instance(), rows in 2usize..8) {
        let width = inst.total_width() * 3.0 / rows as f64 + 20.0;
        let fp = Floorplan::with_rows_and_area(rows, rows as f64 * 6.4 * width);
        let pos = place(&inst, &fp, &PlacerOptions::default());
        for p in &pos {
            prop_assert!(p.x >= -1e-9 && p.x <= fp.die_width + 1e-9);
            prop_assert!(p.y >= -1e-9 && p.y <= fp.die_height + 1e-9);
        }
    }

    /// Legalization produces row-aligned, non-overlapping, in-die cells
    /// whenever capacity suffices.
    #[test]
    fn legalization_is_legal(inst in arb_instance(), rows in 2usize..6) {
        let width = inst.total_width() * 2.0 / rows as f64 + 20.0;
        let fp = Floorplan::with_rows_and_area(rows, rows as f64 * 6.4 * width);
        let desired = place(&inst, &fp, &PlacerOptions::default());
        let out = legalize_rows(&desired, &inst.cell_width, &fp);
        prop_assert_eq!(out.overflow_cells, 0);
        let mut by_row: Vec<Vec<(f64, f64)>> = vec![Vec::new(); fp.num_rows];
        for (i, p) in out.pos.iter().enumerate() {
            let r = out.row_of[i];
            prop_assert!((p.y - fp.row_y(r)).abs() < 1e-9);
            let half = inst.cell_width[i] / 2.0;
            prop_assert!(p.x - half >= -1e-6 && p.x + half <= fp.die_width + 1e-6);
            by_row[r].push((p.x - half, p.x + half));
        }
        for spans in by_row.iter_mut() {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0 + 1e-6, "row overlap");
            }
        }
    }

    /// Router conservation: per-net wirelengths sum to the total, and a
    /// single 2-pin net routes at exactly its Manhattan gcell distance
    /// on an empty grid.
    #[test]
    fn router_conservation(x in 0u16..12, y in 0u16..12) {
        let fp = Floorplan::with_rows_and_area(16, 16.0 * 6.4 * 102.4);
        let cfg = RouteConfig::default();
        let a = Point::new(3.2, 3.2);
        let b = Point::new(3.2 + 6.4 * x as f64, 3.2 + 6.4 * y as f64);
        let r = route_pin_sets(&[vec![a, b]], &fp, &cfg).expect("routable pin set");
        let expect = (x as f64 + y as f64) * 6.4;
        prop_assert!((r.total_wirelength - expect).abs() < 1e-9);
        prop_assert!((r.net_wirelength.iter().sum::<f64>() - r.total_wirelength).abs() < 1e-9);
        prop_assert!(r.is_routable());
    }

    /// A congestion map survives the JSON round trip field-for-field,
    /// and re-exporting the parsed map is byte-identical (the export is
    /// a fixed point).
    #[test]
    fn congestion_map_json_roundtrip(nets in 2usize..24, seed in 1u64..500) {
        let fp = Floorplan::with_rows_and_area(10, 10.0 * 6.4 * 64.0);
        let pin_sets = random_pin_sets(nets, seed, 9, 9);
        let r = route_pin_sets(&pin_sets, &fp, &RouteConfig::default())
            .expect("routable pin sets");
        let json = r.congestion.to_json().to_string_pretty();
        let back = CongestionMap::from_json(&json).expect("roundtrip parse");
        prop_assert_eq!(back.nx(), r.congestion.nx());
        prop_assert_eq!(back.ny(), r.congestion.ny());
        prop_assert_eq!(back.capacities(), r.congestion.capacities());
        prop_assert_eq!(back.gcell_size(), r.congestion.gcell_size());
        prop_assert!((back.max_util() - r.congestion.max_util()).abs() < 1e-12);
        for y in 0..back.ny() {
            for x in 0..back.nx().saturating_sub(1) {
                prop_assert_eq!(back.h_demand(x, y), r.congestion.h_demand(x, y));
            }
        }
        for y in 0..back.ny().saturating_sub(1) {
            for x in 0..back.nx() {
                prop_assert_eq!(back.v_demand(x, y), r.congestion.v_demand(x, y));
            }
        }
        prop_assert_eq!(back.to_json().to_string_pretty(), json);
    }

    /// Overflow attribution conserves demand: on every audited boundary
    /// the blockage share plus the per-net demand shares reproduce the
    /// boundary load, and each overflow equals demand minus capacity.
    #[test]
    fn audit_shares_sum_to_boundary_demand(nets in 24usize..48, seed in 1u64..200) {
        // a 3-row channel so that many parallel nets overflow it
        let fp = Floorplan::with_rows_and_area(3, 3.0 * 6.4 * 51.2);
        let pin_sets = random_pin_sets(nets, seed, 7, 2);
        let cfg = RouteConfig { max_iters: 6, ..Default::default() };
        let r = route_pin_sets(&pin_sets, &fp, &cfg).expect("routable pin sets");
        for b in &r.audit.boundaries {
            let net_sum: f64 = b.nets.iter().map(|s| s.demand).sum();
            prop_assert!(
                (b.blockage + net_sum - b.demand).abs() < 1e-9,
                "boundary ({}, {}) demand {} != blockage {} + nets {}",
                b.x, b.y, b.demand, b.blockage, net_sum
            );
            prop_assert!((b.overflow() - (b.demand - b.capacity)).abs() < 1e-9);
            prop_assert!(b.demand > b.capacity, "audited boundary is not overflowed");
        }
    }
}

/// Seeded pseudo-random 2-pin nets on gcell centers of an `nx × ny`
/// gcell window (xorshift, same idiom as `arb_instance`).
fn random_pin_sets(nets: usize, seed: u64, nx: u64, ny: u64) -> Vec<Vec<Point>> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..nets)
        .map(|_| {
            let gx = |v: u64| 3.2 + 6.4 * (v % nx) as f64;
            let gy = |v: u64| 3.2 + 6.4 * (v % ny) as f64;
            vec![Point::new(gx(next()), gy(next())), Point::new(gx(next()), gy(next()))]
        })
        .collect()
}
