//! Integration: the generated layouts hold together — DRC-clean leaf
//! cells and arrays in every process, pitch-consistent macrocells,
//! exportable geometry, and area accounting that adds up.

#[path = "../crates/layout/tests/cif_reader/mod.rs"]
mod cif_reader;

use bisram_layout::{export, leaf, tile};
use bisram_tech::{drc, Process};
use bisramgen::{compile, RamParams};
use std::sync::Arc;

#[test]
fn compiled_module_core_is_drc_clean_in_every_process() {
    // Flatten a complete small module (array + periphery + BIST/BISR)
    // and run the checker. Macrocells are placed with clearance, so the
    // only possible violations are internal — and there must be none.
    for process in Process::builtin() {
        let params = RamParams::builder()
            .words(64)
            .bits_per_word(4)
            .bits_per_column(4)
            .spare_rows(4)
            .process(process.clone())
            .build()
            .expect("valid");
        let ram = compile(&params).expect("compiles");
        let shapes = ram.chip().flatten();
        assert!(shapes.len() > 500, "module is non-trivial: {}", shapes.len());
        // Note: route shapes (metal3) connect macros and may touch many
        // rects; the DRC treats touching shapes as connected.
        let violations = drc::check(process.rules(), shapes);
        assert!(
            violations.is_empty(),
            "{}: {} violations, first: {}",
            process.name(),
            violations.len(),
            violations[0]
        );
    }
}

#[test]
fn macrocell_areas_sum_close_to_floorplan_area() {
    let params = RamParams::builder()
        .words(1024)
        .bits_per_word(16)
        .bits_per_column(4)
        .build()
        .expect("valid");
    let ram = compile(&params).expect("compiles");
    let accounted = ram.areas().report().total() as f64;
    let bbox = ram.placement().bbox().area() as f64;
    let utilization = accounted / bbox;
    // RAM floorplans with tall skinny arrays and thin periphery strips
    // pack around 50%; anything below 40% would indicate a placer bug.
    assert!(
        utilization > 0.4,
        "placement wastes too much area: utilization {utilization:.3}"
    );
    assert!(utilization <= 1.0 + 1e-9);
}

#[test]
fn exports_are_consistent_with_geometry() {
    let p = Process::cda07();
    let array = tile::tile_grid("arr", Arc::new(leaf::sram6t(&p)), 2, 2);
    let flat = array.flatten();
    let cif = export::to_cif(&array);
    let svg = export::to_svg(&array);
    // The hierarchical CIF reads back to exactly the flattened shapes.
    assert_eq!(cif_reader::flatten(&cif), cif_reader::expected(&flat));
    assert_eq!(svg.matches("<rect").count(), flat.len());
}

#[test]
fn pitch_contracts_hold_in_every_process() {
    for p in Process::builtin() {
        let l = p.rules().lambda();
        let sram = leaf::sram6t(&p);
        assert_eq!(sram.bbox().width(), leaf::SRAM_W * l);
        // The column-pitch family.
        for cell in [
            leaf::precharge(&p, 2),
            leaf::col_mux(&p),
            leaf::sense_amp(&p),
            leaf::write_driver(&p),
        ] {
            assert_eq!(
                cell.bbox().width(),
                sram.bbox().width(),
                "{} in {}",
                cell.name(),
                p.name()
            );
        }
        // The row-pitch family.
        for cell in [leaf::row_decoder(&p, 8), leaf::wordline_driver(&p, 2)] {
            assert_eq!(cell.bbox().height(), sram.bbox().height());
        }
    }
}

#[test]
fn bigger_user_knobs_grow_the_layout_monotonically() {
    let area_of = |gate_size: i64, strap: (usize, i64)| {
        let params = RamParams::builder()
            .words(256)
            .bits_per_word(8)
            .bits_per_column(4)
            .gate_size(gate_size)
            .strap(strap.0, strap.1)
            .build()
            .expect("valid");
        compile(&params).expect("compiles").area_mm2()
    };
    // Bigger critical gates grow the drivers; straps grow the array.
    assert!(area_of(4, (0, 0)) > area_of(1, (0, 0)));
    assert!(area_of(2, (8, 16)) > area_of(2, (0, 0)));
}

#[test]
fn floorplan_svg_covers_every_macro_and_is_parsable_xml() {
    let params = RamParams::builder().words(256).bits_per_word(8).build().unwrap();
    let ram = compile(&params).unwrap();
    let svg = ram.floorplan_svg();
    for m in ram.placement().placed() {
        assert!(svg.contains(&m.name), "missing macro {}", m.name);
    }
    // Minimal well-formedness: every rect/text self-closes or closes.
    assert_eq!(svg.matches("<svg").count(), 1);
    assert_eq!(svg.matches("</svg>").count(), 1);
    assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
}
