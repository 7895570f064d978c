//! The hierarchical CIF is exact: read back and flattened, it is the
//! same multiset of `(layer, rect)` as `Cell::flatten()` — for every
//! leaf cell, every compiled macrocell and a whole compiled chip, in
//! every built-in process.

mod cif_reader;

use bisram_geom::{Orientation, Point, Rect, Transform};
use bisram_layout::{export, leaf, Cell};
use bisram_tech::{Layer, Process};
use bisramgen::{compile, RamParams};
use std::sync::Arc;

fn assert_round_trips(cell: &Cell, what: &str) {
    let read = cif_reader::flatten(&export::to_cif(cell));
    let want = cif_reader::expected(&cell.flatten());
    assert_eq!(read.len(), want.len(), "{what}: shape count");
    if let Some(i) = (0..read.len()).find(|&i| read[i] != want[i]) {
        panic!("{what}: first difference {:?} vs {:?}", read[i], want[i]);
    }
}

#[test]
fn every_leaf_cell_round_trips_in_every_process() {
    for process in Process::builtin() {
        let library = leaf::library(&process);
        assert_eq!(library.len(), 14);
        for cell in &library {
            assert_round_trips(cell, &format!("{} in {}", cell.name(), process.name()));
        }
    }
}

#[test]
fn every_compiled_macrocell_and_the_chip_round_trip_in_every_process() {
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
        let macros = &ram.macrocells().cells;
        assert_eq!(macros.len(), 12);
        for (name, cell) in macros {
            assert_round_trips(cell, &format!("{name} in {}", process.name()));
        }
        assert_round_trips(ram.chip(), &format!("chip in {}", process.name()));
    }
}

/// A leaf with odd-sized boxes (centres on the half-DBU grid) on two
/// layers, off the origin.
fn odd_leaf(name: &str, k: i64) -> Cell {
    let mut c = Cell::new(name);
    c.add_shape(Layer::Metal1, Rect::new(3, -7, 3 + 11 * k, 20));
    c.add_shape(Layer::Poly, Rect::new(-5, 1, 0, 2 + k));
    c.add_shape(Layer::Metal1, Rect::new(0, 0, 1, 1));
    c
}

#[test]
fn every_orientation_and_half_dbu_centre_round_trips() {
    let leaf = Arc::new(odd_leaf("odd", 3));
    let mut mid = Cell::new("mid");
    for (k, o) in Orientation::ALL.into_iter().enumerate() {
        let k = k as i64;
        mid.add_instance(
            format!("i{k}"),
            Arc::clone(&leaf),
            Transform::new(o, Point::new(101 * k - 7, 13 - 37 * k)),
        );
    }
    mid.add_instance("empty", Arc::new(Cell::new("empty")), Transform::IDENTITY);
    let mid = Arc::new(mid);
    let mut top = Cell::new("top");
    top.add_shape(Layer::Metal2, Rect::new(-1, -1, 2, 4));
    for (k, o) in Orientation::ALL.into_iter().enumerate() {
        top.add_instance(
            format!("m{k}"),
            Arc::clone(&mid),
            Transform::new(o, Point::new(-3 * k as i64, 1001 * k as i64 + 1)),
        );
    }
    assert_round_trips(&top, "orientation sweep");
}

#[test]
fn output_depends_on_content_not_on_arc_sharing() {
    // One shared master against two equal but separate ones: the bytes
    // are the same, and the master is defined once.
    let build = |shared: bool| {
        let a = Arc::new(odd_leaf("cell", 2));
        let b = if shared {
            Arc::clone(&a)
        } else {
            Arc::new(odd_leaf("cell", 2))
        };
        let mut top = Cell::new("top");
        top.add_instance("a", a, Transform::IDENTITY);
        top.add_instance("b", b, Transform::new(Orientation::R90, Point::new(50, 0)));
        export::to_cif(&top)
    };
    let cif = build(true);
    assert_eq!(cif, build(false));
    assert_eq!(cif.matches("DS ").count(), 2, "{cif}");
    // Different content under the same name is kept apart.
    let mut top = Cell::new("top");
    top.add_instance("a", Arc::new(odd_leaf("cell", 2)), Transform::IDENTITY);
    top.add_instance("b", Arc::new(odd_leaf("cell", 5)), Transform::IDENTITY);
    let cif = export::to_cif(&top);
    assert_eq!(cif.matches("DS ").count(), 3, "{cif}");
    assert_round_trips(&top, "same name, different content");
}
