//! CIF and SVG export of layouts.
//!
//! CIF is the interchange format of the tool's era (the original
//! BISRAMGEN emitted CIF for the Cascade/MOSIS flows); the SVG writer
//! stands in for the layout plots of the paper's Figs. 6 and 7.

use crate::cell::Cell;
use bisram_geom::{Orientation, Rect, Transform};
use bisram_tech::Layer;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders a cell as a hierarchical CIF file.
///
/// Every distinct cell of the hierarchy becomes one `DS`…`DF` symbol,
/// children before parents, holding its own shapes as `B` boxes (grouped
/// under one `L` mask-name command per layer) and one `C` call per
/// instance: the orientation as `M X` / `M Y` then `R a b`, then the
/// translation `T x y`. The file ends with a call of the root symbol.
///
/// CIF counts in centimicrons (10 nm) while the layout counts in DBU
/// (1 nm), and a box is given by its centre, which for an odd width lies
/// on the half-DBU grid. Every symbol is therefore defined at scale
/// `DS n 1 20`, one unit = 0.5 nm, so every box and every call offset is
/// represented exactly.
///
/// Symbols are numbered in first-use order and deduplicated by their
/// rendered content, so the file depends only on the hierarchy's
/// content, never on which cells happen to share an `Arc`. The work is
/// O(distinct cells + instances), not O(flattened shapes).
pub fn to_cif(cell: &Cell) -> String {
    let mut w = CifWriter {
        out: String::new(),
        by_body: HashMap::new(),
        by_cell: HashMap::new(),
    };
    let _ = writeln!(w.out, "(CIF generated by bisram-layout);");
    let top = w.symbol(cell);
    let _ = writeln!(w.out, "C {top};");
    let _ = writeln!(w.out, "E");
    w.out
}

/// CIF units per DBU under the `DS n 1 20` symbol scale.
const UNITS_PER_DBU: i64 = 2;

struct CifWriter {
    out: String,
    /// Symbol number per rendered symbol body: the content dedup.
    by_body: HashMap<String, usize>,
    /// Symbol number per visited cell. Only a memo, so each shared
    /// master is rendered once; numbers come from content, and the
    /// address never reaches the output.
    by_cell: HashMap<*const Cell, usize>,
}

impl CifWriter {
    /// Defines `cell`'s symbol (after its children's) unless an equal
    /// one exists, and returns its number.
    fn symbol(&mut self, cell: &Cell) -> usize {
        let key: *const Cell = cell;
        if let Some(&n) = self.by_cell.get(&key) {
            return n;
        }
        let calls: Vec<usize> = cell
            .instances()
            .iter()
            .map(|i| self.symbol(&i.master))
            .collect();
        let mut body = String::new();
        let _ = writeln!(body, "9 {};", sanitize(cell.name()));
        let mut shapes: Vec<&(Layer, Rect)> = cell.shapes().iter().collect();
        shapes.sort_by_key(|(l, _)| *l);
        let mut layer = None;
        for &(l, r) in shapes {
            if layer != Some(l) {
                let _ = writeln!(body, "L {};", l.mask_name());
                layer = Some(l);
            }
            // B width height centre-x centre-y, in half-DBU units.
            let _ = writeln!(
                body,
                "B {} {} {} {};",
                UNITS_PER_DBU * r.width(),
                UNITS_PER_DBU * r.height(),
                r.left() + r.right(),
                r.bottom() + r.top()
            );
        }
        for (inst, n) in cell.instances().iter().zip(calls) {
            let _ = writeln!(body, "C {n}{};", cif_transform(inst.transform));
        }
        let next = self.by_body.len() + 1;
        let out = &mut self.out;
        let n = *self.by_body.entry(body).or_insert_with_key(|body| {
            let _ = writeln!(out, "DS {next} 1 20;");
            out.push_str(body);
            let _ = writeln!(out, "DF;");
            next
        });
        self.by_cell.insert(key, n);
        n
    }
}

/// The CIF transformation list of a placement: mirror, rotate, then
/// translate (CIF applies the list left to right).
fn cif_transform(t: Transform) -> String {
    let orient = match t.orientation {
        Orientation::R0 => "",
        Orientation::R90 => " R 0 1",
        Orientation::R180 => " R -1 0",
        Orientation::R270 => " R 0 -1",
        Orientation::Mx => " M Y",
        Orientation::My => " M X",
        Orientation::MxR90 => " M Y R 0 1",
        Orientation::MyR90 => " M X R 0 1",
    };
    format!(
        "{orient} T {} {}",
        UNITS_PER_DBU * t.offset.x,
        UNITS_PER_DBU * t.offset.y
    )
}

/// Fill colors per layer for the SVG plot (loosely following Magic's
/// palette).
fn layer_style(layer: Layer) -> (&'static str, f64) {
    match layer {
        Layer::Nwell => ("#d9c89e", 0.35),
        Layer::Active => ("#2e8b57", 0.55),
        Layer::Pselect => ("#e2a76f", 0.15),
        Layer::Nselect => ("#9acd32", 0.15),
        Layer::Poly => ("#cc4444", 0.65),
        Layer::Contact => ("#111111", 0.9),
        Layer::Metal1 => ("#4169e1", 0.55),
        Layer::Via1 => ("#222222", 0.9),
        Layer::Metal2 => ("#9932cc", 0.5),
        Layer::Via2 => ("#333333", 0.9),
        Layer::Metal3 => ("#20b2aa", 0.45),
    }
}

/// Renders the cell (flattened) as an SVG drawing — the stand-in for the
/// paper's layout plots (Figs. 6 and 7).
pub fn to_svg(cell: &Cell) -> String {
    let bbox = cell.bbox();
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="{} {} {} {}">"#,
        bbox.left(),
        -bbox.top(),
        bbox.width().max(1),
        bbox.height().max(1)
    );
    let _ = writeln!(
        out,
        r#"<title>{} ({} x {} nm)</title>"#,
        sanitize(cell.name()),
        bbox.width(),
        bbox.height()
    );
    let mut shapes = cell.flatten();
    shapes.sort_by_key(|(l, _)| *l);
    for (layer, r) in shapes {
        if r.is_degenerate() {
            continue;
        }
        let (color, opacity) = layer_style(layer);
        // SVG y grows downward; flip.
        let _ = writeln!(
            out,
            r#"<rect x="{}" y="{}" width="{}" height="{}" fill="{}" fill-opacity="{}"/>"#,
            r.left(),
            -r.top(),
            r.width(),
            r.height(),
            color,
            opacity
        );
    }
    let _ = writeln!(out, "</svg>");
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

#[cfg(test)]
#[path = "../tests/cif_reader/mod.rs"]
mod cif_reader;

#[cfg(test)]
mod tests {
    use super::cif_reader;
    use super::*;
    use crate::{leaf, tile};
    use bisram_tech::Process;
    use std::sync::Arc;

    #[test]
    fn cif_contains_all_layers_and_valid_structure() {
        let cell = leaf::sram6t(&Process::cda07());
        let cif = to_cif(&cell);
        assert!(cif.starts_with("(CIF"));
        assert!(cif.contains("DS 1 1 20;"));
        assert!(cif.trim_end().ends_with("C 1;\nE"));
        for mask in ["CPG", "CMF", "CMS", "CAA"] {
            assert!(cif.contains(&format!("L {mask};")), "missing {mask}");
        }
        // Read back, the file is exactly the flattened geometry.
        assert_eq!(cif_reader::flatten(&cif), cif_reader::expected(&cell.flatten()));
    }

    #[test]
    fn cif_defines_each_master_once_and_calls_it_per_instance() {
        let master = Arc::new(leaf::sram6t(&Process::cda05()));
        let array = tile::tile_grid("arr", master, 3, 4);
        let cif = to_cif(&array);
        assert_eq!(cif.matches("DS ").count(), 2);
        assert_eq!(cif.lines().filter(|l| l.starts_with("C 1 ")).count(), 12);
        // Odd-λ process: the boxes still land exactly.
        assert_eq!(cif_reader::flatten(&cif), cif_reader::expected(&array.flatten()));
    }

    #[test]
    fn svg_is_well_formed_and_scaled() {
        let cell = leaf::sram6t(&Process::cda07());
        let svg = to_svg(&cell);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, cell.flatten().len());
        assert!(svg.contains("viewBox"));
    }

    #[test]
    fn sanitizer_replaces_odd_characters() {
        assert_eq!(sanitize("a b/c"), "a_b_c");
    }
}
