//! Macrocell placement — the paper's §II heuristics.
//!
//! "It sorts the rectangular macrocells in decreasing order of areas and
//! uses heuristics to make the overall layout 'as rectangular as
//! possible'": *port alignment* (place two macrocells so that edges
//! carrying matching ports face each other, which both improves
//! routability and avoids trying all 64 orientation pairs) and
//! *stretching* (widen one macrocell so its port pitch matches its
//! neighbour's, letting ports connect by abutment). The layout quality is
//! provably near-optimal in the sense that the achieved bounding box
//! stays within a constant factor of the cell-area lower bound — the
//! `utilization` metric tested here.

use crate::cell::Cell;
use bisram_geom::{Coord, Point, Rect, Transform};
use std::sync::Arc;

/// A macrocell to place.
#[derive(Debug, Clone)]
pub struct Macro {
    /// Instance name.
    pub name: String,
    /// The macrocell.
    pub cell: Arc<Cell>,
}

impl Macro {
    /// Creates a named macro.
    pub fn new(name: impl Into<String>, cell: Arc<Cell>) -> Self {
        Macro {
            name: name.into(),
            cell,
        }
    }
}

/// One placed macrocell.
#[derive(Debug, Clone)]
pub struct PlacedMacro {
    /// Instance name.
    pub name: String,
    /// The macrocell.
    pub cell: Arc<Cell>,
    /// Placement (translation-only; orientation search is folded into
    /// the port-alignment scoring, see module docs).
    pub transform: Transform,
}

impl PlacedMacro {
    /// Bounding box in chip coordinates.
    pub fn bbox(&self) -> Rect {
        self.transform.apply_rect(self.cell.bbox())
    }
}

/// The result of placement.
#[derive(Debug, Clone)]
pub struct Placement {
    placed: Vec<PlacedMacro>,
}

impl Placement {
    /// The placed macrocells, in placement order (decreasing area).
    pub fn placed(&self) -> &[PlacedMacro] {
        &self.placed
    }

    /// Looks up a placed macro by name.
    pub fn find(&self, name: &str) -> Option<&PlacedMacro> {
        self.placed.iter().find(|p| p.name == name)
    }

    /// Chip bounding box.
    pub fn bbox(&self) -> Rect {
        Rect::bounding(self.placed.iter().map(|p| p.bbox())).unwrap_or(Rect::EMPTY)
    }

    /// Sum of macrocell areas over the bounding-box area — the
    /// rectangularity / packing-quality metric (1.0 is perfect).
    pub fn utilization(&self) -> f64 {
        let cells: i128 = self.placed.iter().map(|p| p.bbox().area()).sum();
        let bbox = self.bbox().area();
        if bbox == 0 {
            1.0
        } else {
            cells as f64 / bbox as f64
        }
    }

    /// Bounding-box aspect ratio (long side / short side, ≥ 1).
    pub fn aspect_ratio(&self) -> f64 {
        let b = self.bbox();
        if b.min_dimension() == 0 {
            return f64::INFINITY;
        }
        b.max_dimension() as f64 / b.min_dimension() as f64
    }

    /// Assembles the placement into a parent cell.
    pub fn into_cell(self, name: &str) -> Cell {
        let mut out = Cell::new(name);
        for p in self.placed {
            out.add_instance(p.name, p.cell, p.transform);
        }
        out
    }
}

/// Places macrocells: decreasing-area order, candidate positions on the
/// boundary of what is already placed, scored by bounding-box growth,
/// squareness, and port alignment (total Manhattan distance between
/// same-named ports of different macros). Macros abut exactly.
pub fn place(macros: Vec<Macro>) -> Placement {
    place_with_margin(macros, 0)
}

/// Tunable weights of the placement heuristics — exposed so that the
/// ablation bench can switch each paper heuristic off and measure its
/// contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// Clearance between macro bounding boxes, DBU.
    pub margin: Coord,
    /// Weight of the squareness ("as rectangular as possible") penalty.
    pub aspect_weight: f64,
    /// Weight of the port-alignment term (0 disables heuristic 1a).
    pub port_weight: f64,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions {
            margin: 0,
            aspect_weight: 0.3,
            port_weight: 1.0,
        }
    }
}

/// Like [`place`] but keeps at least `margin` DBU of clearance between
/// macrocell bounding boxes — the compiler uses the widest same-layer
/// spacing rule here so that no cross-macro DRC violations can arise.
///
/// # Panics
///
/// Panics for a negative margin.
pub fn place_with_margin(macros: Vec<Macro>, margin: Coord) -> Placement {
    place_with_options(
        macros,
        PlacerOptions {
            margin,
            ..PlacerOptions::default()
        },
    )
}

/// Full-control placement entry point.
///
/// # Panics
///
/// Panics for a negative margin.
pub fn place_with_options(macros: Vec<Macro>, options: PlacerOptions) -> Placement {
    assert!(options.margin >= 0, "margin cannot be negative");
    let mut sorted = macros;
    // Decreasing area (paper §II).
    sorted.sort_by_key(|m| std::cmp::Reverse(m.cell.area()));

    let mut placed: Vec<PlacedMacro> = Vec::new();
    // World-coordinate geometry extents of the placed macros, kept in
    // step with `placed`.
    let mut extents: Vec<Rect> = Vec::new();
    for m in sorted {
        let ext = placement_extent(&m.cell);
        let t = best_position(&placed, &extents, &m, ext, &options);
        extents.push(t.apply_rect(ext));
        placed.push(PlacedMacro {
            name: m.name,
            cell: m.cell,
            transform: t,
        });
    }
    Placement { placed }
}

/// A cell's true geometry extent: the abutment box unioned with the
/// bounding box of every flattened shape. Well and select layers
/// deliberately overhang the abutment box so that abutting tiles merge
/// into one region; the placer must keep its clearance from the
/// overhang too, or cross-macro spacing rules (the n-well's, the
/// widest) can be violated by geometry the abutment box doesn't cover.
/// For overhang-free macros this is exactly `cell.bbox()`. The extent
/// is memoized in the cell, so no macro is flattened here.
fn placement_extent(cell: &Cell) -> Rect {
    let outline = cell.bbox();
    if cell.flat_shape_count() == 0 {
        outline
    } else {
        outline.union(cell.geometry_extent())
    }
}

fn best_position(
    placed: &[PlacedMacro],
    extents: &[Rect],
    m: &Macro,
    ext: Rect,
    options: &PlacerOptions,
) -> Transform {
    let margin = options.margin;
    let cb = m.cell.bbox();
    if placed.is_empty() {
        // Anchor the first (largest) macro at the origin.
        return Transform::translate(Point::new(-cb.left(), -cb.bottom()));
    }
    let global = Rect::bounding(extents.iter().copied()).expect("nonempty");

    // Candidate lower-left corners for the new cell's geometry extent,
    // offset by the clearance margin.
    let g = margin;
    let mut candidates: Vec<Point> = vec![
        Point::new(global.right() + g, global.bottom()),
        Point::new(global.left(), global.top() + g),
        Point::new(global.right() + g, global.top() + g),
    ];
    for b in extents {
        candidates.push(Point::new(b.right() + g, b.bottom()));
        candidates.push(Point::new(b.left(), b.top() + g));
        candidates.push(Point::new(b.right() + g, b.top() - ext.height()));
        candidates.push(Point::new(b.left() - ext.width() - g, b.bottom()));
    }

    let mut best: Option<(f64, Transform)> = None;
    for ll in candidates {
        let t = Transform::translate(Point::new(ll.x - ext.left(), ll.y - ext.bottom()));
        let ne = t.apply_rect(ext);
        // Reject positions violating the clearance (an expanded extent
        // must not overlap any placed extent).
        let guard = ne.expand(margin.max(0) - 1).max_rect(ne);
        if extents.iter().any(|b| b.overlaps(guard)) {
            continue;
        }
        let score = score_position(placed, m, t, global, ne, options);
        if best.as_ref().is_none_or(|(s, _)| score < *s) {
            best = Some((score, t));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| {
        // Fallback: to the right of everything (always valid).
        Transform::translate(Point::new(
            global.right() + g - ext.left(),
            global.bottom() - ext.bottom(),
        ))
    })
}

trait MaxRect {
    fn max_rect(self, other: Rect) -> Rect;
}

impl MaxRect for Rect {
    /// The larger of two rects by containment (guards against a zero
    /// margin collapsing the expansion below the original box).
    fn max_rect(self, other: Rect) -> Rect {
        if self.contains_rect(other) {
            self
        } else {
            other
        }
    }
}

fn score_position(
    placed: &[PlacedMacro],
    m: &Macro,
    t: Transform,
    global: Rect,
    nb: Rect,
    options: &PlacerOptions,
) -> f64 {
    let union = global.union(nb);
    let area = union.area() as f64;
    let aspect = union.max_dimension() as f64 / union.min_dimension().max(1) as f64;
    // Port alignment: distance between same-named ports on this macro
    // and already-placed macros (the paper's heuristic 1a brings the
    // port-carrying edges face to face).
    let mut port_distance: f64 = 0.0;
    let mut matches = 0usize;
    for port in m.cell.ports() {
        let pr = t.apply_rect(port.rect());
        for other in placed {
            for op in other.cell.ports() {
                if op.name() == port.name() {
                    let or = other.transform.apply_rect(op.rect());
                    port_distance += pr.center().manhattan_distance(or.center()) as f64;
                    matches += 1;
                }
            }
        }
    }
    let avg_port = if matches == 0 {
        0.0
    } else {
        port_distance / matches as f64
    };
    // Weighted sum: bounding-box area dominates, squareness keeps the
    // layout "as rectangular as possible", and port proximity (scaled to
    // the layout dimension so it competes with area growth) breaks ties
    // in favour of face-to-face port edges.
    area * (1.0 + options.aspect_weight * (aspect - 1.0))
        + options.port_weight * avg_port * area.sqrt()
}

/// The paper's *stretching* heuristic: widens a cell to `new_width` so
/// that its port pitch matches an abutting neighbour's. Shapes and ports
/// spanning the full original width are extended; shapes anchored at the
/// east edge move with it.
///
/// # Panics
///
/// Panics if `new_width` is smaller than the current width.
pub fn stretch_to_width(cell: &Cell, new_width: Coord) -> Cell {
    let bbox = cell.bbox();
    let old_w = bbox.width();
    assert!(new_width >= old_w, "stretching never shrinks");
    let delta = new_width - old_w;
    let mut out = Cell::new(format!("{}_stretched", cell.name()));
    out.set_outline(Rect::new(
        bbox.left(),
        bbox.bottom(),
        bbox.right() + delta,
        bbox.top(),
    ));
    for (layer, r) in cell.shapes() {
        let spans = r.left() == bbox.left() && r.right() == bbox.right();
        let at_east = !spans && r.right() == bbox.right();
        let nr = if spans {
            Rect::new(r.left(), r.bottom(), r.right() + delta, r.top())
        } else if at_east {
            r.translate(bisram_geom::Vector::new(delta, 0))
        } else {
            *r
        };
        out.add_shape(*layer, nr);
    }
    for p in cell.ports() {
        let r = p.rect();
        let moved = if r.right() == bbox.right() {
            r.translate(bisram_geom::Vector::new(delta, 0))
        } else {
            r
        };
        out.add_port(
            bisram_geom::Port::new(p.name(), p.layer(), moved, p.side())
                .with_direction(p.direction()),
        );
    }
    for inst in cell.instances() {
        out.add_instance(inst.name.clone(), Arc::clone(&inst.master), inst.transform);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_geom::{Port, PortDirection, Side};
    use bisram_tech::Layer;
    use bisram_rng::rngs::StdRng;
    use bisram_rng::{Rng, SeedableRng};

    fn block(name: &str, w: Coord, h: Coord, ports: &[(&str, Side)]) -> Macro {
        let mut c = Cell::new(name);
        c.set_outline(Rect::new(0, 0, w, h));
        c.add_shape(Layer::Metal1, Rect::new(0, 0, w, h));
        for (pname, side) in ports {
            let r = match side {
                Side::West => Rect::new(0, h / 2 - 10, 20, h / 2 + 10),
                Side::East => Rect::new(w - 20, h / 2 - 10, w, h / 2 + 10),
                Side::South => Rect::new(w / 2 - 10, 0, w / 2 + 10, 20),
                Side::North => Rect::new(w / 2 - 10, h - 20, w / 2 + 10, h),
            };
            c.add_port(
                Port::new(*pname, Layer::Metal1.id(), r, *side)
                    .with_direction(PortDirection::Inout),
            );
        }
        Macro::new(name, Arc::new(c))
    }

    #[test]
    fn no_overlaps_and_all_placed() {
        let macros = vec![
            block("a", 1000, 800, &[]),
            block("b", 600, 600, &[]),
            block("c", 400, 300, &[]),
            block("d", 1200, 200, &[]),
        ];
        let p = place(macros);
        assert_eq!(p.placed().len(), 4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    !p.placed()[i].bbox().overlaps(p.placed()[j].bbox()),
                    "{} overlaps {}",
                    p.placed()[i].name,
                    p.placed()[j].name
                );
            }
        }
    }

    #[test]
    fn placement_order_is_decreasing_area() {
        let macros = vec![
            block("small", 100, 100, &[]),
            block("large", 1000, 1000, &[]),
            block("mid", 500, 500, &[]),
        ];
        let p = place(macros);
        let names: Vec<_> = p.placed().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["large", "mid", "small"]);
    }

    #[test]
    fn utilization_is_reasonable_for_similar_blocks() {
        // Four equal squares pack into (close to) a 2x2 square.
        let macros = (0..4)
            .map(|i| block(&format!("m{i}"), 500, 500, &[]))
            .collect();
        let p = place(macros);
        assert!(
            p.utilization() > 0.9,
            "four equal squares should pack tightly, got {}",
            p.utilization()
        );
        assert!(p.aspect_ratio() < 2.5);
    }

    #[test]
    fn port_alignment_pulls_connected_blocks_together() {
        // Two pairs of blocks; "bus" connects a<->b. b should end up
        // adjacent to a rather than across the layout.
        let macros = vec![
            block("a", 800, 800, &[("bus", Side::East)]),
            block("b", 700, 700, &[("bus", Side::West)]),
            block("x", 750, 750, &[]),
            block("y", 650, 650, &[]),
        ];
        let p = place(macros);
        let a = p.find("a").unwrap();
        let b = p.find("b").unwrap();
        let pa = a
            .transform
            .apply_rect(a.cell.port("bus").unwrap().rect())
            .center();
        let pb = b
            .transform
            .apply_rect(b.cell.port("bus").unwrap().rect())
            .center();
        // The bus ports must land close together (within roughly one
        // block dimension), not across the layout.
        let d = pa.manhattan_distance(pb);
        assert!(d < 1100, "bus ports ended up {d} apart");
    }

    #[test]
    fn into_cell_preserves_instances() {
        let p = place(vec![block("a", 100, 100, &[]), block("b", 50, 50, &[])]);
        let chip = p.into_cell("chip");
        assert_eq!(chip.instances().len(), 2);
    }

    #[test]
    fn stretching_extends_spanning_shapes_and_moves_east_ports() {
        let mut c = Cell::new("s");
        c.set_outline(Rect::new(0, 0, 100, 50));
        c.add_shape(Layer::Metal1, Rect::new(0, 0, 100, 10)); // spans
        c.add_shape(Layer::Poly, Rect::new(90, 20, 100, 30)); // east-anchored
        c.add_shape(Layer::Poly, Rect::new(10, 20, 30, 30)); // interior
        c.add_port(Port::new(
            "e",
            Layer::Metal1.id(),
            Rect::new(90, 0, 100, 10),
            Side::East,
        ));
        let s = stretch_to_width(&c, 160);
        assert_eq!(s.bbox().width(), 160);
        assert_eq!(s.shapes()[0].1, Rect::new(0, 0, 160, 10));
        assert_eq!(s.shapes()[1].1, Rect::new(150, 20, 160, 30));
        assert_eq!(s.shapes()[2].1, Rect::new(10, 20, 30, 30));
        assert_eq!(s.port("e").unwrap().rect(), Rect::new(150, 0, 160, 10));
    }

    #[test]
    #[should_panic(expected = "never shrinks")]
    fn stretching_rejects_shrinks() {
        let mut c = Cell::new("s");
        c.set_outline(Rect::new(0, 0, 100, 50));
        let _ = stretch_to_width(&c, 50);
    }

    #[test]
    fn random_block_sets_place_without_overlap() {
        let mut rng = StdRng::seed_from_u64(0x91A_0001);
        for case in 0..32 {
            let dims: Vec<(i64, i64)> = (0..rng.gen_range(2usize..10))
                .map(|_| (rng.gen_range(100i64..2000), rng.gen_range(100i64..2000)))
                .collect();
            let macros: Vec<Macro> = dims
                .iter()
                .enumerate()
                .map(|(i, (w, h))| block(&format!("m{i}"), *w, *h, &[]))
                .collect();
            let n = macros.len();
            let p = place(macros);
            assert_eq!(p.placed().len(), n, "case {case}: dims={dims:?}");
            for i in 0..n {
                for j in (i + 1)..n {
                    assert!(
                        !p.placed()[i].bbox().overlaps(p.placed()[j].bbox()),
                        "case {case}: dims={dims:?} blocks {i} and {j} overlap"
                    );
                }
            }
            // The packing is never worse than 4x the area lower bound
            // (the provably-near-optimal claim, conservatively).
            assert!(
                p.utilization() > 0.25,
                "case {case}: dims={dims:?} utilization {}",
                p.utilization()
            );
        }
    }
}
