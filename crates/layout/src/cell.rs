//! The hierarchical layout database.

use bisram_geom::{Port, Rect, Transform};
use bisram_tech::Layer;
use std::sync::{Arc, OnceLock};

/// A placed instance of a master cell.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance name (unique within the parent).
    pub name: String,
    /// The master cell.
    pub master: Arc<Cell>,
    /// Placement transform (master → parent coordinates).
    pub transform: Transform,
}

impl Instance {
    /// Bounding box of the instance in parent coordinates.
    pub fn bbox(&self) -> Rect {
        self.transform.apply_rect(self.master.bbox())
    }
}

/// A layout cell: shapes, ports and child instances.
///
/// ```
/// use bisram_layout::Cell;
/// use bisram_geom::{Rect, Port, Side, LayerId};
/// use bisram_tech::Layer;
///
/// let mut c = Cell::new("leaf");
/// c.add_shape(Layer::Metal1, Rect::new(0, 0, 300, 300));
/// c.add_port(Port::new("a", Layer::Metal1.id(), Rect::new(0, 100, 50, 200), Side::West));
/// assert_eq!(c.bbox(), Rect::new(0, 0, 300, 300));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cell {
    name: String,
    shapes: Vec<(Layer, Rect)>,
    ports: Vec<Port>,
    instances: Vec<Instance>,
    /// Optional explicit outline; when unset the bbox of contents is
    /// used. Tiling relies on outlines so cells abut exactly at their
    /// pitch even when drawn geometry is inset.
    outline: Option<Rect>,
    /// The subtree summaries, computed on first read from the children's
    /// own memos and reset by `add_shape` / `add_instance`, so a tiled
    /// array is summarized once per distinct master, not once per tile.
    summary: OnceLock<Summary>,
}

/// What a cell's subtree reduces to, memoized per cell.
#[derive(Debug, Clone, Copy)]
struct Summary {
    /// Bounding box of every flattened shape (`None` when there is none).
    extent: Option<Rect>,
    /// Number of flattened shapes.
    shape_count: usize,
}

impl Cell {
    /// Creates an empty cell.
    pub fn new(name: impl Into<String>) -> Self {
        Cell {
            name: name.into(),
            ..Cell::default()
        }
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a rectangle on a layer.
    pub fn add_shape(&mut self, layer: Layer, rect: Rect) {
        self.shapes.push((layer, rect));
        self.summary = OnceLock::new();
    }

    /// Adds a port.
    pub fn add_port(&mut self, port: Port) {
        self.ports.push(port);
    }

    /// Places a child instance.
    pub fn add_instance(&mut self, name: impl Into<String>, master: Arc<Cell>, transform: Transform) {
        self.instances.push(Instance {
            name: name.into(),
            master,
            transform,
        });
        self.summary = OnceLock::new();
    }

    /// Sets an explicit outline (abutment box).
    pub fn set_outline(&mut self, outline: Rect) {
        self.outline = Some(outline);
    }

    /// Own (non-hierarchical) shapes.
    pub fn shapes(&self) -> &[(Layer, Rect)] {
        &self.shapes
    }

    /// Ports in cell coordinates.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Looks a port up by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name() == name)
    }

    /// Child instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The abutment box: the explicit outline if set, else the bounding
    /// box of all contents (empty cell ⇒ zero rect).
    pub fn bbox(&self) -> Rect {
        if let Some(o) = self.outline {
            return o;
        }
        let own = self.shapes.iter().map(|(_, r)| *r);
        let kids = self.instances.iter().map(|i| i.bbox());
        let ports = self.ports.iter().map(|p| p.rect());
        Rect::bounding(own.chain(kids).chain(ports)).unwrap_or(Rect::EMPTY)
    }

    /// Area of the abutment box in square DBU.
    pub fn area(&self) -> i128 {
        self.bbox().area()
    }

    /// Flattens the hierarchy to `(Layer, Rect)` pairs in this cell's
    /// coordinates — the DRC and export input.
    pub fn flatten(&self) -> Vec<(Layer, Rect)> {
        let mut out = Vec::with_capacity(self.flat_shape_count());
        self.flatten_rec(Transform::IDENTITY, &mut out);
        out
    }

    /// Flattens into a caller-provided buffer (appending), so repeated
    /// flattening — the per-macrocell verify loop — reuses one
    /// allocation. `flatten()` is equivalent to clearing the buffer
    /// first.
    pub fn flatten_into(&self, out: &mut Vec<(Layer, Rect)>) {
        out.reserve(self.flat_shape_count());
        self.flatten_rec(Transform::IDENTITY, out);
    }

    fn flatten_rec(&self, t: Transform, out: &mut Vec<(Layer, Rect)>) {
        for (layer, rect) in &self.shapes {
            out.push((*layer, t.apply_rect(*rect)));
        }
        for inst in &self.instances {
            inst.master.flatten_rec(inst.transform.then(t), out);
        }
    }

    /// Flattens only the shapes whose placed rectangle touches or
    /// overlaps `window`, appending to `out`. Shapes are emitted whole
    /// (never clipped), under the accumulated transform `t`, in the same
    /// depth-first order as [`Cell::flatten_into`]. Subtrees whose placed
    /// [`Cell::geometry_extent`] misses the window are pruned without
    /// being visited, which is what makes halo-window sweeps over huge
    /// tilings cheap.
    pub fn flatten_window_into(&self, t: Transform, window: Rect, out: &mut Vec<(Layer, Rect)>) {
        for (layer, rect) in &self.shapes {
            let r = t.apply_rect(*rect);
            if r.touches(window) {
                out.push((*layer, r));
            }
        }
        for inst in &self.instances {
            let ct = inst.transform.then(t);
            if ct.apply_rect(inst.master.geometry_extent()).touches(window) {
                inst.master.flatten_window_into(ct, window, out);
            }
        }
    }

    /// The bounding box of every shape in the subtree, in local
    /// coordinates — `Rect::EMPTY` for a cell with no geometry at all
    /// (tell that case apart with [`Cell::flat_shape_count`]` == 0`).
    /// Unlike [`Cell::bbox`] this ignores the outline override and ports:
    /// it bounds exactly what [`Cell::flatten`] would emit, so it is the
    /// conservative pruning frame for windowed flattening and the
    /// abutment frame for hierarchical verification. Memoized: costs
    /// O(instances + distinct masters) once, then O(1).
    pub fn geometry_extent(&self) -> Rect {
        self.summary().extent.unwrap_or(Rect::EMPTY)
    }

    /// Total shape count including the hierarchy, i.e. `flatten().len()`
    /// (cheap complexity metric used in reports; memoized like
    /// [`Cell::geometry_extent`]).
    pub fn flat_shape_count(&self) -> usize {
        self.summary().shape_count
    }

    fn summary(&self) -> &Summary {
        self.summary.get_or_init(|| {
            let own = Rect::bounding(self.shapes.iter().map(|&(_, r)| r));
            let kids = Rect::bounding(self.instances.iter().filter_map(|i| {
                i.master.summary().extent.map(|e| i.transform.apply_rect(e))
            }));
            let extent = match (own, kids) {
                (Some(a), Some(b)) => Some(a.union(b)),
                (a, b) => a.or(b),
            };
            let shape_count = self.shapes.len()
                + self
                    .instances
                    .iter()
                    .map(|i| i.master.flat_shape_count())
                    .sum::<usize>();
            Summary {
                extent,
                shape_count,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisram_geom::{Orientation, Point, Side};

    fn leaf() -> Arc<Cell> {
        let mut c = Cell::new("leaf");
        c.add_shape(Layer::Metal1, Rect::new(0, 0, 100, 100));
        c.add_port(Port::new(
            "p",
            Layer::Metal1.id(),
            Rect::new(0, 40, 20, 60),
            Side::West,
        ));
        Arc::new(c)
    }

    #[test]
    fn bbox_covers_shapes_and_instances() {
        let mut top = Cell::new("top");
        top.add_shape(Layer::Poly, Rect::new(-50, 0, 0, 10));
        top.add_instance(
            "i0",
            leaf(),
            Transform::translate(Point::new(200, 0)),
        );
        assert_eq!(top.bbox(), Rect::new(-50, 0, 300, 100));
    }

    #[test]
    fn outline_overrides_bbox() {
        let mut c = Cell::new("c");
        c.add_shape(Layer::Metal1, Rect::new(10, 10, 50, 50));
        c.set_outline(Rect::new(0, 0, 100, 100));
        assert_eq!(c.bbox(), Rect::new(0, 0, 100, 100));
        assert_eq!(c.area(), 10_000);
    }

    #[test]
    fn flatten_applies_nested_transforms() {
        let mut mid = Cell::new("mid");
        mid.add_instance("l", leaf(), Transform::translate(Point::new(10, 0)));
        let mut top = Cell::new("top");
        top.add_instance(
            "m",
            Arc::new(mid),
            Transform::new(Orientation::R90, Point::new(0, 0)),
        );
        let flat = top.flatten();
        assert_eq!(flat.len(), 1);
        // leaf rect (0,0,100,100) shifted to (10,0,110,100), then R90:
        // (x,y) -> (-y,x): (-100,10,0,110).
        assert_eq!(flat[0].1, Rect::new(-100, 10, 0, 110));
    }

    #[test]
    fn flat_shape_count_counts_hierarchy() {
        let mut top = Cell::new("top");
        top.add_shape(Layer::Poly, Rect::new(0, 0, 1, 1));
        top.add_instance("a", leaf(), Transform::IDENTITY);
        top.add_instance("b", leaf(), Transform::translate(Point::new(500, 0)));
        assert_eq!(top.flat_shape_count(), 3);
    }

    #[test]
    fn flatten_into_agrees_with_flatten() {
        let mut mid = Cell::new("mid");
        mid.add_instance("l", leaf(), Transform::translate(Point::new(10, 0)));
        mid.add_shape(Layer::Poly, Rect::new(0, 0, 5, 5));
        let mut top = Cell::new("top");
        top.add_instance(
            "m",
            Arc::new(mid),
            Transform::new(Orientation::R90, Point::new(7, -3)),
        );
        top.add_instance("l2", leaf(), Transform::translate(Point::new(300, 0)));

        let mut buf = vec![(Layer::Metal2, Rect::new(9, 9, 10, 10))];
        top.flatten_into(&mut buf);
        // Appends after existing contents; the appended tail equals
        // flatten().
        assert_eq!(buf[0], (Layer::Metal2, Rect::new(9, 9, 10, 10)));
        assert_eq!(&buf[1..], top.flatten().as_slice());
    }

    #[test]
    fn port_lookup() {
        let l = leaf();
        assert!(l.port("p").is_some());
        assert!(l.port("q").is_none());
    }

    #[test]
    fn empty_cell_has_zero_bbox() {
        let c = Cell::new("empty");
        assert_eq!(c.bbox(), Rect::EMPTY);
    }

    #[test]
    fn geometry_extent_ignores_outline_and_ports() {
        let mut c = Cell::new("c");
        c.add_shape(Layer::Metal1, Rect::new(10, 10, 50, 50));
        c.set_outline(Rect::new(0, 0, 100, 100));
        assert_eq!(c.bbox(), Rect::new(0, 0, 100, 100));
        assert_eq!(c.geometry_extent(), Rect::new(10, 10, 50, 50));
        // An empty subtree does not drag the extent toward the origin.
        let mut top = Cell::new("top");
        top.add_shape(Layer::Poly, Rect::new(400, 400, 500, 500));
        top.add_instance("e", Arc::new(Cell::new("empty")), Transform::IDENTITY);
        assert_eq!(top.geometry_extent(), Rect::new(400, 400, 500, 500));
    }

    #[test]
    fn windowed_flatten_selects_whole_shapes_in_order() {
        let mut row = Cell::new("row");
        for k in 0..8 {
            row.add_instance(
                format!("i{k}"),
                leaf(),
                Transform::translate(Point::new(k * 100, 0)),
            );
        }
        let top = Arc::new(row);
        // Window over the boundary between instances 2 and 3: both
        // shapes are emitted whole, everything else is pruned.
        let window = Rect::new(290, 0, 310, 100);
        let mut out = Vec::new();
        top.flatten_window_into(Transform::IDENTITY, window, &mut out);
        assert_eq!(
            out,
            vec![
                (Layer::Metal1, Rect::new(200, 0, 300, 100)),
                (Layer::Metal1, Rect::new(300, 0, 400, 100)),
            ]
        );
        // The windowed output is always a subsequence of the full
        // flatten, under any window.
        let flat = top.flatten();
        for w in [Rect::new(-50, -50, 120, 120), Rect::new(750, 0, 900, 10)] {
            let mut sel = Vec::new();
            top.flatten_window_into(Transform::IDENTITY, w, &mut sel);
            let mut it = flat.iter();
            assert!(sel.iter().all(|s| it.any(|f| f == s)), "not a subsequence");
        }
    }

    /// A random hierarchy: `levels` deep, each level's cells instancing
    /// random earlier cells (shared `Arc`s) under random orientations,
    /// with some cells left empty or holding only empty subtrees.
    fn random_hierarchy(seed: u64, levels: usize) -> Vec<Arc<Cell>> {
        use bisram_rng::rngs::StdRng;
        use bisram_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<Arc<Cell>> = vec![Arc::new(Cell::new("empty"))];
        for level in 0..levels {
            for k in 0..4 {
                let mut c = Cell::new(format!("c{level}_{k}"));
                for _ in 0..rng.gen_range(0..3usize) {
                    let (x, y) = (rng.gen_range(-500i64..500), rng.gen_range(-500i64..500));
                    let (w, h) = (rng.gen_range(0i64..90), rng.gen_range(0i64..90));
                    c.add_shape(Layer::Metal1, Rect::new(x, y, x + w, y + h));
                }
                for i in 0..rng.gen_range(0..4usize) {
                    let master = Arc::clone(&pool[rng.gen_range(0..pool.len())]);
                    let o = Orientation::ALL[rng.gen_range(0..8usize)];
                    let at = Point::new(rng.gen_range(-900i64..900), rng.gen_range(-900i64..900));
                    c.add_instance(format!("i{i}"), master, Transform::new(o, at));
                }
                pool.push(Arc::new(c));
            }
        }
        pool
    }

    #[test]
    fn memoized_summaries_match_the_flattened_geometry() {
        for seed in 0..24u64 {
            for cell in random_hierarchy(0xce11_0000 + seed, 4) {
                let flat = cell.flatten();
                assert_eq!(cell.flat_shape_count(), flat.len(), "seed {seed} {}", cell.name());
                let bound = Rect::bounding(flat.iter().map(|&(_, r)| r)).unwrap_or(Rect::EMPTY);
                assert_eq!(cell.geometry_extent(), bound, "seed {seed} {}", cell.name());
                // A second read is served from the memo and agrees.
                assert_eq!(cell.geometry_extent(), bound);
            }
        }
    }

    #[test]
    fn mutations_after_a_read_update_the_summaries() {
        let summary = |c: &Cell| (c.geometry_extent(), c.flat_shape_count());
        let mut c = Cell::new("c");
        c.add_shape(Layer::Metal1, Rect::new(0, 0, 10, 10));
        assert_eq!(summary(&c), (Rect::new(0, 0, 10, 10), 1));

        c.add_shape(Layer::Poly, Rect::new(-5, 0, 0, 3));
        assert_eq!(summary(&c), (Rect::new(-5, 0, 10, 10), 2));

        c.add_instance("l", leaf(), Transform::translate(Point::new(100, 0)));
        assert_eq!(summary(&c), (Rect::new(-5, 0, 200, 100), 3));

        // A clone carries a correct memo and then evolves on its own.
        let mut d = c.clone();
        assert_eq!(summary(&d), summary(&c));
        d.add_shape(Layer::Metal2, Rect::new(0, 0, 1, 500));
        assert_eq!(summary(&d), (Rect::new(-5, 0, 200, 500), 4));
        assert_eq!(summary(&c), (Rect::new(-5, 0, 200, 100), 3));
        assert_eq!(d.flatten().len(), 4);
    }
}
