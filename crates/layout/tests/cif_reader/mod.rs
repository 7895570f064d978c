//! A small CIF reader for the export tests. It executes the `DS`/`DF`,
//! `L`, `B` and `C` commands, with the `T`, `M X`, `M Y` and `R a b`
//! transformations, and flattens the file back to DBU rectangles, so
//! that a written CIF can be compared with `Cell::flatten()`.
//!
//! It is written from the CIF definitions, not from the writer:
//! transformations compose as integer matrices, every symbol's scale is
//! honoured, and any coordinate that does not land on the 1 nm DBU grid
//! fails the read instead of being rounded.

use bisram_geom::Rect;
use bisram_tech::Layer;
use std::collections::HashMap;

/// DBU (nanometres) per CIF centimicron.
const DBU_PER_CENTIMICRON: i64 = 10;

enum Step {
    Translate(i64, i64),
    MirrorX,
    MirrorY,
    Rotate(i64, i64),
}

enum Item {
    Box {
        layer: String,
        w: i64,
        h: i64,
        cx: i64,
        cy: i64,
    },
    Call {
        symbol: u64,
        steps: Vec<Step>,
    },
}

/// A symbol body at scale `a / b` centimicrons per unit.
struct Symbol {
    a: i64,
    b: i64,
    items: Vec<Item>,
}

impl Symbol {
    /// `num / den` units in DBU, which must be exact.
    fn dbu(&self, num: i64, den: i64) -> i64 {
        let (n, d) = (num * self.a * DBU_PER_CENTIMICRON, den * self.b);
        assert_eq!(
            n % d,
            0,
            "{num}/{den} units at scale {}/{} is off the DBU grid",
            self.a,
            self.b
        );
        n / d
    }
}

/// `p ↦ m·p + t` on DBU coordinates.
#[derive(Clone, Copy)]
struct Affine {
    m: [i64; 4],
    t: (i64, i64),
}

impl Affine {
    const IDENTITY: Affine = Affine {
        m: [1, 0, 0, 1],
        t: (0, 0),
    };

    fn apply(&self, (x, y): (i64, i64)) -> (i64, i64) {
        let [a, b, c, d] = self.m;
        (a * x + b * y + self.t.0, c * x + d * y + self.t.1)
    }

    /// `self` first, then `after`.
    fn then(self, after: Affine) -> Affine {
        let [a, b, c, d] = after.m;
        let [e, f, g, h] = self.m;
        Affine {
            m: [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h],
            t: after.apply(self.t),
        }
    }

    fn linear(m: [i64; 4]) -> Affine {
        Affine { m, t: (0, 0) }
    }
}

fn int(tok: Option<&str>, cmd: &str) -> i64 {
    tok.and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("bad number in CIF command {cmd:?}"))
}

fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut depth = 0usize;
    for c in text.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.checked_sub(1).expect("unbalanced CIF comment"),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unterminated CIF comment");
    out
}

fn parse_steps<'a>(toks: &mut impl Iterator<Item = &'a str>, cmd: &str) -> Vec<Step> {
    let mut steps = Vec::new();
    while let Some(t) = toks.next() {
        steps.push(match t {
            "T" => Step::Translate(int(toks.next(), cmd), int(toks.next(), cmd)),
            "M" => match toks.next() {
                Some("X") => Step::MirrorX,
                Some("Y") => Step::MirrorY,
                other => panic!("bad mirror {other:?} in {cmd:?}"),
            },
            "R" => Step::Rotate(int(toks.next(), cmd), int(toks.next(), cmd)),
            other => panic!("bad transformation {other:?} in {cmd:?}"),
        });
    }
    steps
}

/// Reads `cif` and returns every box of the flattened top level as
/// `(mask name, rect in DBU)`, in the order [`expected`] uses.
///
/// # Panics
///
/// On anything malformed: an unknown command, a call of a symbol not
/// defined before it, a redefinition, a missing `E`, or a coordinate
/// off the DBU grid.
pub fn flatten(cif: &str) -> Vec<(String, Rect)> {
    let text = strip_comments(cif);
    let mut symbols: HashMap<u64, Symbol> = HashMap::new();
    let mut top = Symbol {
        a: 1,
        b: 1,
        items: Vec::new(),
    };
    let mut open: Option<(u64, Symbol)> = None;
    let mut layer: Option<String> = None;
    let mut ended = false;
    for cmd in text.split(';') {
        let cmd = cmd.trim();
        if cmd.is_empty() {
            continue;
        }
        assert!(!ended, "commands after E: {cmd:?}");
        let mut toks = cmd.split_whitespace();
        let head = toks.next().expect("non-empty command");
        match head {
            "DS" => {
                assert!(open.is_none(), "nested DS: {cmd:?}");
                let n = int(toks.next(), cmd) as u64;
                let a = toks.next().map_or(1, |t| int(Some(t), cmd));
                let b = toks.next().map_or(1, |t| int(Some(t), cmd));
                assert!(a > 0 && b > 0, "bad scale in {cmd:?}");
                assert!(!symbols.contains_key(&n), "symbol {n} defined twice");
                open = Some((
                    n,
                    Symbol {
                        a,
                        b,
                        items: Vec::new(),
                    },
                ));
                layer = None;
            }
            "DF" => {
                let (n, s) = open.take().expect("DF without DS");
                symbols.insert(n, s);
                layer = None;
            }
            "L" => layer = Some(toks.next().expect("layer name").to_owned()),
            "B" => {
                let item = Item::Box {
                    layer: layer.clone().expect("box before any L"),
                    w: int(toks.next(), cmd),
                    h: int(toks.next(), cmd),
                    cx: int(toks.next(), cmd),
                    cy: int(toks.next(), cmd),
                };
                assert!(toks.next().is_none(), "rotated boxes are not used: {cmd:?}");
                open.as_mut().map_or(&mut top, |(_, s)| s).items.push(item);
            }
            "C" => {
                let symbol = int(toks.next(), cmd) as u64;
                assert!(
                    symbols.contains_key(&symbol),
                    "call of symbol {symbol} before its definition"
                );
                let steps = parse_steps(&mut toks, cmd);
                open.as_mut()
                    .map_or(&mut top, |(_, s)| s)
                    .items
                    .push(Item::Call { symbol, steps });
            }
            "9" => {}
            "E" => {
                assert!(open.is_none(), "E inside a symbol definition");
                ended = true;
            }
            other => panic!("unsupported CIF command {other:?}"),
        }
    }
    assert!(ended, "CIF file lacks its E");
    let mut out = Vec::new();
    emit(&top, Affine::IDENTITY, &symbols, &mut out);
    canonical(out)
}

fn emit(s: &Symbol, at: Affine, symbols: &HashMap<u64, Symbol>, out: &mut Vec<(String, Rect)>) {
    for item in &s.items {
        match item {
            Item::Box {
                layer,
                w,
                h,
                cx,
                cy,
            } => {
                let (l, r) = (s.dbu(2 * cx - w, 2), s.dbu(2 * cx + w, 2));
                let (b, t) = (s.dbu(2 * cy - h, 2), s.dbu(2 * cy + h, 2));
                let p = at.apply((l, b));
                let q = at.apply((r, t));
                out.push((layer.clone(), Rect::new(p.0, p.1, q.0, q.1)));
            }
            Item::Call { symbol, steps } => {
                let mut call = Affine::IDENTITY;
                for step in steps {
                    let next = match *step {
                        Step::Translate(x, y) => Affine {
                            m: [1, 0, 0, 1],
                            t: (s.dbu(x, 1), s.dbu(y, 1)),
                        },
                        Step::MirrorX => Affine::linear([-1, 0, 0, 1]),
                        Step::MirrorY => Affine::linear([1, 0, 0, -1]),
                        Step::Rotate(a, b) => {
                            assert!(
                                (a == 0) != (b == 0),
                                "only Manhattan rotations are used: R {a} {b}"
                            );
                            let (cos, sin) = (a.signum(), b.signum());
                            // Maps the +x axis onto the direction (a, b).
                            Affine::linear([cos, -sin, sin, cos])
                        }
                    };
                    call = call.then(next);
                }
                emit(&symbols[symbol], call.then(at), symbols, out);
            }
        }
    }
}

/// What [`flatten`] must return for a cell whose `Cell::flatten()` is
/// `flat`: the same shapes under their mask names, in the same order.
pub fn expected(flat: &[(Layer, Rect)]) -> Vec<(String, Rect)> {
    canonical(flat.iter().map(|&(l, r)| (l.mask_name().to_owned(), r)))
}

/// Sorts `(mask name, rect)` pairs into one order, so that equal
/// multisets compare equal.
fn canonical(shapes: impl IntoIterator<Item = (String, Rect)>) -> Vec<(String, Rect)> {
    let mut v: Vec<_> = shapes.into_iter().collect();
    v.sort_by(|(la, a), (lb, b)| {
        (la, a.left(), a.bottom(), a.right(), a.top()).cmp(&(
            lb,
            b.left(),
            b.bottom(),
            b.right(),
            b.top(),
        ))
    });
    v
}
