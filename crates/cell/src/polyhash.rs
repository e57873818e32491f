//! Polygon content identity: the canonical vertex form and the FNV-1a
//! content hash that key the engine's covering memo.
//!
//! A covering is a pure function of (polygon, grid, level), so a memo
//! keyed by polygon *content* never needs data-epoch invalidation. The
//! memo's contract is **bit-identity** — a memoized covering must be the
//! exact `CellUnion` a fresh `cover_polygon` call would produce — which
//! dictates how much normalization is sound:
//!
//! * **Ring rotation is normalized.** The coverer folds per-edge and
//!   per-ring predicates with order-independent boolean operations (OR
//!   over edge/rect intersection tests, XOR parity for point
//!   containment), and rotating a ring permutes the *same* ordered edge
//!   set, so every per-edge float computation is unchanged and the
//!   covering is bit-identical. Each ring is rotated to start at its
//!   lexicographically smallest vertex (by coordinate bit pattern).
//! * **Ring reversal is NOT normalized.** A reversed edge `(b, a)`
//!   evaluates the same predicates with operands swapped, which IEEE-754
//!   rounding does not guarantee to be bit-identical (e.g. the crossing
//!   abscissa `a.x + (b.x - a.x) * t` vs `b.x + (a.x - b.x) * t'`), so
//!   two windings of the same region conservatively get distinct keys.
//! * NaN coordinate payloads are canonicalized by bit pattern, i.e. not
//!   at all: two polygons are "the same" iff their coordinates are
//!   bitwise equal after rotation. `-0.0` and `0.0` hash differently for
//!   the same reason reversal is excluded — they are distinct operands.
//!
//! The 64-bit hash is only a shard/lookup key: the memo stores the full
//! canonical stream ([`normalized_vertex_bits`]) alongside each entry and
//! compares it on every hit, so a hash collision degrades to a miss, not
//! to a wrong covering.

use gb_geom::{Point, Polygon};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of u64 words, folded byte-by-byte in
/// little-endian order (bit-compatible with a byte-level FNV-1a over the
/// equivalent buffer).
fn fnv1a64_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

#[inline]
fn vertex_key(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// Index of the lexicographically smallest rotation of `ring`, comparing
/// vertices by `(x.to_bits(), y.to_bits())`. O(n) typical, O(n²) worst
/// case (rings of near-identical vertices) — fine for query polygons.
fn min_rotation_start(ring: &[Point]) -> usize {
    let n = ring.len();
    let mut best = 0;
    for cand in 1..n {
        for k in 0..n {
            let a = vertex_key(ring[(cand + k) % n]);
            let b = vertex_key(ring[(best + k) % n]);
            if a < b {
                best = cand;
                break;
            }
            if a > b {
                break;
            }
        }
    }
    best
}

fn push_ring(out: &mut Vec<u64>, ring: &[Point]) {
    out.push(ring.len() as u64);
    let n = ring.len();
    if n == 0 {
        return;
    }
    let start = min_rotation_start(ring);
    for k in 0..n {
        let p = ring[(start + k) % n];
        out.push(p.x.to_bits());
        out.push(p.y.to_bits());
    }
}

/// The canonical vertex stream of `polygon`: the exterior ring rotated to
/// its smallest starting vertex, then the hole count, then each hole ring
/// (in declaration order) likewise rotated. Ring lengths are interleaved
/// as markers so structurally different polygons never alias.
pub fn normalized_vertex_bits(polygon: &Polygon) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 * polygon.vertex_count() + polygon.holes().len() + 2);
    push_ring(&mut out, polygon.exterior());
    out.push(polygon.holes().len() as u64);
    for hole in polygon.holes() {
        push_ring(&mut out, hole);
    }
    out
}

/// The covering-memo key for a canonical vertex stream
/// ([`normalized_vertex_bits`]) covered at `max_level`: FNV-1a over the
/// level followed by the stream.
pub fn cover_key_from_bits(bits: &[u64], max_level: u8) -> u64 {
    fnv1a64_words(std::iter::once(u64::from(max_level)).chain(bits.iter().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(pts: &[(f64, f64)]) -> Vec<Point> {
        pts.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn key(polygon: &Polygon, max_level: u8) -> u64 {
        cover_key_from_bits(&normalized_vertex_bits(polygon), max_level)
    }

    fn rotate<T: Clone>(v: &[T], by: usize) -> Vec<T> {
        let mut out = v.to_vec();
        out.rotate_left(by % v.len().max(1));
        out
    }

    #[test]
    fn rotation_invariant_key() {
        let pts = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (1.0, 5.0)];
        let base = Polygon::new(ring(&pts));
        let k0 = key(&base, 12);
        for by in 1..pts.len() {
            let rotated = Polygon::new(rotate(&ring(&pts), by));
            assert_eq!(
                normalized_vertex_bits(&base),
                normalized_vertex_bits(&rotated)
            );
            assert_eq!(k0, key(&rotated, 12));
        }
    }

    #[test]
    fn holes_rotate_independently_but_keep_order() {
        let outer = ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]);
        let h1 = ring(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]);
        let h2 = ring(&[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0)]);
        let a = Polygon::with_holes(outer.clone(), vec![h1.clone(), h2.clone()]);
        let b = Polygon::with_holes(rotate(&outer, 2), vec![rotate(&h1, 1), rotate(&h2, 2)]);
        assert_eq!(normalized_vertex_bits(&a), normalized_vertex_bits(&b));
        // Hole order is part of the identity (swapping holes is safe for
        // the coverer but we stay conservative).
        let c = Polygon::with_holes(outer, vec![h2, h1]);
        assert_ne!(normalized_vertex_bits(&a), normalized_vertex_bits(&c));
    }

    #[test]
    fn reversal_is_not_normalized() {
        let pts = ring(&[(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (1.0, 5.0)]);
        let fwd = Polygon::new(pts.clone());
        let rev = Polygon::new(pts.into_iter().rev().collect());
        assert_ne!(normalized_vertex_bits(&fwd), normalized_vertex_bits(&rev));
    }

    #[test]
    fn level_and_shape_change_the_key() {
        let a = Polygon::rectangle(gb_geom::Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        let b = Polygon::rectangle(gb_geom::Rect::from_bounds(0.0, 0.0, 1.0, 2.0));
        assert_ne!(key(&a, 10), key(&a, 11));
        assert_ne!(key(&a, 10), key(&b, 10));
    }

    #[test]
    fn rotation_preserves_the_covering_bit_for_bit() {
        // The soundness claim behind rotation normalization: the coverer
        // produces the identical CellUnion for any rotation of a ring.
        let grid = crate::Grid::hilbert(gb_geom::Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        let pts = [
            (0.11, 0.07),
            (0.83, 0.12),
            (0.91, 0.64),
            (0.42, 0.88),
            (0.08, 0.51),
        ];
        let base = Polygon::new(ring(&pts));
        let reference = crate::cover_polygon(&grid, &base, 9);
        for by in 1..pts.len() {
            let rotated = Polygon::new(rotate(&ring(&pts), by));
            let covering = crate::cover_polygon(&grid, &rotated, 9);
            assert_eq!(reference.cells(), covering.cells());
        }
    }

    #[test]
    fn structure_markers_prevent_ring_aliasing() {
        // Same vertex multiset, different ring structure.
        let outer = ring(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 10.0),
            (1.0, 1.0),
            (2.0, 1.0),
            (2.0, 2.0),
        ]);
        let flat = Polygon::new(outer);
        let holed = Polygon::with_holes(
            ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)]),
            vec![ring(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])],
        );
        assert_ne!(
            normalized_vertex_bits(&flat),
            normalized_vertex_bits(&holed)
        );
    }
}
