//! Polygon content identity: the vertex stream and the FNV-1a content
//! hash that key the engine's covering memo.
//!
//! A covering is a pure function of (polygon, grid, level), so a memo
//! keyed by polygon *content* never needs data-epoch invalidation. The
//! memo's contract is **bit-identity** — a memoized covering must be the
//! exact `CellUnion` a fresh `cover_polygon` call would produce — so the
//! key is the polygon as sent: each ring's length, then its vertices'
//! coordinate bits in the order they arrived. Building it is one linear
//! pass. Two polygons share a stream iff they are bitwise equal, ring by
//! ring and vertex by vertex; a rotated or reversed ring, a swapped hole
//! or `-0.0` for `0.0` is another key (the first probe of it computes).
//!
//! The 64-bit hash is only a lookup key: the memo stores the full stream
//! ([`normalized_vertex_bits`]) alongside each entry and compares it on
//! every hit, so a hash collision degrades to a miss, not to a wrong
//! covering.

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

fn push_ring(out: &mut Vec<u64>, ring: &[Point]) {
    out.push(ring.len() as u64);
    for p in ring {
        out.push(p.x.to_bits());
        out.push(p.y.to_bits());
    }
}

/// The vertex stream of `polygon` as sent: the exterior ring, then the
/// hole count, then each hole ring in declaration order, every ring as
/// its length followed by its vertices' `(x, y)` bits in order. The
/// length markers keep structurally different polygons from aliasing.
pub fn normalized_vertex_bits(polygon: &Polygon) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 * polygon.vertex_count() + polygon.holes().len() + 2);
    push_ring(&mut out, polygon.exterior());
    out.push(polygon.holes().len() as u64);
    for hole in polygon.holes() {
        push_ring(&mut out, hole);
    }
    out
}

/// The covering-memo key for a vertex stream
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

    #[test]
    fn the_stream_is_each_ring_as_sent() {
        let pts = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (1.0, 5.0)];
        let base = Polygon::new(ring(&pts));
        let mut want = vec![pts.len() as u64];
        for (x, y) in pts {
            want.extend([f64::to_bits(x), f64::to_bits(y)]);
        }
        want.push(0);
        assert_eq!(normalized_vertex_bits(&base), want);
        // A rotation is the same region sent in another order: another key.
        let mut rotated = ring(&pts);
        rotated.rotate_left(1);
        let rotated = Polygon::new(rotated);
        assert_ne!(
            normalized_vertex_bits(&base),
            normalized_vertex_bits(&rotated)
        );
        assert_ne!(key(&base, 12), key(&rotated, 12));
    }

    #[test]
    fn reversal_changes_the_stream() {
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
        // Hole order is part of the identity.
        let outer = ring(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]);
        let h1 = ring(&[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]);
        let h2 = ring(&[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0)]);
        let a = Polygon::with_holes(outer.clone(), vec![h1.clone(), h2.clone()]);
        let b = Polygon::with_holes(outer, vec![h2, h1]);
        assert_ne!(normalized_vertex_bits(&a), normalized_vertex_bits(&b));
    }
}
