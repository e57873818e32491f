//! The Hilbert curve that enumerates the quadtree grid.
//!
//! §3.1: "all cells at a given level can be enumerated using an
//! order-preserving space-filling curve". The paper (via S2) uses the
//! Hilbert curve, and so does every key here. The curve is
//! *hierarchical*: the first `2ℓ` bits of a leaf's index identify the
//! enclosing level-`ℓ` cell, which is the property all the prefix
//! bit-arithmetic in [`crate::id`] relies on.

/// Hilbert index of grid point `(x, y)` (each `< 2^order`) at the given
/// order: a walk over a 4 KiB key table, four levels per lookup.
///
/// The coordinates are read as whole nibbles, i.e. padded with leading
/// zero bits up to a multiple of four levels. A padded level is quadrant
/// `(0, 0)` of the canonical frame: index digit 0, orientation swapped —
/// so the padded digits vanish from the index, and the walk starts at the
/// swap when the pad is odd (when the order is) and at the identity
/// otherwise.
#[inline]
pub fn xy_to_d(order: u8, x: u32, y: u32) -> u64 {
    debug_assert!((1..=31).contains(&order));
    debug_assert!(u64::from(x) < (1u64 << order) && u64::from(y) < (1u64 << order));
    let start = if order % 2 == 1 {
        SignedPerm::SWAP
    } else {
        SignedPerm::IDENTITY
    };
    let mut state = usize::from(start.index());
    let mut d: u64 = 0;
    for nibble in (0..order.div_ceil(4)).rev() {
        let shift = 4 * u32::from(nibble);
        let xy = ((x >> shift) & 15) << 4 | ((y >> shift) & 15);
        let entry = KEYS[state << 8 | xy as usize];
        d = d << 8 | u64::from(entry >> 8);
        state = usize::from(entry & 7);
    }
    d
}

/// The bit-at-a-time conversion the key table is checked against.
///
/// Classic iterative algorithm; the quadrant flip is a full-width XOR with
/// `2^order - 1`, which flips every lower bit and therefore keeps all
/// subsequent (lower) bit reads consistent.
#[cfg(test)]
fn hilbert_xy_to_d_bitwise(order: u8, mut x: u32, mut y: u32) -> u64 {
    let n_mask: u32 = if order == 32 {
        u32::MAX
    } else {
        (1u32 << order) - 1
    };
    let mut d: u64 = 0;
    let mut s: u32 = 1 << (order - 1);
    while s > 0 {
        let rx = u32::from(x & s > 0);
        let ry = u32::from(y & s > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // Rotate the quadrant so the sub-curve is oriented canonically.
        if ry == 0 {
            if rx == 1 {
                x = !x & n_mask;
                y = !y & n_mask;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s >>= 1;
    }
    d
}

/// Grid point of Hilbert index `d` at the given order: the inverse of
/// [`xy_to_d`].
pub fn d_to_xy(order: u8, d: u64) -> (u32, u32) {
    debug_assert!((1..=31).contains(&order));
    debug_assert!(d < (1u64 << (2 * order as u64)));
    let mut x: u32 = 0;
    let mut y: u32 = 0;
    let mut t = d;
    let mut s: u32 = 1;
    while s < (1u32 << order) {
        let rx = (1 & (t >> 1)) as u32;
        let ry = (t ^ u64::from(rx)) as u32 & 1;
        // Rotate within the current sub-square of side `s`; x and y only
        // hold bits below `s` here so the flip cannot underflow.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t >>= 2;
        s <<= 1;
    }
    (x, y)
}

/// The 2-bit quadrant pair `(x_bit, y_bit)` for curve index `q` in the
/// canonical (untransformed) Hilbert frame: index 0 → (0,0), 1 → (0,1),
/// 2 → (1,1), 3 → (1,0). (Inverse of `q = (3·rx) ^ ry`.)
const HILBERT_INV: [(u8, u8); 4] = [(0, 0), (0, 1), (1, 1), (1, 0)];

/// A signed coordinate permutation: optionally swap x/y, then complement
/// either axis. The four orientations of the 2-D Hilbert curve live here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SignedPerm {
    swap: bool,
    cx: bool,
    cy: bool,
}

impl SignedPerm {
    const IDENTITY: SignedPerm = SignedPerm {
        swap: false,
        cx: false,
        cy: false,
    };
    /// `(x, y) → (y, x)` — applied after descending into ry == 0, rx == 0.
    const SWAP: SignedPerm = SignedPerm {
        swap: true,
        cx: false,
        cy: false,
    };
    /// `(x, y) → (!y, !x)` — applied after descending into ry == 0, rx == 1.
    const NEG_SWAP: SignedPerm = SignedPerm {
        swap: true,
        cx: true,
        cy: true,
    };

    /// The permutation numbered `index` (0..8), and back.
    const fn from_index(index: u8) -> SignedPerm {
        SignedPerm {
            swap: index & 1 != 0,
            cx: index & 2 != 0,
            cy: index & 4 != 0,
        }
    }

    const fn index(self) -> u8 {
        self.swap as u8 | (self.cx as u8) << 1 | (self.cy as u8) << 2
    }

    /// Map raw quadrant bits to curve-frame bits (inverse of
    /// [`SignedPerm::apply_inv`]; exercised by the roundtrip tests).
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    fn apply(self, x: u8, y: u8) -> (u8, u8) {
        let (u, v) = if self.swap { (y, x) } else { (x, y) };
        (u ^ self.cx as u8, v ^ self.cy as u8)
    }

    /// Map curve-frame bits back to raw quadrant bits.
    const fn apply_inv(self, rx: u8, ry: u8) -> (u8, u8) {
        let u = rx ^ self.cx as u8;
        let v = ry ^ self.cy as u8;
        if self.swap {
            (v, u)
        } else {
            (u, v)
        }
    }

    /// `self ∘ other` (apply `other` first).
    const fn compose(self, other: SignedPerm) -> SignedPerm {
        // Derive by tracing one basis evaluation; verified by tests against
        // the bitwise Hilbert decode.
        if self.swap {
            SignedPerm {
                swap: !other.swap,
                cx: other.cy ^ self.cx,
                cy: other.cx ^ self.cy,
            }
        } else {
            SignedPerm {
                swap: other.swap,
                cx: other.cx ^ self.cx,
                cy: other.cy ^ self.cy,
            }
        }
    }
}

/// One step down from a cursor state: the quadrant of child `k` and the
/// state to continue with below it.
#[derive(Clone, Copy)]
struct Step {
    quadrant: (u8, u8),
    next: u8,
}

/// `STEPS[state][k]`, with `state` a [`SignedPerm::index`], tabulated
/// from [`SignedPerm`] at compile time so a traversal pays two table reads
/// per child (S2 uses the same lookup-table approach).
const STEPS: [[Step; 4]; 8] = {
    let mut steps = [[Step {
        quadrant: (0, 0),
        next: 0,
    }; 4]; 8];
    let mut k = 0;
    while k < 4 {
        let (rx, ry) = HILBERT_INV[k];
        let rot = match (rx, ry) {
            (0, 0) => SignedPerm::SWAP,
            (1, 0) => SignedPerm::NEG_SWAP,
            _ => SignedPerm::IDENTITY,
        };
        let mut state = 0;
        while state < 8 {
            let perm = SignedPerm::from_index(state);
            steps[state as usize][k] = Step {
                quadrant: perm.apply_inv(rx, ry),
                next: rot.compose(perm).index(),
            };
            state += 1;
        }
        k += 1;
    }
    steps
};

/// `KEYS[state << 8 | x_nibble << 4 | y_nibble]`: four levels of the
/// Hilbert descent in one read — the eight index bits of the 16 × 16
/// sub-grid position in the high byte, the state below it in the low one.
/// Built by walking [`STEPS`] backwards (quadrant → child), so the keys
/// and the coverer's cursor cannot disagree about the curve; S2 converts
/// points to cell ids with the same 4 + 4-bit table.
static KEYS: [u16; 8 << 8] = {
    let mut keys = [0u16; 8 << 8];
    let mut entry = 0;
    while entry < keys.len() {
        let mut state = entry >> 8;
        let mut index = 0u16;
        let mut level = 4;
        while level > 0 {
            level -= 1;
            let quadrant = ((entry >> (4 + level)) as u8 & 1, (entry >> level) as u8 & 1);
            let mut k = 0;
            while STEPS[state][k].quadrant.0 != quadrant.0
                || STEPS[state][k].quadrant.1 != quadrant.1
            {
                k += 1;
            }
            index = index << 2 | k as u16;
            state = STEPS[state][k].next as usize;
        }
        keys[entry] = index << 8 | state as u16;
        entry += 1;
    }
    keys
};

/// Incremental curve-orientation state for top-down traversals.
///
/// Recursing a quadtree while calling [`d_to_xy`] per cell costs
/// O(level) each; carrying a `CurveCursor` instead makes each child's
/// quadrant an O(1) table lookup — the trick behind the region coverer's
/// speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurveCursor {
    state: u8,
}

impl CurveCursor {
    /// Cursor at the root cell.
    pub fn root() -> CurveCursor {
        CurveCursor {
            state: SignedPerm::IDENTITY.index(),
        }
    }

    /// Quadrant `(dx, dy)` (each 0/1) of the child at curve index `k`, and
    /// the cursor for that child.
    #[inline]
    pub fn descend(self, k: u8) -> ((u8, u8), CurveCursor) {
        let step = STEPS[usize::from(self.state)][usize::from(k)];
        (step.quadrant, CurveCursor { state: step.next })
    }

    /// Quadrant `(dx, dy)` (each 0/1) of the child at curve index `k`.
    #[inline]
    pub fn child_quadrant(self, k: u8) -> (u8, u8) {
        self.descend(k).0
    }

    /// Cursor for the child at curve index `k`.
    #[inline]
    pub fn child(self, k: u8) -> CurveCursor {
        self.descend(k).1
    }

    /// Cursor positioned at an arbitrary cell, by walking the child
    /// positions from the root (O(level), once per traversal entry point).
    pub fn at(child_positions: impl Iterator<Item = u8>) -> CurveCursor {
        let mut cur = CurveCursor::root();
        for k in child_positions {
            cur = cur.child(k);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_order1_square() {
        // The order-1 Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
        assert_eq!(xy_to_d(1, 0, 0), 0);
        assert_eq!(xy_to_d(1, 0, 1), 1);
        assert_eq!(xy_to_d(1, 1, 1), 2);
        assert_eq!(xy_to_d(1, 1, 0), 3);
    }

    #[test]
    fn key_table_matches_the_bitwise_oracle() {
        let check = |order: u8, x: u32, y: u32| {
            let want = hilbert_xy_to_d_bitwise(order, x, y);
            assert_eq!(xy_to_d(order, x, y), want, "order {order} ({x},{y})");
        };
        // Every point of the small orders (both pad parities, one nibble
        // and two), then seeded points and the four corners of every
        // order the API takes.
        for order in 1..=6u8 {
            for x in 0..1u32 << order {
                for y in 0..1u32 << order {
                    check(order, x, y);
                }
            }
        }
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        };
        for order in 7..=31u8 {
            let max = (1u32 << order) - 1;
            for (x, y) in [(0, 0), (max, 0), (0, max), (max, max)] {
                check(order, x, y);
            }
            for _ in 0..100_000 {
                check(order, next() & max, next() & max);
            }
        }
    }

    #[test]
    fn hilbert_roundtrip_exhaustive_order4() {
        for d in 0..(1u64 << 8) {
            let (x, y) = d_to_xy(4, d);
            assert_eq!(xy_to_d(4, x, y), d);
        }
    }

    #[test]
    fn hilbert_adjacency_order5() {
        // Consecutive Hilbert indices are 4-neighbours on the grid — the
        // locality property that makes range scans spatial scans.
        for d in 0..(1u64 << 10) - 1 {
            let (x0, y0) = d_to_xy(5, d);
            let (x1, y1) = d_to_xy(5, d + 1);
            let manhattan = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(manhattan, 1, "d={d}: ({x0},{y0}) -> ({x1},{y1})");
        }
    }

    #[test]
    fn hilbert_hierarchical_prefix() {
        // Parent cell index = child index >> 2, with coordinates halved.
        for order in 2..=8u8 {
            for d in (0..(1u64 << (2 * order))).step_by(97) {
                let (x, y) = d_to_xy(order, d);
                let parent_d = xy_to_d(order - 1, x >> 1, y >> 1);
                assert_eq!(parent_d, d >> 2, "order={order} d={d}");
            }
        }
    }

    #[test]
    fn roundtrip_at_full_order() {
        // Order 30 (the grid's maximum) round-trips at the extremes.
        let max = (1u32 << 30) - 1;
        for (x, y) in [(0, 0), (max, 0), (0, max), (max, max), (12345, 999_999)] {
            assert_eq!(d_to_xy(30, xy_to_d(30, x, y)), (x, y), "({x},{y})");
        }
    }

    #[test]
    fn cursor_descent_matches_bitwise_decode() {
        // Descend 8 levels along pseudo-random curve indices and check the
        // accumulated (i, j) equals the direct d_to_xy decode.
        for seed in 0..64u64 {
            let mut cur = CurveCursor::root();
            let mut d: u64 = 0;
            let (mut i, mut j) = (0u32, 0u32);
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15);
            for _ in 0..8 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = ((s >> 33) & 3) as u8;
                let (dx, dy) = cur.child_quadrant(k);
                i = (i << 1) | u32::from(dx);
                j = (j << 1) | u32::from(dy);
                d = (d << 2) | u64::from(k);
                cur = cur.child(k);
            }
            assert_eq!(d_to_xy(8, d), (i, j), "seed {seed}");
        }
    }

    #[test]
    fn cursor_at_matches_root_walk() {
        let cur1 = CurveCursor::at([1u8, 3, 0, 2].into_iter());
        let mut cur2 = CurveCursor::root();
        for k in [1u8, 3, 0, 2] {
            cur2 = cur2.child(k);
        }
        assert_eq!(cur1, cur2);
    }

    #[test]
    fn signed_perm_inverse_roundtrip() {
        for swap in [false, true] {
            for cx in [false, true] {
                for cy in [false, true] {
                    let p = SignedPerm { swap, cx, cy };
                    for x in 0..2u8 {
                        for y in 0..2u8 {
                            let (rx, ry) = p.apply(x, y);
                            assert_eq!(p.apply_inv(rx, ry), (x, y));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn curve_indices_are_dense() {
        // Every index in [0, 4^order) is produced exactly once (order 3).
        let mut seen = [false; 64];
        for x in 0..8u32 {
            for y in 0..8u32 {
                let d = xy_to_d(3, x, y) as usize;
                assert!(!seen[d], "duplicate index {d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
