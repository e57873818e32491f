//! Cursor-resumed galloping searches over sorted `u64` key columns.
//!
//! Covering cells and every key column they are looked up in (each of the
//! block's layers and of the cache's) are sorted the same way, so a
//! query's searches resume where the previous one of that column ended
//! (§3.5) and the sought key is usually a few slots
//! ahead of the cursor. A bisection of the whole remaining column costs
//! O(log column) however near the answer is; galloping — check the
//! successor, then probe at doubling distances, then bisect the one
//! bracket that holds the answer — costs O(log gap), so a covering cell's
//! lookup is bounded by how far the cursor moves, not by how many keys
//! the block holds.

/// First index `i ≥ from` with `keys[i] >= key`, or `keys.len()` —
/// `from + keys[from..].partition_point(|&k| k < key)` for an ascending
/// `keys`. Panics if `from > keys.len()`, as that slicing does.
#[inline]
pub(crate) fn lower_bound_from(keys: &[u64], key: u64, from: usize) -> usize {
    gallop(keys, from, |k| k < key)
}

/// First index `i ≥ from` with `keys[i] > key`, or `keys.len()` —
/// `from + keys[from..].partition_point(|&k| k <= key)`.
#[inline]
pub(crate) fn upper_bound_from(keys: &[u64], key: u64, from: usize) -> usize {
    gallop(keys, from, |k| k <= key)
}

/// `from + keys[from..].partition_point(before)` for a `before` that is
/// true on a prefix of `keys[from..]`.
#[inline]
fn gallop(keys: &[u64], from: usize, before: impl Fn(u64) -> bool) -> usize {
    let tail = &keys[from..];
    // Successor check: the cursor usually already rests on the answer.
    if !tail.first().is_some_and(|&k| before(k)) {
        return from;
    }
    // `tail[lo]` is before the answer; probe at doubling distances until
    // a probe is not (or the column ends), then bisect that bracket.
    let mut lo = 0usize;
    let mut step = 1usize;
    let hi = loop {
        match tail.get(lo + step) {
            Some(&k) if before(k) => {
                lo += step;
                step *= 2;
            }
            Some(_) => break lo + step,
            None => break tail.len(),
        }
    };
    from + lo + 1 + tail[lo + 1..hi].partition_point(|&k| before(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both bounds against `partition_point`, for every `from` and a key
    /// set that brackets and hits every element.
    fn check_all(keys: &[u64]) {
        let mut probes: Vec<u64> = vec![0, u64::MAX];
        for &k in keys {
            probes.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
        }
        for from in 0..=keys.len() {
            for &key in &probes {
                assert_eq!(
                    lower_bound_from(keys, key, from),
                    from + keys[from..].partition_point(|&k| k < key),
                    "lower_bound_from({keys:?}, {key}, {from})"
                );
                assert_eq!(
                    upper_bound_from(keys, key, from),
                    from + keys[from..].partition_point(|&k| k <= key),
                    "upper_bound_from({keys:?}, {key}, {from})"
                );
            }
        }
    }

    #[test]
    fn edge_cases_match_partition_point() {
        check_all(&[]);
        check_all(&[5]);
        check_all(&[0, u64::MAX]);
        check_all(&[7, 7, 7, 7, 7, 7, 7, 7, 7]);
        check_all(&[1, 1, 2, 2, 2, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 12]);
        // Long enough for several doublings before the bracket closes.
        let long: Vec<u64> = (0..300).map(|i| 3 * i + 1).collect();
        check_all(&long);
    }

    proptest! {
        #[test]
        fn galloping_bounds_match_partition_point(
            mut keys in prop::collection::vec(0u64..64, 0..90),
        ) {
            // A small domain gives runs of equal keys.
            keys.sort_unstable();
            check_all(&keys);
        }
    }
}
