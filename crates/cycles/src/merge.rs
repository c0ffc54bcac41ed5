//! Merging per-shard cycle views of the same rule.
//!
//! A sharded deployment mines each item-space partition on its own
//! worker; the router composes the partial views at query time. When the
//! same rule surfaces on more than one shard (item-space purity is a
//! client contract, not an invariant the router can enforce), the
//! merged rule must carry one combined *minimal* cycle list: the union
//! of the per-shard lists with multiples of other retained cycles
//! dropped, sorted by `(length, offset)` — exactly the reporting form a
//! single node produces.

use crate::Cycle;

/// Merges several minimal-cycle lists into one minimal, sorted,
/// duplicate-free list.
///
/// The result is the union of the inputs with exact duplicates removed
/// and any cycle that is a multiple of a *different* retained cycle
/// dropped — re-establishing minimality, which a plain union does not
/// preserve (one shard's minimal cycle may be a multiple of another
/// shard's).
///
/// ```
/// use car_cycles::{merge_minimal_cycle_lists, Cycle};
///
/// let a = vec![Cycle::make(4, 1)]; // a multiple of (2,1)
/// let b = vec![Cycle::make(2, 1), Cycle::make(3, 0)];
/// let merged = merge_minimal_cycle_lists([&a[..], &b[..]]);
/// assert_eq!(merged, vec![Cycle::make(2, 1), Cycle::make(3, 0)]);
/// ```
pub fn merge_minimal_cycle_lists<'a, I>(lists: I) -> Vec<Cycle>
where
    I: IntoIterator<Item = &'a [Cycle]>,
{
    let mut all: Vec<Cycle> = lists.into_iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    // Distinct cycles cannot be mutual multiples (the lengths would have
    // to divide each other, forcing equality), so this filter never
    // removes an entire equivalence class.
    all.iter()
        .copied()
        .filter(|&c| !all.iter().any(|&other| other != c && c.is_multiple_of(other)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_merge_to_empty() {
        assert_eq!(merge_minimal_cycle_lists([]), Vec::new());
        assert_eq!(merge_minimal_cycle_lists([&[][..], &[][..]]), Vec::new());
    }

    #[test]
    fn disjoint_lists_concatenate_sorted() {
        let a = [Cycle::make(3, 2)];
        let b = [Cycle::make(2, 0)];
        assert_eq!(
            merge_minimal_cycle_lists([&a[..], &b[..]]),
            vec![Cycle::make(2, 0), Cycle::make(3, 2)]
        );
    }

    #[test]
    fn exact_duplicates_collapse() {
        let a = [Cycle::make(2, 1)];
        assert_eq!(
            merge_minimal_cycle_lists([&a[..], &a[..], &a[..]]),
            vec![Cycle::make(2, 1)]
        );
    }

    #[test]
    fn multiples_across_lists_are_dropped() {
        // (6,5) and (4,1) are both multiples of (2,1) from another list.
        let a = [Cycle::make(6, 5), Cycle::make(4, 1)];
        let b = [Cycle::make(2, 1)];
        assert_eq!(merge_minimal_cycle_lists([&a[..], &b[..]]), vec![Cycle::make(2, 1)]);
        // Order of the lists is irrelevant.
        assert_eq!(merge_minimal_cycle_lists([&b[..], &a[..]]), vec![Cycle::make(2, 1)]);
    }

    #[test]
    fn unrelated_cycles_survive_alongside_a_base() {
        let a = [Cycle::make(2, 0), Cycle::make(3, 1)];
        let b = [Cycle::make(4, 0), Cycle::make(5, 2)];
        assert_eq!(
            merge_minimal_cycle_lists([&a[..], &b[..]]),
            vec![Cycle::make(2, 0), Cycle::make(3, 1), Cycle::make(5, 2)]
        );
    }
}
