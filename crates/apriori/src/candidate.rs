//! Level-wise candidate generation (the `apriori-gen` procedure).

use car_itemset::{Item, ItemSet};

/// Generates the candidate `(k+1)`-itemsets from the large `k`-itemsets.
///
/// Implements both steps of `apriori-gen` (Agrawal & Srikant, 1994):
///
/// 1. **Join**: two large `k`-itemsets sharing their first `k−1` items
///    produce a `(k+1)`-candidate.
/// 2. **Prune**: a candidate survives only if *every* `k`-subset is large
///    (property: all subsets of a frequent itemset are frequent).
///
/// Each joined candidate is built in one reused scratch buffer and its
/// subsets are looked up in place ([`find_subset_without`]), so only the
/// candidates that survive are allocated.
///
/// `large` must be sorted and duplicate-free with uniform length `k ≥ 1`;
/// the output is sorted, duplicate-free, of length `k + 1`.
///
/// # Panics
///
/// Panics in debug builds if `large` is unsorted or mixes lengths.
pub fn apriori_gen(large: &[ItemSet]) -> Vec<ItemSet> {
    debug_assert!(large.windows(2).all(|w| w[0] < w[1]), "input must be sorted");
    debug_assert!(
        large.windows(2).all(|w| w[0].len() == w[1].len()),
        "input must have uniform length"
    );
    let Some(first) = large.first() else {
        return Vec::new();
    };

    let mut out = Vec::new();
    let k = first.len();
    let mut candidate: Vec<Item> = Vec::with_capacity(k + 1);

    // Sorted input groups itemsets by their (k-1)-prefix, so joinable
    // pairs are contiguous: join each itemset with the following ones
    // while prefixes agree.
    for (i, a) in large.iter().enumerate() {
        for b in &large[i + 1..] {
            if a[..k - 1] != b[..k - 1] {
                break;
            }
            // `b`'s last item is greater than `a`'s, as `large` is sorted.
            candidate.clear();
            candidate.extend_from_slice(a);
            candidate.push(b[k - 1]);
            if prune_ok(&candidate, large) {
                out.push(ItemSet::from_sorted_vec(candidate.clone()));
            }
        }
    }
    out
}

/// Prune step: every immediate subset must be large. Dropping either of
/// the last two items gives a join parent, large by construction, so
/// only the first `k − 1` positions are tested.
///
/// `large` is sorted (the caller's precondition), so membership is a
/// binary search — no hash set needs to be built per level.
fn prune_ok(candidate: &[Item], large: &[ItemSet]) -> bool {
    (0..candidate.len().saturating_sub(2)).all(|skip| {
        find_subset_without(large, ItemSet::as_slice, candidate, skip).is_some()
    })
}

/// The entry of `sorted` whose items are `items` without the item at
/// position `skip`, or `None` when there is none.
///
/// A binary search whose comparator steps over that position, so the
/// subset is never built. `key` reads an entry's items, and `sorted`
/// must be sorted by them. The prune steps of [`apriori_gen`] and of
/// INTERLEAVED's cycle pruning look up each immediate subset this way.
///
/// # Panics
///
/// Panics if `skip >= items.len()`.
pub fn find_subset_without<'a, T>(
    sorted: &'a [T],
    key: impl Fn(&T) -> &[Item],
    items: &[Item],
    skip: usize,
) -> Option<&'a T> {
    let (head, tail) = (&items[..skip], &items[skip + 1..]);
    let found = sorted.binary_search_by(|entry| {
        let entry = key(entry);
        let (entry_head, entry_tail) = entry.split_at(skip.min(entry.len()));
        entry_head.cmp(head).then_with(|| entry_tail.cmp(tail))
    });
    found.ok().and_then(|i| sorted.get(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(apriori_gen(&[]).is_empty());
    }

    #[test]
    fn singletons_join_pairwise() {
        let large = vec![set(&[1]), set(&[2]), set(&[3])];
        let cands = apriori_gen(&large);
        assert_eq!(cands, vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])]);
    }

    #[test]
    fn prune_removes_candidates_with_small_subsets() {
        // {1,2}, {1,3} join to {1,2,3} but {2,3} is not large → pruned.
        let large = vec![set(&[1, 2]), set(&[1, 3])];
        assert!(apriori_gen(&large).is_empty());

        // Adding {2,3} lets the candidate through.
        let large = vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])];
        assert_eq!(apriori_gen(&large), vec![set(&[1, 2, 3])]);
    }

    #[test]
    fn classic_textbook_case() {
        // Agrawal–Srikant example: L3 = {123, 124, 134, 135, 234} gives
        // C4 = {1234} ({1345} is pruned because {145} ∉ L3).
        let large = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3, 4]),
            set(&[1, 3, 5]),
            set(&[2, 3, 4]),
        ];
        assert_eq!(apriori_gen(&large), vec![set(&[1, 2, 3, 4])]);
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let large: Vec<ItemSet> = (1u32..=6).map(|i| set(&[i])).collect();
        let cands = apriori_gen(&large);
        assert_eq!(cands.len(), 15); // C(6,2)
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn find_subset_without_steps_over_one_position() {
        let sorted = vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3]), set(&[2, 4])];
        let items: Vec<Item> = set(&[1, 2, 3]).to_vec();
        let find = |skip| find_subset_without(&sorted, ItemSet::as_slice, &items, skip);
        assert_eq!(find(0), Some(&set(&[2, 3])));
        assert_eq!(find(1), Some(&set(&[1, 3])));
        assert_eq!(find(2), Some(&set(&[1, 2])));
        let items: Vec<Item> = set(&[1, 3, 4]).to_vec();
        let find = |skip| find_subset_without(&sorted, ItemSet::as_slice, &items, skip);
        assert_eq!(find(0), None);
        assert_eq!(find(2), Some(&set(&[1, 3])));
        // Entries of another length compare as the slice they are.
        let mixed = vec![set(&[1]), set(&[1, 2]), set(&[1, 2, 3])];
        let items: Vec<Item> = set(&[1, 2, 9]).to_vec();
        assert_eq!(
            find_subset_without(&mixed, ItemSet::as_slice, &items, 2),
            Some(&set(&[1, 2]))
        );
        assert_eq!(find_subset_without(&mixed, ItemSet::as_slice, &items, 1), None);
    }

    #[test]
    fn matches_join_and_prune_by_definition() {
        // Every (k+1)-itemset over 1..=7 whose k-subsets are all in
        // `large`, for a `large` that keeps every other k-itemset.
        let universe = set(&[1, 2, 3, 4, 5, 6, 7]);
        for k in 1..=4 {
            let large: Vec<ItemSet> = universe.k_subsets(k).step_by(2).collect();
            let want: Vec<ItemSet> = universe
                .k_subsets(k + 1)
                .filter(|c| {
                    c.immediate_subsets().all(|s| large.binary_search(&s).is_ok())
                })
                .collect();
            assert_eq!(apriori_gen(&large), want, "k={k}");
        }
    }

    #[test]
    fn non_adjacent_prefix_groups_do_not_join() {
        let large = vec![set(&[1, 2]), set(&[3, 4])];
        assert!(apriori_gen(&large).is_empty());
    }
}
