//! Level-wise candidate generation (the `apriori-gen` procedure) over
//! flat levels.

use car_itemset::{Item, ItemSet};

/// Joins and prunes one flat level of large `k`-itemsets: the
/// `apriori-gen` procedure (Agrawal & Srikant, 1994).
///
/// 1. **Join**: two large `k`-itemsets sharing their first `k−1` items
///    produce a `(k+1)`-candidate.
/// 2. **Prune**: a candidate survives only if *every* `k`-subset is large
///    (property: all subsets of a frequent itemset are frequent).
///
/// `level` holds the itemsets back to back, `k` items each, sorted and
/// duplicate-free; `k = 0` joins nothing. For every candidate that
/// survives, in sorted order, `emit(candidate, subsets)` is called with
/// the candidate's `k + 1` items, built in one reused buffer, and
/// `subsets[j]`, the position in `level` of the candidate without its
/// item `j`. The last two positions are the join parents.
///
/// The subsets without item `j < k − 1` of every candidate of one first
/// parent `a` share their first `k − 1` items, `a` without `a[j]`, so
/// they lie in one join group of the level each. Those `k − 1` groups
/// are located once per first parent, by a galloping search from where
/// the previous first parent's groups lay, and walked in step with the
/// partner's last item, so the prune costs no search per candidate.
///
/// # Panics
///
/// Panics in debug builds if `level` is not a sorted sequence of
/// `k`-itemsets.
pub fn join_level(level: &[Item], k: usize, mut emit: impl FnMut(&[Item], &[usize])) {
    if k == 0 {
        return;
    }
    debug_assert!(level.len() % k == 0, "level must hold k items per itemset");
    debug_assert!(
        level.chunks_exact(k).zip(level.chunks_exact(k).skip(1)).all(|(a, b)| a < b),
        "level must be sorted and duplicate-free"
    );
    let n = level.len() / k;
    let at = |i: usize| &level[i * k..i * k + k];
    let head = |i: usize| &level[i * k..i * k + k - 1];

    let mut candidate: Vec<Item> = Vec::with_capacity(k + 1);
    let mut subsets = vec![0; k + 1];
    // `groups[j]`: the cursor and end of the join group holding the
    // subsets without item `j`, for `j < k − 1`, and `floors[j]` a
    // position at or before it.
    let mut groups = vec![(0, 0); k - 1];
    let mut floors = vec![0; k - 1];
    let mut prefix: Vec<Item> = Vec::with_capacity(k);

    // Sorted input makes each join group, the itemsets sharing their
    // first k − 1 items, a contiguous run.
    let mut start = 0;
    while start < n {
        let end = (start + 1..n).find(|&i| head(i) != head(start)).unwrap_or(n);
        floors.fill(end);
        for a in start..end - 1 {
            let first = at(a);
            if !locate_groups(level, k, first, &mut prefix, &mut groups, &mut floors) {
                continue;
            }
            'partners: for b in a + 1..end {
                let last = at(b)[k - 1];
                for (j, (cursor, group_end)) in groups.iter_mut().enumerate() {
                    while *cursor < *group_end && at(*cursor)[k - 1] < last {
                        *cursor += 1;
                    }
                    if *cursor == *group_end {
                        // Later partners have larger last items.
                        break 'partners;
                    }
                    if at(*cursor)[k - 1] != last {
                        continue 'partners;
                    }
                    subsets[j] = *cursor;
                }
                subsets[k - 1] = b;
                subsets[k] = a;
                candidate.clear();
                candidate.extend_from_slice(first);
                candidate.push(last);
                emit(&candidate, &subsets);
            }
        }
        start = end;
    }
}

/// Points `groups[j]` at the join group of `level` whose itemsets start
/// with `first` without `first[j]`, for every `j < k − 1`, and returns
/// whether all of them are non-empty.
///
/// Each group is searched from `floors[j]`, which is left at its start.
/// These prefixes fall as `j` grows and all exceed `first`'s own, so
/// each group also lies after the one searched before it; and the next
/// first parent of the same join group differs from `first` in its last
/// item only, a larger one, so its groups lie at or after these.
fn locate_groups(
    level: &[Item],
    k: usize,
    first: &[Item],
    prefix: &mut Vec<Item>,
    groups: &mut [(usize, usize)],
    floors: &mut [usize],
) -> bool {
    let n = level.len() / k;
    let head = |i: usize| &level[i * k..i * k + k - 1];
    let mut lo = 0;
    for (j, (group, floor)) in groups.iter_mut().zip(floors.iter_mut()).enumerate().rev()
    {
        prefix.clear();
        prefix.extend_from_slice(&first[..j]);
        prefix.extend_from_slice(&first[j + 1..]);
        let prefix = prefix.as_slice();
        let start = partition_point(lo.max(*floor), n, |i| head(i) < prefix);
        let end = partition_point(start, n, |i| head(i) == prefix);
        *floor = start;
        if start == end {
            return false;
        }
        *group = (start, end);
        lo = end;
    }
    true
}

/// The first position in `from..n` where `pred` fails, for a `pred` that
/// holds on a prefix of the range. It gallops from `from`, probing ever
/// farther until `pred` fails, and then searches the last gap, so the
/// cost grows with the distance from `from`, not with `n`.
fn partition_point(from: usize, n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1usize);
    while hi < n && pred(hi) {
        lo = hi + 1;
        hi = lo.saturating_add(step).min(n);
        step = step.saturating_mul(2);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Generates the candidate `(k+1)`-itemsets from the large `k`-itemsets:
/// [`join_level`] over a flat copy of `large`, each candidate allocated.
///
/// `large` must be sorted and duplicate-free with uniform length `k ≥ 1`;
/// the output is sorted, duplicate-free, of length `k + 1`.
///
/// # Panics
///
/// Panics in debug builds if `large` is unsorted or mixes lengths.
pub fn apriori_gen(large: &[ItemSet]) -> Vec<ItemSet> {
    let Some(k) = large.first().map(ItemSet::len) else {
        return Vec::new();
    };
    debug_assert!(large.iter().all(|s| s.len() == k), "input must have uniform length");
    let level: Vec<Item> = large.iter().flat_map(|s| s.iter()).collect();
    let mut out = Vec::new();
    join_level(&level, k, |candidate, _| {
        out.push(ItemSet::from_sorted_vec(candidate.to_vec()));
    });
    out
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
    fn matches_join_and_prune_by_definition() {
        // Every (k+1)-itemset over 1..=7 whose k-subsets are all in
        // `large`, for a `large` that keeps every other k-itemset, and
        // each reported subset position names the candidate without
        // that item.
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

            let level: Vec<Item> = large.iter().flat_map(|s| s.iter()).collect();
            let mut joined = Vec::new();
            join_level(&level, k, |candidate, subsets| {
                let candidate = ItemSet::from_sorted_vec(candidate.to_vec());
                assert_eq!(subsets.len(), k + 1);
                for (j, &position) in subsets.iter().enumerate() {
                    assert_eq!(large[position], candidate.without_index(j), "k={k}");
                }
                joined.push(candidate);
            });
            assert_eq!(joined, want, "k={k}");
        }
    }

    #[test]
    fn non_adjacent_prefix_groups_do_not_join() {
        let large = vec![set(&[1, 2]), set(&[3, 4])];
        assert!(apriori_gen(&large).is_empty());
    }
}
