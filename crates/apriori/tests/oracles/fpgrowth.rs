//! FP-Growth: frequent itemset mining without candidate generation.
//!
//! FP-Growth (Han, Pei, Yin; SIGMOD 2000) compresses the database into a
//! prefix tree (**FP-tree**) whose paths share common frequent-item
//! prefixes, then mines recursively over *conditional* trees — no
//! candidate generation, two database passes total.
//!
//! It completes the substrate trio (Apriori levels + hash tree, Eclat
//! tid-bitmaps, FP-Growth pattern growth): three independent mechanisms
//! that must produce identical frequent itemsets, which the property
//! tests exploit as a three-way oracle.

use car_apriori::hash::FastHashMap;
use car_apriori::MinSupport;
use car_itemset::{Item, ItemSet};

use super::Itemsets;

/// An FP-tree node (arena-allocated; `u32` indices).
struct Node {
    item: Item,
    count: u64,
    parent: u32,
    /// First child; siblings are linked through `sibling`.
    child: u32,
    sibling: u32,
    /// Next node carrying the same item (header chain).
    next_same_item: u32,
}

const NONE: u32 = u32::MAX;

/// An FP-tree with per-item header chains.
struct FpTree {
    nodes: Vec<Node>,
    /// `headers[i]` = (item, first node of that item's chain, item count).
    headers: Vec<(Item, u32, u64)>,
    header_index: FastHashMap<Item, usize>,
}

impl FpTree {
    /// Builds a tree from `(itemset, count)` rows. Items within each row
    /// must be filtered to frequent ones; the tree orders them by
    /// descending `item_counts` (ties by ascending id).
    fn build(
        rows: impl Iterator<Item = (Vec<Item>, u64)>,
        item_counts: &FastHashMap<Item, u64>,
    ) -> Self {
        let mut headers: Vec<(Item, u32, u64)> =
            item_counts.iter().map(|(&item, &count)| (item, NONE, count)).collect();
        // Descending count, ascending id — the canonical f-list order.
        headers.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        let header_index: FastHashMap<Item, usize> =
            headers.iter().enumerate().map(|(i, &(item, _, _))| (item, i)).collect();

        let mut tree = FpTree {
            nodes: vec![Node {
                item: Item::new(u32::MAX),
                count: 0,
                parent: NONE,
                child: NONE,
                sibling: NONE,
                next_same_item: NONE,
            }],
            headers,
            header_index,
        };

        for (mut items, count) in rows {
            // Order by f-list rank.
            items.sort_by_key(|it| tree.header_index[it]);
            tree.insert(&items, count);
        }
        tree
    }

    fn insert(&mut self, path: &[Item], count: u64) {
        let mut current = 0u32;
        for &item in path {
            // Look for an existing child with this item.
            let mut child = self.nodes[current as usize].child;
            let mut found = NONE;
            while child != NONE {
                if self.nodes[child as usize].item == item {
                    found = child;
                    break;
                }
                child = self.nodes[child as usize].sibling;
            }
            current = if found != NONE {
                self.nodes[found as usize].count += count;
                found
            } else {
                let idx = self.nodes.len() as u32;
                let header_slot = self.header_index[&item];
                self.nodes.push(Node {
                    item,
                    count,
                    parent: current,
                    child: NONE,
                    sibling: self.nodes[current as usize].child,
                    next_same_item: self.headers[header_slot].1,
                });
                self.nodes[current as usize].child = idx;
                self.headers[header_slot].1 = idx;
                idx
            };
        }
    }

    /// The conditional pattern base of `header_slot`: prefix paths (as
    /// item vectors, unordered) with the counts of the slot's nodes.
    fn pattern_base(&self, header_slot: usize) -> Vec<(Vec<Item>, u64)> {
        let mut base = Vec::new();
        let mut node = self.headers[header_slot].1;
        while node != NONE {
            let count = self.nodes[node as usize].count;
            let mut path = Vec::new();
            let mut up = self.nodes[node as usize].parent;
            while up != 0 && up != NONE {
                path.push(self.nodes[up as usize].item);
                up = self.nodes[up as usize].parent;
            }
            if !path.is_empty() {
                base.push((path, count));
            }
            node = self.nodes[node as usize].next_same_item;
        }
        base
    }
}

/// Mines all large itemsets of `transactions` with FP-Growth.
///
/// Produces exactly the same itemsets and counts as
/// [`Apriori::mine`](car_apriori::Apriori::mine) and
/// [`eclat`](car_apriori::eclat) (property-tested three ways).
pub fn fp_growth(
    transactions: &[ItemSet],
    min_support: MinSupport,
    max_size: Option<usize>,
) -> Itemsets {
    let threshold = min_support.threshold(transactions.len());
    let mut result = Itemsets::new();
    if max_size == Some(0) {
        return result;
    }

    // Pass 1: item counts.
    let mut item_counts: FastHashMap<Item, u64> = FastHashMap::default();
    for t in transactions {
        for item in t.iter() {
            *item_counts.entry(item).or_insert(0) += 1;
        }
    }
    item_counts.retain(|_, c| *c >= threshold);

    // Pass 2: build the tree from frequent-filtered transactions.
    let rows = transactions.iter().filter_map(|t| {
        let items: Vec<Item> =
            t.iter().filter(|it| item_counts.contains_key(it)).collect();
        (!items.is_empty()).then_some((items, 1u64))
    });
    let tree = FpTree::build(rows, &item_counts);

    mine_tree(&tree, threshold, max_size, &mut Vec::new(), &mut result);
    result
}

/// Recursively mines `tree`, with `suffix` the items already fixed.
fn mine_tree(
    tree: &FpTree,
    threshold: u64,
    max_size: Option<usize>,
    suffix: &mut Vec<Item>,
    result: &mut Itemsets,
) {
    // Process header items from least to most frequent (bottom of the
    // f-list) — the classic order; any order is correct.
    for slot in (0..tree.headers.len()).rev() {
        let (item, _, count) = tree.headers[slot];
        suffix.push(item);
        result.insert(ItemSet::from_items(suffix.iter().copied()), count);

        if max_size.map_or(true, |cap| suffix.len() < cap) {
            // Conditional pattern base → conditional item counts.
            let base = tree.pattern_base(slot);
            let mut cond_counts: FastHashMap<Item, u64> = FastHashMap::default();
            for (path, c) in &base {
                for &it in path {
                    *cond_counts.entry(it).or_insert(0) += c;
                }
            }
            cond_counts.retain(|_, c| *c >= threshold);
            if !cond_counts.is_empty() {
                let rows = base.into_iter().filter_map(|(path, c)| {
                    let items: Vec<Item> = path
                        .into_iter()
                        .filter(|it| cond_counts.contains_key(it))
                        .collect();
                    (!items.is_empty()).then_some((items, c))
                });
                let cond_tree = FpTree::build(rows, &cond_counts);
                mine_tree(&cond_tree, threshold, max_size, suffix, result);
            }
        }
        suffix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::itemsets;
    use car_apriori::{eclat, Apriori, AprioriConfig};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn han_kamber() -> Vec<ItemSet> {
        vec![
            set(&[1, 2, 5]),
            set(&[2, 4]),
            set(&[2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 3]),
            set(&[1, 2, 3, 5]),
            set(&[1, 2, 3]),
        ]
    }

    #[test]
    fn matches_apriori_and_eclat_on_han_kamber() {
        let tx = han_kamber();
        for min in [1u64, 2, 3, 4] {
            let ms = MinSupport::count(min);
            let a = Apriori::new(AprioriConfig::new(ms)).mine(&tx);
            let e = eclat(&tx, ms, None);
            let f = fp_growth(&tx, ms, None);
            assert_eq!(itemsets(&a), f, "apriori vs fp, minsup {min}");
            let e: Itemsets = e
                .iter()
                .map(|(s, c)| (ItemSet::from_sorted_vec(s.to_vec()), c))
                .collect();
            assert_eq!(e, f, "eclat vs fp, minsup {min}");
        }
    }

    #[test]
    fn respects_max_size() {
        let tx = vec![set(&[1, 2, 3, 4]); 3];
        let f = fp_growth(&tx, MinSupport::count(1), Some(2));
        assert_eq!(f.keys().map(ItemSet::len).max(), Some(2));
        assert_eq!(f.len(), 4 + 6);
        assert!(fp_growth(&tx, MinSupport::count(1), Some(0)).is_empty());
    }

    #[test]
    fn empty_and_sparse_inputs() {
        assert!(fp_growth(&[], MinSupport::count(1), None).is_empty());
        let f = fp_growth(&[ItemSet::empty()], MinSupport::count(1), None);
        assert!(f.is_empty());
        // All items below threshold.
        let f = fp_growth(&[set(&[1]), set(&[2])], MinSupport::count(2), None);
        assert!(f.is_empty());
    }

    #[test]
    fn single_path_tree() {
        // All transactions identical → single path; the recursion must
        // still enumerate every subset with the right count.
        let tx = vec![set(&[1, 2, 3]); 4];
        let f = fp_growth(&tx, MinSupport::count(2), None);
        assert_eq!(f.len(), 7);
        for (s, &c) in &f {
            assert_eq!(c, 4, "{s}");
        }
    }

    #[test]
    fn shared_prefixes_accumulate_counts() {
        let tx =
            vec![set(&[1, 2]), set(&[1, 2, 3]), set(&[1, 3]), set(&[2, 3]), set(&[1])];
        let f = fp_growth(&tx, MinSupport::count(2), None);
        assert_eq!(f.get(&set(&[1])).copied(), Some(4));
        assert_eq!(f.get(&set(&[1, 2])).copied(), Some(2));
        assert_eq!(f.get(&set(&[1, 3])).copied(), Some(2));
        assert_eq!(f.get(&set(&[2, 3])).copied(), Some(2));
        assert_eq!(f.get(&set(&[1, 2, 3])), None); // count 1
    }
}
