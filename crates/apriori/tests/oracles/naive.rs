//! Deliberately simple reference implementations, used as oracles by
//! the property tests. They favour obviousness over speed: frequent
//! itemsets are found by enumerating candidate subsets breadth-first with
//! no pruning beyond the definition, and counting scans every
//! transaction.

use car_apriori::{FrequentItemsets, MinSupport};
use car_itemset::ItemSet;

/// Counts the transactions containing `itemset`.
pub fn count_itemset(itemset: &ItemSet, transactions: &[ItemSet]) -> u64 {
    transactions.iter().filter(|t| itemset.is_subset_of(t)).count() as u64
}

/// Finds all large itemsets by definition-level breadth-first search.
///
/// Exponential in the worst case — intended for small test inputs only.
/// Results are identical to [`Apriori::mine`](car_apriori::Apriori::mine).
pub fn frequent_itemsets(
    transactions: &[ItemSet],
    min_support: MinSupport,
    max_size: Option<usize>,
) -> FrequentItemsets {
    let threshold = min_support.threshold(transactions.len());
    let mut result = FrequentItemsets::new(transactions.len());
    if max_size == Some(0) {
        return result;
    }

    // Universe of items actually present.
    let mut universe: Vec<u32> =
        transactions.iter().flat_map(|t| t.iter().map(|i| i.id())).collect();
    universe.sort_unstable();
    universe.dedup();

    // Level 1 by definition.
    let mut frontier: Vec<ItemSet> = Vec::new();
    for &id in &universe {
        let s = ItemSet::from_ids([id]);
        let c = count_itemset(&s, transactions);
        if c >= threshold {
            result.insert(s.clone(), c);
            frontier.push(s);
        }
    }

    // Extend each frontier itemset by every larger frequent item; count
    // by definition; keep the large ones. (No join/prune smartness.)
    let mut size = 1;
    while !frontier.is_empty() {
        size += 1;
        if max_size.is_some_and(|cap| size > cap) {
            break;
        }
        let mut next: Vec<ItemSet> = Vec::new();
        for s in &frontier {
            let max = s.as_slice().last().expect("non-empty").id();
            for &id in universe.iter().filter(|&&id| id > max) {
                let candidate = s.with_appended(id.into());
                let c = count_itemset(&candidate, transactions);
                if c >= threshold {
                    result.insert(candidate.clone(), c);
                    next.push(candidate);
                }
            }
        }
        frontier = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use car_apriori::{Apriori, AprioriConfig};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn count_itemset_by_definition() {
        let tx = vec![set(&[1, 2]), set(&[1]), set(&[2, 3])];
        assert_eq!(count_itemset(&set(&[1]), &tx), 2);
        assert_eq!(count_itemset(&set(&[1, 2]), &tx), 1);
        assert_eq!(count_itemset(&set(&[4]), &tx), 0);
        assert_eq!(count_itemset(&ItemSet::empty(), &tx), 3);
    }

    #[test]
    fn agrees_with_apriori() {
        let tx = vec![
            set(&[1, 2, 5]),
            set(&[2, 4]),
            set(&[2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 3]),
            set(&[1, 2, 3, 5]),
            set(&[1, 2, 3]),
        ];
        for min in [1u64, 2, 3, 5] {
            let ms = MinSupport::count(min);
            let naive = frequent_itemsets(&tx, ms, None);
            let fast = Apriori::new(AprioriConfig::new(ms)).mine(&tx);
            let mut a: Vec<_> = naive.iter().map(|(s, c)| (s.clone(), c)).collect();
            let mut b: Vec<_> = fast.iter().map(|(s, c)| (s.clone(), c)).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "min support {min}");
        }
    }

    #[test]
    fn max_size_is_respected() {
        let tx = vec![set(&[1, 2, 3]); 3];
        let f = frequent_itemsets(&tx, MinSupport::count(1), Some(2));
        assert_eq!(f.max_level(), 2);
        assert_eq!(f.len(), 6);
        assert!(frequent_itemsets(&tx, MinSupport::count(1), Some(0)).is_empty());
    }

    #[test]
    fn empty_transactions() {
        let f = frequent_itemsets(&[], MinSupport::count(1), None);
        assert!(f.is_empty());
    }
}
