//! Association rule generation from frequent itemsets (`ap-genrules`).

use std::fmt;

use car_itemset::{Item, ItemSet};

use crate::frequent::{FrequentItemsets, Level};
use crate::support::MinConfidence;

/// An association rule `antecedent ⇒ consequent` (disjoint, non-empty).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    /// Left-hand side (`X` in `X ⇒ Y`).
    pub antecedent: ItemSet,
    /// Right-hand side (`Y` in `X ⇒ Y`).
    pub consequent: ItemSet,
}

impl Rule {
    /// Creates a rule, validating that both sides are non-empty and
    /// disjoint.
    pub fn new(antecedent: ItemSet, consequent: ItemSet) -> Option<Self> {
        if antecedent.is_empty() || consequent.is_empty() {
            return None;
        }
        if !antecedent.is_disjoint(&consequent) {
            return None;
        }
        Some(Rule { antecedent, consequent })
    }

    /// The union of both sides (the itemset whose support is the rule's
    /// support).
    pub fn itemset(&self) -> ItemSet {
        self.antecedent.union(&self.consequent)
    }

    /// The rule of itemset `z` whose antecedent is the items at the
    /// positions set in `antecedent` (bit `i` stands for `z[i]`) and
    /// whose consequent is the rest of `z`, as [`for_each_rule`] reports
    /// them. `z` has at most 64 items, as every itemset the walk visits.
    pub fn from_mask(z: &[Item], antecedent: u64) -> Rule {
        let side = |mask| ItemSet::from_sorted_vec(items_at(z, mask).collect());
        Rule { antecedent: side(antecedent), consequent: side(!antecedent) }
    }
}

/// The items of `z` at the positions set in `mask`, in order.
fn items_at(z: &[Item], mask: u64) -> impl Iterator<Item = Item> + '_ {
    let selected = move |i: usize| mask.checked_shr(i as u32).is_some_and(|m| m & 1 == 1);
    z.iter().enumerate().filter(move |&(i, _)| selected(i)).map(|(_, &item)| item)
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} => {}", self.antecedent, self.consequent)
    }
}

/// A rule with the counts needed to derive its quality metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct AssociationRule {
    /// The rule.
    pub rule: Rule,
    /// Transactions containing antecedent ∪ consequent.
    pub rule_count: u64,
    /// Transactions containing the antecedent.
    pub antecedent_count: u64,
    /// Transactions containing the consequent.
    pub consequent_count: u64,
    /// Database size.
    pub num_transactions: usize,
}

impl AssociationRule {
    /// Support fraction of the rule (`count(X∪Y) / |D|`).
    pub fn support(&self) -> f64 {
        if self.num_transactions == 0 {
            0.0
        } else {
            self.rule_count as f64 / self.num_transactions as f64
        }
    }

    /// Confidence (`count(X∪Y) / count(X)`).
    pub fn confidence(&self) -> f64 {
        if self.antecedent_count == 0 {
            0.0
        } else {
            self.rule_count as f64 / self.antecedent_count as f64
        }
    }

    /// Lift (`confidence / support(Y)`); 0 when undefined.
    pub fn lift(&self) -> f64 {
        if self.consequent_count == 0 || self.num_transactions == 0 {
            return 0.0;
        }
        let consequent_support =
            self.consequent_count as f64 / self.num_transactions as f64;
        self.confidence() / consequent_support
    }
}

/// One rule of a frequent itemset `Z`, as [`for_each_rule`] finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleMask {
    /// The antecedent's positions in `Z`: bit `i` set means `Z[i]` is in
    /// the antecedent, and the consequent is the rest of `Z`.
    pub antecedent: u64,
    /// Transactions containing the antecedent.
    pub antecedent_count: u64,
}

/// Generates every association rule meeting `min_confidence` from the
/// frequent itemsets, using the `ap-genrules` strategy: consequents grow
/// level-wise and a failing consequent prunes all its supersets
/// (confidence is anti-monotone in the consequent).
///
/// The result is sorted by `(antecedent, consequent)` for determinism.
/// It collects [`for_each_rule`]'s walk into rules with their counts;
/// each consequent's count is read by following subset positions down
/// from its itemset, one per antecedent item.
pub fn generate_rules(
    frequent: &FrequentItemsets,
    min_confidence: MinConfidence,
) -> Vec<AssociationRule> {
    let mut out = Vec::new();
    for_each_rule(frequent, min_confidence, |z, z_count, position, rules| {
        for mask in rules {
            let consequent_count =
                count_without(frequent, z.len(), position, mask.antecedent);
            out.push(AssociationRule {
                rule: Rule::from_mask(z, mask.antecedent),
                rule_count: z_count,
                antecedent_count: mask.antecedent_count,
                consequent_count,
                num_transactions: frequent.num_transactions(),
            });
        }
    });
    out.sort_by(|a, b| a.rule.cmp(&b.rule));
    out
}

/// The count of the level-`k` itemset at `position` without its items at
/// the positions set in `mask`. The items go from the highest position
/// down, so each one removed is still at its own index.
fn count_without(
    frequent: &FrequentItemsets,
    k: usize,
    position: usize,
    mask: u64,
) -> u64 {
    let (mut k, mut position) = (k, position);
    for i in (0..k).rev().filter(|&i| mask >> i & 1 == 1) {
        position = frequent.subsets(k, position)[i];
        k -= 1;
    }
    frequent.level_at(k).map_or(0, |level| level.count(position))
}

/// The `ap-genrules` walk: for every frequent itemset `Z` of at least two
/// items that yields a rule meeting `min_confidence`, calls `emit(Z,
/// count of Z, position of Z in its level, rules)` once with all of
/// `Z`'s rules, in no particular order. `Z`'s level is `Z.len()`.
///
/// Consequents are `u64` masks of positions in `Z` and grow level-wise:
/// a consequent one item larger is tried only when every consequent one
/// item smaller inside it passed. Each consequent carries its
/// antecedent's position: a one-item consequent `{q}` has the antecedent
/// `Z` without `Z[q]`, whose position `Z` records, and growing a
/// consequent `c` by a position `q` above its highest removes `Z[q]`,
/// which sits at index `q − |c|` of `c`'s antecedent, so the new
/// antecedent's position is recorded there. Each antecedent's count is
/// then one array read, and the walk builds, hashes and searches
/// nothing per rule.
pub fn for_each_rule(
    frequent: &FrequentItemsets,
    min_confidence: MinConfidence,
    mut emit: impl FnMut(&[Item], u64, usize, &[RuleMask]),
) {
    let mut walk = RuleWalk::default();
    // A mask has 64 positions. A frequent itemset of more items would
    // need all 2^64 of its subsets frequent and stored, so it cannot
    // occur; such levels are not walked.
    for k in 2..=frequent.max_level().min(64) {
        for (position, (z, z_count)) in frequent.level(k).enumerate() {
            walk.rules_of(frequent, k, position, z_count, min_confidence);
            if !walk.rules.is_empty() {
                emit(z, z_count, position, &walk.rules);
            }
        }
    }
}

/// Scratch buffers of [`for_each_rule`], reused across itemsets.
#[derive(Default)]
struct RuleWalk {
    /// The rules of the current itemset.
    rules: Vec<RuleMask>,
    /// The consequents of the current size that passed, each with its
    /// antecedent's position, sorted by consequent.
    passed: Vec<(u64, usize)>,
    /// The consequents one item larger to try next, with their
    /// antecedents' positions.
    next: Vec<(u64, usize)>,
}

impl RuleWalk {
    /// Fills `self.rules` with the rules of the level-`k` itemset at
    /// `position`, for `k` from 2 to 64.
    fn rules_of(
        &mut self,
        frequent: &FrequentItemsets,
        k: usize,
        position: usize,
        z_count: u64,
        min_confidence: MinConfidence,
    ) {
        let all = u64::MAX >> (64 - k);
        self.rules.clear();
        self.next.clear();
        let subsets = frequent.subsets(k, position);
        self.next.extend(subsets.iter().enumerate().map(|(q, &a)| (1u64 << q, a)));
        // The size of the consequents in `self.next`.
        let mut size = 1;
        while let Some(antecedents) = frequent.level_at(k - size) {
            self.passed.clear();
            for &(consequent, antecedent) in &self.next {
                let antecedent_count = antecedents.count(antecedent);
                if min_confidence.accepts(z_count, antecedent_count) {
                    self.rules.push(RuleMask {
                        antecedent: all & !consequent,
                        antecedent_count,
                    });
                    self.passed.push((consequent, antecedent));
                }
            }
            // Stop before the consequent swallows z.
            if size + 1 == k || self.passed.is_empty() {
                break;
            }
            self.passed.sort_unstable_by_key(|&(consequent, _)| consequent);
            self.grow(antecedents, size, k);
            size += 1;
        }
    }

    /// Sets `self.next` to the consequents one item larger than those in
    /// `self.passed`, of `size` items with antecedents in `antecedents`,
    /// whose every subset one item smaller passed. Each passed consequent
    /// is extended by each position above its highest, so every
    /// candidate is built once, from its subset without its highest
    /// position, and its antecedent is that subset's antecedent without
    /// the new position's item.
    fn grow(&mut self, antecedents: &Level, size: usize, len: usize) {
        self.next.clear();
        for &(consequent, antecedent) in &self.passed {
            let above = 64 - consequent.leading_zeros() as usize;
            let subsets = antecedents.subsets(antecedent);
            for position in above..len {
                let candidate = consequent | 1 << position;
                let passed = |q: usize| {
                    let smaller = candidate & !(1 << q);
                    self.passed.binary_search_by_key(&smaller, |&(c, _)| c).is_ok()
                };
                if (0..above).filter(|&q| consequent >> q & 1 == 1).all(passed) {
                    self.next.push((candidate, subsets[position - size]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Apriori, AprioriConfig, MinSupport};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn mine(tx: &[ItemSet], minsup_count: u64) -> FrequentItemsets {
        Apriori::new(AprioriConfig::new(MinSupport::count(minsup_count))).mine(tx)
    }

    #[test]
    fn rule_validation() {
        assert!(Rule::new(set(&[1]), set(&[2])).is_some());
        assert!(Rule::new(ItemSet::empty(), set(&[2])).is_none());
        assert!(Rule::new(set(&[1]), ItemSet::empty()).is_none());
        assert!(Rule::new(set(&[1, 2]), set(&[2, 3])).is_none());
        let r = Rule::new(set(&[1]), set(&[2, 3])).unwrap();
        assert_eq!(r.itemset(), set(&[1, 2, 3]));
        assert_eq!(r.to_string(), "{1} => {2 3}");
    }

    #[test]
    fn generates_expected_rules_simple() {
        // 4 transactions; {1,2} appears 3 times, {1} 4, {2} 3.
        let tx = vec![set(&[1, 2]), set(&[1, 2]), set(&[1, 2]), set(&[1])];
        let f = mine(&tx, 1);
        let rules = generate_rules(&f, MinConfidence::new(0.8).unwrap());
        // 1 => 2 has confidence 3/4 = 0.75 (rejected); 2 => 1 has 3/3 = 1.
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].rule, Rule::new(set(&[2]), set(&[1])).unwrap());
        assert_eq!(rules[0].rule_count, 3);
        assert_eq!(rules[0].antecedent_count, 3);
        assert!((rules[0].confidence() - 1.0).abs() < 1e-12);
        assert!((rules[0].support() - 0.75).abs() < 1e-12);
        assert!((rules[0].lift() - 1.0).abs() < 1e-12);
    }

    /// Brute-force oracle over all frequent itemsets and all splits.
    fn oracle_rules(
        tx: &[ItemSet],
        f: &FrequentItemsets,
        minconf: MinConfidence,
    ) -> Vec<Rule> {
        let mut out = Vec::new();
        for (z, z_count) in f.iter() {
            if z.len() < 2 {
                continue;
            }
            let z = ItemSet::from_sorted_vec(z.to_vec());
            for x in z.proper_nonempty_subsets() {
                let y = z.difference(&x);
                let x_count = tx.iter().filter(|t| x.is_subset_of(t)).count() as u64;
                if minconf.accepts(z_count, x_count) {
                    out.push(Rule { antecedent: x, consequent: y });
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn matches_oracle_on_han_kamber() {
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
        let f = mine(&tx, 2);
        for conf in [0.0, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let minconf = MinConfidence::new(conf).unwrap();
            let got: Vec<Rule> =
                generate_rules(&f, minconf).into_iter().map(|r| r.rule).collect();
            let want = oracle_rules(&tx, &f, minconf);
            assert_eq!(got, want, "minconf={conf}");
        }
    }

    #[test]
    fn counts_are_consistent() {
        let tx = vec![
            set(&[1, 2, 3]),
            set(&[1, 2]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 2, 3]),
        ];
        let f = mine(&tx, 2);
        for r in generate_rules(&f, MinConfidence::new(0.0).unwrap()) {
            let z = r.rule.itemset();
            let true_rule = tx.iter().filter(|t| z.is_subset_of(t)).count() as u64;
            let true_ante =
                tx.iter().filter(|t| r.rule.antecedent.is_subset_of(t)).count() as u64;
            let true_cons =
                tx.iter().filter(|t| r.rule.consequent.is_subset_of(t)).count() as u64;
            assert_eq!(r.rule_count, true_rule, "{}", r.rule);
            assert_eq!(r.antecedent_count, true_ante, "{}", r.rule);
            assert_eq!(r.consequent_count, true_cons, "{}", r.rule);
            assert_eq!(r.num_transactions, tx.len());
        }
    }

    #[test]
    fn walk_reaches_every_consequent_size() {
        // {1,2,3,4,5} in every transaction: every split is a rule with
        // confidence 1, consequents of 1 to 4 items included.
        let tx = vec![set(&[1, 2, 3, 4, 5]); 3];
        let f = mine(&tx, 1);
        let z = set(&[1, 2, 3, 4, 5]);
        let mut masks = Vec::new();
        for_each_rule(
            &f,
            MinConfidence::new(1.0).unwrap(),
            |itemset, count, _, rules| {
                assert_eq!(count, 3);
                if itemset == z.as_slice() {
                    masks.extend(rules.iter().map(|r| r.antecedent));
                }
            },
        );
        masks.sort_unstable();
        assert_eq!(masks, (1..31).collect::<Vec<u64>>());
        let rule = Rule::from_mask(&z, 0b10110);
        assert_eq!(rule, Rule::new(set(&[2, 3, 5]), set(&[1, 4])).unwrap());
    }

    #[test]
    fn no_rules_from_singletons_only() {
        let tx = vec![set(&[1]), set(&[2])];
        let f = mine(&tx, 1);
        assert!(generate_rules(&f, MinConfidence::new(0.0).unwrap()).is_empty());
    }

    #[test]
    fn metrics_edge_cases() {
        let r = AssociationRule {
            rule: Rule::new(set(&[1]), set(&[2])).unwrap(),
            rule_count: 0,
            antecedent_count: 0,
            consequent_count: 0,
            num_transactions: 0,
        };
        assert_eq!(r.support(), 0.0);
        assert_eq!(r.confidence(), 0.0);
        assert_eq!(r.lift(), 0.0);
    }
}
