//! Active rules over deltas — the `C³` direction the paper cites ([WU95]:
//! "Changes, consistency, and configurations in heterogeneous distributed
//! information systems") and lists as ongoing work (Section 9: "active rule
//! languages for hierarchical data based on our edit scripts and delta
//! trees").
//!
//! A [`Rule`] is a declarative condition over a delta tree — change kind,
//! label, minimum count, optional value substring — and a [`RuleSet`]
//! evaluates all of its rules against a delta, returning the
//! [`Firing`]s. The warehouse scenario of Section 1 is the intended use:
//! compute the delta between consecutive snapshots, then let rules decide
//! which downstream views must refresh or which conflicts need a human.

use hierdiff_tree::{Label, NodeValue};

use crate::query::ChangeKind;
use crate::{DeltaNodeId, DeltaTree};

/// A declarative condition over a delta tree.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Name reported in firings.
    pub name: String,
    /// Change kinds that count (empty = any change, i.e. not `IDN`/`MRK`).
    pub kinds: Vec<ChangeKind>,
    /// Restrict to nodes with this label.
    pub label: Option<Label>,
    /// Fire only if at least this many nodes match (default 1).
    pub min_count: usize,
}

impl Rule {
    /// A rule matching any change of the given kind.
    pub fn on(name: impl Into<String>, kind: ChangeKind) -> Rule {
        Rule {
            name: name.into(),
            kinds: vec![kind],
            label: None,
            min_count: 1,
        }
    }

    /// A rule matching any change at all.
    pub fn on_any_change(name: impl Into<String>) -> Rule {
        Rule {
            name: name.into(),
            kinds: Vec::new(),
            label: None,
            min_count: 1,
        }
    }

    /// Restricts the rule to nodes with `label`.
    pub fn with_label(mut self, label: Label) -> Rule {
        self.label = Some(label);
        self
    }

    /// Requires at least `n` matching nodes before firing.
    pub fn min_count(mut self, n: usize) -> Rule {
        self.min_count = n;
        self
    }

    fn matches<V: NodeValue>(&self, delta: &DeltaTree<V>, id: DeltaNodeId) -> bool {
        if let Some(l) = self.label {
            if delta.label(id) != l {
                return false;
            }
        }
        let ann = delta.annotation(id);
        if self.kinds.is_empty() {
            !matches!(
                ann,
                crate::Annotation::Identical | crate::Annotation::Marker { .. }
            )
        } else {
            self.kinds.iter().any(|k| {
                matches!(
                    (k, ann),
                    (ChangeKind::Identical, crate::Annotation::Identical)
                        | (ChangeKind::Updated, crate::Annotation::Updated { .. })
                        | (ChangeKind::Inserted, crate::Annotation::Inserted)
                        | (ChangeKind::Deleted, crate::Annotation::Deleted)
                        | (ChangeKind::Moved, crate::Annotation::Moved { .. })
                        | (ChangeKind::Markers, crate::Annotation::Marker { .. })
                )
            })
        }
    }
}

/// A rule that fired: which rule, on which nodes.
#[derive(Clone, Debug)]
pub struct Firing {
    /// The rule's name.
    pub rule: String,
    /// The matching delta nodes (at least `min_count` of them).
    pub nodes: Vec<DeltaNodeId>,
}

/// An ordered collection of rules evaluated together.
#[derive(Clone, Debug, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, rule: Rule) -> RuleSet {
        self.rules.push(rule);
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates every rule against `delta` in one pass; returns the
    /// firings in rule order.
    pub fn evaluate<V: NodeValue>(&self, delta: &DeltaTree<V>) -> Vec<Firing> {
        let mut hits: Vec<Vec<DeltaNodeId>> = vec![Vec::new(); self.rules.len()];
        for id in delta.preorder() {
            for (rule, hit) in self.rules.iter().zip(&mut hits) {
                if rule.matches(delta, id) {
                    hit.push(id);
                }
            }
        }
        self.rules
            .iter()
            .zip(hits)
            .filter(|(rule, nodes)| nodes.len() >= rule.min_count)
            .map(|(rule, nodes)| Firing {
                rule: rule.name.clone(),
                nodes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdiff_edit::edit_script;
    use hierdiff_matching::{fast_match, MatchParams};
    use hierdiff_tree::Tree;

    fn delta(t1: &str, t2: &str) -> DeltaTree<String> {
        let t1 = Tree::parse_sexpr(t1).unwrap();
        let t2 = Tree::parse_sexpr(t2).unwrap();
        let m = fast_match(&t1, &t2, MatchParams::default()).unwrap();
        let res = edit_script(&t1, &t2, &m.matching).unwrap();
        crate::build_delta_tree(&t1, &t2, &m.matching, &res)
    }

    fn sample() -> DeltaTree<String> {
        delta(
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "gone")) (P (S "t1") (S "t2")))"#,
            r#"(D (P (S "k1") (S "k2") (S "k3") (S "k4") (S "new1") (S "new2")) (P (S "t2") (S "t1")))"#,
        )
    }

    #[test]
    fn fires_on_matching_kind() {
        let d = sample();
        let rules = RuleSet::new()
            .rule(Rule::on("inserted-sentences", ChangeKind::Inserted))
            .rule(Rule::on("deleted-sentences", ChangeKind::Deleted))
            .rule(
                Rule::on("sections-changed", ChangeKind::Updated).with_label(Label::intern("Sec")),
            );
        let firings = rules.evaluate(&d);
        let names: Vec<&str> = firings.iter().map(|f| f.rule.as_str()).collect();
        assert!(names.contains(&"inserted-sentences"));
        assert!(names.contains(&"deleted-sentences"));
        assert!(!names.contains(&"sections-changed"), "no Sec nodes here");
        let ins = firings
            .iter()
            .find(|f| f.rule == "inserted-sentences")
            .unwrap();
        assert_eq!(ins.nodes.len(), 2);
    }

    #[test]
    fn min_count_gates_firing() {
        let d = sample();
        let rules = RuleSet::new()
            .rule(Rule::on("bulk-insert", ChangeKind::Inserted).min_count(3))
            .rule(Rule::on("some-insert", ChangeKind::Inserted).min_count(2));
        let firings = rules.evaluate(&d);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].rule, "some-insert");
    }

    #[test]
    fn any_change_rule() {
        let d = sample();
        let firings = RuleSet::new()
            .rule(Rule::on_any_change("anything"))
            .evaluate(&d);
        assert_eq!(firings.len(), 1);
        // inserts (2) + delete (1) + moves (1 of the swapped tail pair) ≥ 4.
        assert!(firings[0].nodes.len() >= 4, "{:?}", firings[0].nodes.len());
    }

    #[test]
    fn no_firings_on_identical_documents() {
        let d = delta(r#"(D (S "a"))"#, r#"(D (S "a"))"#);
        let rules = RuleSet::new()
            .rule(Rule::on_any_change("anything"))
            .rule(Rule::on("ins", ChangeKind::Inserted));
        assert!(rules.evaluate(&d).is_empty());
        assert_eq!(rules.len(), 2);
        assert!(!rules.is_empty());
    }

    #[test]
    fn label_scoping() {
        let d = sample();
        let s_moves = RuleSet::new()
            .rule(Rule::on("s-moves", ChangeKind::Moved).with_label(Label::intern("S")))
            .evaluate(&d);
        assert_eq!(s_moves.len(), 1);
        let p_moves = RuleSet::new()
            .rule(Rule::on("p-moves", ChangeKind::Moved).with_label(Label::intern("P")))
            .evaluate(&d);
        assert!(p_moves.is_empty());
    }
}
