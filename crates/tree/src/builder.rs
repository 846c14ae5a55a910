//! An imperative builder for trees of any value type.
//!
//! [`Tree::parse_sexpr`](crate::Tree::parse_sexpr) covers `String`-valued
//! trees; `TreeBuilder` covers programmatic construction for arbitrary
//! [`NodeValue`] types (used heavily by the workload generator and the
//! document parsers).

use crate::label::Label;
use crate::tree::{NodeId, Tree};
use crate::value::NodeValue;

/// Builds a [`Tree`] depth-first with an `open`/`leaf`/`close` cursor API.
///
/// ```
/// use hierdiff_tree::{TreeBuilder, Label};
///
/// let mut b = TreeBuilder::new(Label::intern("D"), String::new());
/// b.open(Label::intern("P"), String::new());
/// b.leaf(Label::intern("S"), "a".to_string());
/// b.leaf(Label::intern("S"), "b".to_string());
/// b.close();
/// let tree = b.finish();
/// assert_eq!(tree.len(), 4);
/// ```
pub struct TreeBuilder<V> {
    tree: Tree<V>,
    cursor: Vec<NodeId>,
}

impl<V: NodeValue> TreeBuilder<V> {
    /// Starts a tree whose root has the given label and value; the cursor
    /// points at the root.
    pub fn new(root_label: Label, root_value: V) -> TreeBuilder<V> {
        let tree = Tree::new(root_label, root_value);
        let root = tree.root();
        TreeBuilder {
            tree,
            cursor: vec![root],
        }
    }

    /// The node new children are currently appended to.
    #[expect(clippy::expect_used, reason = "the root is never popped")]
    pub fn current(&self) -> NodeId {
        *self.cursor.last().expect("cursor never empty")
    }

    /// Current nesting depth (root = 1).
    pub fn depth(&self) -> usize {
        self.cursor.len()
    }

    /// Appends an internal node under the cursor and descends into it.
    /// Returns the new node's id.
    pub fn open(&mut self, label: Label, value: V) -> NodeId {
        let id = self.tree.push_child(self.current(), label, value);
        self.cursor.push(id);
        id
    }

    /// Appends a leaf under the cursor. Returns the new node's id.
    pub fn leaf(&mut self, label: Label, value: V) -> NodeId {
        self.tree.push_child(self.current(), label, value)
    }

    /// Ascends one level. Panics if already at the root.
    pub fn close(&mut self) {
        assert!(self.cursor.len() > 1, "TreeBuilder::close at root");
        self.cursor.pop();
    }

    /// Ascends until the cursor is `node` (which must be on the open path).
    pub fn close_to(&mut self, node: NodeId) {
        while self.current() != node {
            self.close();
        }
    }

    /// Finishes the tree. Any still-open nodes are implicitly closed. The
    /// builder emits nodes in depth-first order, so the finished tree is
    /// [compact](Tree::is_compact).
    pub fn finish(self) -> Tree<V> {
        let mut tree = self.tree;
        tree.refresh_layout();
        tree
    }

    /// Read access to the partially built tree.
    pub fn tree(&self) -> &Tree<V> {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeValue;

    fn l(s: &str) -> Label {
        Label::intern(s)
    }

    #[test]
    fn builds_nested_structure() {
        let mut b = TreeBuilder::new(l("D"), String::null());
        let p1 = b.open(l("P"), String::null());
        b.leaf(l("S"), "a".into());
        b.leaf(l("S"), "b".into());
        b.close();
        b.open(l("P"), String::null());
        b.leaf(l("S"), "c".into());
        let t = b.finish(); // implicit close of second P
        t.validate().unwrap();
        assert_eq!(t.to_sexpr(), r#"(D (P (S "a") (S "b")) (P (S "c")))"#);
        assert_eq!(t.label(p1).as_str(), "P");
    }

    #[test]
    fn close_to_pops_multiple_levels() {
        let mut b = TreeBuilder::new(l("D"), String::null());
        let root = b.current();
        b.open(l("Sec"), String::null());
        b.open(l("P"), String::null());
        assert_eq!(b.depth(), 3);
        b.close_to(root);
        assert_eq!(b.depth(), 1);
        b.leaf(l("S"), "tail".into());
        let t = b.finish();
        assert_eq!(t.arity(t.root()), 2);
    }

    #[test]
    #[should_panic(expected = "close at root")]
    fn close_at_root_panics() {
        let mut b: TreeBuilder<String> = TreeBuilder::new(l("D"), String::null());
        b.close();
    }

    #[test]
    fn current_tracks_cursor() {
        let mut b = TreeBuilder::new(l("D"), String::null());
        let root = b.current();
        let sec = b.open(l("Sec"), String::null());
        assert_eq!(b.current(), sec);
        b.close();
        assert_eq!(b.current(), root);
    }
}
