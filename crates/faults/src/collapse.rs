//! The dependency trees of a [`crate::FaultModel`], compiled once into a
//! flat program for the collapse.
//!
//! Most trees are an OR of leaves: every `paper_default` tree is a single
//! power-supply leaf, and `or_merge` / `attach_shared_software` build ORs of
//! such leaves. A component with such a tree fails exactly when its own raw
//! row or one of its leaves' raw rows does, so its collapsed row is the OR
//! of a short list of raw rows, computed a whole row at a time. With five
//! shared power supplies (the hierarchical failure domains of Mills et al.)
//! that is the component's own row ORed with one shared row.
//!
//! What remains under the root's OR gates — AND and K-of-N gates — becomes
//! a flat program of node operations, children before parents, run once
//! per 256-round wide word. K-of-N gates count failing children in
//! bit-sliced binary counters (one wide word per binary digit), so any
//! number of children counts exactly.
//!
//! The collapse runs either from a raw matrix into a table of its own
//! ([`CompiledTrees::run`]) or in place, in a chunk table that holds the
//! raw event rows ([`CompiledTrees::run_in_place`]): each component's row
//! ORs in its leaves' rows and its programs. Trees read raw states, so a
//! row that is both rewritten (its component has a tree) and read as a
//! leaf is first copied to a *shadow* row below the event rows, and its
//! readers read the copy. Which rows need one is fixed when the trees
//! compile; `paper_default` needs none (power supplies have no tree).

use crate::tree::{FaultTree, Node, NodeId};
use recloud_sampling::{BitMatrix, WideWord};

/// One program step; its value is the wide word of the lanes in which the
/// node fails. Child operands are slots of earlier steps of the same
/// program, stored in [`CompiledTrees::args`].
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A basic event: that raw row's wide word.
    Leaf(u32),
    /// Fails when any child fails.
    Or { args: (u32, u32) },
    /// Fails when every child fails.
    And { args: (u32, u32) },
    /// Fails when at least `k` children fail.
    AtLeast { k: u32, args: (u32, u32) },
}

/// A component whose tree has gates other than OR: the program `ops` is
/// ORed into its collapsed row, the value of its last step.
#[derive(Clone, Copy, Debug)]
struct Gated {
    component: u32,
    ops: (u32, u32),
}

/// Every component's dependency tree in flat form.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompiledTrees {
    /// Raw rows copied to shadow rows before an in-place collapse: shadow
    /// `i` is row `events + i` of the table.
    shadows: Vec<u32>,
    /// Per event, the table row an in-place collapse reads it from: its
    /// own row, or its shadow.
    leaf_rows: Vec<u32>,
    /// Component `c` ORs `rows[row_ends[c - 1]..row_ends[c]]` (from 0 for
    /// `c = 0`): its own raw row first, then every leaf reachable from its
    /// tree's root through OR gates alone.
    row_ends: Vec<u32>,
    rows: Vec<u32>,
    gated: Vec<Gated>,
    ops: Vec<Op>,
    args: Vec<u32>,
    /// Steps of the longest program: the scratch one wide word needs.
    max_program: usize,
}

impl CompiledTrees {
    /// Compiles one tree (or none) per component, over `events` sampled
    /// events.
    pub(crate) fn compile(trees: &[Option<FaultTree>], events: usize) -> Self {
        let mut out = CompiledTrees::default();
        let mut gates = Vec::new();
        for (c, tree) in trees.iter().enumerate() {
            let component = u32::try_from(c).expect("component ids fit in u32");
            out.rows.push(component);
            if let Some(tree) = tree {
                out.flatten_or(tree, tree.root(), &mut gates);
                if !gates.is_empty() {
                    out.emit_program(component, tree, &gates);
                    gates.clear();
                }
            }
            out.row_ends.push(out.rows.len() as u32);
        }
        out.plan_shadows(events);
        out
    }

    /// Picks the rows an in-place collapse must read from a shadow: rows
    /// of components it rewrites that some component reads as a leaf.
    fn plan_shadows(&mut self, events: usize) {
        let mut rewritten = vec![false; events];
        let mut read = vec![false; events];
        let mut start = 0;
        for (c, &end) in self.row_ends.iter().enumerate() {
            let leaves = &self.rows[start + 1..end as usize];
            rewritten[c] = !leaves.is_empty();
            for &leaf in leaves {
                read[leaf as usize] = true;
            }
            start = end as usize;
        }
        for g in &self.gated {
            rewritten[g.component as usize] = true;
        }
        for op in &self.ops {
            if let Op::Leaf(e) = *op {
                read[e as usize] = true;
            }
        }
        self.leaf_rows = (0..events as u32).collect();
        for e in (0..events).filter(|&e| rewritten[e] && read[e]) {
            self.leaf_rows[e] = (events + self.shadows.len()) as u32;
            self.shadows.push(e as u32);
        }
    }

    /// Shadow rows an in-place collapse needs below the event rows.
    pub(crate) fn shadow_rows(&self) -> usize {
        self.shadows.len()
    }

    /// Adds the leaves under `node` reachable through OR gates to `rows`,
    /// and collects the other gates met on the way into `gates`.
    fn flatten_or(&mut self, tree: &FaultTree, node: NodeId, gates: &mut Vec<NodeId>) {
        match tree.node(node) {
            Node::Basic(e) => self.rows.push(e.0),
            Node::Or(children) => {
                for &child in children {
                    self.flatten_or(tree, child, gates);
                }
            }
            Node::And(_) | Node::KofN(..) => gates.push(node),
        }
    }

    /// Emits the program computing the OR of `gates` for `component`.
    fn emit_program(&mut self, component: u32, tree: &FaultTree, gates: &[NodeId]) {
        let first = self.ops.len();
        let mut slots = vec![u32::MAX; tree.len()];
        let roots: Vec<u32> =
            gates.iter().map(|&g| self.emit(tree, g, first, &mut slots)).collect();
        if roots.len() > 1 {
            let args = self.push_args(&roots);
            self.ops.push(Op::Or { args });
        }
        let ops = (first as u32, self.ops.len() as u32);
        self.max_program = self.max_program.max(self.ops.len() - first);
        self.gated.push(Gated { component, ops });
    }

    /// Emits `node` after its children (once per program, however many
    /// parents share it) and returns its slot.
    fn emit(&mut self, tree: &FaultTree, node: NodeId, first: usize, slots: &mut [u32]) -> u32 {
        if slots[node as usize] != u32::MAX {
            return slots[node as usize];
        }
        let mut gate = |children: &[NodeId]| {
            let operands: Vec<u32> =
                children.iter().map(|&child| self.emit(tree, child, first, slots)).collect();
            self.push_args(&operands)
        };
        let op = match tree.node(node) {
            Node::Basic(e) => Op::Leaf(e.0),
            Node::Or(children) => Op::Or { args: gate(children) },
            Node::And(children) => Op::And { args: gate(children) },
            Node::KofN(k, children) => Op::AtLeast { k: *k, args: gate(children) },
        };
        let slot = (self.ops.len() - first) as u32;
        self.ops.push(op);
        slots[node as usize] = slot;
        slot
    }

    fn push_args(&mut self, operands: &[u32]) -> (u32, u32) {
        let start = self.args.len() as u32;
        self.args.extend_from_slice(operands);
        (start, self.args.len() as u32)
    }

    /// Writes every component's collapsed row of `out` from `raw`.
    pub(crate) fn run(&self, raw: &BitMatrix, out: &mut BitMatrix) {
        let mut start = 0;
        for (c, &end) in self.row_ends.iter().enumerate() {
            out.set_row_or(c, raw, &self.rows[start..end as usize]);
            start = end as usize;
        }
        let mut slots = vec![WideWord::ZERO; self.max_program];
        for g in &self.gated {
            let program = &self.ops[g.ops.0 as usize..g.ops.1 as usize];
            let c = g.component as usize;
            for ww in 0..raw.wide_words_per_row() {
                let failed = self.eval(program, |e| raw.wide_word(e as usize, ww), &mut slots);
                out.set_wide_word(c, ww, out.wide_word(c, ww) | failed);
            }
        }
    }

    /// Collapses `table` in place: its first `events` rows hold the raw
    /// event states, the [`CompiledTrees::shadow_rows`] rows below them
    /// are scratch. Afterwards each component's row holds its collapsed
    /// states; the other rows are left for the caller to drop.
    pub(crate) fn run_in_place(&self, table: &mut BitMatrix) {
        let events = table.components() - self.shadows.len();
        for (i, &e) in self.shadows.iter().enumerate() {
            table.copy_row(e as usize, events + i);
        }
        let mut start = 0;
        for (c, &end) in self.row_ends.iter().enumerate() {
            for &leaf in &self.rows[start + 1..end as usize] {
                table.or_row_into(c, self.leaf_rows[leaf as usize] as usize);
            }
            start = end as usize;
        }
        let mut slots = vec![WideWord::ZERO; self.max_program];
        for g in &self.gated {
            let program = &self.ops[g.ops.0 as usize..g.ops.1 as usize];
            let c = g.component as usize;
            for ww in 0..table.wide_words_per_row() {
                let leaf = |e: u32| table.wide_word(self.leaf_rows[e as usize] as usize, ww);
                let failed = self.eval(program, leaf, &mut slots);
                table.set_wide_word(c, ww, table.wide_word(c, ww) | failed);
            }
        }
    }

    /// Runs one program over one wide word, whose leaves `leaf` reads.
    fn eval(
        &self,
        program: &[Op],
        leaf: impl Fn(u32) -> WideWord,
        slots: &mut [WideWord],
    ) -> WideWord {
        let args = |(a, b): (u32, u32)| &self.args[a as usize..b as usize];
        for (i, op) in program.iter().enumerate() {
            slots[i] = match *op {
                Op::Leaf(e) => leaf(e),
                Op::Or { args: a } => {
                    args(a).iter().fold(WideWord::ZERO, |acc, &s| acc | slots[s as usize])
                }
                Op::And { args: a } => {
                    args(a).iter().fold(WideWord::ONES, |acc, &s| acc & slots[s as usize])
                }
                Op::AtLeast { k, args: a } => {
                    let children = args(a);
                    at_least(k, children.len(), children.iter().map(|&s| slots[s as usize]))
                }
            };
        }
        slots[program.len() - 1]
    }
}

/// Lanes in which at least `k` of the `n` words are set. Each lane's count
/// is a binary number held bit-sliced — digit `d` of every lane in
/// `count[d]` — added to with a ripple carry and compared with `k` from the
/// most significant digit down.
fn at_least(k: u32, n: usize, words: impl Iterator<Item = WideWord>) -> WideWord {
    // n < 2^digits; a tree has at most u32::MAX nodes, so 32 digits suffice.
    let digits = (usize::BITS - n.leading_zeros()) as usize;
    let mut count = [WideWord::ZERO; 32];
    let count = &mut count[..digits];
    for word in words {
        let mut carry = word;
        for digit in count.iter_mut() {
            if carry.is_zero() {
                break;
            }
            let sum = *digit ^ carry;
            carry = *digit & carry;
            *digit = sum;
        }
    }
    // k <= n, so k has no set bit at or above `digits`.
    let (mut above, mut equal) = (WideWord::ZERO, WideWord::ONES);
    for (d, &digit) in count.iter().enumerate().rev() {
        if (k >> d) & 1 == 1 {
            equal &= digit;
        } else {
            above |= equal & digit;
            equal &= !digit;
        }
    }
    above | equal
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lane `l` of word `i` is set when bit `i` of `l` is: every lane sees
    /// a different subset of up to eight words.
    fn subset_words() -> Vec<WideWord> {
        (0..8)
            .map(|i| {
                let mut w = WideWord::ZERO;
                for lane in (0..WideWord::LANES).filter(|l| (l >> i) & 1 == 1) {
                    w.set_lane(lane);
                }
                w
            })
            .collect()
    }

    #[test]
    fn at_least_counts_every_lane() {
        let words = subset_words();
        for k in 1..=8u32 {
            let got = at_least(k, 8, words.iter().copied());
            for lane in 0..WideWord::LANES {
                assert_eq!(got.bit(lane), lane.count_ones() >= k, "k={k} lane={lane}");
            }
        }
    }
}
