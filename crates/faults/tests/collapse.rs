//! Property test: the compiled collapse equals the per-round oracle.
//!
//! `FaultModel::collapse_into` runs the trees compiled into a flat program
//! (OR-of-leaves rows plus node programs over wide words with bit-sliced
//! K-of-N counters). `FaultModel::effective_failed` evaluates each tree
//! one round at a time. For random models — nested OR/AND/K-of-N gates,
//! gates with more than 255 children, auxiliary events, subtrees shared
//! within a tree and events shared across components, trees installed by
//! `set_tree` and merged by `or_attach` — and random raw states, both must
//! agree on every component and round, at round counts around the
//! 256-lane boundary and at a 2 560-round chunk plus a tail.

use recloud_faults::{FaultModel, FaultTree, FaultTreeBuilder, ProbabilityConfig};
use recloud_sampling::proptest::{forall, Gen};
use recloud_sampling::{prop_assert_eq, BitMatrix};
use recloud_topology::{ComponentId, ComponentKind, FatTreeParams};

const ROUNDS: [usize; 5] = [1, 255, 256, 257, 2_560 + 37];

/// A random tree over `events`: leaves, then gates over random subsets of
/// the nodes built so far (so later gates share earlier subtrees), with an
/// occasional gate of 256–300 leaves.
fn random_tree(g: &mut Gen, events: usize) -> FaultTree {
    let mut b = FaultTreeBuilder::new();
    let leaf = |g: &mut Gen, b: &mut FaultTreeBuilder| {
        b.basic(ComponentId::from_index(g.usize_in(0..events)))
    };
    let mut nodes: Vec<u32> = (0..g.usize_in(1..6)).map(|_| leaf(g, &mut b)).collect();
    for _ in 0..g.usize_in(0..6) {
        let children: Vec<u32> = if g.usize_in(0..5) == 0 {
            (0..g.usize_in(256..301)).map(|_| leaf(g, &mut b)).collect()
        } else {
            (0..g.usize_in(1..5)).map(|_| nodes[g.usize_in(0..nodes.len())]).collect()
        };
        let gate = match g.usize_in(0..3) {
            0 => b.or(children),
            1 => b.and(children),
            _ => {
                let k = g.u32_in(1..children.len() as u32 + 1);
                b.k_of_n(k, children)
            }
        };
        nodes.push(gate);
    }
    let root = *nodes.last().expect("at least one leaf");
    b.build(root)
}

fn random_model(g: &mut Gen) -> FaultModel {
    let t = FatTreeParams::new(4).build();
    let mut m = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.01), g.any_u64());
    for i in 0..g.usize_in(0..12) {
        m.add_auxiliary(ComponentKind::CoolingUnit, &format!("aux-{i}"), 0.01);
    }
    if g.any_bool() {
        m.attach_power_dependencies(&t);
    }
    for _ in 0..g.usize_in(0..12) {
        let c = ComponentId::from_index(g.usize_in(0..m.num_topology_components()));
        let tree = random_tree(g, m.num_events());
        if g.any_bool() {
            m.set_tree(c, tree);
        } else {
            m.or_attach(c, tree);
        }
    }
    m
}

#[test]
fn compiled_collapse_equals_per_round_oracle() {
    forall("compiled collapse equals effective_failed", |g| {
        let model = random_model(g);
        let rounds = ROUNDS[g.usize_in(0..ROUNDS.len())];
        // Dense states too, so AND and K-of-N gates fail as well as hold.
        let density = [0.02, 0.3, 0.9][g.usize_in(0..3)];
        let mut raw = BitMatrix::new(model.num_events(), rounds);
        for e in 0..model.num_events() {
            for r in 0..rounds {
                if g.f64_in(0.0..1.0) < density {
                    raw.set(e, r);
                }
            }
        }
        let mut out = BitMatrix::new(model.num_topology_components(), rounds);
        model.collapse_into(&raw, &mut out);
        for c in 0..model.num_topology_components() {
            for r in 0..rounds {
                let want = model.effective_failed(&raw, ComponentId::from_index(c), r);
                prop_assert_eq!(out.get(c, r), want, "component {c} round {r} of {rounds}");
            }
        }
        Ok(())
    });
}
