//! Property test: the compiled collapse equals the per-round oracle.
//!
//! `FaultModel::collapse_into` runs the trees compiled into a flat program
//! (OR-of-leaves rows plus node programs over wide words with bit-sliced
//! K-of-N counters) from a raw matrix into a table of its own;
//! `FaultModel::collapse_in_place` runs it in the table the events were
//! sampled into, reading rewritten leaves from shadow rows.
//! `FaultModel::effective_failed` evaluates each tree one round at a time.
//! For random models — nested OR/AND/K-of-N gates, gates with more than
//! 255 children, auxiliary events, subtrees shared within a tree and
//! events shared across components, components whose tree reads another
//! collapsed component, trees installed by `set_tree` and merged by
//! `or_attach` — plus the Fig 5 template, and random raw states, all three
//! must agree on every component and round, at round counts around the
//! 256-lane boundary and at a 2 560-round chunk plus a tail.

use recloud_faults::{FaultModel, FaultTree, FaultTreeBuilder, Fig5Template, ProbabilityConfig};
use recloud_sampling::proptest::{forall, Gen};
use recloud_sampling::{prop_assert, prop_assert_eq, BitMatrix};
use recloud_topology::{ComponentId, ComponentKind, FatTreeParams, Scale};

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
    // A component whose tree reads another collapsed component, through
    // an OR or under an AND gate: the in-place collapse must read that
    // leaf's raw row from its shadow.
    let components = m.num_topology_components();
    let leaf = ComponentId::from_index(g.usize_in(0..components));
    m.or_attach(leaf, random_tree(g, m.num_events()));
    let reader = ComponentId::from_index(g.usize_in(0..components));
    let mut b = FaultTreeBuilder::new();
    let read = b.basic(leaf);
    let root = if g.any_bool() {
        read
    } else {
        let other = b.basic(ComponentId::from_index(g.usize_in(0..m.num_events())));
        b.and(vec![read, other])
    };
    m.or_attach(reader, b.build(root));
    m
}

/// Random raw states of `model`'s events at `density` (dense states too,
/// so AND and K-of-N gates fail as well as hold).
fn random_raw(g: &mut Gen, model: &FaultModel, rounds: usize) -> BitMatrix {
    let density = [0.02, 0.3, 0.9][g.usize_in(0..3)];
    let mut raw = BitMatrix::new(model.num_events(), rounds);
    for e in 0..model.num_events() {
        for r in 0..rounds {
            if g.f64_in(0.0..1.0) < density {
                raw.set(e, r);
            }
        }
    }
    raw
}

/// Collapses `raw` both ways and checks each against the per-round
/// oracle on every component and round.
fn check_against_oracle(g: &mut Gen, model: &FaultModel, raw: &BitMatrix) -> Result<(), String> {
    let rounds = raw.rounds();
    let mut out = BitMatrix::new(model.num_topology_components(), rounds);
    model.collapse_into(raw, &mut out);
    // The event rows sampled into the table; its shadow rows start out as
    // stale garbage the collapse must not read.
    let mut table = BitMatrix::new(model.table_rows(), rounds);
    for row in 0..model.table_rows() {
        for r in 0..rounds {
            let bit = if row < model.num_events() { raw.get(row, r) } else { g.any_bool() };
            if bit {
                table.set(row, r);
            }
        }
    }
    model.collapse_in_place(&mut table);
    prop_assert_eq!(table.components(), model.num_topology_components());
    for c in 0..model.num_topology_components() {
        for r in 0..rounds {
            let want = model.effective_failed(raw, ComponentId::from_index(c), r);
            prop_assert_eq!(out.get(c, r), want, "component {c} round {r} of {rounds}");
            prop_assert_eq!(table.get(c, r), want, "in place: component {c} round {r} of {rounds}");
        }
    }
    Ok(())
}

#[test]
fn compiled_collapse_equals_per_round_oracle() {
    forall("compiled collapse equals effective_failed", |g| {
        let model = random_model(g);
        prop_assert!(model.table_rows() > model.num_events(), "a leaf needs a shadow row");
        let rounds = ROUNDS[g.usize_in(0..ROUNDS.len())];
        let raw = random_raw(g, &model, rounds);
        check_against_oracle(g, &model, &raw)
    });
}

/// The Fig 5 template (redundant supplies and cooling under AND gates,
/// shared software under ORs) plus a K-of-N gate of room-level events on
/// every switch, collapsed in place and out of place.
#[test]
fn fig5_template_collapse_equals_per_round_oracle() {
    let t = Scale::Tiny.build();
    let mut model = FaultModel::new(&t, &ProbabilityConfig::PaperDefault, 5);
    Fig5Template::default().apply(&t, &mut model);
    let room: Vec<ComponentId> = (0..3)
        .map(|i| model.add_auxiliary(ComponentKind::CoolingUnit, &format!("room-{i}"), 0.05))
        .collect();
    for c in t.components().iter().filter(|c| c.kind.is_switch()) {
        let mut b = FaultTreeBuilder::new();
        let leaves = room.iter().map(|&e| b.basic(e)).collect();
        let gate = b.k_of_n(2, leaves);
        model.or_attach(c.id, b.build(gate));
    }
    forall("fig 5 collapse equals effective_failed", |g| {
        let rounds = ROUNDS[g.usize_in(0..ROUNDS.len())];
        let raw = random_raw(g, &model, rounds);
        prop_assert!(model.num_events() > model.num_topology_components(), "auxiliary events");
        check_against_oracle(g, &model, &raw)
    });
}
