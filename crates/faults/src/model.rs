//! The assembled fault model: probabilities + dependency fault trees +
//! auxiliary dependency components.
//!
//! [`FaultModel`] is what the assessment pipeline consumes. It owns:
//!
//! * the failure-probability vector over all *sampled events* — every
//!   topology component plus any auxiliary components (e.g. a shared OS
//!   image that is not part of the physical topology);
//! * an optional fault tree per topology component, describing when that
//!   component fails *because of its dependencies* (§3.2.3). A component's
//!   effective state in a round is `own sampled state OR tree(deps)`.
//!
//! Collapsing raw sampled states into effective states is one of the two
//! hot loops of a cold assessment; it runs the trees compiled into a flat
//! program, into a table of its own ([`FaultModel::collapse_into`]) or in
//! place in the table the events were sampled into
//! ([`FaultModel::collapse_in_place`]).

use crate::collapse::CompiledTrees;
use crate::probability::ProbabilityConfig;
use crate::tree::FaultTree;
use recloud_sampling::BitMatrix;
use recloud_topology::{ComponentId, ComponentKind, SoftwareKind, Topology};
use std::sync::OnceLock;

/// An auxiliary sampled event that is not a topology component (shared OS
/// image, library version, room-level cooling, …).
#[derive(Clone, Debug, PartialEq)]
pub struct AuxComponent {
    /// Its id in the extended event space (≥ `Topology::num_components`).
    pub id: ComponentId,
    /// What it models.
    pub kind: ComponentKind,
    /// Free-form label for reports.
    pub label: String,
}

/// Probabilities and dependency structure for one topology.
#[derive(Clone, Debug)]
pub struct FaultModel {
    topo_components: usize,
    probs: Vec<f64>,
    aux: Vec<AuxComponent>,
    trees: Vec<Option<FaultTree>>,
    /// `trees` compiled for the collapse: built by the first collapse and
    /// dropped by every change to the trees or the event count.
    compiled: OnceLock<CompiledTrees>,
}

impl FaultModel {
    /// Builds a model with the given probability assignment and **no**
    /// dependency trees (hosts and switches fail only by themselves).
    pub fn new(topology: &Topology, config: &ProbabilityConfig, seed: u64) -> Self {
        let probs = config.assign(topology, seed);
        FaultModel {
            topo_components: topology.num_components(),
            probs,
            aux: Vec::new(),
            trees: vec![None; topology.num_components()],
            compiled: OnceLock::new(),
        }
    }

    /// The paper's §4.1 evaluation model: paper-default probabilities plus
    /// power-supply dependency trees for every switch and host.
    pub fn paper_default(topology: &Topology, seed: u64) -> Self {
        let mut m = FaultModel::new(topology, &ProbabilityConfig::PaperDefault, seed);
        m.attach_power_dependencies(topology);
        m
    }

    /// Redraws the topology components' probabilities from `config` under
    /// `seed`, exactly as [`FaultModel::new`] draws them. Auxiliary events
    /// keep theirs; the dependency trees, which depend on the topology
    /// alone, and their compiled program stay. A
    /// [`FaultModel::paper_default`] model of any seed, redrawn with
    /// [`ProbabilityConfig::PaperDefault`] under `seed`, equals
    /// `paper_default(topology, seed)` bit for bit.
    ///
    /// # Panics
    /// Panics if `topology` has another component count than the model's.
    pub fn reassign(&mut self, topology: &Topology, config: &ProbabilityConfig, seed: u64) {
        assert_eq!(
            topology.num_components(),
            self.topo_components,
            "model was built for a different topology"
        );
        let probs = config.assign(topology, seed);
        self.probs[..self.topo_components].copy_from_slice(&probs);
    }

    /// Total number of sampled events (topology components + auxiliaries).
    pub fn num_events(&self) -> usize {
        self.probs.len()
    }

    /// Number of topology components (= rows of a collapsed matrix).
    pub fn num_topology_components(&self) -> usize {
        self.topo_components
    }

    /// The probability vector over all events, indexable by raw id.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// One event's probability.
    pub fn prob_of(&self, id: ComponentId) -> f64 {
        self.probs[id.index()]
    }

    /// Overrides one event's probability (e.g. a bathtub-curve update or a
    /// near-real-time monitoring feed; §3.2.2 notes reCloud "can adjust p
    /// quickly").
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_prob(&mut self, id: ComponentId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.probs[id.index()] = p;
    }

    /// Registered auxiliary components.
    pub fn aux_components(&self) -> &[AuxComponent] {
        &self.aux
    }

    /// Adds an auxiliary sampled event and returns its id.
    pub fn add_auxiliary(&mut self, kind: ComponentKind, label: &str, p: f64) -> ComponentId {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let id = ComponentId::from_index(self.probs.len());
        self.probs.push(p);
        self.aux.push(AuxComponent { id, kind, label: label.to_owned() });
        self.compiled = OnceLock::new();
        id
    }

    /// The dependency tree of a topology component, if any.
    pub fn tree_of(&self, id: ComponentId) -> Option<&FaultTree> {
        self.trees[id.index()].as_ref()
    }

    /// Replaces a component's dependency tree.
    pub fn set_tree(&mut self, id: ComponentId, tree: FaultTree) {
        assert!(id.index() < self.topo_components, "trees attach to topology components");
        self.trees[id.index()] = Some(tree);
        self.compiled = OnceLock::new();
    }

    /// ORs another dependency tree into a component's existing tree (or
    /// installs it if none exists) — the "integrate new dependency feeds
    /// seamlessly" path.
    pub fn or_attach(&mut self, id: ComponentId, tree: FaultTree) {
        assert!(id.index() < self.topo_components, "trees attach to topology components");
        let slot = &mut self.trees[id.index()];
        *slot = Some(match slot.take() {
            Some(existing) => FaultTree::or_merge(&existing, &tree),
            None => tree,
        });
        self.compiled = OnceLock::new();
    }

    /// Attaches the topology's power assignment as dependency trees: every
    /// powered component fails when its supply fails (§4.1).
    pub fn attach_power_dependencies(&mut self, topology: &Topology) {
        for c in topology.components() {
            if let Some(supply) = topology.power_of(c.id) {
                self.or_attach(c.id, FaultTree::single(supply));
            }
        }
    }

    /// Attaches a shared software stack: `images` OS images are created as
    /// auxiliary events and assigned to hosts round-robin by rack, plus one
    /// shared library used by every host (the GitHub/Azure-style fleet-wide
    /// dependency). Returns the created event ids (images, then library).
    pub fn attach_shared_software(
        &mut self,
        topology: &Topology,
        images: usize,
        image_prob: f64,
        library_prob: f64,
    ) -> Vec<ComponentId> {
        assert!(images >= 1, "need at least one OS image");
        let mut ids = Vec::with_capacity(images + 1);
        for i in 0..images {
            ids.push(self.add_auxiliary(
                ComponentKind::Software(SoftwareKind::Os),
                &format!("os-image-{i}"),
                image_prob,
            ));
        }
        let lib = self.add_auxiliary(
            ComponentKind::Software(SoftwareKind::Library),
            "shared-library",
            library_prob,
        );
        ids.push(lib);
        for (idx, &h) in topology.hosts().iter().enumerate() {
            let image = ids[idx % images];
            self.or_attach(h, FaultTree::single(image));
            self.or_attach(h, FaultTree::single(lib));
        }
        ids
    }

    /// Effective failure state of a topology component in one round:
    /// its own sampled state OR its dependency tree.
    pub fn effective_failed(&self, raw: &BitMatrix, id: ComponentId, round: usize) -> bool {
        if raw.get(id.index(), round) {
            return true;
        }
        match &self.trees[id.index()] {
            Some(t) => t.eval(&|c: ComponentId| raw.get(c.index(), round)),
            None => false,
        }
    }

    /// The *blast radius* of one event: every topology component that
    /// fails when `event` (and nothing else) fails. Quantifies the
    /// correlated-failure exposure of shared dependencies — the paper's
    /// motivating outages (GitHub power, Azure storage) are exactly
    /// large-blast-radius events. DieHard-style failure domains fall out
    /// of grouping components by the events whose radius contains them.
    pub fn blast_radius(&self, event: ComponentId) -> Vec<ComponentId> {
        let mut raw = BitMatrix::new(self.num_events(), 1);
        raw.set(event.index(), 0);
        (0..self.topo_components)
            .map(ComponentId::from_index)
            .filter(|&c| self.effective_failed(&raw, c, 0))
            .collect()
    }

    /// Collapses raw sampled event states into effective per-component
    /// states, overwriting every row of `out`. `out` must have
    /// `num_topology_components()` rows and the same round count as `raw`.
    ///
    /// Runs the trees compiled into a flat program, compiling them on the
    /// first call after a change: a component whose tree is an OR of
    /// leaves gets the OR of those raw rows, a whole row at a time; AND and
    /// K-of-N gates run as a node program over 256-round wide words.
    /// Round for round the result equals
    /// [`FaultModel::effective_failed`].
    ///
    /// After this call, downstream route-and-check only ever looks at
    /// `out`: all correlated-failure reasoning has been folded in.
    pub fn collapse_into(&self, raw: &BitMatrix, out: &mut BitMatrix) {
        assert_eq!(raw.components(), self.num_events(), "raw matrix shape mismatch");
        assert_eq!(out.components(), self.topo_components, "out matrix shape mismatch");
        assert_eq!(raw.rounds(), out.rounds(), "round count mismatch");
        self.compiled().run(raw, out);
    }

    /// Rows of a table that [`FaultModel::collapse_in_place`] collapses:
    /// one per event — topology components first, auxiliary events at the
    /// bottom — then the shadow rows the in-place collapse copies leaves
    /// to (none for [`FaultModel::paper_default`]).
    pub fn table_rows(&self) -> usize {
        self.num_events() + self.compiled().shadow_rows()
    }

    /// Collapses raw sampled event states into effective per-component
    /// states in the same table: `table` has
    /// [`FaultModel::table_rows`] rows, the first
    /// [`FaultModel::num_events`] of them sampled; the rest are scratch.
    /// Each component's row ORs in its leaves' rows and its gate
    /// programs. A row that is both rewritten and read as a leaf is read
    /// from a shadow copy taken first, so the result equals
    /// [`FaultModel::collapse_into`] of the event rows bit for bit. The
    /// table then keeps only its `num_topology_components()` component
    /// rows; its allocation stays.
    pub fn collapse_in_place(&self, table: &mut BitMatrix) {
        assert_eq!(table.components(), self.table_rows(), "table shape mismatch");
        self.compiled().run_in_place(table);
        table.resize_rows(self.topo_components);
    }

    /// The trees compiled for the collapse, compiled on the first call
    /// after a change.
    fn compiled(&self) -> &CompiledTrees {
        self.compiled.get_or_init(|| CompiledTrees::compile(&self.trees, self.num_events()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_sampling::{ExtendedDaggerSampler, Sampler};
    use recloud_topology::FatTreeParams;

    fn tiny_model() -> (Topology, FaultModel) {
        let t = FatTreeParams::new(4).build();
        let m = FaultModel::paper_default(&t, 1);
        (t, m)
    }

    #[test]
    fn paper_default_has_power_trees_everywhere() {
        let (t, m) = tiny_model();
        for c in t.components() {
            let has_tree = m.tree_of(c.id).is_some();
            let has_power = t.power_of(c.id).is_some();
            assert_eq!(has_tree, has_power, "{c}");
        }
        assert_eq!(m.num_events(), t.num_components());
        assert_eq!(m.table_rows(), m.num_events(), "supplies have no tree: no shadow rows");
    }

    /// Redrawing only the probabilities of a Medium `paper_default` model
    /// yields that seed's `paper_default` model: the same probability
    /// bits, trees and collapsed tables (through the kept compiled
    /// program).
    #[test]
    fn reassigned_probabilities_equal_paper_default_on_medium() {
        let t = recloud_topology::Scale::Medium.build();
        let mut m = FaultModel::paper_default(&t, 401);
        let mut raw = BitMatrix::new(m.num_events(), 256);
        let mut kept = BitMatrix::new(m.num_topology_components(), 256);
        let mut fresh = kept.clone();
        m.collapse_into(&raw, &mut kept); // compiles the trees once
        for seed in [402u64, 403, 404, 401] {
            m.reassign(&t, &ProbabilityConfig::PaperDefault, seed);
            let want = FaultModel::paper_default(&t, seed);
            let bits = |m: &FaultModel| m.probs().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&m), bits(&want), "seed {seed}");
            assert_eq!(m.trees, want.trees, "seed {seed}");
            ExtendedDaggerSampler::seeded(seed).sample_into(m.probs(), &mut raw);
            m.collapse_into(&raw, &mut kept);
            want.collapse_into(&raw, &mut fresh);
            assert_eq!(kept, fresh, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn reassign_rejects_foreign_topology() {
        let (_t, mut m) = tiny_model();
        let other = FatTreeParams::new(6).build();
        m.reassign(&other, &ProbabilityConfig::PaperDefault, 1);
    }

    #[test]
    fn power_failure_propagates_to_consumers() {
        let (t, m) = tiny_model();
        let host = t.hosts()[0];
        let supply = t.power_of(host).unwrap();
        let mut raw = BitMatrix::new(m.num_events(), 4);
        raw.set(supply.index(), 2);
        assert!(!m.effective_failed(&raw, host, 1));
        assert!(m.effective_failed(&raw, host, 2));
        // And to every other consumer of the same supply.
        for c in t.components() {
            if t.power_of(c.id) == Some(supply) {
                assert!(m.effective_failed(&raw, c.id, 2), "{c}");
            }
        }
    }

    #[test]
    fn collapse_matches_scalar_effective_failed() {
        let (t, mut m) = tiny_model();
        m.attach_shared_software(&t, 2, 0.01, 0.005);
        let mut raw = BitMatrix::new(m.num_events(), 200);
        ExtendedDaggerSampler::seeded(3).sample_into(m.probs(), &mut raw);
        let mut out = BitMatrix::new(m.num_topology_components(), 200);
        m.collapse_into(&raw, &mut out);
        for c in 0..m.num_topology_components() {
            for r in 0..200 {
                assert_eq!(
                    out.get(c, r),
                    m.effective_failed(&raw, ComponentId::from_index(c), r),
                    "component {c} round {r}"
                );
            }
        }
    }

    /// K-of-N gates with 256 and more children count every failing child:
    /// in round r the gate's first r children have failed.
    #[test]
    fn k_of_n_counts_past_255_children() {
        let (t, mut m) = tiny_model();
        let host = t.hosts()[0];
        let units: Vec<ComponentId> = (0..300)
            .map(|i| m.add_auxiliary(ComponentKind::CoolingUnit, &format!("unit-{i}"), 0.01))
            .collect();
        let rounds = 301;
        let mut raw = BitMatrix::new(m.num_events(), rounds);
        for r in 0..rounds {
            for &u in &units[..r.min(units.len())] {
                raw.set(u.index(), r);
            }
        }
        for (n, k) in [(256usize, 256u32), (256, 1), (300, 255), (300, 256), (300, 299), (300, 300)]
        {
            let mut b = crate::FaultTreeBuilder::new();
            let leaves = units[..n].iter().map(|&u| b.basic(u)).collect();
            let root = b.k_of_n(k, leaves);
            m.set_tree(host, b.build(root));
            let mut out = BitMatrix::new(m.num_topology_components(), rounds);
            m.collapse_into(&raw, &mut out);
            let tree = m.tree_of(host).expect("just set");
            for r in 0..rounds {
                let scalar = tree.eval(&|c: ComponentId| raw.get(c.index(), r));
                assert_eq!(scalar, r.min(n) >= k as usize, "oracle, {k} of {n}, round {r}");
                assert_eq!(out.get(host.index(), r), scalar, "{k} of {n}, round {r}");
            }
        }
    }

    #[test]
    fn shared_software_connects_hosts() {
        let (t, mut m) = tiny_model();
        let ids = m.attach_shared_software(&t, 2, 0.01, 0.005);
        let lib = *ids.last().unwrap();
        let mut raw = BitMatrix::new(m.num_events(), 1);
        raw.set(lib.index(), 0);
        // A library failure fails *every* host — the fleet-wide correlated
        // failure the paper's motivating outages describe.
        for &h in t.hosts() {
            assert!(m.effective_failed(&raw, h, 0));
        }
        // But no switch.
        let m_meta = t.fat_tree().unwrap();
        assert!(!m.effective_failed(&raw, m_meta.edge(0, 0), 0));
    }

    #[test]
    fn aux_events_extend_probability_vector() {
        let (t, mut m) = tiny_model();
        let before = m.num_events();
        let id = m.add_auxiliary(ComponentKind::CoolingUnit, "room-cooling", 0.002);
        assert_eq!(id.index(), before);
        assert_eq!(m.num_events(), before + 1);
        assert_eq!(m.prob_of(id), 0.002);
        assert_eq!(m.num_topology_components(), t.num_components());
    }

    #[test]
    fn set_prob_validates_and_updates() {
        let (_t, mut m) = tiny_model();
        m.set_prob(ComponentId(0), 0.5);
        assert_eq!(m.prob_of(ComponentId(0)), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_prob_rejects_bad_values() {
        let (_t, mut m) = tiny_model();
        m.set_prob(ComponentId(0), 1.5);
    }

    #[test]
    fn or_attach_merges_trees() {
        let (t, mut m) = tiny_model();
        let host = t.hosts()[0];
        let aux = m.add_auxiliary(ComponentKind::CoolingUnit, "rack-cooling", 0.01);
        m.or_attach(host, FaultTree::single(aux));
        let mut raw = BitMatrix::new(m.num_events(), 1);
        raw.set(aux.index(), 0);
        assert!(m.effective_failed(&raw, host, 0));
        // The original power dependency still works.
        let mut raw2 = BitMatrix::new(m.num_events(), 1);
        raw2.set(t.power_of(host).unwrap().index(), 0);
        assert!(m.effective_failed(&raw2, host, 0));
    }

    #[test]
    fn external_never_fails_under_paper_default() {
        let (t, m) = tiny_model();
        assert_eq!(m.prob_of(t.external()), 0.0);
    }

    #[test]
    fn blast_radius_of_a_power_supply() {
        let (t, m) = tiny_model();
        let supply = t.power_supplies()[0];
        let radius = m.blast_radius(supply);
        // The supply itself fails, plus every consumer.
        assert!(radius.contains(&supply));
        for c in t.components() {
            let expect = c.id == supply || t.power_of(c.id) == Some(supply);
            assert_eq!(radius.contains(&c.id), expect, "{c}");
        }
        // With 5 supplies round-robin, roughly a fifth of the powered
        // components hang off each one.
        let powered = t.components().iter().filter(|c| t.power_of(c.id).is_some()).count();
        assert!(radius.len() > powered / 8, "radius too small: {}", radius.len());
    }

    #[test]
    fn blast_radius_of_an_independent_component_is_itself() {
        let (t, m) = tiny_model();
        let host = t.hosts()[0];
        let radius = m.blast_radius(host);
        assert_eq!(radius, vec![host]);
        // The external node fails nothing.
        assert_eq!(m.blast_radius(t.external()), vec![t.external()]);
    }
}
