//! Exact reliability by weighted exhaustive enumeration.
//!
//! The paper notes "it is extremely hard, if not impossible, to get the
//! ground-truth reliability of a deployment plan" at data-center scale —
//! the underlying problem is NP-hard [Ball '86]. For *small* models,
//! though, the ground truth is computable: enumerate every failure state
//! of the fallible events, weight it by its probability, and run the exact
//! same collapse + route-and-check the sampled pipeline uses.
//!
//! The test suite uses this to validate (a) that both samplers converge to
//! the true value and (b) that the Eq 3 confidence interval actually
//! covers it — a stronger accuracy check than the paper could perform.
//!
//! States are evaluated in blocks of 64 so the wide-parallel fault-tree
//! collapse is exercised too.

use crate::check::StructureChecker;
use recloud_apps::{ApplicationSpec, DeploymentPlan};
use recloud_faults::FaultModel;
use recloud_routing::make_router;
use recloud_sampling::BitMatrix;
use recloud_topology::Topology;

/// Hard cap on fallible events: 2²² states ≈ 4M evaluations.
pub const MAX_FALLIBLE: usize = 22;

/// Computes the exact reliability of a plan under the fault model.
///
/// # Panics
/// Panics if more than [`MAX_FALLIBLE`] events have nonzero failure
/// probability — use sampling for anything bigger; that is the point of
/// the paper.
pub fn exact_reliability(
    topology: &Topology,
    model: &FaultModel,
    spec: &ApplicationSpec,
    plan: &DeploymentPlan,
) -> f64 {
    let fallible: Vec<(usize, f64)> =
        model.probs().iter().enumerate().filter(|(_, &p)| p > 0.0).map(|(i, &p)| (i, p)).collect();
    assert!(
        fallible.len() <= MAX_FALLIBLE,
        "{} fallible events exceed the exact-enumeration cap of {MAX_FALLIBLE}",
        fallible.len()
    );
    let total: u64 = 1u64 << fallible.len();

    let mut raw = BitMatrix::new(model.num_events(), 64);
    let mut collapsed = BitMatrix::new(model.num_topology_components(), 64);
    let mut router = make_router(topology);
    let mut checker = StructureChecker::new(spec, plan);

    let mut reliability = 0.0f64;
    let mut base = 0u64;
    while base < total {
        let block = ((total - base) as usize).min(64);
        raw.clear();
        for j in 0..block {
            let state = base + j as u64;
            for (bit, &(event, _)) in fallible.iter().enumerate() {
                if (state >> bit) & 1 == 1 {
                    raw.set(event, j);
                }
            }
        }
        model.collapse_into(&raw, &mut collapsed);
        for j in 0..block {
            router.begin_round(&collapsed, j);
            if checker.round_reliable(router.as_mut(), &collapsed, j) {
                let state = base + j as u64;
                let mut w = 1.0f64;
                for (bit, &(_, p)) in fallible.iter().enumerate() {
                    w *= if (state >> bit) & 1 == 1 { p } else { 1.0 - p };
                }
                reliability += w;
            }
        }
        base += block as u64;
    }
    reliability
}

#[cfg(test)]
mod tests {
    use super::*;
    use recloud_faults::ProbabilityConfig;
    use recloud_topology::{ComponentId, ComponentKind, TopologyBuilder};

    /// ext - border - {h1, h2}; only the three named components can fail.
    fn star(p_border: f64, p_host: f64) -> (Topology, FaultModel, Vec<ComponentId>) {
        let mut b = TopologyBuilder::new();
        b.external();
        let sw = b.add(ComponentKind::BorderSwitch);
        b.mark_border(sw);
        let hosts = b.add_hosts(2);
        for &h in &hosts {
            b.connect(sw, h);
        }
        let t = b.build();
        let model = FaultModel::new(
            &t,
            &ProbabilityConfig::PerKind {
                table: vec![(ComponentKind::BorderSwitch, p_border), (ComponentKind::Host, p_host)],
                default: 0.0,
            },
            0,
        );
        (t, model, hosts)
    }

    #[test]
    fn closed_form_one_of_two() {
        // R = (1 - pb) * (1 - ph^2): border alive and not both hosts dead.
        let (t, model, hosts) = star(0.1, 0.2);
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![hosts.clone()]);
        let r = exact_reliability(&t, &model, &spec, &plan);
        let expect = 0.9 * (1.0 - 0.04);
        assert!((r - expect).abs() < 1e-12, "r={r} expect={expect}");
    }

    #[test]
    fn closed_form_two_of_two() {
        // R = (1 - pb) * (1 - ph)^2.
        let (t, model, hosts) = star(0.1, 0.2);
        let spec = ApplicationSpec::k_of_n(2, 2);
        let plan = DeploymentPlan::new(&spec, vec![hosts.clone()]);
        let r = exact_reliability(&t, &model, &spec, &plan);
        let expect = 0.9 * 0.8 * 0.8;
        assert!((r - expect).abs() < 1e-12, "r={r} expect={expect}");
    }

    #[test]
    fn shared_power_closed_form() {
        // Add one power supply feeding both hosts: R(1-of-2) =
        // (1-pb) * (1-pp) * (1 - ph^2)  — power failure kills both hosts.
        let mut b = TopologyBuilder::new();
        b.external();
        let sw = b.add(ComponentKind::BorderSwitch);
        b.mark_border(sw);
        let hosts = b.add_hosts(2);
        for &h in &hosts {
            b.connect(sw, h);
        }
        let power = b.add(ComponentKind::PowerSupply);
        b.draw_power(hosts[0], power);
        b.draw_power(hosts[1], power);
        let t = b.build();
        let mut model = FaultModel::new(
            &t,
            &ProbabilityConfig::PerKind {
                table: vec![
                    (ComponentKind::BorderSwitch, 0.1),
                    (ComponentKind::Host, 0.2),
                    (ComponentKind::PowerSupply, 0.05),
                ],
                default: 0.0,
            },
            0,
        );
        model.attach_power_dependencies(&t);
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![hosts.clone()]);
        let r = exact_reliability(&t, &model, &spec, &plan);
        let expect = 0.9 * 0.95 * (1.0 - 0.04);
        assert!((r - expect).abs() < 1e-12, "r={r} expect={expect}");
    }

    #[test]
    fn zero_probability_model_is_perfectly_reliable() {
        let (t, _, hosts) = star(0.0, 0.0);
        let model = FaultModel::new(&t, &ProbabilityConfig::Uniform(0.0), 0);
        let spec = ApplicationSpec::k_of_n(2, 2);
        let plan = DeploymentPlan::new(&spec, vec![hosts]);
        assert_eq!(exact_reliability(&t, &model, &spec, &plan), 1.0);
    }

    #[test]
    fn two_layer_closed_form() {
        // FE on h1, DB on h2 (1 instance each, K=1 both):
        // round OK iff border, h1, h2 all alive
        // => R = (1-pb) (1-ph)^2.
        let (t, model, hosts) = star(0.1, 0.2);
        let mut b = ApplicationSpec::builder();
        let fe = b.component("fe", 1);
        let db = b.component("db", 1);
        b.require_external(fe, 1);
        b.require(db, recloud_apps::Source::Component(fe), 1);
        let spec = b.build();
        let plan = DeploymentPlan::new(&spec, vec![vec![hosts[0]], vec![hosts[1]]]);
        let r = exact_reliability(&t, &model, &spec, &plan);
        let expect = 0.9 * 0.8 * 0.8;
        assert!((r - expect).abs() < 1e-12, "r={r} expect={expect}");
    }

    #[test]
    #[should_panic(expected = "exceed the exact-enumeration cap")]
    fn refuses_large_models() {
        let t = recloud_topology::FatTreeParams::new(8).build();
        let model = FaultModel::paper_default(&t, 0);
        let spec = ApplicationSpec::k_of_n(1, 2);
        let plan = DeploymentPlan::new(&spec, vec![t.hosts()[..2].to_vec()]);
        exact_reliability(&t, &model, &spec, &plan);
    }
}
