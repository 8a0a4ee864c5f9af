//! Golden answers: assessments pinned bit for bit.
//!
//! Every other equivalence test compares the code with itself (served
//! against in-process, wide against scalar, parallel against serial), so a
//! change to the draw order, the chunk layout or the collapse would pass
//! them all. These cases pin `(successes, rounds)` and the bit pattern of
//! the score; any change to what an assessment computes for a given seed
//! fails here. Update a row only for an intended change of the answers.
//!
//! Round counts are chosen so the layouts end in a short tail chunk. The
//! Medium cases run once on fresh engines and once through a single engine
//! reseeded from case to case, the way a serving worker reuses its engine.
//!
//! On a mismatch the test prints every case's actual row in the table's
//! own syntax.

use recloud::prelude::*;

/// One pinned assessment: label, successes, rounds, `score.to_bits()`.
type Row = (&'static str, u64, u64, u64);

/// `(label, k, n, plan rng seed, rounds, master seed)`.
type Case = (&'static str, u32, u32, u64, usize, u64);

const TINY_CASES: [Case; 6] = [
    ("tiny 1of2 seed7 r10000", 1, 2, 1, 10_000, 7),
    ("tiny 2of3 seed7 r2600", 2, 3, 2, 2_600, 7),
    ("tiny 4of5 seed64283 r5123", 4, 5, 3, 5_123, 64_283),
    ("tiny 8of10 seed91 r257", 8, 10, 4, 257, 91),
    ("tiny 2of3 seed12 r7777", 2, 3, 5, 7_777, 12),
    ("tiny 4of5 seed12 r63", 4, 5, 6, 63, 12),
];

const MEDIUM_CASES: [Case; 3] = [
    ("medium 4of5 seed7 r10000", 4, 5, 11, 10_000, 7),
    ("medium 1of2 seed64283 r2700", 1, 2, 12, 2_700, 64_283),
    ("medium 8of10 seed401 r3001", 8, 10, 13, 3_001, 401),
];

const TINY: [Row; 6] = [
    ("tiny 1of2 seed7 r10000", 9907, 10000, 0x3fefb3d07c84b5dd),
    ("tiny 2of3 seed7 r2600", 2552, 2600, 0x3fef68c359025cf3),
    ("tiny 4of5 seed64283 r5123", 4902, 5123, 0x3fee9e9b68b04bf5),
    ("tiny 8of10 seed91 r257", 243, 257, 0x3fee41be41be41be),
    ("tiny 2of3 seed12 r7777", 7611, 7777, 0x3fef51244ededa1d),
    ("tiny 4of5 seed12 r63", 60, 63, 0x3fee79e79e79e79e),
];

const MEDIUM: [Row; 3] = [
    ("medium 4of5 seed7 r10000", 9562, 10000, 0x3fee9930be0ded29),
    ("medium 1of2 seed64283 r2700", 2696, 2700, 0x3feff3dd1baf98d7),
    ("medium 8of10 seed401 r3001", 2874, 3001, 0x3feea552260bc5a7),
];

const FIG5: [Row; 3] = [
    ("fig5 2of3 seed5 r6000", 5919, 6000, 0x3fef916872b020c5),
    ("fig5+injector 2of3 seed5 r6000", 5943, 6000, 0x3fefb22d0e560419),
    ("fig5+injector 4of5 seed9 r2345", 2295, 2345, 0x3fef51549b04e99f),
];

const MONTE_CARLO: [Row; 1] =
    [("tiny monte-carlo 2of3 seed3 r3000", 2943, 3000, 0x3fef645a1cac0831)];

fn row(label: &'static str, a: &Assessment) -> Row {
    (label, a.estimate.successes, a.estimate.rounds, a.estimate.score.to_bits())
}

fn check(expected: &[Row], actual: &[Row]) {
    if expected != actual {
        let mut table = String::new();
        for (label, successes, rounds, bits) in actual {
            table.push_str(&format!("    ({label:?}, {successes}, {rounds}, {bits:#018x}),\n"));
        }
        panic!("assessments differ from the pinned answers; actual rows:\n{table}");
    }
}

fn plan_for(t: &Topology, k: u32, n: u32, plan_seed: u64) -> (ApplicationSpec, DeploymentPlan) {
    let spec = ApplicationSpec::k_of_n(k, n);
    let plan = DeploymentPlan::random(&spec, t.hosts(), &mut Rng::new(plan_seed));
    (spec, plan)
}

fn fresh_rows(t: &Topology, cases: &[Case]) -> Vec<Row> {
    cases
        .iter()
        .map(|&(label, k, n, plan_seed, rounds, seed)| {
            let (spec, plan) = plan_for(t, k, n, plan_seed);
            let mut engine = Assessor::new(t, FaultModel::paper_default(t, seed));
            row(label, &engine.assess(&spec, &plan, rounds, seed))
        })
        .collect()
}

#[test]
fn tiny_paper_default_answers_are_pinned() {
    let t = Scale::Tiny.build();
    check(&TINY, &fresh_rows(&t, &TINY_CASES));
}

#[test]
fn medium_paper_default_answers_are_pinned() {
    let t = Scale::Medium.build();
    check(&MEDIUM, &fresh_rows(&t, &MEDIUM_CASES));

    // One engine reseeded across the cases, as a serving worker runs them:
    // each case collapses into tables left behind by the previous seed.
    let mut engine = Assessor::new(&t, FaultModel::paper_default(&t, 1));
    let mut reused = Vec::new();
    for &(label, k, n, plan_seed, rounds, seed) in &MEDIUM_CASES {
        let (spec, plan) = plan_for(&t, k, n, plan_seed);
        engine.reseed(FaultModel::paper_default(&t, seed));
        reused.push(row(label, &engine.assess(&spec, &plan, rounds, seed)));
    }
    check(&MEDIUM, &reused);
}

#[test]
fn fig5_template_with_gates_and_injection_is_pinned() {
    let t = Scale::Tiny.build();
    let mut model = FaultModel::new(&t, &ProbabilityConfig::PaperDefault, 5);
    Fig5Template::default().apply(&t, &mut model);
    // Every switch also fails when at least 2 of 3 shared room-level
    // events fail: a K-of-N gate beside the template's AND gates.
    let room: Vec<ComponentId> = (0..3)
        .map(|i| model.add_auxiliary(ComponentKind::CoolingUnit, &format!("room-{i}"), 0.05))
        .collect();
    for c in t.components().iter().filter(|c| c.kind.is_switch()) {
        let mut b = FaultTreeBuilder::new();
        let leaves = room.iter().map(|&e| b.basic(e)).collect();
        let gate = b.k_of_n(2, leaves);
        model.or_attach(c.id, b.build(gate));
    }
    let mut injector = FaultInjector::new();
    injector.fail_rounds(t.power_supplies()[1], 1_000..1_400);
    injector.revive(room[0]);

    let (spec3, plan3) = plan_for(&t, 2, 3, 21);
    let (spec5, plan5) = plan_for(&t, 4, 5, 22);
    let mut engine = Assessor::new(&t, model);
    let mut actual = vec![row(FIG5[0].0, &engine.assess(&spec3, &plan3, 6_000, 5))];
    engine.set_injector(Some(injector));
    actual.push(row(FIG5[1].0, &engine.assess(&spec3, &plan3, 6_000, 5)));
    actual.push(row(FIG5[2].0, &engine.assess(&spec5, &plan5, 2_345, 9)));
    check(&FIG5, &actual);
}

#[test]
fn monte_carlo_answer_is_pinned() {
    let t = Scale::Tiny.build();
    let (spec, plan) = plan_for(&t, 2, 3, 31);
    let model = FaultModel::paper_default(&t, 3);
    let mut engine = Assessor::with_sampler(&t, model, SamplerKind::MonteCarlo);
    check(&MONTE_CARLO, &[row(MONTE_CARLO[0].0, &engine.assess(&spec, &plan, 3_000, 3))]);
}
