//! `optimize-cold`: the optimizer used as a library.
//!
//! A round is a seeded stream of distinct chain, star and clique queries of
//! mixed size. Each request builds its `JoinQuery` (lec-plan), optimizes it
//! once with Algorithm C under a 3-bucket memory belief (lec-core over
//! lec-cost and lec-stats) and verifies the plan. There is no cache and no
//! execution. Every round sets the stream up afresh (one `setup_s` sample
//! per round, outside the measured time) and replays it, so per-request
//! counts do not depend on how many rounds fit into the run. The checks run
//! on the first round's own plans.

use crate::checks::{self, Tally};
use crate::instrument::{allocs, CountingCost, Tracer};
use crate::{Args, Outcome};
use lec_core::{alg_c, expected_cost, lsc, MemoryModel, Optimized, PhaseDists};
use lec_cost::{JoinMethod, PaperCostModel};
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, Relation};
use lec_stats::{rebucket, Distribution};
use lec_workload::{QueryGen, Topology};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Relation counts and their share of a 40-query block. The DP prices
/// every subset, so latency grows about 2x per relation and each size is a
/// latency class of its own: the median (20th and 21st of 40) sits in the
/// middle of the 12-query `n = 9` class and the 99th percentile inside the
/// 2-query `n = 12` class, both away from a class boundary.
const MIX: [(usize, usize); 6] = [(6, 6), (8, 8), (9, 12), (10, 8), (11, 4), (12, 2)];
/// 40-query blocks per round: a round holds 2,400 distinct queries.
const BLOCKS: usize = 60;
/// Buckets of the memory belief the optimizer sees, and of the finer truth.
const BELIEF_BUCKETS: usize = 3;
const TRUTH_BUCKETS: usize = 24;
/// Set-ups at the start of every round, each a `setup_s` sample; the last
/// one's stream is served.
const SETUPS_PER_ROUND: usize = 3;
/// Random left-deep plans priced against each returned plan.
const RANDOM_PLANS: usize = 3;

/// One query of the stream, kept as the parts `JoinQuery::new` takes so
/// building it is part of each timed request.
#[derive(Clone)]
struct Spec {
    relations: Vec<Relation>,
    predicates: Vec<JoinPred>,
    order: Option<KeyId>,
}

impl Spec {
    fn build(&self) -> Result<JoinQuery, String> {
        JoinQuery::new(self.relations.clone(), self.predicates.clone(), self.order)
            .map_err(|e| format!("query build: {e}"))
    }
}

struct Inputs {
    specs: Vec<Spec>,
    /// The memory belief's distribution, for the LSC baseline.
    coarse: Distribution,
    belief: MemoryModel,
    truth: MemoryModel,
    belief_phases: PhaseDists,
    truth_phases: PhaseDists,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0C01D);
    let topologies = [Topology::Chain, Topology::Star, Topology::Clique];
    let mut specs = Vec::with_capacity(BLOCKS * 40);
    for _ in 0..BLOCKS {
        for &(n, count) in &MIX {
            for _ in 0..count {
                // Shapes cycle so every round holds the same mix of
                // topologies and required orders; the seed draws sizes.
                let k = specs.len();
                let gen = QueryGen {
                    topology: topologies[k % topologies.len()],
                    n,
                    require_order: k % 2 == 1,
                    ..QueryGen::default()
                };
                let q = gen.generate(&mut rng);
                specs.push(Spec {
                    relations: q.relations().to_vec(),
                    predicates: q.predicates().to_vec(),
                    order: q.required_order(),
                });
            }
        }
    }
    let fine = lec_workload::envs::lognormal(400.0, 0.5, TRUTH_BUCKETS);
    let coarse: Distribution =
        rebucket(&fine, BELIEF_BUCKETS).map_err(|e| format!("rebucket: {e}"))?;
    let belief = MemoryModel::Static(coarse.clone());
    let truth = MemoryModel::Static(fine);
    let phases = 13;
    Ok(Inputs {
        belief_phases: belief.table(phases).map_err(|e| e.to_string())?,
        truth_phases: truth.table(phases).map_err(|e| e.to_string())?,
        specs,
        coarse,
        belief,
        truth,
    })
}

#[derive(Default)]
struct Phase {
    /// One set-up time per round.
    setup_s: Vec<f64>,
    latencies_ns: Vec<u64>,
    wall_ns: u64,
    requests: u64,
    failed: u64,
    allocs: u64,
    candidates: u64,
    masks: u64,
    entries: u64,
    optimize_allocs: u64,
    steps: u64,
    formulas: u64,
    /// Wall time of every round.
    round_ns: Vec<u64>,
    /// The first round's returned plans and costs, for the checks; `None`
    /// for a failed request.
    first_round: Vec<Option<Optimized>>,
    /// Every later round's results matched the first round's.
    rounds_agree: bool,
    tracer: Option<Tracer>,
}

fn measure(seed: u64, seconds: u64, trace: bool) -> Result<Phase, String> {
    let model = CountingCost::new(PaperCostModel);
    let mut tracer = Tracer::new(trace);
    let per_round = BLOCKS * 40;
    let mut phase = Phase {
        rounds_agree: true,
        first_round: Vec::with_capacity(per_round),
        ..Phase::default()
    };
    phase
        .latencies_ns
        .reserve(per_round * (seconds as usize) * 64);
    let budget = std::time::Duration::from_secs(seconds);
    let start = Instant::now();
    let mut round = 0usize;
    let mut id = 0u64;
    while round == 0 || start.elapsed() < budget {
        let mut built = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(built.take());
            let t = Instant::now();
            built = Some(black_box(setup(seed)?));
            phase.setup_s.push(t.elapsed().as_secs_f64());
        }
        let inputs = built.ok_or("no set-up ran")?;
        let round_start = Instant::now();
        for (i, spec) in inputs.specs.iter().enumerate() {
            let a0 = allocs();
            let t0 = Instant::now();
            let result = tracer.span("request", id, None, |tr, root| {
                let query = tr.span("plan.prepare", id, root, |_, _| spec.build())?;
                let oa = allocs();
                let (opt, stats) = tr
                    .span("core.optimize", id, root, |_, _| {
                        alg_c::optimize_with_stats(black_box(&query), &model, &inputs.belief)
                    })
                    .map_err(|e| e.to_string())?;
                let oa = allocs() - oa;
                tr.span("plan.verify", id, root, |_, _| {
                    lec_plan::verify_plan(&opt.plan, &query)
                })
                .map_err(|e| e.to_string())?;
                Ok::<_, String>((opt, stats, oa))
            });
            let dt = t0.elapsed().as_nanos() as u64;
            phase.allocs += allocs() - a0;
            phase.latencies_ns.push(dt);
            phase.requests += 1;
            id += 1;
            match result {
                Ok((opt, stats, oa)) => {
                    phase.candidates += stats.counters.candidates_priced;
                    phase.masks += stats.counters.masks_expanded;
                    phase.entries += stats.counters.entries_written;
                    phase.optimize_allocs += oa;
                    if round == 0 {
                        phase.first_round.push(Some(opt));
                    } else if !phase.first_round[i].as_ref().is_some_and(|first| {
                        first.cost.to_bits() == opt.cost.to_bits() && first.plan == opt.plan
                    }) {
                        phase.rounds_agree = false;
                    }
                }
                Err(e) => {
                    eprintln!("optimize-cold: request {i} failed: {e}");
                    phase.failed += 1;
                    if round == 0 {
                        phase.first_round.push(None);
                    }
                }
            }
        }
        phase.round_ns.push(round_start.elapsed().as_nanos() as u64);
        round += 1;
    }
    phase.wall_ns = start.elapsed().as_nanos() as u64;
    let counts = model.counts();
    phase.steps = counts.step_calls;
    phase.formulas = counts.formula_evals;
    phase.tracer = trace.then_some(tracer);
    Ok(phase)
}

/// A random left-deep plan over `query`: a random join order, a random join
/// method at every join, and a final sort when the required order is not
/// already produced. Every such plan lies in Algorithm C's search space.
pub fn random_left_deep(query: &JoinQuery, rng: &mut ChaCha8Rng) -> Plan {
    let mut order: Vec<usize> = (0..query.n()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut set = lec_plan::RelSet::single(order[0]);
    let mut plan = Plan::scan(order[0]);
    for &r in &order[1..] {
        let key = query.join_key_between(set, lec_plan::RelSet::single(r));
        let method = JoinMethod::ALL[rng.gen_range(0..JoinMethod::ALL.len())];
        plan = Plan::join(plan, Plan::scan(r), method, key);
        set = set.insert(r);
    }
    match query.required_order() {
        Some(k) if plan.output_order() != Some(k) => Plan::sort(plan, k),
        _ => plan,
    }
}

/// The independent checks over the first timed round's plans, untimed.
/// Returns the mean ratio of the returned plan's expected cost under the
/// truth to the truth optimum.
fn check_round(inputs: &Inputs, phase: &Phase, seed: u64, tally: &mut Tally) -> f64 {
    let model = PaperCostModel;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0C4EC);
    let mut ratios = Vec::with_capacity(inputs.specs.len());
    for (i, spec) in inputs.specs.iter().enumerate() {
        let query = match spec.build() {
            Ok(q) => q,
            Err(e) => {
                tally.fail(&format!("query {i}: {e}"));
                continue;
            }
        };
        // A failed request is counted in `failed`; it has no plan to check.
        let Some(Some(lec)) = phase.first_round.get(i) else {
            continue;
        };
        let repriced = expected_cost(&query, &model, &lec.plan, &inputs.belief_phases);
        tally.record(
            "returned cost equals its re-pricing",
            checks::reprice(lec.cost, repriced),
        );
        let samples: Vec<f64> = (0..RANDOM_PLANS)
            .map(|_| {
                let p = random_left_deep(&query, &mut rng);
                expected_cost(&query, &model, &p, &inputs.belief_phases)
            })
            .collect();
        tally.record(
            "no random left-deep plan beats the returned plan",
            checks::no_better_plan(lec.cost, &samples),
        );
        match lsc::optimize_at_mean(&query, &model, &inputs.coarse) {
            Ok(l) => {
                let lsc_cost = expected_cost(&query, &model, &l.plan, &inputs.belief_phases);
                tally.record(
                    "LEC never above LSC",
                    checks::lec_vs_lsc(lec.cost, lsc_cost),
                );
            }
            Err(e) => tally.fail(&format!("query {i}: lsc: {e}")),
        }
        match alg_c::optimize(&query, &model, &inputs.truth) {
            Ok(oracle) => {
                let served = expected_cost(&query, &model, &lec.plan, &inputs.truth_phases);
                let ratio = served / oracle.cost;
                tally.record("truth ratio at least 1", checks::ratio_at_least_one(ratio));
                ratios.push(ratio);
            }
            Err(e) => tally.fail(&format!("query {i}: oracle: {e}")),
        }
    }
    tally.check("every round repeats the first", phase.rounds_agree);
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = setup(args.seed)?;
    let untraced = measure(args.seed, args.seconds, false)?;
    let mut tally = Tally::default();
    let ratio = check_round(&inputs, &untraced, args.seed, &mut tally);
    let n = untraced.requests.max(1) as f64;
    let throughput = untraced.requests as f64 / (untraced.wall_ns as f64 / 1e9);

    let mut attempted = untraced.requests;
    let mut failed = untraced.failed;
    let metrics = if args.trace {
        let traced = measure(args.seed, args.seconds, true)?;
        attempted += traced.requests;
        failed += traced.failed;
        let tracer = traced.tracer.as_ref().ok_or("traced phase kept no spans")?;
        let self_times = tracer.self_times();
        let per = |name: &str| {
            self_times
                .get(name)
                .map_or(0.0, |&(calls, ns)| ns as f64 / calls.max(1) as f64 / 1e3)
        };
        let tn = traced.requests.max(1) as f64;
        let traced_tp = traced.requests as f64 / (traced.wall_ns as f64 / 1e9);
        crate::per_layer(
            args,
            tracer,
            throughput,
            traced_tp,
            &[
                ("core.optimize_us", per("core.optimize")),
                ("core.candidates_per_call", traced.candidates as f64 / tn),
                ("core.masks_per_call", traced.masks as f64 / tn),
                ("core.entries_per_call", traced.entries as f64 / tn),
                ("core.allocs_per_call", traced.optimize_allocs as f64 / tn),
                ("core.optimizer_runs", inputs.specs.len() as f64),
                ("cost.step_calls_per_call", traced.steps as f64 / tn),
                ("cost.formula_evals_per_call", traced.formulas as f64 / tn),
                ("plan.prepare_us", per("plan.prepare")),
                ("plan.verify_us", per("plan.verify")),
            ],
        )?
    } else {
        crate::end_to_end(
            &untraced.setup_s,
            &untraced.latencies_ns,
            throughput,
            untraced.allocs as f64 / n,
            untraced.candidates as f64 / n,
            ratio,
        )?
    };
    crate::stats::print_rounds("optimize-cold", &untraced.round_ns, inputs.specs.len());
    crate::stats::print_classes("optimize-cold", &untraced.latencies_ns, |i| {
        format!("n={}", inputs.specs[i % inputs.specs.len()].relations.len())
    });
    eprintln!(
        "optimize-cold: {} requests in {:.2} s, {} checks, {} failed",
        untraced.requests,
        untraced.wall_ns as f64 / 1e9,
        tally.checked,
        tally.failures
    );
    Ok(Outcome {
        correct: tally.failures == 0,
        attempted,
        failed,
        metrics,
    })
}
