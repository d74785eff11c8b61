//! `serve-hot` and `serve-churn`: the serving loop, one client, closed loop.
//!
//! Both drive a `QueryService` the way one `ConcurrentServer` worker does:
//! requests arrive in batch windows; each window is prepared
//! (`QueryService::prepare`), primed (`prime_window`) and served request by
//! request (`serve_at`). A request's latency is its own `prepare` and
//! `serve_at` time plus an equal share of its window's `prime_window` time.
//!
//! A round is a fixed, seeded request stream served by a freshly built
//! service, so the plan cache starts cold inside the measured phase as it
//! would for a freshly started server, and every round repeats the same
//! work: per-request counts do not depend on how many rounds fit into the
//! run. Building each round's inputs and service is set-up work: each build
//! is one `setup_s` sample and is excluded from the measured wall time. The
//! timed rounds and the untimed check round are served by one function,
//! `serve_round`, so the check round repeats the timed request path.

use crate::checks::{self, Tally};
use crate::instrument::{allocs, CountingCost, Tracer};
use crate::{Args, Outcome};
use lec_catalog::{Catalog, ColumnMeta, Histogram, Predicate, TableMeta};
use lec_core::{alg_c, bushy, expected_cost, MemoryModel};
use lec_cost::PaperCostModel;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::{Disk, ExecMemoryEnv, RelId, PAGE_CAPACITY};
use lec_plan::Plan;
use lec_serve::{
    DriftConfig, DriftTarget, QueryRequest, QueryService, ResampleConfig, ServeConfig, ServedQuery,
    StatInterval,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{query_from_catalog, FilterSpec, JoinSpec};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
}

/// Set-ups at the start of every round, each a `setup_s` sample; the last
/// one serves the round.
const SETUPS_PER_ROUND: usize = 3;
/// Filter range on `v` over [0, 100]: a quarter of the uniform belief.
const FILTER: (f64, f64) = (0.0, 25.0);
/// The drifted truth puts 70% of `v` below 25 (x20's hot histogram).
const UNIFORM: [f64; 8] = [0.125; 8];
const HOT: [f64; 8] = [0.35, 0.35, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05];

/// One query class: tables joined in a chain (`star = false`) or as a star
/// around the first table, optionally filtered on the first table's `v`.
struct Class {
    tables: &'static [usize],
    star: bool,
    filtered: bool,
    /// Requests of this class per block of the stream.
    weight: usize,
}

/// A workload's make-up; see `README.md` for why each number is what it is.
struct Design {
    tables: usize,
    pages: (u64, u64),
    classes: Vec<Class>,
    /// Blocks per round; each block holds every class `weight` times in a
    /// seeded order.
    blocks: usize,
    window: usize,
    cache_capacity: usize,
    /// The truth's filter histograms drift half way through the round.
    drifts: bool,
    resample: bool,
}

fn design(kind: Kind) -> Design {
    let c = |tables, star, filtered, weight| Class {
        tables,
        star,
        filtered,
        weight,
    };
    match kind {
        // Seven classes, all resident: 7 misses in 2,500 requests (0.28%,
        // well below the 1% the 99th percentile leaves). One 3-table class
        // carries 34 of every 100 requests, between 33 requests of 2-table
        // classes and 33 of 4-table classes, so the median sits mid-class.
        Kind::Hot => Design {
            tables: 10,
            pages: (12, 20),
            classes: vec![
                c(&[0, 1], false, false, 11),
                c(&[2, 3], false, true, 11),
                c(&[4, 5], false, false, 11),
                c(&[0, 6, 7], false, false, 34),
                c(&[1, 2, 3, 8], true, false, 11),
                c(&[4, 5, 6, 9], false, false, 11),
                c(&[9, 0, 7, 8], true, false, 11),
            ],
            blocks: 25,
            window: 8,
            cache_capacity: 64,
            drifts: false,
            resample: false,
        },
        // Twenty classes over an 8-entry cache: six hot classes carry 84 of
        // every 98 requests and mostly stay resident, fourteen cold ones
        // come back after the LRU has evicted them. The truth drifts half
        // way through. Per-service one-off work (first-touch sampling of
        // every statistic, the drift's resamples) falls on about 0.15% of a
        // 9,800-request round, well clear of the 1% the 99th percentile
        // leaves.
        Kind::Churn => Design {
            tables: 16,
            pages: (8, 16),
            classes: vec![
                c(&[0, 1], false, true, 14),
                c(&[2, 3, 4], false, false, 14),
                c(&[5, 6], false, true, 14),
                c(&[7, 8, 9], true, false, 14),
                c(&[10, 11], false, false, 14),
                c(&[12, 13, 14], false, true, 14),
                c(&[0, 5], false, true, 1),
                c(&[1, 2], false, false, 1),
                c(&[3, 4, 5], true, false, 1),
                c(&[6, 7], false, false, 1),
                c(&[8, 9, 10], false, false, 1),
                c(&[11, 12], false, false, 1),
                c(&[13, 14, 15], true, false, 1),
                c(&[15, 0], false, false, 1),
                c(&[5, 10, 15], false, true, 1),
                c(&[12, 1, 3], true, true, 1),
                c(&[14, 2], false, true, 1),
                c(&[9, 6, 11, 13], false, false, 1),
                c(&[4, 7, 12, 0], true, false, 1),
                c(&[8, 15, 3, 6], false, true, 1),
            ],
            blocks: 100,
            window: 32,
            cache_capacity: 8,
            drifts: true,
            resample: true,
        },
    }
}

fn name(i: usize) -> String {
    format!("t{i:02}")
}

/// `v` values over [0, 100] following an 8-bucket mass profile.
fn histogram(profile: &[f64; 8]) -> Result<Histogram, String> {
    let values: Vec<f64> = profile
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    Histogram::equi_width(&values, 8).map_err(|e| e.to_string())
}

/// Table `i` has `pages[i]` full pages, a join key `k` whose domain is
/// close to its row count (so joins neither explode nor vanish), and a
/// filter column `v` with the given profile.
fn catalog(pages: &[u64], domains: &[u64], profile: &[f64; 8]) -> Result<Catalog, String> {
    let mut c = Catalog::new();
    for (i, (&p, &d)) in pages.iter().zip(domains).enumerate() {
        let meta = TableMeta::new(name(i), p * PAGE_CAPACITY as u64, p)
            .map_err(|e| e.to_string())?
            .with_column(ColumnMeta::new("k", d, 0.0, (d - 1) as f64))
            .with_column(ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(histogram(profile)?));
        c.register(meta).map_err(|e| e.to_string())?;
    }
    Ok(c)
}

fn request(class: &Class) -> QueryRequest {
    let tables: Vec<String> = class.tables.iter().map(|&t| name(t)).collect();
    let joins = (1..tables.len())
        .map(|j| JoinSpec {
            left_table: tables[if class.star { 0 } else { j - 1 }].clone(),
            left_column: "k".into(),
            right_table: tables[j].clone(),
            right_column: "k".into(),
        })
        .collect();
    let filters = if class.filtered {
        vec![FilterSpec {
            table: tables[0].clone(),
            column: "v".into(),
            lo: FILTER.0,
            hi: FILTER.1,
            indexed: false,
        }]
    } else {
        vec![]
    };
    QueryRequest {
        tables,
        joins,
        filters,
        order_by: None,
    }
}

struct Inputs {
    design: Design,
    requests: Vec<QueryRequest>,
    /// Class index of every request of a round.
    stream: Vec<usize>,
    /// The request at which the truth becomes `drifted`.
    drift_at: Option<usize>,
    beliefs: Catalog,
    drifted: Option<Catalog>,
    config: ServeConfig,
}

fn inputs(kind: Kind, seed: u64) -> Result<Inputs, String> {
    let design = design(kind);
    // Table sizes and the stream's order are part of the design, fixed
    // across seeds; the seed draws the data (every key), the memory grants
    // and the sampling certificates' row samples.
    let (lo, hi) = design.pages;
    let pages: Vec<u64> = (0..design.tables as u64)
        .map(|i| lo + (5 * i) % (hi - lo + 1))
        .collect();
    let domains: Vec<u64> = (0..design.tables as u64)
        .zip(&pages)
        .map(|(i, p)| p * PAGE_CAPACITY as u64 + (13 * i) % 64)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E2E);
    let beliefs = catalog(&pages, &domains, &UNIFORM)?;
    let drifted = design
        .drifts
        .then(|| catalog(&pages, &domains, &HOT))
        .transpose()?;
    let mut stream = Vec::new();
    for _ in 0..design.blocks {
        let mut block: Vec<usize> = design
            .classes
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.weight))
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
        stream.extend(block);
    }
    let dist =
        |pts: &[(f64, f64)]| Distribution::new(pts.iter().copied()).map_err(|e| e.to_string());
    let mut config = ServeConfig::new(
        vec![
            dist(&[(4.0, 0.6), (40.0, 0.4)])?,
            dist(&[(16.0, 0.5), (80.0, 0.5)])?,
        ],
        dist(&[(6.0, 0.15), (48.0, 0.85)])?,
    );
    config.cache_capacity = design.cache_capacity;
    config.cache_shards = 1;
    config.exec_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EC5;
    config.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    if design.resample {
        config.resample = Some(ResampleConfig {
            seed: seed ^ 0x5A17,
            ..ResampleConfig::default()
        });
    }
    // Half way through the round, on a window boundary.
    let drift_at = design
        .drifts
        .then(|| stream.len() / 2 / design.window * design.window);
    Ok(Inputs {
        requests: design.classes.iter().map(request).collect(),
        drift_at,
        design,
        stream,
        beliefs,
        drifted,
        config,
    })
}

type Service<'m> = QueryService<&'m CountingCost<PaperCostModel>>;

fn service<'m>(
    inputs: &Inputs,
    model: &'m CountingCost<PaperCostModel>,
) -> Result<Service<'m>, String> {
    QueryService::new(
        model,
        inputs.beliefs.clone(),
        inputs.beliefs.clone(),
        inputs.config.clone(),
    )
    .map_err(|e| e.to_string())
}

/// What one served request left behind, for the determinism and
/// correctness checks.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    cache_hit: bool,
    cost_bits: u64,
    rows: usize,
    io_pages: u64,
    epsilon: Option<f64>,
    plan: Plan,
}

/// Service counters at the end of one round.
#[derive(Debug, Clone, Default, PartialEq)]
struct RoundCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    optimizer_runs: u64,
    candidates: u64,
    masks: u64,
    entries: u64,
    recalibrations: u64,
    reoptimize: u64,
    recost: u64,
    resamples: u64,
    primed_consumed: u64,
    dedup_saved: u64,
    served: u64,
}

fn counters(svc: &Service<'_>, dedup_saved: u64) -> RoundCounters {
    let stats = svc.stats();
    let (reoptimize, recost) = svc.decisions();
    RoundCounters {
        hits: stats.cache.hits,
        misses: stats.cache.misses,
        evictions: stats.cache.evictions,
        invalidations: stats.cache.invalidations,
        optimizer_runs: svc.optimizer_invocations(),
        candidates: stats.counters.candidates_priced,
        masks: stats.counters.masks_expanded,
        entries: stats.counters.entries_written,
        recalibrations: svc.recalibrations(),
        reoptimize,
        recost,
        resamples: svc.resamples(),
        primed_consumed: svc.primed_consumed(),
        dedup_saved,
        served: svc.queries_served(),
    }
}

/// Base data regenerated outside the service, exactly as the service
/// generates it: one relation per truth-catalog table in name order, keys
/// uniform over the table's first column's domain, one seeded stream.
struct Replica {
    disk: Disk,
    rels: BTreeMap<String, RelId>,
    /// Per table, the number of tuples holding each key.
    key_counts: BTreeMap<String, Vec<u64>>,
}

impl Replica {
    fn new(truth: &Catalog, seed: u64) -> Result<Self, String> {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rels = BTreeMap::new();
        let mut key_counts = BTreeMap::new();
        for meta in truth.iter() {
            let domain = meta
                .columns
                .first()
                .map_or(meta.rows.max(1), |c| c.distinct.max(1));
            let spec = DataGenSpec {
                pages: meta.pages as usize,
                key_domain: domain,
            };
            let rel = generate(&mut disk, &mut rng, &spec);
            let mut counts = vec![0u64; domain as usize];
            for t in disk.all_tuples(rel).map_err(|e| e.to_string())? {
                counts[t.key as usize] += 1;
            }
            rels.insert(meta.name.clone(), rel);
            key_counts.insert(meta.name.clone(), counts);
        }
        Ok(Replica {
            disk,
            rels,
            key_counts,
        })
    }

    /// Exact size of the equi-join of `tables` on the shared key.
    fn join_size(&self, tables: &[String]) -> u64 {
        let counts: Vec<&Vec<u64>> = tables.iter().map(|t| &self.key_counts[t]).collect();
        let domain = counts.iter().map(|c| c.len()).min().unwrap_or(0);
        (0..domain)
            .map(|k| counts.iter().map(|c| c[k]).product::<u64>())
            .sum()
    }

    /// Replays `plan` for `request` on the regenerated data, with the
    /// truth's filter selectivities and the service's memory draw.
    fn execute(
        &mut self,
        plan: &Plan,
        request: &QueryRequest,
        truth: &Catalog,
        config: &ServeConfig,
        ordinal: u64,
    ) -> Result<(), String> {
        let base: Vec<RelId> = request.tables.iter().map(|t| self.rels[t]).collect();
        let selections = selections(request, truth)?;
        let mut env = ExecMemoryEnv::draw_once(
            config.observed_memory.clone(),
            config.exec_seed.wrapping_add(ordinal),
        );
        lec_exec::execute_plan_with_selections(plan, &base, &selections, &mut self.disk, &mut env)
            .map(drop)
            .map_err(|e| e.to_string())
    }
}

fn selections(request: &QueryRequest, truth: &Catalog) -> Result<Vec<f64>, String> {
    let mut sel = vec![1.0; request.tables.len()];
    for f in &request.filters {
        let idx = request
            .tables
            .iter()
            .position(|t| *t == f.table)
            .ok_or("filter table")?;
        let s = Predicate::Range {
            table: f.table.clone(),
            column: f.column.clone(),
            lo: f.lo,
            hi: f.hi,
        }
        .estimate(truth)
        .map_err(|e| e.to_string())?;
        sel[idx] *= s.clamp(1e-9, 1.0);
    }
    Ok(sel)
}

/// Everything one measured phase produced.
#[derive(Default)]
struct Phase {
    /// One set-up time per round: fresh inputs and a fresh service.
    setup_s: Vec<f64>,
    latencies_ns: Vec<u64>,
    wall_ns: u64,
    requests: u64,
    failed: u64,
    allocs: u64,
    serve_allocs: u64,
    steps: u64,
    formulas: u64,
    opt_wall_ns: u64,
    io_pages: u64,
    round_ns: Vec<u64>,
    first_round: Vec<Record>,
    first_counters: RoundCounters,
    rounds_agree: bool,
    tracer: Option<Tracer>,
}

fn record_of(served: &ServedQuery) -> Record {
    Record {
        cache_hit: served.cache_hit,
        cost_bits: served.expected_cost.to_bits(),
        rows: served.feedback.joins.last().map_or(0, |j| j.out_rows),
        io_pages: served.report.total.reads + served.report.total.writes,
        epsilon: served.certificate.as_ref().map(|c| c.epsilon),
        plan: served.plan.clone(),
    }
}

/// One request of a round, as `serve_round` hands it to its observer.
struct Request<'a> {
    /// Span id, unique across the rounds of a phase.
    id: u64,
    /// Position in the round's stream: the service's request ordinal.
    ordinal: u64,
    class: usize,
    req: &'a QueryRequest,
}

/// What a caller of `serve_round` does around each `serve_at`. Its time is
/// taken out of the round's serving time.
trait Observer {
    /// Just before `serve_at`.
    fn before(&mut self, _svc: &Service<'_>, _r: &Request<'_>) -> Result<(), String> {
        Ok(())
    }

    /// After `serve_at` served the request.
    fn served(
        &mut self,
        svc: &Service<'_>,
        tracer: &mut Tracer,
        r: &Request<'_>,
        served: &ServedQuery,
    ) -> Result<(), String>;
}

/// What one round of serving produced.
#[derive(Default)]
struct Round {
    latencies_ns: Vec<u64>,
    /// The round's wall time less its observer's.
    serving_ns: u64,
    allocs: u64,
    serve_allocs: u64,
    io_pages: u64,
    failed: u64,
    records: Vec<Record>,
    counters: RoundCounters,
    opt_wall_ns: u64,
}

/// Serves the request stream of `inputs` once on `svc`: the truth drifts at
/// `drift_at`, and each batch window is prepared request by request,
/// primed and served request by request. A request's latency is its own
/// `prepare` and `serve_at` time plus an equal share of its window's
/// `prime_window` time; allocations are counted across the calls into the
/// service only. Span ids start at `first_id`; a window-level span (the
/// primer) carries the id of its window's first request.
fn serve_round(
    inputs: &Inputs,
    svc: &mut Service<'_>,
    tracer: &mut Tracer,
    first_id: u64,
    observer: &mut impl Observer,
) -> Result<Round, String> {
    let window = inputs.design.window;
    let mut round = Round {
        latencies_ns: Vec::with_capacity(inputs.stream.len()),
        records: Vec::with_capacity(inputs.stream.len()),
        ..Round::default()
    };
    let mut dedup_saved = 0u64;
    let mut observer_ns = 0u64;
    let start = Instant::now();
    for (w, chunk) in inputs.stream.chunks(window).enumerate() {
        let first = w * window;
        if inputs.drift_at == Some(first) {
            if let Some(d) = &inputs.drifted {
                *svc.truth_mut() = d.clone();
            }
        }
        let wid = first_id + first as u64;
        let mut prep_ns = Vec::with_capacity(chunk.len());
        let mut prepared = Vec::with_capacity(chunk.len());
        for (j, &c) in chunk.iter().enumerate() {
            let a = allocs();
            let t = Instant::now();
            let p = tracer.span("plan.prepare", wid + j as u64, None, |_, _| {
                svc.prepare(&inputs.requests[c])
            });
            prep_ns.push(t.elapsed().as_nanos() as u64);
            round.allocs += allocs() - a;
            prepared.push(p.map_err(|e| e.to_string())?);
        }
        let pairs: Vec<_> = chunk
            .iter()
            .zip(&prepared)
            .map(|(&c, p)| (&inputs.requests[c], Some(p)))
            .collect();
        let a = allocs();
        let t = Instant::now();
        let primer = tracer.span("serve.prime", wid, None, |_, _| svc.prime_window(&pairs));
        let prime_share = t.elapsed().as_nanos() as u64 / chunk.len() as u64;
        round.allocs += allocs() - a;
        let primer = primer.map_err(|e| e.to_string())?;
        dedup_saved += primer.dedup_saved;
        for (j, &c) in chunk.iter().enumerate() {
            let r = Request {
                id: wid + j as u64,
                ordinal: (first + j) as u64,
                class: c,
                req: &inputs.requests[c],
            };
            let t = Instant::now();
            observer.before(svc, &r)?;
            observer_ns += t.elapsed().as_nanos() as u64;
            let a = allocs();
            let t = Instant::now();
            let served = tracer.span("serve.serve_at", r.id, None, |_, _| {
                svc.serve_at(r.ordinal, r.req, Some(&prepared[j]), Some(&primer))
            });
            let dt = t.elapsed().as_nanos() as u64;
            let serve_allocs = allocs() - a;
            round.serve_allocs += serve_allocs;
            round.allocs += serve_allocs;
            round.latencies_ns.push(prep_ns[j] + prime_share + dt);
            match served {
                Ok(s) => {
                    let rec = record_of(&s);
                    round.io_pages += rec.io_pages;
                    round.records.push(rec);
                    let t = Instant::now();
                    observer.served(svc, tracer, &r, &s)?;
                    observer_ns += t.elapsed().as_nanos() as u64;
                }
                Err(e) => {
                    eprintln!("request {} failed: {e}", r.ordinal);
                    round.failed += 1;
                }
            }
        }
    }
    round.serving_ns = (start.elapsed().as_nanos() as u64).saturating_sub(observer_ns);
    round.counters = counters(svc, dedup_saved);
    round.opt_wall_ns = svc.stats().total_wall_ns();
    Ok(round)
}

/// The untraced phase's observer: nothing happens between requests.
struct Quiet;

impl Observer for Quiet {
    fn served(
        &mut self,
        _: &Service<'_>,
        _: &mut Tracer,
        _: &Request<'_>,
        _: &ServedQuery,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// The traced phase's observer: times the served plan's verification and
/// replays its execution on the benchmark's own copy of the data, from
/// outside the service.
struct Replay<'a> {
    replica: Replica,
    config: &'a ServeConfig,
}

impl Observer for Replay<'_> {
    fn served(
        &mut self,
        svc: &Service<'_>,
        tracer: &mut Tracer,
        r: &Request<'_>,
        served: &ServedQuery,
    ) -> Result<(), String> {
        let query = query_for(svc.beliefs(), r.req)?;
        tracer
            .span("plan.verify", r.id, None, |_, _| {
                lec_plan::verify_plan(&served.plan, &query)
            })
            .map_err(|e| e.to_string())?;
        let truth = svc.truth();
        tracer.span("exec.execute", r.id, None, |_, _| {
            self.replica
                .execute(&served.plan, r.req, truth, self.config, r.ordinal)
        })
    }
}

/// Serves whole rounds for `seconds` seconds. Each round sets up afresh,
/// outside its serving time: new inputs and a new service, so the plan
/// cache starts cold and the data is generated again. Every set-up time is
/// a `setup_s` sample, so the samples spread over the whole run; the last
/// of a round's set-ups serves it.
fn measure(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Result<Phase, String> {
    let model = CountingCost::new(PaperCostModel);
    let mut tracer = Tracer::new(trace);
    let mut phase = Phase {
        rounds_agree: true,
        ..Phase::default()
    };
    let budget = std::time::Duration::from_secs(seconds);
    let start = Instant::now();
    let mut next_id = 0u64;
    while phase.round_ns.is_empty() || start.elapsed() < budget {
        let mut built = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(built.take());
            let t = Instant::now();
            let inputs = inputs(kind, seed)?;
            let svc = service(&inputs, &model)?;
            phase.setup_s.push(t.elapsed().as_secs_f64());
            built = Some((inputs, svc));
        }
        let (inputs, mut svc) = built.ok_or("no set-up ran")?;
        let round = if trace {
            let mut replay = Replay {
                replica: Replica::new(&inputs.beliefs, inputs.config.exec_seed)?,
                config: &inputs.config,
            };
            serve_round(&inputs, &mut svc, &mut tracer, next_id, &mut replay)?
        } else {
            serve_round(&inputs, &mut svc, &mut tracer, next_id, &mut Quiet)?
        };
        next_id += inputs.stream.len() as u64;
        phase.latencies_ns.extend(&round.latencies_ns);
        phase.wall_ns += round.serving_ns;
        phase.round_ns.push(round.serving_ns);
        phase.requests += inputs.stream.len() as u64;
        phase.failed += round.failed;
        phase.allocs += round.allocs;
        phase.serve_allocs += round.serve_allocs;
        phase.io_pages += round.io_pages;
        phase.opt_wall_ns += round.opt_wall_ns;
        if phase.round_ns.len() == 1 {
            phase.first_round = round.records;
            phase.first_counters = round.counters;
        } else if round.records != phase.first_round || round.counters != phase.first_counters {
            phase.rounds_agree = false;
        }
    }
    let counts = model.counts();
    phase.steps = counts.step_calls;
    phase.formulas = counts.formula_evals;
    phase.tracer = trace.then_some(tracer);
    Ok(phase)
}

/// Per class and truth version: the truth query's left-deep optimum (the
/// oracle) and bushy optimum (the certificate's reference).
type Oracles = BTreeMap<(usize, bool), (f64, f64)>;

/// The optimizer's query for `req` under `catalog`'s statistics.
fn query_for(catalog: &Catalog, req: &QueryRequest) -> Result<lec_plan::JoinQuery, String> {
    let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
    query_from_catalog(catalog, &tables, &req.joins, &req.filters, req.order_by)
        .map_err(|e| e.to_string())
}

/// Truth value of every interval-backed statistic of `req`, with the
/// service's target naming.
fn statistics(req: &QueryRequest, truth: &Catalog) -> Result<Vec<(DriftTarget, f64)>, String> {
    let mut out = Vec::new();
    for f in &req.filters {
        let p = Predicate::Range {
            table: f.table.clone(),
            column: f.column.clone(),
            lo: f.lo,
            hi: f.hi,
        };
        let target = DriftTarget::Selection {
            table: f.table.clone(),
            column: f.column.clone(),
        };
        out.push((target, p.estimate(truth).map_err(|e| e.to_string())?));
    }
    for j in &req.joins {
        let p = Predicate::EquiJoin {
            left_table: j.left_table.clone(),
            left_column: j.left_column.clone(),
            right_table: j.right_table.clone(),
            right_column: j.right_column.clone(),
        };
        let target = DriftTarget::Join {
            left_table: j.left_table.clone(),
            left_column: j.left_column.clone(),
            right_table: j.right_table.clone(),
            right_column: j.right_column.clone(),
        };
        out.push((target, p.estimate(truth).map_err(|e| e.to_string())?));
    }
    Ok(out)
}

/// The check round's observer: runs every per-request check beside the
/// serve.
struct Checker<'a> {
    inputs: &'a Inputs,
    tally: &'a mut Tally,
    replica: Replica,
    observed: MemoryModel,
    oracles: Oracles,
    /// Final-join row counts per class and truth version.
    rows: BTreeMap<(usize, bool), Vec<usize>>,
    ratios: Vec<f64>,
    epsilons: Vec<f64>,
    /// Taken just before the serve: the truth, and each interval-backed
    /// statistic of the request with its truth value and interval.
    truth: Catalog,
    stats: Vec<(DriftTarget, f64)>,
    intervals: Vec<Option<StatInterval>>,
}

impl Observer for Checker<'_> {
    fn before(&mut self, svc: &Service<'_>, r: &Request<'_>) -> Result<(), String> {
        self.truth = svc.truth().clone();
        self.stats = statistics(r.req, &self.truth)?;
        self.intervals = self
            .stats
            .iter()
            .map(|(t, _)| svc.stat_interval(t))
            .collect();
        Ok(())
    }

    fn served(
        &mut self,
        svc: &Service<'_>,
        _: &mut Tracer,
        r: &Request<'_>,
        served: &ServedQuery,
    ) -> Result<(), String> {
        let plain = PaperCostModel;
        let drifted = self.inputs.drift_at.is_some_and(|d| r.ordinal >= d as u64);
        let rows = served.feedback.joins.last().map_or(0, |j| j.out_rows);
        let tq = query_for(&self.truth, r.req)?;
        let (oracle, bushy_opt) = match self.oracles.entry((r.class, drifted)) {
            std::collections::btree_map::Entry::Occupied(e) => *e.get(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let left_deep =
                    alg_c::optimize(&tq, &plain, &self.observed).map_err(|e| e.to_string())?;
                let bushy =
                    bushy::optimize(&tq, &plain, &self.observed).map_err(|e| e.to_string())?;
                *e.insert((left_deep.cost, bushy.cost))
            }
        };
        let phases = self
            .observed
            .table(tq.n().max(2))
            .map_err(|e| e.to_string())?;
        let truth_cost = expected_cost(&tq, &plain, &served.plan, &phases);
        let ratio = truth_cost / oracle;
        self.tally
            .record("truth ratio at least 1", checks::ratio_at_least_one(ratio));
        self.ratios.push(ratio);
        if r.req.filters.is_empty() {
            self.tally.record(
                "final join rows equal the exact join size",
                checks::row_count(rows, self.replica.join_size(&r.req.tables)),
            );
        }
        self.rows.entry((r.class, drifted)).or_default().push(rows);
        if let Some(cert) = &served.certificate {
            self.epsilons.push(cert.epsilon);
            // The intervals the certificate was issued under: those held
            // before the serve, or for a statistic touched for the first
            // time, the one this serve drew (unless this serve's own
            // feedback already replaced it).
            let fresh = served.recalibrations.is_empty();
            let boxes: Option<Vec<StatInterval>> = self
                .stats
                .iter()
                .zip(&self.intervals)
                .map(|((t, _), b)| b.or_else(|| fresh.then(|| svc.stat_interval(t)).flatten()))
                .collect();
            if let Some(boxes) = boxes {
                let inside = self
                    .stats
                    .iter()
                    .zip(&boxes)
                    .all(|((_, v), iv)| iv.lo <= *v && *v <= iv.hi);
                if inside {
                    self.tally.record(
                        "certificate holds when the truth is inside its intervals",
                        checks::certificate_holds(truth_cost, cert.epsilon, bushy_opt),
                    );
                }
            }
        }
        Ok(())
    }
}

/// Serves one untimed round with every check on, through the same
/// `serve_round` as the timed rounds, and compares it with them; returns
/// the mean truth cost ratio and the certificates' mean epsilon.
fn check_round(inputs: &Inputs, phase: &Phase, tally: &mut Tally) -> Result<(f64, f64), String> {
    let model = CountingCost::new(PaperCostModel);
    let mut svc = service(inputs, &model)?;
    let mut checker = Checker {
        inputs,
        tally,
        replica: Replica::new(&inputs.beliefs, inputs.config.exec_seed)?,
        observed: MemoryModel::Static(inputs.config.observed_memory.clone()),
        oracles: Oracles::new(),
        rows: BTreeMap::new(),
        ratios: Vec::with_capacity(inputs.stream.len()),
        epsilons: Vec::new(),
        truth: Catalog::new(),
        stats: Vec::new(),
        intervals: Vec::new(),
    };
    let round = serve_round(inputs, &mut svc, &mut Tracer::new(false), 0, &mut checker)?;
    let Checker {
        tally,
        rows,
        ratios,
        epsilons,
        ..
    } = checker;
    let rc = &round.counters;
    tally.record(
        "hits plus misses equal requests served",
        checks::hits_plus_misses(rc.hits, rc.misses, rc.served),
    );
    for r in rows.values() {
        tally.record("plans for one request agree on rows", checks::same_rows(r));
    }
    if inputs.drift_at.is_some() {
        let from = ratios.len() * 3 / 4;
        let regrets: Vec<f64> = ratios[from..].iter().map(|r| r - 1.0).collect();
        tally.record("recovery after drift", checks::recovered(&regrets));
    }
    tally.check(
        "timed rounds repeat the check round",
        round.records == phase.first_round,
    );
    tally.check(
        "timed round counters repeat the check round",
        *rc == phase.first_counters,
    );
    tally.check("every timed round repeats the first", phase.rounds_agree);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok((mean(&ratios), mean(&epsilons)))
}

pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let inputs = inputs(kind, args.seed)?;
    let untraced = measure(kind, args.seed, args.seconds, false)?;
    let mut tally = Tally::default();
    let (ratio, epsilon) = check_round(&inputs, &untraced, &mut tally)?;
    let n = untraced.requests.max(1) as f64;
    let throughput = untraced.requests as f64 / (untraced.wall_ns as f64 / 1e9);
    let per_round = inputs.stream.len() as f64;
    let rc = &untraced.first_counters;
    let rounds = untraced.round_ns.len() as f64;
    let mut attempted = untraced.requests;
    let mut failed = untraced.failed;

    let metrics = if args.trace {
        let traced = measure(kind, args.seed, args.seconds, true)?;
        attempted += traced.requests;
        failed += traced.failed;
        let tracer = traced.tracer.as_ref().ok_or("traced phase kept no spans")?;
        let self_times = tracer.self_times();
        let tn = traced.requests.max(1) as f64;
        // Self time per request; a window-level span is shared by its
        // window's requests.
        let per = |name: &str| {
            self_times
                .get(name)
                .map_or(0.0, |&(_, ns)| ns as f64 / tn / 1e3)
        };
        let traced_tp = traced.requests as f64 / (traced.wall_ns as f64 / 1e9);
        let runs = rc.optimizer_runs.max(1) as f64;
        crate::per_layer(
            args,
            tracer,
            throughput,
            traced_tp,
            &[
                (
                    "core.optimize_us",
                    untraced.opt_wall_ns as f64 / (runs * rounds) / 1e3,
                ),
                ("core.candidates_per_call", rc.candidates as f64 / runs),
                ("core.masks_per_call", rc.masks as f64 / runs),
                ("core.entries_per_call", rc.entries as f64 / runs),
                ("core.optimizer_runs", rc.optimizer_runs as f64),
                ("cost.step_calls_per_call", traced.steps as f64 / tn),
                ("cost.formula_evals_per_call", traced.formulas as f64 / tn),
                ("plan.prepare_us", per("plan.prepare")),
                ("plan.verify_us", per("plan.verify")),
                ("serve.serve_at_us", per("serve.serve_at")),
                ("serve.prime_us", per("serve.prime")),
                ("serve.allocs_per_req", untraced.serve_allocs as f64 / n),
                ("serve.cache_hits", rc.hits as f64),
                ("serve.cache_misses", rc.misses as f64),
                ("serve.cache_evictions", rc.evictions as f64),
                ("serve.cache_invalidations", rc.invalidations as f64),
                ("serve.primed_consumed", rc.primed_consumed as f64),
                ("serve.dedup_saved", rc.dedup_saved as f64),
                ("serve.recalibrations", rc.recalibrations as f64),
                ("serve.reoptimize_decisions", rc.reoptimize as f64),
                ("serve.recost_decisions", rc.recost as f64),
                ("serve.resamples", rc.resamples as f64),
                ("exec.execute_us", per("exec.execute")),
                ("exec.io_pages_per_req", untraced.io_pages as f64 / n),
                ("cert.epsilon_mean", epsilon),
            ],
        )?
    } else {
        crate::end_to_end(
            &untraced.setup_s,
            &untraced.latencies_ns,
            throughput,
            untraced.allocs as f64 / n,
            rc.candidates as f64 / per_round,
            ratio,
        )?
    };
    crate::stats::print_rounds(&args.workload, &untraced.round_ns, inputs.stream.len());
    crate::stats::print_classes(&args.workload, &untraced.latencies_ns, |i| {
        let c = &inputs.design.classes[inputs.stream[i % inputs.stream.len()]];
        let hit = untraced
            .first_round
            .get(i % inputs.stream.len())
            .is_some_and(|r| r.cache_hit);
        format!(
            "{:?}{}{}",
            c.tables,
            if c.filtered { "f" } else { "" },
            if hit { "" } else { "-miss" }
        )
    });
    eprintln!(
        "{}: {} requests in {:.2} s ({:.0} rounds), hits {} misses {} evictions {} \
         invalidations {} recalibrations {} (reopt {} recost {}) resamples {}, {} checks, {} failed",
        args.workload,
        untraced.requests,
        untraced.wall_ns as f64 / 1e9,
        rounds,
        rc.hits,
        rc.misses,
        rc.evictions,
        rc.invalidations,
        rc.recalibrations,
        rc.reoptimize,
        rc.recost,
        rc.resamples,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-count check on a real served request: it passes against the
    /// benchmark's own exact join size and fires when the count is off by
    /// one.
    #[test]
    fn served_rows_match_the_regenerated_join_and_the_check_fires() {
        let inputs = inputs(Kind::Hot, 3).unwrap();
        let model = CountingCost::new(PaperCostModel);
        let mut svc = service(&inputs, &model).unwrap();
        let replica = Replica::new(&inputs.beliefs, inputs.config.exec_seed).unwrap();
        let req = &inputs.requests[3];
        assert!(req.filters.is_empty());
        let served = svc.serve_at(0, req, None, None).unwrap();
        let rows = record_of(&served).rows;
        let exact = replica.join_size(&req.tables);
        assert!(exact > 0);
        assert!(checks::row_count(rows, exact).is_ok());
        assert!(checks::row_count(rows + 1, exact).is_err());
        assert!(checks::row_count(rows - 1, exact).is_err());
        let stats = svc.stats();
        assert!(checks::hits_plus_misses(stats.cache.hits, stats.cache.misses, 1).is_ok());
        assert!(checks::hits_plus_misses(stats.cache.hits + 1, stats.cache.misses, 1).is_err());
    }
}
