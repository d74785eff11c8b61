//! The benchmark's independent correctness checks. Each is a pure function
//! of the program's output and a reference the benchmark computed itself,
//! so the canary tests below can feed it perturbed outputs and show that it
//! fires.

/// Relative tolerance for comparing costs computed along different
/// summation orders.
pub const TOL: f64 = 1e-9;

/// Mean served-over-oracle regret x20 requires after recalibration settles.
pub const RECOVERY_REGRET: f64 = 0.05;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// The returned cost equals the benchmark's re-pricing of the returned plan.
pub fn reprice(returned: f64, repriced: f64) -> Result<(), String> {
    if close(returned, repriced) {
        Ok(())
    } else {
        Err(format!(
            "returned cost {returned} but plan re-prices to {repriced}"
        ))
    }
}

/// No sampled plan has a lower expected cost than the returned optimum.
pub fn no_better_plan(optimum: f64, samples: &[f64]) -> Result<(), String> {
    match samples.iter().find(|&&c| c < optimum && !close(c, optimum)) {
        Some(c) => Err(format!(
            "a sampled plan costs {c}, below the optimum {optimum}"
        )),
        None => Ok(()),
    }
}

/// The LEC plan's expected cost never exceeds the LSC plan's under the same
/// distribution.
pub fn lec_vs_lsc(lec: f64, lsc: f64) -> Result<(), String> {
    if lec <= lsc || close(lec, lsc) {
        Ok(())
    } else {
        Err(format!("LEC cost {lec} above LSC cost {lsc}"))
    }
}

/// A served plan never beats the truth oracle: the ratio is at least 1.
pub fn ratio_at_least_one(ratio: f64) -> Result<(), String> {
    if ratio.is_finite() && ratio >= 1.0 - TOL {
        Ok(())
    } else {
        Err(format!("served/oracle ratio {ratio} below 1"))
    }
}

/// The final join's output row count equals the exact join size.
pub fn row_count(served: usize, exact: u64) -> Result<(), String> {
    if served as u64 == exact {
        Ok(())
    } else {
        Err(format!("served {served} rows, exact join has {exact}"))
    }
}

/// Every plan that served the same request under the same truth produced
/// the same number of rows.
pub fn same_rows(rows: &[usize]) -> Result<(), String> {
    match rows.first() {
        Some(first) if rows.iter().any(|r| r != first) => {
            Err(format!("plans for one request returned {rows:?} rows"))
        }
        _ => Ok(()),
    }
}

/// Cache hits plus misses account for every request served.
pub fn hits_plus_misses(hits: u64, misses: u64, served: u64) -> Result<(), String> {
    if hits + misses == served {
        Ok(())
    } else {
        Err(format!("{hits} hits + {misses} misses != {served} served"))
    }
}

/// After drift, the mean regret over the recovery window is below the x20
/// bound.
pub fn recovered(regrets: &[f64]) -> Result<(), String> {
    let mean = regrets.iter().sum::<f64>() / regrets.len().max(1) as f64;
    if !regrets.is_empty() && mean < RECOVERY_REGRET {
        Ok(())
    } else {
        Err(format!(
            "mean regret {mean} over {} recovery requests, bound {RECOVERY_REGRET}",
            regrets.len()
        ))
    }
}

/// With the truth inside the certificate's intervals, the truth-priced cost
/// of the served plan is within `1 + epsilon` of the truth optimum.
pub fn certificate_holds(truth_cost: f64, epsilon: f64, truth_optimum: f64) -> Result<(), String> {
    let bound = (1.0 + epsilon) * truth_optimum;
    if truth_cost <= bound || close(truth_cost, bound) {
        Ok(())
    } else {
        Err(format!(
            "truth cost {truth_cost} above (1 + {epsilon}) x optimum {truth_optimum}"
        ))
    }
}

/// Counts checks and failures; prints the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub checked: u64,
    pub failures: u64,
}

impl Tally {
    pub fn record(&mut self, name: &str, result: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = result {
            self.fail(&format!("{name}: {e}"));
        }
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.record(name, if ok { Ok(()) } else { Err("failed".into()) });
    }

    pub fn fail(&mut self, message: &str) {
        self.failures += 1;
        if self.failures <= 5 {
            eprintln!("check failed: {message}");
        }
    }
}

#[cfg(test)]
mod canaries {
    //! Each check passes on the program's real output and fires on a
    //! perturbed one.
    use super::*;
    use crate::optimize_cold::random_left_deep;
    use lec_core::certificate::{certify_plan, QueryIntervals};
    use lec_core::{alg_c, bushy, expected_cost, lsc, MemoryModel};
    use lec_cost::PaperCostModel;
    use lec_plan::JoinQuery;
    use lec_workload::{QueryGen, Topology};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn query(seed: u64) -> JoinQuery {
        QueryGen {
            topology: Topology::Star,
            n: 5,
            ..QueryGen::default()
        }
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
    }

    fn memory() -> MemoryModel {
        MemoryModel::Static(lec_workload::envs::lognormal(400.0, 0.8, 3))
    }

    /// The costliest of a few random plans: a plan worse than the optimum.
    fn worse_plan(q: &JoinQuery, phases: &lec_core::PhaseDists) -> (lec_plan::Plan, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        (0..16)
            .map(|_| {
                let p = random_left_deep(q, &mut rng);
                let c = expected_cost(q, &PaperCostModel, &p, phases);
                (p, c)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("sixteen samples")
    }

    #[test]
    fn plan_checks_fire_on_a_worse_plan() {
        let q = query(1);
        let mem = memory();
        let phases = mem.table(q.n()).unwrap();
        let lec = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap();
        let (_, worse) = worse_plan(&q, &phases);
        assert!(worse > lec.cost);
        // Real output passes.
        assert!(no_better_plan(lec.cost, &[worse]).is_ok());
        assert!(reprice(
            lec.cost,
            expected_cost(&q, &PaperCostModel, &lec.plan, &phases)
        )
        .is_ok());
        let MemoryModel::Static(d) = &mem else {
            unreachable!()
        };
        let l = lsc::optimize_at_mean(&q, &PaperCostModel, d).unwrap();
        let lsc_cost = expected_cost(&q, &PaperCostModel, &l.plan, &phases);
        assert!(lec_vs_lsc(lec.cost, lsc_cost).is_ok());
        // A worse plan reported as the optimum fires every plan check.
        assert!(no_better_plan(worse, &[lec.cost]).is_err());
        assert!(reprice(worse, lec.cost).is_err());
        assert!(lec_vs_lsc(worse, lec.cost).is_err());
        assert!(ratio_at_least_one(lec.cost / worse).is_err());
        assert!(ratio_at_least_one(worse / lec.cost).is_ok());
    }

    #[test]
    fn same_rows_check_fires_when_one_plan_disagrees() {
        assert!(same_rows(&[7, 7, 7]).is_ok());
        assert!(same_rows(&[7, 8, 7]).is_err());
    }

    #[test]
    fn recovery_check_fires_above_the_bound() {
        assert!(recovered(&[0.0, 0.01, 0.02]).is_ok());
        assert!(recovered(&[0.0, 0.2, 0.02]).is_err());
        assert!(recovered(&[]).is_err());
    }

    #[test]
    fn certificate_check_fires_when_epsilon_shrinks_to_zero() {
        let q = query(2);
        let mem = memory();
        let phases = mem.table(q.n()).unwrap();
        let (plan, truth_cost) = worse_plan(&q, &phases);
        let cert =
            certify_plan(&q, &PaperCostModel, &mem, &plan, &QueryIntervals::exact(&q)).unwrap();
        let optimum = bushy::optimize(&q, &PaperCostModel, &mem).unwrap().cost;
        assert!(truth_cost > optimum);
        assert!(certificate_holds(truth_cost, cert.epsilon, optimum).is_ok());
        assert!(certificate_holds(truth_cost, 0.0, optimum).is_err());
    }
}
