//! Property-based tests for the simplex solver: solutions of randomly
//! generated programs must be feasible and at least as good as a known
//! feasible point, the sparse pivot must be bit-identical to its dense
//! oracle, and snapshot warm restarts must agree with cold solves.

use noc_lp::{LinearProgram, PivotMode, Sense, SimplexOptions, SolveError, VarId};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// A randomly generated LP together with a point known to be feasible.
#[derive(Debug, Clone)]
struct RandomLp {
    costs: Vec<f64>,
    /// (coefficients, sense, rhs); sense: 0 = Le, 1 = Ge, 2 = Eq.
    constraints: Vec<(Vec<f64>, u8, f64)>,
    feasible_point: Vec<f64>,
    bounded: bool,
}

fn random_lp(bounded: bool) -> impl Strategy<Value = RandomLp> {
    let dims = (1usize..=5, 1usize..=6);
    dims.prop_flat_map(move |(n, m)| {
        let costs = prop::collection::vec(-10.0..10.0f64, n);
        let point = prop::collection::vec(0.0..8.0f64, n);
        let rows =
            prop::collection::vec((prop::collection::vec(-5.0..5.0f64, n), 0u8..3, 0.0..6.0f64), m);
        (costs, point, rows).prop_map(move |(costs, feasible_point, raw_rows)| {
            let constraints = raw_rows
                .into_iter()
                .map(|(coeffs, sense, slack)| {
                    let activity: f64 =
                        coeffs.iter().zip(&feasible_point).map(|(a, x)| a * x).sum();
                    // Choose the rhs so `feasible_point` satisfies the row.
                    let rhs = match sense {
                        0 => activity + slack, // a.x <= rhs
                        1 => activity - slack, // a.x >= rhs
                        _ => activity,         // a.x == rhs
                    };
                    (coeffs, sense, rhs)
                })
                .collect();
            RandomLp { costs, constraints, feasible_point, bounded }
        })
    })
}

fn build(lp_data: &RandomLp) -> (LinearProgram, Vec<VarId>) {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let vars: Vec<VarId> = lp_data
        .costs
        .iter()
        .enumerate()
        .map(|(i, &c)| lp.add_variable(format!("x{i}"), c))
        .collect();
    for (coeffs, sense, rhs) in &lp_data.constraints {
        let terms: Vec<(VarId, f64)> = vars.iter().zip(coeffs).map(|(&v, &a)| (v, a)).collect();
        match sense {
            0 => lp.add_le(&terms, *rhs),
            1 => lp.add_ge(&terms, *rhs),
            _ => lp.add_eq(&terms, *rhs),
        }
    }
    if lp_data.bounded {
        // Box constraints keep the program bounded; the feasible point is
        // inside the box by construction (components < 8 <= 20).
        for &v in &vars {
            lp.add_le(&[(v, 1.0)], 20.0);
        }
    }
    (lp, vars)
}

fn check_feasible(lp_data: &RandomLp, values: &[f64]) {
    for (i, &v) in values.iter().enumerate() {
        assert!(v >= -TOL, "x{i} = {v} negative");
    }
    for (row, (coeffs, sense, rhs)) in lp_data.constraints.iter().enumerate() {
        let activity: f64 = coeffs.iter().zip(values).map(|(a, x)| a * x).sum();
        let ok = match sense {
            0 => activity <= rhs + TOL,
            1 => activity >= rhs - TOL,
            _ => (activity - rhs).abs() <= TOL,
        };
        assert!(ok, "row {row} violated: activity {activity}, sense {sense}, rhs {rhs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bounded programs with a known feasible point must solve to an
    /// optimum that is (a) feasible and (b) no worse than that point.
    #[test]
    fn bounded_random_lps_solve_correctly(lp_data in random_lp(true)) {
        let (lp, _) = build(&lp_data);
        let solution = lp.solve().expect("feasible bounded LP must solve");
        check_feasible(&lp_data, &solution.values);
        let reference: f64 = lp_data
            .costs
            .iter()
            .zip(&lp_data.feasible_point)
            .map(|(c, x)| c * x)
            .sum();
        prop_assert!(
            solution.objective <= reference + TOL,
            "objective {} worse than known feasible point {}",
            solution.objective,
            reference
        );
        // The reported objective matches the reported point.
        let recomputed: f64 =
            lp_data.costs.iter().zip(&solution.values).map(|(c, x)| c * x).sum();
        prop_assert!((solution.objective - recomputed).abs() < 1e-6);
    }

    /// Unbounded-direction programs either solve (feasible optimum) or
    /// report unboundedness — never infeasibility, and never a bogus
    /// "optimal" point violating a constraint.
    #[test]
    fn unbounded_random_lps_never_report_infeasible(lp_data in random_lp(false)) {
        let (lp, _) = build(&lp_data);
        match lp.solve() {
            Ok(solution) => check_feasible(&lp_data, &solution.values),
            Err(SolveError::Unbounded) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?} on a feasible program"),
        }
    }

    /// The sparse pivot is an execution strategy, not an algorithm change:
    /// on any program it must walk the same pivot sequence as the dense
    /// oracle and land on the *bit-identical* solution — exact `f64`
    /// equality on every component, not an epsilon comparison.
    #[test]
    fn sparse_pivot_is_bit_identical_to_the_dense_oracle(lp_data in random_lp(true)) {
        let (mut sparse_lp, _) = build(&lp_data);
        sparse_lp.set_options(SimplexOptions {
            pivot_mode: PivotMode::Sparse,
            ..SimplexOptions::default()
        });
        let (mut dense_lp, _) = build(&lp_data);
        dense_lp.set_options(SimplexOptions {
            pivot_mode: PivotMode::Dense,
            ..SimplexOptions::default()
        });
        let sparse = sparse_lp.solve().expect("feasible bounded LP must solve");
        let dense = dense_lp.solve().expect("feasible bounded LP must solve");
        prop_assert_eq!(sparse.values, dense.values, "pivot modes diverged");
        prop_assert_eq!(sparse.objective.to_bits(), dense.objective.to_bits());
        let dual_bits = |duals: &[Option<f64>]| -> Vec<Option<u64>> {
            duals.iter().map(|y| y.map(f64::to_bits)).collect()
        };
        prop_assert_eq!(dual_bits(&sparse.duals), dual_bits(&dense.duals), "duals diverged");
    }

    /// Resolving from a captured tableau snapshot after loosening the
    /// inequality right-hand sides must agree with a cold solve of the
    /// perturbed program. A `BasisMismatch` refusal (non-unique optimum,
    /// or a loosened row crossing zero and flipping its standard form) is
    /// the documented fallback path and equally acceptable — what is
    /// *never* acceptable is a warm "optimum" that a cold solve beats.
    #[test]
    fn snapshot_resolve_agrees_with_cold_solve(
        lp_data in random_lp(true),
        delta in 0.0..3.0f64,
    ) {
        let (lp, _) = build(&lp_data);
        let Ok((_, snapshot, _)) = lp.solve_with_snapshot() else { return Ok(()) };
        // Loosen every inequality row; the known feasible point stays
        // feasible, and equalities keep the perturbed program honest.
        let perturbed_data = RandomLp {
            constraints: lp_data
                .constraints
                .iter()
                .map(|(coeffs, sense, rhs)| {
                    let rhs = match sense {
                        0 => rhs + delta,
                        1 => rhs - delta,
                        _ => *rhs,
                    };
                    (coeffs.clone(), *sense, rhs)
                })
                .collect(),
            ..lp_data.clone()
        };
        let (perturbed, _) = build(&perturbed_data);
        match perturbed.resolve_with_snapshot(snapshot) {
            Ok((warm, _, stats)) => {
                prop_assert!(stats.warm_start, "snapshot resolve must report warm");
                check_feasible(&perturbed_data, &warm.values);
                let cold = perturbed.solve().expect("loosened program stays feasible");
                prop_assert!(
                    (warm.objective - cold.objective).abs()
                        <= 1e-6 * (1.0 + cold.objective.abs()),
                    "warm optimum {} != cold optimum {}",
                    warm.objective,
                    cold.objective
                );
            }
            // Refusals fall back to a cold solve in every caller; solver
            // verdicts (infeasible/unbounded) must then match cold.
            Err(SolveError::BasisMismatch) => {}
            Err(e) => {
                let cold = perturbed.solve();
                prop_assert!(cold.is_err(), "warm failed with {e:?} but cold solved");
            }
        }
    }

    /// Resolving a snapshot against the *unchanged* program is the
    /// degenerate sweep step: it must succeed whenever the capture was
    /// reusable and return the same optimum without any simplex work
    /// beyond the RHS recompute.
    #[test]
    fn snapshot_resolve_is_idempotent_on_unchanged_rhs(lp_data in random_lp(true)) {
        let (lp, _) = build(&lp_data);
        let Ok((first, snapshot, _)) = lp.solve_with_snapshot() else { return Ok(()) };
        if !snapshot.is_reusable() {
            return Ok(());
        }
        let (warm, _, stats) = lp
            .resolve_with_snapshot(snapshot)
            .expect("reusable snapshot must resolve its own program");
        prop_assert!(stats.warm_start);
        prop_assert!(
            (warm.objective - first.objective).abs()
                <= 1e-9 * (1.0 + first.objective.abs()),
            "idempotent resolve moved the optimum: {} -> {}",
            first.objective,
            warm.objective
        );
        check_feasible(&lp_data, &warm.values);
    }

    /// Scaling every cost by a positive constant scales the optimum and
    /// preserves feasibility of the reported point.
    #[test]
    fn objective_scaling_is_linear(lp_data in random_lp(true), scale in 0.5..4.0f64) {
        let (lp, _) = build(&lp_data);
        let scaled_data = RandomLp {
            costs: lp_data.costs.iter().map(|c| c * scale).collect(),
            ..lp_data.clone()
        };
        let (scaled_lp, _) = build(&scaled_data);
        let a = lp.solve().expect("solves");
        let b = scaled_lp.solve().expect("solves");
        prop_assert!(
            (a.objective * scale - b.objective).abs() < 1e-5 * (1.0 + a.objective.abs() * scale),
            "scaled optimum {} != {} * {}",
            b.objective,
            scale,
            a.objective
        );
    }
}
