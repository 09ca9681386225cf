//! Warm-started re-optimization from a previous optimal basis.
//!
//! A bandwidth sweep re-solves the *same* LP at every capacity point with
//! only the constraint right-hand sides changed. The optimal basis of the
//! previous solve is then dual-feasible for the new program: rebuilding the
//! tableau, refactorizing that basis, and running the **dual simplex**
//! method reaches the new optimum in a handful of pivots instead of a full
//! two-phase solve.
//!
//! Entry points are [`crate::LinearProgram::solve_with_basis`] (a cold
//! solve that also returns its optimal [`Basis`]) and
//! [`crate::LinearProgram::resolve_with_basis`] (the warm restart). The
//! warm path is strictly best-effort: any structural difference between
//! the recorded basis and the new program — variable/constraint counts,
//! constraint senses, an RHS sign flip that changes the slack layout, a
//! singular refactorization, or a previously-redundant row that the new
//! RHS makes binding — reports [`SolveError::BasisMismatch`] so the caller
//! can fall back to a cold solve.

use crate::problem::{Constraint, ConstraintSense};
use crate::simplex::{effective_sense, Optimum, SimplexOptions, SolveError, SolveStats, Tableau};

/// Layout fingerprint of one constraint row as the cold solve built it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowLayout {
    /// The sense the constraint was declared with.
    pub(crate) sense: ConstraintSense,
    /// Whether the row was negated because its RHS was negative.
    pub(crate) flipped: bool,
    /// Column of the row's slack/surplus variable, or `usize::MAX` if the
    /// effective sense is an equality (no slack).
    pub(crate) slack: usize,
}

/// An optimal simplex basis captured by
/// [`crate::LinearProgram::solve_with_basis`], reusable to warm-start a
/// program that differs only in its constraint right-hand sides.
///
/// The basis is opaque: it records the basic column set per surviving
/// tableau row plus a layout fingerprint (variable count, per-constraint
/// sense and RHS-sign pattern) that
/// [`crate::LinearProgram::resolve_with_basis`] validates before reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per surviving constraint row.
    pub(crate) columns: Vec<usize>,
    /// Original constraint index behind each surviving row (phase 1 may
    /// have dropped redundant rows).
    pub(crate) kept_rows: Vec<usize>,
    /// Structural variable count of the program that produced the basis.
    pub(crate) variables: usize,
    /// Number of slack/surplus columns in the layout.
    pub(crate) slack_count: usize,
    /// Per-original-constraint layout fingerprint.
    pub(crate) layout: Vec<RowLayout>,
    /// Whether the optimum this basis describes was provably unique (every
    /// nonbasic reduced cost strictly positive). Reduced costs do not
    /// depend on the RHS, so a basis recorded at a non-unique optimum
    /// would fail the warm path's uniqueness guard after paying for a full
    /// refactorization; recording the verdict lets
    /// [`crate::LinearProgram::resolve_with_basis`] refuse in O(1) instead.
    pub(crate) unique: bool,
}

impl Basis {
    /// Number of basic columns (equals the surviving constraint rows).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for the basis of a program with no constraints.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// Threshold below which a refactorization pivot counts as singular. This
/// mirrors the `1e-7` pivot guard used when driving artificials out after
/// phase 1 and is deliberately independent of the user tolerance.
const SINGULAR_EPSILON: f64 = 1e-9;

/// The final simplex tableau of an optimal solve, captured by
/// [`crate::LinearProgram::solve_with_snapshot`] for RHS-only warm
/// restarts via [`crate::LinearProgram::resolve_with_snapshot`].
///
/// Where a [`Basis`] records only the basic column *set* — forcing the
/// warm path to rebuild the tableau and refactorize it with one
/// Gauss-Jordan pivot per row — the snapshot keeps the eliminated tableau
/// itself. Its slack and artificial columns are the columns of the basis
/// inverse (each started life as a unit column), so an RHS-only change
/// needs just one dot product per row to rebuild the RHS column before
/// the dual simplex runs: `O(m²)` arithmetic in place of `m` full
/// elimination passes.
///
/// The snapshot is opaque and validated before reuse exactly like a
/// basis (shape, senses, RHS sign pattern), plus an objective-coefficient
/// check: the stored reduced costs are only valid while the costs are
/// unchanged. Snapshots taken at a non-unique optimum store no tableau
/// data and are refused in O(1), mirroring [`Basis`]'s `unique` flag.
#[derive(Debug, Clone, PartialEq)]
pub struct TableauSnapshot {
    /// Final tableau (constraint rows then objective row), full width
    /// including artificial columns; empty when `unique` is false.
    pub(crate) data: Vec<f64>,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    /// Basic column per surviving constraint row.
    pub(crate) basis_cols: Vec<usize>,
    /// Original constraint index behind each surviving row.
    pub(crate) kept_rows: Vec<usize>,
    /// Structural variable count of the producing program.
    pub(crate) variables: usize,
    /// Number of slack/surplus columns in the layout.
    pub(crate) slack_count: usize,
    /// First artificial column.
    pub(crate) artificial_start: usize,
    /// Per-original-constraint layout fingerprint.
    pub(crate) layout: Vec<RowLayout>,
    /// Minimization-sense objective coefficients at capture time; the
    /// stored reduced costs are valid only while these are unchanged.
    pub(crate) costs: Vec<f64>,
    /// Whether the captured optimum was provably unique (see [`Basis`]).
    pub(crate) unique: bool,
}

impl TableauSnapshot {
    /// Number of surviving constraint rows in the captured tableau.
    pub fn len(&self) -> usize {
        self.rows - 1
    }

    /// True for the snapshot of a program with no constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`crate::LinearProgram::resolve_with_snapshot`] can reuse
    /// this snapshot at all: captures at a non-unique optimum are refused
    /// up front (and store no tableau data).
    pub fn is_reusable(&self) -> bool {
        self.unique
    }

    /// Heap bytes held by the captured tableau.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// The unit column each original constraint row started with: its
    /// slack for an effective `≤` row, its artificial for `≥`/`=` rows
    /// (artificials are assigned sequentially in row order, mirroring the
    /// cold solve's layout pass). In the final tableau those columns hold
    /// the basis-inverse entries the RHS recompute needs.
    fn unit_columns(&self) -> Vec<usize> {
        let mut next_artificial = self.artificial_start;
        self.layout
            .iter()
            .map(|lay| match effective_sense(lay.sense, lay.flipped) {
                ConstraintSense::Le => lay.slack,
                ConstraintSense::Ge | ConstraintSense::Eq => {
                    let col = next_artificial;
                    next_artificial += 1;
                    col
                }
            })
            .collect()
    }
}

/// Re-optimizes `min c·x` from `prev`, assuming only constraint RHS values
/// changed since the basis was recorded. Returns the structural values,
/// the row duals, the (possibly updated) optimal basis, and solve statistics.
pub(crate) fn resolve_standard_form(
    costs: &[f64],
    constraints: &[Constraint],
    options: SimplexOptions,
    prev: &Basis,
) -> Result<(Optimum, Basis, SolveStats), SolveError> {
    options.validate()?;
    let n = costs.len();
    let m = constraints.len();
    if prev.variables != n || prev.layout.len() != m {
        return Err(SolveError::BasisMismatch);
    }
    // A basis recorded at a non-unique optimum would re-enter the same
    // degenerate optimal face and fail the uniqueness guard below in all
    // but contrived cases (reduced costs are RHS-independent), so refuse
    // before paying for the tableau rebuild and refactorization. Skipping
    // an attempt is output-neutral: the caller's fallback is the cold
    // solve, which is the reference answer.
    if !prev.unique {
        return Err(SolveError::BasisMismatch);
    }
    // An RHS sign change flips the row and alters the slack/artificial
    // layout the basis columns are numbered against.
    for (c, lay) in constraints.iter().zip(&prev.layout) {
        if c.sense != lay.sense || (c.rhs < 0.0) != lay.flipped {
            return Err(SolveError::BasisMismatch);
        }
    }

    // Rebuild the tableau over the surviving rows only, without artificial
    // columns: a recorded optimal basis never contains artificials.
    let artificial_start = n + prev.slack_count;
    let cols = artificial_start + 1;
    let rows = prev.kept_rows.len() + 1;
    let mut t = Tableau {
        rows,
        cols,
        data: vec![0.0; rows * cols],
        basis: vec![usize::MAX; rows - 1],
        origin: prev.kept_rows.clone(),
        artificial_start,
        options,
        stats: SolveStats { warm_start: true, ..SolveStats::default() },
        scratch_segments: Vec::new(),
        scratch_values: Vec::new(),
        freeze_artificials: false,
    };
    for (r, &orig) in prev.kept_rows.iter().enumerate() {
        let c = &constraints[orig];
        let lay = prev.layout[orig];
        let sign = if lay.flipped { -1.0 } else { 1.0 };
        for &(var, coeff) in &c.terms {
            t.data[r * cols + var.0] += sign * coeff; // accumulate duplicates
        }
        let rhs_col = t.rhs_col();
        t.set(r, rhs_col, sign * c.rhs);
        if lay.slack != usize::MAX {
            let slack_sign = match effective_sense(lay.sense, lay.flipped) {
                ConstraintSense::Le => 1.0,
                ConstraintSense::Ge => -1.0,
                ConstraintSense::Eq => unreachable!("equalities carry no slack"),
            };
            t.set(r, lay.slack, slack_sign);
        }
    }

    // Refactorize: turn every recorded basis column into a unit column via
    // Gauss-Jordan pivots. Row association is re-derived deterministically
    // (largest available magnitude, first row on ties); only the basic
    // column *set* matters for correctness.
    let mut assigned = vec![false; rows - 1];
    for &col in &prev.columns {
        if col >= artificial_start {
            return Err(SolveError::BasisMismatch);
        }
        let mut best: Option<usize> = None;
        let mut best_mag = SINGULAR_EPSILON;
        for (r, done) in assigned.iter().enumerate() {
            if *done {
                continue;
            }
            let mag = t.at(r, col).abs();
            if mag > best_mag {
                best_mag = mag;
                best = Some(r);
            }
        }
        let Some(r) = best else {
            return Err(SolveError::BasisMismatch);
        };
        t.pivot(r, col);
        assigned[r] = true;
    }
    t.stats.refactor_pivots = t.stats.pivots;
    t.stats.pivots = 0;
    t.stats.trace.clear();

    // Express the objective over the refactorized basis. Reduced costs are
    // independent of the RHS, so the row is dual-feasible (up to roundoff).
    t.install_objective(costs);

    let optimum = dual_reoptimize(&mut t, n, constraints, &prev.layout)?;

    let basis = Basis {
        columns: t.basis.clone(),
        kept_rows: t.origin.clone(),
        variables: n,
        slack_count: prev.slack_count,
        layout: prev.layout.clone(),
        unique: true, // dual_reoptimize's uniqueness guard just proved it
    };
    let stats = std::mem::take(&mut t.stats);
    Ok((optimum, basis, stats))
}

/// Re-optimizes `min c·x` from `prev`, a captured [`TableauSnapshot`],
/// assuming only constraint RHS values changed. Instead of refactorizing
/// the basis (one Gauss-Jordan pass per row), the stored tableau's slack
/// and artificial columns — the columns of the basis inverse — rebuild the
/// RHS column with one dot product per row; the dual simplex then repairs
/// primal feasibility as usual.
///
/// The snapshot is consumed: its tableau moves into the working state and
/// back out into the returned successor snapshot, so a warm hit performs
/// no tableau-sized allocation or copy at all. On error the snapshot is
/// simply dropped — the fallback cold solve recaptures its own.
pub(crate) fn resolve_from_snapshot(
    costs: &[f64],
    constraints: &[Constraint],
    options: SimplexOptions,
    prev: TableauSnapshot,
) -> Result<(Optimum, TableauSnapshot, SolveStats), SolveError> {
    options.validate()?;
    let n = costs.len();
    let m = constraints.len();
    if prev.variables != n || prev.layout.len() != m {
        return Err(SolveError::BasisMismatch);
    }
    // O(1) refusal of snapshots taken at a non-unique optimum: the
    // uniqueness guard below would reject them after all the work (reduced
    // costs are RHS-independent), and they carry no tableau data.
    if !prev.unique {
        return Err(SolveError::BasisMismatch);
    }
    // The stored reduced costs are only valid for the capture-time
    // objective; any cost change must fall back to a cold solve.
    if prev.costs != costs {
        return Err(SolveError::BasisMismatch);
    }
    // An RHS sign change flips the row and alters the slack/artificial
    // layout the snapshot columns are numbered against.
    for (c, lay) in constraints.iter().zip(&prev.layout) {
        if c.sense != lay.sense || (c.rhs < 0.0) != lay.flipped {
            return Err(SolveError::BasisMismatch);
        }
    }

    let unit_cols = prev.unit_columns();
    let mut t = Tableau {
        rows: prev.rows,
        cols: prev.cols,
        data: prev.data,
        basis: prev.basis_cols,
        origin: prev.kept_rows,
        artificial_start: prev.artificial_start,
        options,
        stats: SolveStats { warm_start: true, ..SolveStats::default() },
        scratch_segments: Vec::new(),
        scratch_values: Vec::new(),
        // The artificial columns must stay live: they are basis-inverse
        // columns the *next* capture (below) will need again.
        freeze_artificials: false,
    };

    // Rebuild the RHS column: every tableau row (objective included) is a
    // fixed linear combination of the original constraint rows, and the
    // combination coefficients sit in the unit column each original row
    // started with. `rhs[r] = Σ_j inv[r][j] · b'_j` over the original
    // constraints j — including rows phase 1 later dropped as redundant,
    // whose combinations may still contribute. The objective row's entry
    // in those same columns is `-(c_B·inv)_j`, so the identical sum yields
    // the new objective cell. The inner loop walks one tableau row in
    // ascending column order (cache-friendly), and the per-row summation
    // order is the fixed constraint order, so the result is deterministic.
    let mut contributions: Vec<(usize, f64)> = Vec::with_capacity(m);
    for (j, (c, lay)) in constraints.iter().zip(&prev.layout).enumerate() {
        let sign = if lay.flipped { -1.0 } else { 1.0 };
        let b = sign * c.rhs;
        if b != 0.0 {
            contributions.push((unit_cols[j], b));
        }
    }
    let cols = t.cols;
    let rhs_col = t.rhs_col();
    for r in 0..t.rows {
        let row = &mut t.data[r * cols..(r + 1) * cols];
        let mut acc = 0.0;
        for &(col, b) in &contributions {
            acc += row[col] * b;
        }
        row[rhs_col] = acc;
    }

    let optimum = dual_reoptimize(&mut t, n, constraints, &prev.layout)?;

    let snapshot = TableauSnapshot {
        data: std::mem::take(&mut t.data),
        rows: t.rows,
        cols: t.cols,
        basis_cols: std::mem::take(&mut t.basis),
        kept_rows: std::mem::take(&mut t.origin),
        variables: n,
        slack_count: prev.slack_count,
        artificial_start: prev.artificial_start,
        layout: prev.layout,
        costs: prev.costs,
        unique: true, // dual_reoptimize's uniqueness guard just proved it
    };
    let stats = std::mem::take(&mut t.stats);
    Ok((optimum, snapshot, stats))
}

/// The shared tail of both warm paths: dual simplex from a dual-feasible
/// tableau, primal cleanup, the uniqueness guard, value extraction, and
/// the consistency recheck of constraint rows the cold solve dropped as
/// redundant. Returns the structural values and row duals; the caller
/// packages the basis/snapshot and stats.
fn dual_reoptimize(
    t: &mut Tableau,
    n: usize,
    constraints: &[Constraint],
    layout: &[RowLayout],
) -> Result<Optimum, SolveError> {
    let options = t.options;
    let tol = options.tolerance;
    let m = constraints.len();

    // Dual simplex: repair primal feasibility while keeping dual
    // feasibility. Leaving row = most negative RHS (first row on ties);
    // entering column = dual ratio test (first column on ties).
    let mut iterations = 0usize;
    loop {
        if iterations >= options.max_iterations {
            return Err(SolveError::IterationLimit);
        }
        let rhs_col = t.rhs_col();
        let mut leave: Option<usize> = None;
        let mut most_negative = -tol;
        for r in 0..t.rows - 1 {
            let v = t.at(r, rhs_col);
            if v < most_negative {
                most_negative = v;
                leave = Some(r);
            }
        }
        let Some(lr) = leave else {
            break; // primal feasible again => optimal
        };
        let obj = t.obj_row();
        let mut enter: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for c in 0..t.artificial_start {
            let a = t.at(lr, c);
            if a < -tol {
                let ratio = t.at(obj, c) / -a;
                if ratio < best_ratio {
                    best_ratio = ratio;
                    enter = Some(c);
                }
            }
        }
        let Some(ec) = enter else {
            // The leaving row cannot be repaired: the new RHS is infeasible.
            return Err(SolveError::Infeasible);
        };
        t.pivot(lr, ec);
        iterations += 1;
    }

    // Clean up any residual dual infeasibility introduced by roundoff in
    // the refactorization with ordinary primal pivots.
    t.optimize(t.artificial_start, &mut iterations)?;

    // Uniqueness guard: a zero reduced cost on a nonbasic column means the
    // optimal face has dimension > 0, and a cold solve could legitimately
    // stop at a *different* optimal vertex than the dual simplex did. The
    // warm path only answers when the optimum is provably unique (every
    // nonbasic reduced cost strictly positive), so that warm and cold
    // always return the same solution; otherwise the caller falls back.
    if !t.optimum_is_unique(tol) {
        return Err(SolveError::BasisMismatch);
    }

    let (values, duals) = t.extract(n, layout);

    // Rows the cold solve dropped as redundant were consistent for the old
    // RHS; verify they still hold, otherwise the warm state is unusable.
    if t.origin.len() != m {
        let mut kept = vec![false; m];
        for &k in &t.origin {
            kept[k] = true;
        }
        let slack_tol = tol.max(1e-7);
        for (i, c) in constraints.iter().enumerate() {
            if kept[i] {
                continue;
            }
            let mut lhs = 0.0;
            for &(var, coeff) in &c.terms {
                lhs += coeff * values[var.0];
            }
            let ok = match c.sense {
                ConstraintSense::Le => lhs <= c.rhs + slack_tol,
                ConstraintSense::Ge => lhs >= c.rhs - slack_tol,
                ConstraintSense::Eq => (lhs - c.rhs).abs() <= slack_tol,
            };
            if !ok {
                return Err(SolveError::BasisMismatch);
            }
        }
    }

    Ok((values, duals))
}

#[cfg(test)]
mod tests {
    use crate::{LinearProgram, PivotMode, Sense, SimplexOptions, SolveError};

    const EPS: f64 = 1e-7;

    /// A tiny transport-like LP whose optimum moves as `cap` changes.
    fn capacitated(cap: f64) -> LinearProgram {
        // min x + 3y  s.t.  x + y >= 10, x <= cap.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 3.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 10.0);
        lp.add_le(&[(x, 1.0)], cap);
        lp
    }

    #[test]
    fn warm_restart_tracks_rhs_changes() {
        let (cold, mut basis, stats) = capacitated(10.0).solve_with_basis().unwrap();
        assert!((cold.objective - 10.0).abs() < EPS);
        assert!(!stats.warm_start);
        for cap in [8.0, 6.0, 4.0, 2.0, 0.0] {
            let lp = capacitated(cap);
            let (warm, next, wstats) = lp.resolve_with_basis(&basis).unwrap();
            let reference = lp.solve().unwrap();
            assert!(wstats.warm_start);
            assert!(
                (warm.objective - reference.objective).abs() < EPS,
                "cap {cap}: warm {} vs cold {}",
                warm.objective,
                reference.objective
            );
            assert_eq!(warm.values.len(), reference.values.len());
            for (w, c) in warm.values.iter().zip(&reference.values) {
                assert!((w - c).abs() < EPS, "cap {cap}: {w} vs {c}");
            }
            basis = next;
        }
    }

    #[test]
    fn warm_restart_with_unchanged_rhs_needs_no_dual_pivots() {
        let lp = capacitated(10.0);
        let (_, basis, _) = lp.solve_with_basis().unwrap();
        let (sol, _, stats) = lp.resolve_with_basis(&basis).unwrap();
        assert!((sol.objective - 10.0).abs() < EPS);
        assert_eq!(stats.pivots, 0, "identical RHS should re-verify without pivoting");
        assert_eq!(stats.refactor_pivots, basis.len());
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (_, basis, _) = capacitated(10.0).solve_with_basis().unwrap();
        // Different variable count.
        let mut other = LinearProgram::new(Sense::Minimize);
        let x = other.add_variable("x", 1.0);
        other.add_ge(&[(x, 1.0)], 1.0);
        assert_eq!(other.resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
        // Different constraint sense pattern.
        let mut flipped = LinearProgram::new(Sense::Minimize);
        let x = flipped.add_variable("x", 1.0);
        let y = flipped.add_variable("y", 3.0);
        flipped.add_le(&[(x, 1.0), (y, 1.0)], 10.0);
        flipped.add_le(&[(x, 1.0)], 10.0);
        assert_eq!(flipped.resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn rhs_sign_flip_is_a_mismatch() {
        let (_, basis, _) = capacitated(10.0).solve_with_basis().unwrap();
        // cap < 0 flips the row when the tableau is built, changing the
        // slack layout the basis columns are numbered against.
        let lp = capacitated(-1.0);
        assert_eq!(lp.resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn infeasible_new_rhs_is_detected() {
        // x <= cap with x >= 5: cap below 5 has no feasible point.
        let build = |cap: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            lp.add_ge(&[(x, 1.0)], 5.0);
            lp.add_le(&[(x, 1.0)], cap);
            lp
        };
        let (_, basis, _) = build(10.0).solve_with_basis().unwrap();
        assert_eq!(build(3.0).resolve_with_basis(&basis).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn warm_iteration_limit_is_reported() {
        let (_, basis, _) = capacitated(10.0).solve_with_basis().unwrap();
        let mut lp = capacitated(2.0);
        lp.set_options(SimplexOptions { max_iterations: 0, ..Default::default() });
        assert_eq!(
            lp.resolve_with_basis(&basis).unwrap_err(),
            SolveError::InvalidOptions("max_iterations")
        );
        // A budget of zero is invalid; the smallest valid budget still
        // trips once the dual pivots exceed it.
        let mut tight = capacitated(0.0);
        tight.set_options(SimplexOptions { max_iterations: 1, ..Default::default() });
        let got = tight.resolve_with_basis(&basis);
        assert!(
            matches!(got, Err(SolveError::IterationLimit) | Err(SolveError::BasisMismatch))
                || got.is_ok(),
            "unexpected {got:?}"
        );
    }

    #[test]
    fn degenerate_program_warm_restarts_or_falls_back() {
        // Degenerate: three constraints active at the (unique) optimum
        // vertex. Degeneracy may leave a zero reduced cost on a nonbasic
        // column, in which case the uniqueness guard refuses the warm
        // answer — acceptable, as long as it never returns a solution
        // that disagrees with the cold path.
        let build = |cap: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", -1.0);
            let y = lp.add_variable("y", -1.0);
            lp.add_le(&[(x, 1.0)], cap);
            lp.add_le(&[(y, 1.0)], cap);
            lp.add_le(&[(x, 1.0), (y, 1.0)], 2.0 * cap);
            lp
        };
        let (_, basis, _) = build(5.0).solve_with_basis().unwrap();
        for cap in [4.0, 2.0, 1.0] {
            let lp = build(cap);
            let cold = lp.solve().unwrap();
            match lp.resolve_with_basis(&basis) {
                Ok((warm, _, _)) => {
                    assert!((warm.objective - cold.objective).abs() < EPS, "cap {cap}");
                }
                Err(SolveError::BasisMismatch) => {} // guard fell back
                Err(e) => panic!("cap {cap}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn alternative_optima_are_refused() {
        // min x + y s.t. x + y >= r: the whole segment is optimal, so a
        // cold solve could stop at a different vertex than the dual
        // simplex. The uniqueness guard must refuse the warm answer.
        let build = |r: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            let y = lp.add_variable("y", 1.0);
            lp.add_ge(&[(x, 1.0), (y, 1.0)], r);
            lp
        };
        let (_, basis, _) = build(4.0).solve_with_basis().unwrap();
        assert_eq!(build(6.0).resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn unbounded_cold_program_yields_no_basis_to_reuse() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", -1.0);
        lp.add_ge(&[(x, 1.0)], 0.0);
        assert_eq!(lp.solve_with_basis().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn redundant_row_consistency_is_rechecked() {
        // Cold solve sees x + y = 4 twice and drops one copy as redundant.
        let build = |second_rhs: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            let y = lp.add_variable("y", 2.0);
            lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
            lp.add_eq(&[(x, 1.0), (y, 1.0)], second_rhs);
            lp
        };
        let (_, basis, _) = build(4.0).solve_with_basis().unwrap();
        if basis.len() < 2 {
            // The duplicate was dropped; making its RHS inconsistent must
            // not silently succeed on the warm path.
            let got = build(7.0).resolve_with_basis(&basis);
            assert!(
                matches!(got, Err(SolveError::BasisMismatch) | Err(SolveError::Infeasible)),
                "unexpected {got:?}"
            );
        }
    }

    #[test]
    fn warm_path_matches_dense_oracle() {
        for cap in [9.0, 7.0, 3.5, 1.0] {
            let mut warm_lp = capacitated(10.0);
            warm_lp.set_options(SimplexOptions::default());
            let (_, basis, _) = warm_lp.solve_with_basis().unwrap();
            let lp = capacitated(cap);
            let (warm, _, _) = lp.resolve_with_basis(&basis).unwrap();
            let mut dense = capacitated(cap);
            dense
                .set_options(SimplexOptions { pivot_mode: PivotMode::Dense, ..Default::default() });
            let oracle = dense.solve().unwrap();
            assert!((warm.objective - oracle.objective).abs() < EPS, "cap {cap}");
        }
    }

    #[test]
    fn snapshot_restart_tracks_rhs_changes() {
        let (cold, mut snapshot, stats) = capacitated(10.0).solve_with_snapshot().unwrap();
        assert!((cold.objective - 10.0).abs() < EPS);
        assert!(!stats.warm_start);
        assert!(snapshot.is_reusable());
        for cap in [8.0, 6.0, 4.0, 2.0, 0.0] {
            let lp = capacitated(cap);
            let (warm, next, wstats) = lp.resolve_with_snapshot(snapshot).unwrap();
            let reference = lp.solve().unwrap();
            assert!(wstats.warm_start);
            assert!(
                (warm.objective - reference.objective).abs() < EPS,
                "cap {cap}: warm {} vs cold {}",
                warm.objective,
                reference.objective
            );
            for (w, c) in warm.values.iter().zip(&reference.values) {
                assert!((w - c).abs() < EPS, "cap {cap}: {w} vs {c}");
            }
            snapshot = next;
        }
    }

    #[test]
    fn snapshot_restart_with_unchanged_rhs_skips_all_simplex_work() {
        let lp = capacitated(10.0);
        let (_, snapshot, _) = lp.solve_with_snapshot().unwrap();
        let (sol, _, stats) = lp.resolve_with_snapshot(snapshot).unwrap();
        assert!((sol.objective - 10.0).abs() < EPS);
        assert_eq!(stats.pivots, 0, "identical RHS should re-verify without pivoting");
        // The whole point of storing the tableau: unlike the basis
        // restart, no Gauss-Jordan refactorization runs at all.
        assert_eq!(stats.refactor_pivots, 0);
    }

    #[test]
    fn snapshot_shape_cost_and_sign_mismatches_are_refused() {
        let (_, snapshot, _) = capacitated(10.0).solve_with_snapshot().unwrap();
        // Different variable count.
        let mut other = LinearProgram::new(Sense::Minimize);
        let x = other.add_variable("x", 1.0);
        other.add_ge(&[(x, 1.0)], 1.0);
        assert_eq!(
            other.resolve_with_snapshot(snapshot.clone()).unwrap_err(),
            SolveError::BasisMismatch
        );
        // Same shape, different objective: the stored reduced costs are
        // only valid for the capture-time cost vector.
        let mut repriced = LinearProgram::new(Sense::Minimize);
        let x = repriced.add_variable("x", 1.0);
        let y = repriced.add_variable("y", 2.0);
        repriced.add_ge(&[(x, 1.0), (y, 1.0)], 10.0);
        repriced.add_le(&[(x, 1.0)], 10.0);
        assert_eq!(
            repriced.resolve_with_snapshot(snapshot.clone()).unwrap_err(),
            SolveError::BasisMismatch
        );
        // Negative cap flips the row in standard form, renumbering the
        // unit columns the RHS recompute reads.
        assert_eq!(
            capacitated(-1.0).resolve_with_snapshot(snapshot).unwrap_err(),
            SolveError::BasisMismatch
        );
    }

    #[test]
    fn non_unique_capture_is_refused_in_constant_space() {
        // min x + y s.t. x + y >= 4: a whole edge is optimal, so the
        // capture must mark itself non-reusable and drop the tableau —
        // the refusal costs O(1) and the snapshot holds no basis data.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 1.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        let (_, snapshot, _) = lp.solve_with_snapshot().unwrap();
        assert!(!snapshot.is_reusable());
        assert!(snapshot.memory_bytes() < 1024, "refused capture must not hold the tableau");
        assert_eq!(lp.resolve_with_snapshot(snapshot).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn snapshot_infeasible_new_rhs_is_detected() {
        let build = |cap: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            lp.add_ge(&[(x, 1.0)], 5.0);
            lp.add_le(&[(x, 1.0)], cap);
            lp
        };
        let (_, snapshot, _) = build(10.0).solve_with_snapshot().unwrap();
        assert_eq!(build(3.0).resolve_with_snapshot(snapshot).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn snapshot_rhs_recompute_covers_phase1_dropped_rows() {
        // Phase 1 drops one copy of the duplicated equality as redundant,
        // but the dropped row's multipliers still live in the stored
        // tableau: moving *both* right-hand sides together must restart
        // cleanly, and moving them apart must not silently succeed.
        let build = |first: f64, second: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            let y = lp.add_variable("y", 2.0);
            lp.add_eq(&[(x, 1.0), (y, 1.0)], first);
            lp.add_eq(&[(x, 1.0), (y, 1.0)], second);
            lp
        };
        let (_, snapshot, _) = build(4.0, 4.0).solve_with_snapshot().unwrap();
        let consistent = build(5.0, 5.0);
        match consistent.resolve_with_snapshot(snapshot.clone()) {
            Ok((warm, _, _)) => {
                let cold = consistent.solve().unwrap();
                assert!((warm.objective - cold.objective).abs() < EPS);
            }
            Err(SolveError::BasisMismatch) => {} // guard fell back
            Err(e) => panic!("unexpected {e:?}"),
        }
        let inconsistent = build(5.0, 7.0);
        let got = inconsistent.resolve_with_snapshot(snapshot);
        assert!(
            matches!(got, Err(SolveError::BasisMismatch) | Err(SolveError::Infeasible)),
            "unexpected {got:?}"
        );
    }

    #[test]
    fn snapshot_restart_matches_dense_oracle() {
        for cap in [9.0, 7.0, 3.5, 1.0] {
            let (_, snapshot, _) = capacitated(10.0).solve_with_snapshot().unwrap();
            let lp = capacitated(cap);
            let (warm, _, _) = lp.resolve_with_snapshot(snapshot).unwrap();
            let mut dense = capacitated(cap);
            dense
                .set_options(SimplexOptions { pivot_mode: PivotMode::Dense, ..Default::default() });
            let oracle = dense.solve().unwrap();
            assert!((warm.objective - oracle.objective).abs() < EPS, "cap {cap}");
        }
    }
}
