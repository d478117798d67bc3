//! Output checks. Every workload compares sampled answers with exact
//! direct summation; a check that fails marks the run incorrect and the
//! benchmark exits non-zero.

use mbt_engine::QueryOutput;
use mbt_geometry::{Particle, Vec3};
use mbt_solvers::GmresOutcome;
use rayon::prelude::*;

use crate::stats::geometric_mean;

/// Relative L2 error ceiling of one checked serve_hot answer
/// (`Accuracy::Adaptive { p_min: 4 }`, f32 near field admitted). Seeds
/// 1–10 measured at most 2.4e-4.
pub const SERVE_HOT_CEILING: f64 = 1e-3;
/// Relative L2 error ceiling of the sampled targets of one all-targets
/// answer at `Accuracy::Fixed(8)` (seeds 1–10: at most 8.7e-8).
pub const MATVEC_CEILING: f64 = 1e-6;
/// Relative L2 error ceiling of one engine single-layer apply at
/// `Accuracy::Fixed(6)` against the dense operator (seeds 1–10: at most
/// 4.2e-6).
pub const BEM_APPLY_CEILING: f64 = 2e-5;
/// GMRES(10) target residual of the capacitance solve.
pub const GMRES_TOL: f64 = 1e-6;
/// Ceiling on |C − 1| for the unit sphere. Seeds 1–10 measured
/// 1.1892e-3 to 1.1894e-3 — the discretisation error of icosphere(3),
/// which no rotation moves by more than 1e-6.
pub const CAPACITANCE_CEILING: f64 = 1.3e-3;

/// The relative L2 error of every checked answer.
#[derive(Debug, Default, Clone)]
pub struct ErrorTally {
    errors: Vec<f64>,
}

impl ErrorTally {
    /// Adds one answer; returns its relative L2 error.
    pub fn add(&mut self, approx: &[f64], exact: &[f64]) -> f64 {
        let rel = rel_l2(approx, exact);
        self.errors.push(rel);
        rel
    }

    /// The geometric mean of the answers' relative L2 errors — the
    /// reported `rel_error`. Potentials and fields, cube and Plummer
    /// answers differ by orders of magnitude in error; the geometric mean
    /// moves in proportion when any kind of answer gets less accurate,
    /// where one L2 sum over all answers would only see the largest kind.
    #[must_use]
    pub fn rel(&self) -> f64 {
        geometric_mean(&self.errors)
    }

    /// The largest relative L2 error of a single answer (NaN-propagating).
    #[must_use]
    pub fn worst(&self) -> f64 {
        if self.errors.iter().any(|e| e.is_nan()) {
            f64::NAN
        } else {
            self.errors.iter().copied().fold(0.0, f64::max)
        }
    }

    /// Answers added so far.
    #[must_use]
    pub fn checked(&self) -> usize {
        self.errors.len()
    }

    /// `Ok` when every answer added was within `ceiling`.
    pub fn verify(&self, what: &str, ceiling: f64) -> Result<(), String> {
        if self.errors.is_empty() {
            return Err(format!("{what}: no answer was checked"));
        }
        let worst = self.worst();
        if worst.is_nan() || worst > ceiling {
            return Err(format!(
                "{what}: relative error {worst:.3e} exceeds the ceiling {ceiling:.1e}"
            ));
        }
        Ok(())
    }
}

/// `‖approx − exact‖₂ / ‖exact‖₂`; NaN when the lengths differ.
#[must_use]
pub fn rel_l2(approx: &[f64], exact: &[f64]) -> f64 {
    if approx.len() != exact.len() {
        return f64::NAN;
    }
    let (num, den) = approx.iter().zip(exact).fold((0.0, 0.0), |(n, d), (a, e)| {
        (n + (a - e) * (a - e), d + e * e)
    });
    if den > 0.0 {
        (num / den).sqrt()
    } else if num == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Exact potential and field at each point; sources coincident with a
/// point are skipped, as every backend does.
#[must_use]
pub fn direct_fields_at(sources: &[Particle], points: &[Vec3]) -> Vec<(f64, Vec3)> {
    points
        .par_iter()
        .map(|&x| {
            let mut phi = 0.0;
            let mut grad = Vec3::ZERO;
            for s in sources {
                let d = x - s.position;
                let r2 = d.norm_sq();
                if r2 > 0.0 {
                    let r = r2.sqrt();
                    phi += s.charge / r;
                    grad += d * (-s.charge / (r2 * r));
                }
            }
            (phi, grad)
        })
        .collect()
}

/// Exact potentials at each point (coincident sources skipped).
#[must_use]
pub fn direct_potentials_at(sources: &[Particle], points: &[Vec3]) -> Vec<f64> {
    mbt_treecode::direct::direct_potentials_at(sources, points)
}

/// Checks one engine answer at `points` against direct summation and
/// adds it to `tally`: potentials compare as values, fields as the three
/// gradient components of every point.
pub fn check_output(
    sources: &[Particle],
    points: &[Vec3],
    output: &QueryOutput,
    tally: &mut ErrorTally,
) -> Result<(), String> {
    if output.len() != points.len() {
        return Err(format!(
            "answer has {} values for {} points",
            output.len(),
            points.len()
        ));
    }
    match output {
        QueryOutput::Potentials(values) => {
            tally.add(values, &direct_potentials_at(sources, points));
        }
        QueryOutput::Fields(values) => {
            let exact = direct_fields_at(sources, points);
            let flat = |v: &[(f64, Vec3)]| -> Vec<f64> {
                v.iter().flat_map(|(_, g)| [g.x, g.y, g.z]).collect()
            };
            tally.add(&flat(values), &flat(&exact));
        }
    }
    Ok(())
}

/// The BEM probe's solve checks: convergence to [`GMRES_TOL`], the
/// capacitance of the unit sphere, and the operator's agreement with the
/// dense single-layer matrix.
pub fn check_solve(
    outcome: GmresOutcome,
    residual: f64,
    capacitance: f64,
    apply_rel_error: f64,
) -> Result<(), String> {
    if outcome != GmresOutcome::Converged || residual.is_nan() || residual > GMRES_TOL {
        return Err(format!(
            "GMRES did not converge: {outcome:?} at relative residual {residual:.3e}"
        ));
    }
    let dc = (capacitance - 1.0).abs();
    if dc.is_nan() || dc > CAPACITANCE_CEILING {
        return Err(format!(
            "capacitance {capacitance:.6} is {dc:.3e} from 1, over the ceiling \
             {CAPACITANCE_CEILING:.1e}"
        ));
    }
    if apply_rel_error.is_nan() || apply_rel_error > BEM_APPLY_CEILING {
        return Err(format!(
            "engine single-layer apply is {apply_rel_error:.3e} from the dense operator, \
             over the ceiling {BEM_APPLY_CEILING:.1e}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::cube;
    use mbt_engine::{Accuracy, Engine, EngineConfig, QueryRequest};

    fn perturb(values: &mut [f64], i: usize) {
        values[i] += 0.1 * values[i].abs().max(1e-3);
    }

    #[test]
    fn serve_hot_check_passes_engine_answers_and_trips_on_a_perturbed_one() {
        let sources = cube(6000, 3);
        let points: Vec<Vec3> = cube(64, 4).iter().map(|p| p.position).collect();
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("c", sources.clone()).unwrap();
        let accuracy = Accuracy::Adaptive { p_min: 4 };

        for request in [
            QueryRequest::potentials(id, accuracy, points.clone()),
            QueryRequest::fields(id, accuracy, points.clone()),
        ] {
            let out = engine.query(request).unwrap().output;
            let mut tally = ErrorTally::default();
            check_output(&sources, &points, &out, &mut tally).unwrap();
            tally.verify("engine", SERVE_HOT_CEILING).unwrap();

            let wrong = match out {
                QueryOutput::Potentials(mut v) => {
                    perturb(&mut v, 17);
                    QueryOutput::Potentials(v)
                }
                QueryOutput::Fields(mut v) => {
                    v[17].1.y += 0.1 * v[17].1.norm();
                    QueryOutput::Fields(v)
                }
            };
            let mut tally = ErrorTally::default();
            check_output(&sources, &points, &wrong, &mut tally).unwrap();
            assert!(tally.verify("perturbed", SERVE_HOT_CEILING).is_err());
        }
    }

    #[test]
    fn matvec_check_trips_on_a_perturbed_value() {
        let sources = cube(5000, 5);
        let points: Vec<Vec3> = sources.iter().take(128).map(|p| p.position).collect();
        let exact = direct_potentials_at(&sources, &points);

        let mut ok = ErrorTally::default();
        ok.add(&exact, &exact);
        ok.verify("exact", MATVEC_CEILING).unwrap();

        let mut wrong = exact.clone();
        perturb(&mut wrong, 100);
        let mut tally = ErrorTally::default();
        tally.add(&wrong, &exact);
        assert!(tally.verify("perturbed", MATVEC_CEILING).is_err());

        // a missing value is wrong too
        let mut short = ErrorTally::default();
        short.add(&exact[1..], &exact);
        assert!(short.verify("short", MATVEC_CEILING).is_err());
        let truncated = QueryOutput::Potentials(exact[1..].to_vec());
        assert!(check_output(&sources, &points, &truncated, &mut short).is_err());
    }

    #[test]
    fn tally_without_answers_fails() {
        assert!(ErrorTally::default().verify("none", 1.0).is_err());
    }

    #[test]
    fn bem_checks_trip_on_each_perturbed_figure() {
        let good = (GmresOutcome::Converged, 4e-7, 1.0012, 1e-6);
        check_solve(good.0, good.1, good.2, good.3).unwrap();
        assert!(check_solve(GmresOutcome::MaxIterations, good.1, good.2, good.3).is_err());
        assert!(check_solve(good.0, 2e-6, good.2, good.3).is_err());
        assert!(check_solve(good.0, f64::NAN, good.2, good.3).is_err());
        assert!(check_solve(good.0, good.1, 1.0 + 2.0 * CAPACITANCE_CEILING, good.3).is_err());
        assert!(check_solve(good.0, good.1, good.2, 1e-3).is_err());
    }

    #[test]
    fn direct_fields_match_the_library_reference() {
        let sources = cube(300, 9);
        let points: Vec<Vec3> = sources.iter().map(|p| p.position).collect();
        let ours = direct_fields_at(&sources, &points);
        let (phi, grad) = mbt_treecode::direct::direct_fields(&sources);
        for (i, (p, g)) in ours.iter().enumerate() {
            assert!((p - phi[i]).abs() <= 1e-12 * phi[i].abs().max(1.0));
            assert!((*g - grad[i]).norm() <= 1e-12 * grad[i].norm().max(1.0));
        }
    }
}
