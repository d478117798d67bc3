//! The `mbt-bem` / `mbt-solvers` layer probe of the traced run: the
//! paper's Table-3 application, once. The capacitance of a seeded
//! rotation of the unit icosphere(3) (642 unknowns, six-point quadrature:
//! 7680 Gauss sources) by GMRES(10) to relative residual 1e-6, every
//! matvec an `EngineSingleLayer` apply at `Accuracy::Fixed(6)` — a fresh
//! dataset version, so a cold FMM plan build, per apply. The solve is
//! checked: convergence, the capacitance, and one more engine apply on
//! the converged density against the dense operator.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mbt_bem::{
    CapacitanceProblem, DenseSingleLayer, EngineSingleLayer, QuadRule, SingleLayerGeometry,
};
use mbt_engine::{Accuracy, Engine, EngineConfig};
use mbt_solvers::{GmresOptions, LinearOperator};

use crate::check;
use crate::inputs;
use crate::layers::BemFigures;
use crate::stats::median;
use crate::trace::Tracer;

/// The accuracy of every single-layer apply.
const ACCURACY: Accuracy = Accuracy::Fixed(6);
/// Timed builds of the quadrature geometry (`bem.geometry_ms` is their
/// median).
const GEOMETRY_REPS: usize = 11;

const GMRES: GmresOptions = GmresOptions {
    restart: 10,
    tol: check::GMRES_TOL,
    max_iters: 120,
    preconditioner: None,
};

/// Times every apply of the engine operator it wraps.
struct TimedOp<'a> {
    inner: &'a EngineSingleLayer,
    applies: Mutex<Vec<Duration>>,
    tracer: &'a Tracer,
}

impl LinearOperator for TimedOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.tracer
            .span("mbt-bem.EngineSingleLayer::apply", 0, 0, |_| {
                self.inner.apply(x, y)
            });
        let took = t.elapsed();
        self.applies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(took);
    }
}

/// Solves once on a fresh engine and checks the answer; returns the BEM
/// and GMRES figures of the solve.
pub fn probe(seed: u64, tracer: &Tracer) -> Result<BemFigures, String> {
    let mesh = inputs::bem_mesh(seed);
    let geometry_ms: Vec<f64> = (0..GEOMETRY_REPS)
        .map(|_| {
            let m = mesh.clone();
            let t = Instant::now();
            std::hint::black_box(SingleLayerGeometry::new(m, QuadRule::SixPoint));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let geometry = SingleLayerGeometry::new(mesh, QuadRule::SixPoint);
    let dense = DenseSingleLayer::assemble(geometry.clone());
    let engine = Arc::new(Engine::new(EngineConfig::default()).map_err(|e| e.to_string())?);

    let op = EngineSingleLayer::new(geometry.clone(), engine, ACCURACY);
    let timed = TimedOp {
        inner: &op,
        applies: Mutex::new(Vec::new()),
        tracer,
    };
    let problem = CapacitanceProblem::new(&timed, &geometry);
    let t = Instant::now();
    let sol = tracer.span("mbt-solvers.gmres", 0, 0, |_| problem.solve(&GMRES));
    let solve_ms = t.elapsed().as_secs_f64() * 1e3;
    let applies_ms: Vec<f64> = timed
        .applies
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    let mut tally = check::ErrorTally::default();
    let apply_rel_error = tally.add(&op.apply_vec(&sol.sigma), &dense.apply_vec(&sol.sigma));
    check::check_solve(
        sol.gmres.outcome,
        sol.gmres.relative_residual,
        sol.capacitance,
        apply_rel_error,
    )
    .map_err(|e| format!("BEM probe: {e}"))?;
    Ok(BemFigures {
        geometry_ms: median(&geometry_ms),
        apply_ms: median(&applies_ms),
        applies: applies_ms.len() as f64,
        other_ms: solve_ms - applies_ms.iter().sum::<f64>(),
    })
}
