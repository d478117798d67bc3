//! `matvec_cold`: the time-stepping N-body shape. One client repeats a
//! seeded step: register a fresh version of a 100k-particle uniform cube,
//! ask for the potential at every particle at `Accuracy::Fixed(8)` (the
//! router sends it to the compiled FMM, which builds its plan cold), then
//! send the same query twice more on the cached plan.

use std::time::{Duration, Instant};

use mbt_engine::{Accuracy, Engine, EngineConfig, QueryRequest};
use mbt_geometry::Vec3;

use crate::check::{self, ErrorTally};
use crate::inputs::{self, MATVEC_CHECKED, MATVEC_N, SERVE_TARGETS};
use crate::layers::{self, LayerInputs, Replay};
use crate::report::{served_frac, EndToEnd, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;

/// The accuracy of every matvec_cold query.
pub const ACCURACY: Accuracy = Accuracy::Fixed(8);
/// Engine creations before the first step and after every step;
/// `setup_s` is the median of all of them, so it spans the run.
const SETUPS: usize = 101;
/// Steps run even when they overrun the window.
const MIN_STEPS: u64 = 3;
/// Repeats of each step's query on its cached plan.
const HOT_REPEATS: usize = 2;

/// What a window of steps measured.
#[derive(Default)]
struct Steps {
    step_s: Vec<f64>,
    cold_ms: Vec<f64>,
    hot_ms: Vec<f64>,
    plan_mb: Vec<f64>,
    tally: ErrorTally,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Steps {
    fn end_to_end(&self, setup_s: f64) -> EndToEnd {
        let all: Vec<f64> = self.cold_ms.iter().chain(&self.hot_ms).copied().collect();
        let busy: f64 = self.step_s.iter().sum();
        EndToEnd {
            setup_s,
            query_p50_ms: percentile(&all, 0.50),
            query_p99_ms: percentile(&all, 0.99),
            throughput_qps: all.len() as f64 / busy,
            matvec_cold_ms: median(&self.cold_ms),
            matvec_hot_ms: median(&self.hot_ms),
            solve_s: median(&self.step_s),
            gmres_iterations: (1 + HOT_REPEATS) as f64,
            rel_error: self.tally.rel(),
            plan_mb: median(&self.plan_mb),
            served_frac: served_frac(self.attempted, self.failed),
        }
    }
}

/// Runs steps `first..` until `window` has passed (at least
/// [`MIN_STEPS`]); every answer's sampled targets are checked.
fn run_steps(
    engine: &Engine,
    seed: u64,
    first: u64,
    window: Duration,
    tracer: &Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<Steps, String> {
    let mut st = Steps::default();
    let start = Instant::now();
    let mut step = first;
    while step < first + MIN_STEPS || start.elapsed() < window {
        let particles = inputs::matvec_particles(seed, step);
        let targets: Vec<Vec3> = particles.iter().map(|p| p.position).collect();
        let sample = inputs::sample_indices(seed, 30_000 + step, MATVEC_N, MATVEC_CHECKED);
        let sample_points: Vec<Vec3> = sample.iter().map(|&i| targets[i]).collect();
        let exact = check::direct_potentials_at(&particles, &sample_points);
        let version = particles.clone();

        let t = Instant::now();
        let id = tracer.span("mbt-engine.register", 0, 0, |_| {
            engine.register(&format!("cube/v{step}"), version)
        });
        let mut busy = t.elapsed().as_secs_f64();
        let id = match id {
            Ok(id) => id,
            Err(e) => {
                st.errors.push(format!("step {step}: register failed: {e}"));
                break;
            }
        };
        for k in 0..=HOT_REPEATS {
            let request = QueryRequest::potentials(id, ACCURACY, targets.clone());
            let rid = tracer.next_id();
            let t = Instant::now();
            let result = tracer.span("mbt-engine.query", 0, rid, |_| engine.query(request));
            let took = t.elapsed().as_secs_f64();
            busy += took;
            st.attempted += 1;
            let response = match result {
                Ok(r) => r,
                Err(_) => {
                    st.failed += 1;
                    continue;
                }
            };
            if k == 0 {
                st.cold_ms.push(took * 1e3);
                st.plan_mb.push(response.plan_bytes as f64 / 1e6);
            } else {
                st.hot_ms.push(took * 1e3);
            }
            match response.output.potentials() {
                Some(values) if values.len() == targets.len() => {
                    let got: Vec<f64> = sample.iter().map(|&i| values[i]).collect();
                    st.tally.add(&got, &exact);
                }
                _ => st
                    .errors
                    .push(format!("step {step}: answer is not {MATVEC_N} potentials")),
            }
        }
        st.step_s.push(busy);
        step += 1;
        set_up(setup_s)?;
    }
    Ok(st)
}

/// [`SETUPS`] engine creations timed into `setup_s`; returns the last.
fn set_up(setup_s: &mut Vec<f64>) -> Result<Engine, String> {
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let t = Instant::now();
        let e = Engine::new(EngineConfig::default()).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    engine.ok_or_else(|| "no set-up ran".to_string())
}

/// Runs matvec_cold and reports its end-to-end metrics, or — traced —
/// its per-layer metrics.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let engine = set_up(&mut setup_s)?;

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let st = run_steps(&engine, args.seed, 0, window, tracer, &mut setup_s)?;
    out.attempted += st.attempted;
    out.failed += st.failed;
    for e in &st.errors {
        out.fail(e.clone());
    }
    out.check(
        st.tally
            .verify("matvec_cold answers", check::MATVEC_CEILING),
    );
    out.detail("steps", st.step_s.len());
    out.detail("worst_rel_error", st.tally.worst());
    let e2e = st.end_to_end(median(&setup_s));
    if !args.trace {
        e2e.report(&mut out);
        return Ok(out);
    }

    e2e.detail(&mut out, "untraced.");
    tracer.enable();
    let traced = run_steps(&engine, args.seed, 1000, window, tracer, &mut Vec::new())?;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    let t_e2e = traced.end_to_end(e2e.setup_s);
    out.detail("traced.query_p50_ms", t_e2e.query_p50_ms);
    out.metric(
        "trace.overhead_ms",
        t_e2e.query_p50_ms - e2e.query_p50_ms,
        "ms",
    );

    // the probes run on step 0's dataset version
    let particles = inputs::matvec_particles(args.seed, 0);
    let id = engine
        .lookup("cube/v0")
        .ok_or("step 0's dataset is not registered")?;
    let picks = inputs::sample_indices(args.seed, 40_000, MATVEC_N, 16 * SERVE_TARGETS);
    let points: Vec<Vec3> = picks.iter().map(|&i| particles[i].position).collect();
    let replay: Vec<Replay> = points
        .chunks(SERVE_TARGETS)
        .map(|c| Replay {
            dataset: 0,
            fields: false,
            points: c,
        })
        .collect();
    let fmm_targets: Vec<Vec3> = particles.iter().map(|p| p.position).collect();
    let datasets = [(&particles[..], id)];
    let li = LayerInputs {
        engine: &engine,
        accuracy: ACCURACY,
        datasets: &datasets,
        replay: &replay,
        fmm_targets: &fmm_targets,
        sharded_traffic: false,
    };
    layers::report_all(&li, args, tracer, &mut out)?;
    Ok(out)
}
