//! `serve_hot`: the read path. Two closed-loop clients — tenants of
//! weight 1 and 4, each waiting for its reply before sending again —
//! query three warmed 40k-particle datasets round-robin with 128 targets
//! per request at `Accuracy::Adaptive { p_min: 4 }`.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mbt_engine::{
    Accuracy, DatasetId, Engine, EngineConfig, QueryOutput, QueryRequest, TenantConfig, TenantId,
};

use crate::check::{self, ErrorTally};
use crate::inputs::{self, RequestSpec, ServeInputs, ServeSet, SCHEDULE_LEN};
use crate::layers::{self, LayerInputs, Replay};
use crate::report::{served_frac, EndToEnd, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;

/// The accuracy every serve_hot request asks for.
pub const ACCURACY: Accuracy = Accuracy::Adaptive { p_min: 4 };
/// The two clients' tenants and fair-share weights.
const TENANTS: [(TenantId, u32); 2] = [(TenantId(1), 1), (TenantId(2), 4)];
/// Segments the timed window is cut into. Before each one a throw-away
/// set-up runs and fresh cube versions are warmed, so `setup_s` and
/// `matvec_cold_ms` sample the machine across the whole run, as the
/// loop's own figures do.
const SEGMENTS: u32 = 10;
/// Fresh cube versions warmed on each throw-away engine after its set-up.
const CUBE_WARMS: usize = 2;
/// Requests each client sends before each segment's timed window opens.
const WARMUP_REQUESTS: usize = 12;

/// A set-up engine with the three datasets registered and warmed.
struct Served {
    engine: Arc<Engine>,
    ids: [DatasetId; 3],
}

impl Served {
    fn id(&self, set: ServeSet) -> DatasetId {
        self.ids[set as usize]
    }

    fn request(&self, spec: &RequestSpec, tenant: TenantId) -> QueryRequest {
        let id = self.id(spec.set);
        let points = spec.points.clone();
        if spec.fields {
            QueryRequest::fields(id, ACCURACY, points)
        } else {
            QueryRequest::potentials(id, ACCURACY, points)
        }
        .with_tenant(tenant)
    }
}

/// Engine creation, tenant and dataset registration, and warming every
/// plan; returns the set-up time and each dataset's warm time.
fn set_up(inp: &ServeInputs) -> Result<(Served, f64, [f64; 3]), String> {
    let (cube, plummer, cube_k4) = (inp.cube.clone(), inp.plummer.clone(), inp.cube.clone());
    let t0 = Instant::now();
    let engine = Arc::new(Engine::new(EngineConfig::default()).map_err(|e| e.to_string())?);
    for (tenant, weight) in TENANTS {
        engine.register_tenant(tenant, TenantConfig::weighted(weight));
    }
    let ids = [
        engine.register("cube", cube),
        engine.register("plummer", plummer),
        engine.register_sharded("cube-k4", cube_k4, 4),
    ];
    let mut warm_ms = [0.0; 3];
    let mut out = [DatasetId(0); 3];
    for (i, id) in ids.into_iter().enumerate() {
        let id = id.map_err(|e| e.to_string())?;
        let t = Instant::now();
        engine.warm(id, ACCURACY).map_err(|e| e.to_string())?;
        warm_ms[i] = t.elapsed().as_secs_f64() * 1e3;
        out[i] = id;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((Served { engine, ids: out }, setup_s, warm_ms))
}

/// A throw-away set-up, then [`CUBE_WARMS`] fresh cube versions warmed on
/// its engine; records the set-up time and every cube warm.
fn sample_builds(
    inp: &ServeInputs,
    setup_s: &mut Vec<f64>,
    cube_warm_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let (served, secs, warm) = set_up(inp)?;
    setup_s.push(secs);
    cube_warm_ms.push(warm[ServeSet::Cube as usize]);
    for k in 0..CUBE_WARMS {
        let id = served
            .engine
            .register(&format!("cube/v{k}"), inp.cube.clone())
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        served
            .engine
            .warm(id, ACCURACY)
            .map_err(|e| e.to_string())?;
        cube_warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// What closed-loop windows measured.
#[derive(Default)]
struct LoopStats {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Seconds the loop ran, summed over windows.
    wall_s: f64,
    /// Seconds each complete pass of the two clients over both schedules
    /// (`2 × SCHEDULE_LEN` requests) took.
    passes_s: Vec<f64>,
    /// First-pass answers kept for checking: (client, schedule index, answer).
    answers: Vec<(usize, usize, QueryOutput)>,
}

impl LoopStats {
    fn end_to_end(&self) -> (f64, f64, f64) {
        let done = self.latencies_ms.len() as f64;
        (
            percentile(&self.latencies_ms, 0.50),
            percentile(&self.latencies_ms, 0.99),
            done / self.wall_s,
        )
    }

    /// Adds another window's figures.
    fn absorb(&mut self, other: LoopStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.passes_s.extend(other.passes_s);
        self.answers.extend(other.answers);
    }
}

/// Seconds each consecutive block of `2 × SCHEDULE_LEN` completions took,
/// counted from `start`; a last, partial block is dropped.
fn pass_seconds(start: Instant, mut done: Vec<Instant>) -> Vec<f64> {
    let block = 2 * SCHEDULE_LEN;
    done.sort_unstable();
    let mut prev = start;
    done.chunks_exact(block)
        .map(|chunk| {
            let end = chunk[block - 1];
            let took = end.saturating_duration_since(prev).as_secs_f64();
            prev = end;
            took
        })
        .collect()
}

/// One client's share of a window.
struct ClientRun {
    stats: LoopStats,
    start: Instant,
    completions: Vec<Instant>,
}

/// Runs the two clients for `window`.
fn closed_loop(
    served: &Served,
    inp: &ServeInputs,
    window: Duration,
    tracer: &Tracer,
    keep_answers: bool,
) -> LoopStats {
    let barrier = Barrier::new(2);
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let schedule = &inp.schedules[c];
                    let tenant = TENANTS[c].0;
                    for spec in &schedule[..WARMUP_REQUESTS] {
                        let _ = served.engine.query(served.request(spec, tenant));
                    }
                    let mut st = LoopStats::default();
                    let mut completions = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let mut i = 0;
                    while start.elapsed() < window {
                        let spec = &schedule[i % SCHEDULE_LEN];
                        let request = served.request(spec, tenant);
                        let rid = tracer.next_id();
                        let t = Instant::now();
                        let result = tracer.span("client.request", 0, rid, |sid| {
                            tracer.span("mbt-engine.query", sid, rid, |_| {
                                served.engine.query(request)
                            })
                        });
                        let took = t.elapsed();
                        st.attempted += 1;
                        match result {
                            Ok(response) => {
                                st.latencies_ms.push(took.as_secs_f64() * 1e3);
                                completions.push(t + took);
                                if keep_answers && i < SCHEDULE_LEN {
                                    st.answers.push((c, i, response.output));
                                }
                            }
                            Err(_) => st.failed += 1,
                        }
                        i += 1;
                    }
                    st.wall_s = start.elapsed().as_secs_f64();
                    ClientRun {
                        stats: st,
                        start,
                        completions,
                    }
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let mut all = LoopStats::default();
    let mut wall_s = 0.0_f64;
    let mut start = None::<Instant>;
    let mut completions = Vec::new();
    for run in clients {
        wall_s = wall_s.max(run.stats.wall_s);
        start = Some(start.map_or(run.start, |s| s.min(run.start)));
        completions.extend(run.completions);
        all.absorb(run.stats);
    }
    all.wall_s = wall_s;
    if let Some(start) = start {
        all.passes_s = pass_seconds(start, completions);
    }
    all
}

fn check_answers(
    inp: &ServeInputs,
    answers: &[(usize, usize, QueryOutput)],
    out: &mut Outcome,
) -> f64 {
    let mut tally = ErrorTally::default();
    for (c, i, answer) in answers {
        let spec = &inp.schedules[*c][*i];
        let r = check::check_output(inp.sources(spec.set), &spec.points, answer, &mut tally);
        out.check(r);
    }
    out.check(tally.verify("serve_hot answers", check::SERVE_HOT_CEILING));
    out.detail("checked_answers", tally.checked());
    out.detail("worst_rel_error", tally.worst());
    tally.rel()
}

/// Runs serve_hot and reports its end-to-end metrics, or — traced — its
/// per-layer metrics.
pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inp = inputs::serve_inputs(args.seed);

    let mut setup_s = Vec::new();
    let mut cube_warm_ms = Vec::new();
    let (served, secs, warm) = set_up(&inp)?;
    setup_s.push(secs);
    cube_warm_ms.push(warm[ServeSet::Cube as usize]);
    let plan_mb = served.engine.stats().resident_bytes as f64 / 1e6;
    let resolved = served
        .engine
        .resolve_params_for(served.id(ServeSet::Cube), ACCURACY)
        .map_err(|e| e.to_string())?;
    out.detail("near_precision", format!("{:?}", resolved.near_precision));

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut lp = LoopStats::default();
    for segment in 0..SEGMENTS {
        sample_builds(&inp, &mut setup_s, &mut cube_warm_ms)?;
        lp.absorb(closed_loop(
            &served,
            &inp,
            window / SEGMENTS,
            tracer,
            segment == 0,
        ));
    }
    out.attempted += lp.attempted;
    out.failed += lp.failed;
    let (p50, p99, qps) = lp.end_to_end();
    let rel_error = check_answers(&inp, &lp.answers, &mut out);
    let e2e = EndToEnd {
        setup_s: median(&setup_s),
        query_p50_ms: p50,
        query_p99_ms: p99,
        throughput_qps: qps,
        matvec_cold_ms: median(&cube_warm_ms),
        matvec_hot_ms: median(&lp.latencies_ms),
        solve_s: median(&lp.passes_s),
        gmres_iterations: (2 * SCHEDULE_LEN) as f64,
        rel_error,
        plan_mb,
        served_frac: served_frac(out.attempted, out.failed),
    };
    out.detail("requests", lp.latencies_ms.len());
    if !args.trace {
        e2e.report(&mut out);
        return Ok(out);
    }

    // traced half: the same loop again with every span recorded
    e2e.detail(&mut out, "untraced.");
    tracer.enable();
    let traced = closed_loop(&served, &inp, window, tracer, false);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    let (traced_p50, _, _) = traced.end_to_end();
    out.detail("traced.query_p50_ms", traced_p50);
    out.metric("trace.overhead_ms", traced_p50 - p50, "ms");

    let datasets = [
        (&inp.cube[..], served.id(ServeSet::Cube)),
        (&inp.plummer[..], served.id(ServeSet::Plummer)),
    ];
    let replay: Vec<Replay> = inp.schedules[0]
        .iter()
        .filter(|s| s.set != ServeSet::CubeSharded)
        .map(|s| Replay {
            dataset: s.set as usize,
            fields: s.fields,
            points: &s.points,
        })
        .collect();
    let fmm_targets: Vec<_> = inp.cube.iter().map(|p| p.position).collect();
    let li = LayerInputs {
        engine: &served.engine,
        accuracy: ACCURACY,
        datasets: &datasets,
        replay: &replay,
        fmm_targets: &fmm_targets,
        sharded_traffic: true,
    };
    layers::report_all(&li, args, tracer, &mut out)?;
    Ok(out)
}
