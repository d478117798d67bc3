//! Per-layer metrics for the traced run. Each probe times calls into one
//! layer's public functions from here, on the workload's own inputs
//! where the layer's cost depends on them, and reads the counters the
//! program already exposes (`EngineStats`, `Engine::spans`, `EvalStats`,
//! `CompiledFmm::{m2l_pairs, translation_terms}`, the `mbt_obs` phases).

use std::hint::black_box;
use std::time::Instant;

use mbt_engine::{
    fmm_params_for, Accuracy, DatasetId, Engine, EngineConfig, EngineStats, QueryRequest,
};
use mbt_fmm::CompiledFmm;
use mbt_geometry::distribution::{uniform_cube, ChargeModel};
use mbt_geometry::{Particle, Vec3};
use mbt_multipole::batch::{
    m2l_apply, m2p_potential_group_uniform, p2p_potential_span, p2p_potential_span_f32,
    BatchWorkspace,
};
use mbt_multipole::{simd, tri_len, Complex};
use mbt_obs::{Phase, Span};
use mbt_tree::{Octree, OctreeParams};
use mbt_treecode::{EvalStats, Treecode, TreecodeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{phases, Tracer};
use crate::Args;

/// Repetitions of each timed build.
const BUILD_REPS: usize = 3;
/// Replays of the request stream through the library treecode.
const REPLAY_REPS: usize = 3;
/// Requests of the engine-overhead comparison.
const OVERHEAD_REQUESTS: usize = 64;
/// Distinct M2L operators cycled by the kernel probe (the offset classes
/// of one FMM level), so operator reads come from where the real
/// downward pass finds them.
const M2L_OPERATORS: usize = 316;

/// One request of the workload's stream, replayed through the library.
pub struct Replay<'a> {
    /// Index into [`LayerInputs::datasets`].
    pub dataset: usize,
    /// Field query (otherwise potentials).
    pub fields: bool,
    /// Target points.
    pub points: &'a [Vec3],
}

/// BEM and GMRES figures of one capacitance solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct BemFigures {
    pub geometry_ms: f64,
    pub apply_ms: f64,
    pub applies: f64,
    pub other_ms: f64,
}

/// What the probes need from a workload.
pub struct LayerInputs<'a> {
    /// The workload's engine, after its traced window.
    pub engine: &'a Engine,
    /// The accuracy the workload asks for.
    pub accuracy: Accuracy,
    /// The workload's source sets and their ids in `engine`.
    pub datasets: &'a [(&'a [Particle], DatasetId)],
    /// Few-target requests to replay through the library treecode.
    pub replay: &'a [Replay<'a>],
    /// Targets of the FMM sweep probe over `datasets[0]`.
    pub fmm_targets: &'a [Vec3],
    /// Whether the workload's own traffic was sharded (otherwise the
    /// shard probe registers `datasets[0]` with `k = 4` on a side engine).
    pub sharded_traffic: bool,
}

/// Measures and reports every per-layer metric, in declaration order.
pub fn report_all(
    li: &LayerInputs,
    args: &Args,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    // the workload's own engine state, before the probes add traffic
    let stats = li.engine.stats();
    let spans = li.engine.spans();

    let params: Vec<TreecodeParams> = li
        .datasets
        .iter()
        .map(|(_, id)| {
            li.engine
                .resolve_params_for(*id, li.accuracy)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    // mbt-tree and the mbt-treecode upward pass
    let mut tree_ms = 0.0;
    let mut nodes = 0usize;
    let mut height = 0usize;
    let mut upward_ms = 0.0;
    let mut coefficients = 0u64;
    let mut treecodes = Vec::new();
    for ((particles, _), p) in li.datasets.iter().zip(&params) {
        let (mut t_tree, mut t_up) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..BUILD_REPS {
            let t = Instant::now();
            let tree = tracer
                .span("mbt-tree.Octree::build", 0, 0, |_| {
                    Octree::build(
                        particles,
                        OctreeParams {
                            leaf_capacity: p.leaf_capacity,
                        },
                    )
                })
                .map_err(|e| format!("{e:?}"))?;
            t_tree.push(ms(t));
            let t = Instant::now();
            let tc = tracer.span("mbt-treecode.Treecode::from_tree", 0, 0, |_| {
                Treecode::from_tree(tree, *p)
            });
            t_up.push(ms(t));
            last = Some(tc);
        }
        let tc = last.ok_or("no build ran")?;
        tree_ms += median(&t_tree);
        upward_ms += median(&t_up);
        nodes += tc.tree().nodes().len();
        height = height.max(tc.tree().height());
        coefficients += tc.coefficient_count();
        treecodes.push(tc);
    }
    out.metric("tree.build_ms", tree_ms, "ms");
    out.metric("tree.nodes", nodes as f64, "count");
    out.metric("tree.height", height as f64, "count");
    out.metric("upward.ms", upward_ms, "ms");
    out.metric("upward.coefficients", coefficients as f64, "count");

    // mbt-treecode evaluation: the request stream, one request at a time
    let compile0 = phases().total_ns(Phase::Compile);
    let sweep0 = phases().total_ns(Phase::Sweep);
    let mut eval_ms = Vec::new();
    let mut total = EvalStats::default();
    let mut eval_ns = 0.0;
    for _ in 0..REPLAY_REPS {
        for q in li.replay {
            let tc = &treecodes[q.dataset];
            let t = Instant::now();
            let stats = tracer.span("mbt-treecode.eval", 0, 0, |_| {
                if q.fields {
                    tc.fields_at(q.points).stats
                } else {
                    tc.potentials_at(q.points).stats
                }
            });
            let took = t.elapsed().as_secs_f64();
            eval_ms.push(took * 1e3);
            eval_ns += took * 1e9;
            total.merge(&stats);
        }
    }
    let replayed = eval_ms.len().max(1) as f64;
    let compile_ns = phases().total_ns(Phase::Compile) - compile0;
    let sweep_ns = phases().total_ns(Phase::Sweep) - sweep0;
    out.metric("treecode.eval_ms", median(&eval_ms), "ms");
    out.metric(
        "treecode.terms_per_query",
        total.terms as f64 / replayed,
        "count",
    );
    out.metric(
        "treecode.pairs_per_query",
        total.direct_pairs as f64 / replayed,
        "count",
    );
    out.metric(
        "treecode.ns_per_work",
        eval_ns / total.work().max(1) as f64,
        "ns",
    );
    out.metric(
        "treecode.compile_share",
        compile_ns as f64 / (sweep_ns.max(1) as f64 * rayon::current_num_threads() as f64),
        "1",
    );

    // mbt-multipole kernels
    let m2l_p6 = m2l_ns_per_apply(6);
    let m2l_p8 = m2l_ns_per_apply(8);
    out.metric("m2p.ns_per_term.p4", m2p_ns_per_term(4), "ns");
    out.metric("m2p.ns_per_term.p8", m2p_ns_per_term(8), "ns");
    out.metric("p2p.ns_per_pair.f64", p2p_ns_per_pair(false), "ns");
    out.metric("p2p.ns_per_pair.f32", p2p_ns_per_pair(true), "ns");
    out.metric("m2l.ns_per_apply.p6", m2l_p6, "ns");
    out.metric("m2l.ns_per_apply.p8", m2l_p8, "ns");
    let (flops, bytes) = m2l_flops_bytes(8);
    out.metric("m2l.gflops.p8", flops / m2l_p8, "Gflop/s_computed");
    out.metric("m2l.flop_per_byte.p8", flops / bytes, "flop/B_computed");

    // mbt-fmm on the workload's first source set
    fmm_probe(li, &params[0], args.seed, tracer, out)?;

    // mbt-engine: overhead over the identical library call, then counters
    let overhead_us = engine_overhead_us(li, &treecodes, tracer, out)?;
    out.metric("engine.overhead_us", overhead_us, "us");
    let waits: Vec<f64> = phase_ms(&spans, Phase::AdmissionWait);
    out.metric(
        "engine.admission_wait_p99_ms",
        percentile(&waits, 0.99),
        "ms",
    );
    engine_counters(&stats, out);

    // mbt-shard
    let (fanout_p50, skeleton_evals, opens) = if li.sharded_traffic {
        (
            percentile(&phase_ms(&spans, Phase::ShardFanout), 0.5),
            stats.skeleton_evals,
            stats.shard_opens,
        )
    } else {
        shard_probe(li, tracer)?
    };
    out.metric("shard.fanout_p50_ms", fanout_p50, "ms");
    out.metric("shard.skeleton_evals", skeleton_evals as f64, "count");
    out.metric("shard.shard_opens", opens as f64, "count");

    // mbt-bem / mbt-solvers
    let bem = crate::bem::probe(args.seed, tracer)?;
    out.metric("bem.geometry_ms", bem.geometry_ms, "ms");
    out.metric("bem.apply_ms", bem.apply_ms, "ms");
    out.metric("bem.applies", bem.applies, "count");
    out.metric("gmres.other_ms", bem.other_ms, "ms");

    // shims/rayon
    out.metric("rayon.par_call_us", rayon_par_call_us(), "us");
    out.metric(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "1",
    );
    Ok(())
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn phase_ms(spans: &[Span], phase: Phase) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| s.dur_ns as f64 * 1e-6)
        .collect()
}

fn engine_counters(s: &EngineStats, out: &mut Outcome) {
    out.metric("engine.batch_mean", s.mean_batch(), "count");
    out.metric("engine.max_batch", s.max_batch as f64, "count");
    out.metric("engine.cache_hit_ratio", s.hit_rate(), "1");
    out.metric("engine.plan_builds", s.plan_builds as f64, "count");
    out.metric("engine.build_s", s.build_seconds, "s");
    out.metric("engine.evictions", s.evictions as f64, "count");
    out.metric("engine.routed.direct", s.routed_direct as f64, "count");
    out.metric("engine.routed.treecode", s.routed_treecode as f64, "count");
    out.metric("engine.routed.fmm", s.routed_fmm as f64, "count");
    out.metric(
        "engine.shed",
        (s.shed_overload + s.shed_deadline + s.shed_quota) as f64,
        "count",
    );
    out.metric("engine.worker_panics", s.worker_panics as f64, "count");
    out.metric("engine.spans_dropped", s.spans_dropped as f64, "count");
}

/// Median engine query minus median library call, same params and
/// points, one request at a time (potential requests on unsharded sets).
fn engine_overhead_us(
    li: &LayerInputs,
    treecodes: &[Treecode],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<f64, String> {
    let (mut engine_ms, mut library_ms) = (Vec::new(), Vec::new());
    let queries = li.replay.iter().filter(|q| !q.fields).cycle();
    for (i, q) in queries.take(OVERHEAD_REQUESTS).enumerate() {
        let id = li.datasets[q.dataset].1;
        let tc = &treecodes[q.dataset];
        // alternate which side goes first, so neither always runs on
        // caches the other just warmed
        for engine_side in [i % 2 == 0, i % 2 == 1] {
            if engine_side {
                let request = QueryRequest::potentials(id, li.accuracy, q.points.to_vec());
                let t = Instant::now();
                let result = tracer.span("mbt-engine.query", 0, 0, |_| li.engine.query(request));
                engine_ms.push(ms(t));
                out.attempted += 1;
                out.failed += u64::from(result.is_err());
            } else {
                let t = Instant::now();
                black_box(tracer.span("mbt-treecode.potentials_at", 0, 0, |_| {
                    tc.potentials_at(q.points)
                }));
                library_ms.push(ms(t));
            }
        }
    }
    Ok((median(&engine_ms) - median(&library_ms)) * 1e3)
}

/// Registers `datasets[0]` with `k = 4` shards on a side engine, warms
/// it, and replays the workload's potential requests against it.
fn shard_probe(li: &LayerInputs, tracer: &Tracer) -> Result<(f64, u64, u64), String> {
    let engine = Engine::new(EngineConfig::default()).map_err(|e| e.to_string())?;
    let id = engine
        .register_sharded("shard-probe", li.datasets[0].0.to_vec(), 4)
        .map_err(|e| e.to_string())?;
    tracer
        .span("mbt-engine.warm", 0, 0, |_| engine.warm(id, li.accuracy))
        .map_err(|e| e.to_string())?;
    for q in li
        .replay
        .iter()
        .filter(|q| q.dataset == 0 && !q.fields)
        .take(OVERHEAD_REQUESTS)
    {
        let request = QueryRequest::potentials(id, li.accuracy, q.points.to_vec());
        tracer
            .span("mbt-engine.query", 0, 0, |_| engine.query(request))
            .map_err(|e| e.to_string())?;
    }
    let s = engine.stats();
    Ok((
        percentile(&phase_ms(&engine.spans(), Phase::ShardFanout), 0.5),
        s.skeleton_evals,
        s.shard_opens,
    ))
}

/// `CompiledFmm` build and sweep on `datasets[0]`, plus the outside
/// estimates of the build's two halves: the operator probe (a build over
/// a ~600-particle cloud forced to the same levels and degree — the
/// per-level probe does not depend on occupancy) and the downward pass
/// (`m2l_pairs` × one single-core M2L apply at the finest level's degree,
/// shared over the `nproc` workers the pass runs on).
fn fmm_probe(
    li: &LayerInputs,
    params: &TreecodeParams,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let sources = li.datasets[0].0;
    let fp = fmm_params_for(params);
    let mut build_ms = Vec::new();
    let mut fmm = None;
    for _ in 0..2 {
        drop(fmm.take());
        let t = Instant::now();
        let f = tracer
            .span("mbt-fmm.CompiledFmm::new", 0, 0, |_| {
                CompiledFmm::new(sources, fp)
            })
            .map_err(|e| format!("{e:?}"))?;
        build_ms.push(ms(t));
        fmm = Some(f);
    }
    let fmm = fmm.ok_or("no FMM build ran")?;
    let mut sweep_ms = Vec::new();
    let mut stats = EvalStats::default();
    for _ in 0..BUILD_REPS {
        let t = Instant::now();
        stats = tracer
            .span("mbt-fmm.potentials_at", 0, 0, |_| {
                fmm.potentials_at(li.fmm_targets)
            })
            .stats;
        sweep_ms.push(ms(t));
    }
    let levels = fmm.levels();
    // most M2L pairs sit on the finest level, so its degree prices them
    let p_fine = fmm.degrees().last().copied().unwrap_or(0);
    let cloud = uniform_cube(
        600,
        1.0,
        ChargeModel::RandomSign { magnitude: 1.0 },
        seed ^ 0x600,
    );
    let mut probe_ms = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        let small = tracer
            .span("mbt-fmm.CompiledFmm::new", 0, 0, |_| {
                CompiledFmm::new(&cloud, fp.with_levels(levels))
            })
            .map_err(|e| format!("{e:?}"))?;
        probe_ms.push(ms(t));
        drop(small);
    }
    let sweep = median(&sweep_ms);
    out.metric("fmm.build_ms", median(&build_ms), "ms");
    out.metric("fmm.probe_est_ms", median(&probe_ms), "ms");
    out.metric(
        "fmm.downward_est_ms",
        fmm.m2l_pairs as f64 * m2l_ns_per_apply(p_fine) * 1e-6
            / rayon::current_num_threads() as f64,
        "ms",
    );
    out.metric("fmm.m2l_pairs", fmm.m2l_pairs as f64, "count");
    out.metric("fmm.levels", levels as f64, "count");
    out.metric("fmm.sweep_ms", sweep, "ms");
    out.metric("fmm.terms", stats.terms as f64, "count");
    out.metric("fmm.pairs", stats.direct_pairs as f64, "count");
    out.metric(
        "fmm.ns_per_pair",
        sweep * 1e6 / stats.direct_pairs.max(1) as f64,
        "ns",
    );
    out.metric("fmm.plan_mb", fmm.heap_bytes() as f64 / 1e6, "MB");
    out.detail("fmm.translation_terms", fmm.translation_terms);
    out.detail("fmm.degree_finest", p_fine);
    Ok(())
}

/// Times `f` (which reports the work units it did) in `batches` batches
/// of at least 20 ms each; returns the median ns per unit.
fn ns_per_unit(batches: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        let mut units = 0u64;
        while t.elapsed().as_secs_f64() < 0.02 {
            units += f();
        }
        per.push(t.elapsed().as_secs_f64() * 1e9 / units.max(1) as f64);
    }
    median(&per)
}

fn m2p_ns_per_term(p: usize) -> f64 {
    match simd::m2p_lanes() {
        8 => m2p_lanes::<8>(p),
        _ => m2p_lanes::<4>(p),
    }
}

/// The uniform-group M2P kernel (the list executor's common case) at
/// degree `p`: ns per multipole term, `(p+1)²` terms per target.
fn m2p_lanes<const L: usize>(p: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(41 + p as u64);
    let coeffs: Vec<Complex> = (0..tri_len(p))
        .map(|_| Complex {
            re: rng.gen_range(-1.0..1.0),
            im: rng.gen_range(-1.0..1.0),
        })
        .collect();
    let groups: Vec<[Vec3; L]> = (0..64)
        .map(|_| {
            std::array::from_fn(|_| {
                Vec3::new(
                    rng.gen_range(2.0..4.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(-2.0..2.0),
                )
            })
        })
        .collect();
    let mut ws = BatchWorkspace::new();
    ws.prepare_degree_lanes(p, L);
    let terms = (L * (p + 1) * (p + 1)) as u64;
    ns_per_unit(5, || {
        for g in &groups {
            black_box(m2p_potential_group_uniform::<L>(
                Vec3::ZERO,
                &coeffs,
                g,
                &mut ws,
            ));
        }
        terms * groups.len() as u64
    })
}

/// The near-field span kernel over one leaf-sized span (32 sources):
/// ns per source–target pair.
fn p2p_ns_per_pair(f32_near: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(43);
    let span = 32;
    let src: Vec<[f64; 4]> = (0..span)
        .map(|_| {
            [
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-1.0..1.0),
            ]
        })
        .collect();
    let col = |k: usize| -> Vec<f64> { src.iter().map(|s| s[k]).collect() };
    let (xs, ys, zs, qs) = (col(0), col(1), col(2), col(3));
    let f32s = |v: &[f64]| -> Vec<f32> { v.iter().map(|&x| x as f32).collect() };
    let (xf, yf, zf, qf) = (f32s(&xs), f32s(&ys), f32s(&zs), f32s(&qs));
    let targets: Vec<Vec3> = (0..256)
        .map(|_| {
            Vec3::new(
                rng.gen_range(0.2..0.4),
                rng.gen_range(-0.2..0.2),
                rng.gen_range(-0.2..0.2),
            )
        })
        .collect();
    ns_per_unit(5, || {
        for &t in &targets {
            if f32_near {
                black_box(p2p_potential_span_f32(&xf, &yf, &zf, &qf, t, 0.0));
            } else {
                black_box(p2p_potential_span(&xs, &ys, &zs, &qs, t, 0.0));
            }
        }
        (targets.len() * span) as u64
    })
}

/// Computed flops and bytes of one dense M2L apply at degree `p`: a
/// `2T × 2T` operator (`T = tri_len(p)`) read once, one multiply-add per
/// entry, the input read and the output read and written.
fn m2l_flops_bytes(p: usize) -> (f64, f64) {
    let n = 2.0 * tri_len(p) as f64;
    (2.0 * n * n, 8.0 * (n * n + 3.0 * n))
}

/// The dense M2L operator kernel at degree `p`, cycling through
/// [`M2L_OPERATORS`] distinct operators: ns per apply.
fn m2l_ns_per_apply(p: usize) -> f64 {
    let n = 2 * tri_len(p);
    let mut rng = StdRng::seed_from_u64(47 + p as u64);
    let ops: Vec<f64> = (0..M2L_OPERATORS * n * n)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..1.0)).collect();
    let mut y = vec![0.0; n];
    ns_per_unit(5, || {
        for op in ops.chunks_exact(n * n) {
            m2l_apply(op, &x, &mut y);
        }
        black_box(&y);
        M2L_OPERATORS as u64
    })
}

/// One empty parallel call over `nproc` items (the shim spawns its
/// worker threads on every call): median µs.
fn rayon_par_call_us() -> f64 {
    let n = rayon::current_num_threads();
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        (0..n).into_par_iter().for_each(|i| {
            black_box(i);
        });
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}
