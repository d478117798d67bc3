//! The engine facade: registry → plan cache → batched scheduler →
//! admission control, behind one thread-safe object.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mbt_geometry::{Particle, Vec3};
use mbt_shard::Skeleton;
use mbt_treecode::{EvalStats, Treecode, TreecodeParams};
use rayon::prelude::*;

use mbt_obs::{SlowQuery, Span};

use crate::admission::AdmissionGate;
use crate::batch::{evaluate_plan_batch, QueryKind, QueryOutput};
use crate::cache::{CacheOutcome, PlanCache};
use crate::direct::evaluate_direct;
use crate::error::EngineError;
use crate::fanout::{evaluate_sharded, FanoutBreakdown};
use crate::plan::{Accuracy, EvalConfig, Plan, PlanKey};
use crate::registry::{Dataset, DatasetId, DatasetRegistry};
use crate::route::{route, Backend};
use crate::scheduler::Batcher;
use crate::stats::{EngineStats, Gauges, StatsCollector};
use crate::tenant::{TenantConfig, TenantId, TenantTable};

/// Engine-wide settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Default MAC parameter α applied when resolving [`Accuracy`]
    /// shorthands (requests using [`Accuracy::Params`] bypass it).
    pub alpha: f64,
    /// Default leaf capacity for resolved plans.
    pub leaf_capacity: usize,
    /// Default aggregation width `w` for resolved plans.
    pub eval_chunk: usize,
    /// Plan-cache byte budget (built trees + coefficient arenas).
    pub cache_budget_bytes: usize,
    /// Maximum requests in planning/evaluation at once.
    pub max_in_flight: usize,
    /// Maximum requests waiting for an evaluation slot; a full queue
    /// sheds new arrivals immediately.
    pub max_queued: usize,
    /// Extra coalescing wait a batch leader performs before draining its
    /// group. Zero (default) relies on natural batching: requests
    /// arriving while a sweep runs are drained by the next one.
    pub batch_window: Duration,
    /// Requests slower than this (admission → response) land in the
    /// bounded slow-query log ([`Engine::slow_queries`]).
    pub slow_query_threshold: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            alpha: 0.6,
            leaf_capacity: 32,
            eval_chunk: 64,
            cache_budget_bytes: 256 << 20,
            max_in_flight: 32,
            max_queued: 1024,
            batch_window: Duration::ZERO,
            slow_query_threshold: Duration::from_millis(250),
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), EngineError> {
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(EngineError::InvalidConfig("alpha must be finite and > 0"));
        }
        if self.leaf_capacity == 0 {
            return Err(EngineError::InvalidConfig("leaf_capacity must be >= 1"));
        }
        if self.max_in_flight == 0 {
            return Err(EngineError::InvalidConfig("max_in_flight must be >= 1"));
        }
        if self.cache_budget_bytes == 0 {
            return Err(EngineError::InvalidConfig(
                "cache_budget_bytes must be >= 1 (an engine without plan storage cannot serve)",
            ));
        }
        Ok(())
    }
}

/// One query: where, what, how accurately, and by when.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The registered dataset to evaluate against.
    pub dataset: DatasetId,
    /// Per-request accuracy, resolved against the engine defaults.
    pub accuracy: Accuracy,
    /// Potential or potential + gradient.
    pub kind: QueryKind,
    /// Observation points.
    pub points: Vec<Vec3>,
    /// Optional deadline: the request is shed (never evaluated) once this
    /// instant passes while it is still queued.
    pub deadline: Option<Instant>,
    /// The tenant this request is billed to and scheduled as. Defaults to
    /// [`TenantId::DEFAULT`]; unregistered tenants serve at weight 1 with
    /// no budgets, so single-tenant callers never notice the field.
    pub tenant: TenantId,
}

impl QueryRequest {
    /// A potential query.
    #[must_use]
    pub fn potentials(dataset: DatasetId, accuracy: Accuracy, points: Vec<Vec3>) -> QueryRequest {
        QueryRequest {
            dataset,
            accuracy,
            kind: QueryKind::Potential,
            points,
            deadline: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// A potential + gradient query.
    #[must_use]
    pub fn fields(dataset: DatasetId, accuracy: Accuracy, points: Vec<Vec3>) -> QueryRequest {
        QueryRequest {
            dataset,
            accuracy,
            kind: QueryKind::Field,
            points,
            deadline: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Attaches a deadline `budget` from now.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> QueryRequest {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Bills and schedules this request as `tenant`.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> QueryRequest {
        self.tenant = tenant;
        self
    }
}

/// A served query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Per-point values, in the request's point order.
    pub output: QueryOutput,
    /// Counters of the evaluation sweep this request rode in. Sweeps may
    /// serve several coalesced requests, so these cover the whole batch,
    /// not only this request's points.
    pub eval: EvalStats,
    /// How the plan was obtained (cache hit / built / coalesced build;
    /// [`CacheOutcome::Bypassed`] for direct-routed queries, which have
    /// no plan).
    pub cache: CacheOutcome,
    /// Footprint of the plan that served this query: its own bytes plus
    /// any shared FMM operator tables it holds (zero for direct-routed
    /// queries).
    pub plan_bytes: usize,
    /// The backend the router selected for this request. Reflects the
    /// routing decision — an FMM-keyed plan that fell back to a treecode
    /// artifact at build time (dense-grid depth cap) still reports
    /// [`Backend::Fmm`].
    pub backend: Backend,
}

/// Result of [`Engine::warm`]: the aggregate cache outcome plus one
/// entry per shard plan (a single entry for unsharded datasets, whose one
/// plan is shard 0 of a one-way partition of themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmReport {
    /// The aggregate outcome across every shard: `Built` dominates
    /// `Coalesced` dominates `Hit`, so a report is `Hit` only when every
    /// shard plan was already resident.
    pub outcome: CacheOutcome,
    /// Per-shard build outcomes, in shard order.
    pub shards: Vec<ShardWarm>,
}

/// One shard's slice of a [`WarmReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWarm {
    /// The shard index (0 for unsharded datasets).
    pub shard: usize,
    /// How this shard's plan was obtained.
    pub outcome: CacheOutcome,
    /// Resident bytes of the shard's plan.
    pub bytes: usize,
    /// Wall time of the shard plan's build (the original build when the
    /// plan was already resident — plans carry their construction cost).
    pub build_time: Duration,
}

/// `Built` dominates `Coalesced` dominates `Hit`: the aggregate is the
/// most expensive thing any shard did.
fn aggregate_outcome<I: IntoIterator<Item = CacheOutcome>>(outcomes: I) -> CacheOutcome {
    let mut agg = CacheOutcome::Hit;
    for o in outcomes {
        agg = match (agg, o) {
            (CacheOutcome::Built, _) | (_, CacheOutcome::Built) => CacheOutcome::Built,
            (CacheOutcome::Coalesced, _) | (_, CacheOutcome::Coalesced) => CacheOutcome::Coalesced,
            _ => CacheOutcome::Hit,
        };
    }
    agg
}

/// The multi-tenant treecode query engine.
///
/// `Engine` is `Sync`: share one instance (e.g. behind an `Arc`) across
/// every serving thread. See the crate docs for the full architecture.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    registry: DatasetRegistry,
    cache: PlanCache,
    batcher: Batcher,
    gate: AdmissionGate,
    stats: StatsCollector,
    tenants: TenantTable,
    /// Cached global skeletons for sharded datasets, keyed by the
    /// shard-0 plan key of their generation (dataset + resolved params +
    /// partition width). Entries are tiny — O(k · p²) complex
    /// coefficients — and are rebuilt whenever any shard plan was not a
    /// cache hit, so an evicted-and-rebuilt shard can never serve a
    /// stale summary.
    skeletons: Mutex<HashMap<PlanKey, Arc<Skeleton>>>,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Result<Engine, EngineError> {
        config.validate()?;
        Ok(Engine {
            config,
            registry: DatasetRegistry::new(),
            cache: PlanCache::new(config.cache_budget_bytes),
            batcher: Batcher::with_window(config.batch_window),
            gate: AdmissionGate::new(config.max_in_flight, config.max_queued),
            stats: StatsCollector::with_slow_threshold(config.slow_query_threshold),
            tenants: TenantTable::new(),
            skeletons: Mutex::new(HashMap::new()),
        })
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Validates and registers a particle set under `name`.
    pub fn register(&self, name: &str, particles: Vec<Particle>) -> Result<DatasetId, EngineError> {
        self.registry.register(name, particles)
    }

    /// Validates, Hilbert-partitions into `shards` contiguous key
    /// ranges, and registers a particle set under `name`. Queries are
    /// served by independent per-shard plans (built concurrently on a
    /// cold miss, cached and evicted independently) behind a global
    /// skeleton tree that answers the cross-shard far field; `shards ==
    /// 1` is exactly [`Engine::register`].
    pub fn register_sharded(
        &self,
        name: &str,
        particles: Vec<Particle>,
        shards: usize,
    ) -> Result<DatasetId, EngineError> {
        self.registry.register_sharded(name, particles, shards)
    }

    /// Registers (or re-registers) a tenant's fair-share weight and
    /// budgets. Unregistered tenants — including [`TenantId::DEFAULT`] —
    /// serve at weight 1 with no budgets, so calling this is only needed
    /// to differentiate tenants. Re-registering updates the config but
    /// keeps the tenant's accumulated charges.
    pub fn register_tenant(&self, tenant: TenantId, config: TenantConfig) {
        self.tenants.register(tenant, config);
    }

    /// Opens a new billing window for `tenant`: accumulated plan-byte and
    /// evaluation-time charges are zeroed (weights and quotas stay).
    /// Returns `false` when the tenant was never registered or billed.
    pub fn reset_tenant_budgets(&self, tenant: TenantId) -> bool {
        self.tenants.reset_budgets(tenant)
    }

    /// The dataset registered under `id`.
    pub fn dataset(&self, id: DatasetId) -> Result<Arc<Dataset>, EngineError> {
        self.registry.get(id)
    }

    /// Looks a dataset id up by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<DatasetId> {
        self.registry.lookup(name)
    }

    /// The full parameters `accuracy` resolves to under this engine's
    /// defaults — what a query with that accuracy will actually run with,
    /// up to the dataset-aware near-field precision (queries additionally
    /// apply the f32 admission test against the target dataset's size and
    /// largest charge; see [`Accuracy::resolve_with_profile`]).
    #[must_use]
    pub fn resolve_params(&self, accuracy: Accuracy) -> TreecodeParams {
        accuracy.resolve(
            self.config.alpha,
            self.config.leaf_capacity,
            self.config.eval_chunk,
        )
    }

    /// [`Engine::resolve_params`] plus the dataset-aware f32 near-field
    /// admission test — exactly what a query against `dataset` runs with.
    pub fn resolve_params_for(
        &self,
        dataset: DatasetId,
        accuracy: Accuracy,
    ) -> Result<TreecodeParams, EngineError> {
        let ds = self.registry.get(dataset)?;
        Ok(self.resolve_params_profiled(&ds, accuracy))
    }

    /// The profile-aware resolution against an already-fetched dataset.
    fn resolve_params_profiled(&self, ds: &Dataset, accuracy: Accuracy) -> TreecodeParams {
        accuracy.resolve_with_profile(
            self.config.alpha,
            self.config.leaf_capacity,
            self.config.eval_chunk,
            ds.len(),
            ds.q_max,
        )
    }

    /// Pre-builds (or touches) every plan serving `(dataset, accuracy)`
    /// without issuing a query — cache warming for predictable tenants.
    /// For sharded datasets **all** shard plans are built concurrently
    /// and the report carries one entry per shard; unsharded datasets
    /// report their single plan as shard 0.
    pub fn warm(&self, dataset: DatasetId, accuracy: Accuracy) -> Result<WarmReport, EngineError> {
        let ds = self.registry.get(dataset)?;
        if !ds.is_sharded() {
            let (plan, outcome, _) = self.plan_for_ds(&ds, accuracy)?;
            return Ok(WarmReport {
                outcome,
                shards: vec![ShardWarm {
                    shard: 0,
                    outcome,
                    bytes: plan.bytes,
                    build_time: plan.build_time,
                }],
            });
        }
        let (plans, _, _) = self.shard_plans(&ds, accuracy)?;
        let shards: Vec<ShardWarm> = plans
            .iter()
            .enumerate()
            .map(|(s, (plan, outcome))| ShardWarm {
                shard: s,
                outcome: *outcome,
                bytes: plan.bytes,
                build_time: plan.build_time,
            })
            .collect();
        Ok(WarmReport {
            outcome: aggregate_outcome(plans.iter().map(|(_, o)| *o)),
            shards,
        })
    }

    fn plan_for_ds(
        &self,
        ds: &Arc<Dataset>,
        accuracy: Accuracy,
    ) -> Result<(Arc<Plan>, CacheOutcome, TreecodeParams), EngineError> {
        let params = self.resolve_params_profiled(ds, accuracy);
        params.validate().map_err(EngineError::InvalidParams)?;
        let (plan, outcome) = self.plan_routed(ds, params, Backend::Treecode)?;
        Ok((plan, outcome, params))
    }

    /// Resolves the routed backend's cached plan for `(ds, params)` —
    /// building it under the key's single-flight on a miss. `params`
    /// must already be validated.
    fn plan_routed(
        &self,
        ds: &Arc<Dataset>,
        params: TreecodeParams,
        backend: Backend,
    ) -> Result<(Arc<Plan>, CacheOutcome), EngineError> {
        // PlanKey excludes precision (and the other execution knobs), so
        // the f64 and f32 tiers of one request shape share one cached
        // tree + coefficient arena.
        let key = PlanKey::routed(ds.id, &params, backend);
        self.cache.get_or_build(key, &self.stats, || {
            Plan::build(key, ds.particles(), params)
        })
    }

    /// Resolves every shard plan of a sharded dataset (building cold
    /// shards concurrently — each shard is its own cache entry behind its
    /// own single-flight, so a cold dataset costs roughly one shard's
    /// build time given threads, not the sum) plus the matching global
    /// skeleton.
    #[allow(clippy::type_complexity)]
    fn shard_plans(
        &self,
        ds: &Arc<Dataset>,
        accuracy: Accuracy,
    ) -> Result<
        (
            Vec<(Arc<Plan>, CacheOutcome)>,
            TreecodeParams,
            Arc<Skeleton>,
        ),
        EngineError,
    > {
        let params = self.resolve_params_profiled(ds, accuracy);
        params.validate().map_err(EngineError::InvalidParams)?;
        let k = ds.shard_count();
        let built: Vec<Result<(Arc<Plan>, CacheOutcome), EngineError>> = (0..k)
            .into_par_iter()
            .map(|s| {
                let key = PlanKey::sharded(ds.id, &params, s, k);
                self.cache.get_or_build(key, &self.stats, || {
                    Plan::build(key, ds.shard_particles(s), params)
                })
            })
            .collect();
        let mut plans = Vec::with_capacity(k);
        let mut fresh = false;
        for r in built {
            let (plan, outcome) = r?;
            fresh |= outcome != CacheOutcome::Hit;
            plans.push((plan, outcome));
        }
        let skey = PlanKey::sharded(ds.id, &params, 0, k);
        let skeleton = self.skeleton_for(skey, &plans, fresh);
        Ok((plans, params, skeleton))
    }

    /// The cached skeleton for this plan generation, rebuilt whenever any
    /// shard plan was freshly built (deterministic builds make the
    /// rebuild idempotent; the invalidation only exists so the summary
    /// can never outlive an evicted shard's coefficients).
    fn skeleton_for(
        &self,
        key: PlanKey,
        plans: &[(Arc<Plan>, CacheOutcome)],
        rebuild: bool,
    ) -> Arc<Skeleton> {
        let mut map = self
            .skeletons
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !rebuild {
            if let Some(sk) = map.get(&key) {
                return Arc::clone(sk);
            }
        }
        let refs: Vec<&Treecode> = plans.iter().map(|(p, _)| p.treecode()).collect();
        let sk = Arc::new(Skeleton::from_treecodes(&refs));
        map.insert(key, Arc::clone(&sk));
        sk
    }

    /// Bills `tenant` for every plan in `plans` it caused to be built
    /// this call (cache hits and coalesced waits are free: the bytes were
    /// already paid for by whoever built them).
    fn charge_built_plans(&self, tenant: TenantId, plans: &[(Arc<Plan>, CacheOutcome)]) {
        let built: usize = plans
            .iter()
            .filter(|(_, o)| *o == CacheOutcome::Built)
            .map(|(p, _)| p.bytes)
            .sum();
        if built > 0 {
            self.tenants.charge_plan_bytes(tenant, built);
        }
    }

    /// Splits one coalesced sweep's wall time evenly across the requests
    /// riding it, billing each request's tenant one share. An even split
    /// (rather than a per-point one) keeps the charge independent of who
    /// else happened to coalesce in.
    fn charge_eval_split(&self, requests: &[QueryRequest], live: &[usize], took: Duration) {
        let Ok(n) = u32::try_from(live.len()) else {
            return;
        };
        if n == 0 {
            return;
        }
        let share = took / n;
        for &i in live {
            self.tenants.charge_eval(requests[i].tenant, share);
        }
    }

    /// Feeds one fan-out's routing counters plus its per-shard sweeps
    /// (under their sharded plan keys, so the ordinary per-plan
    /// breakdown separates shards) into the collector.
    fn record_fanout_stats(
        &self,
        ds: &Dataset,
        params: &TreecodeParams,
        fan: &FanoutBreakdown,
        took: Duration,
    ) {
        self.stats.record_fanout(fan, took);
        let k = ds.shard_count();
        for sweep in &fan.per_shard {
            let key = PlanKey::sharded(ds.id, params, sweep.shard, k);
            self.stats.record_batch(key, 1, sweep.points, sweep.elapsed);
        }
    }

    /// Serves one query: admission → plan resolution (cached, built, or
    /// coalesced onto an in-flight build) → batched evaluation.
    ///
    /// Blocking; safe to call from many threads at once — that is the
    /// intended use, and concurrent queries against the same plan are
    /// coalesced into shared sweeps.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, EngineError> {
        let arrived = Instant::now();
        // budgets first: a tenant over quota is shed before it can queue
        // (its backlog would only steal gate capacity from solvent ones)
        if let Err(e) = self.tenants.admit_request(request.tenant) {
            self.stats.record_shed_quota();
            return Err(e);
        }
        let weight = self.tenants.weight(request.tenant);
        let _permit = match self
            .gate
            .admit(request.tenant, weight, request.deadline, &self.stats)
        {
            Ok(p) => {
                self.tenants.note_admitted(request.tenant);
                p
            }
            Err(e) => {
                self.tenants.note_shed(request.tenant);
                return Err(e);
            }
        };
        let waited = arrived.elapsed();
        let ds = self.registry.get(request.dataset)?;
        let params = self.resolve_params_profiled(&ds, request.accuracy);
        params.validate().map_err(EngineError::InvalidParams)?;
        // sharded datasets are served by the skeleton fan-out (a
        // treecode-only path) and explicit parameters state their own
        // execution mode — both pin the router
        let pinned = ds.is_sharded() || matches!(request.accuracy, Accuracy::Params(_));
        let backend = route(ds.len(), request.points.len(), pinned, &params);
        self.stats.record_route(backend);
        if ds.is_sharded() {
            return self.query_sharded(&ds, &request, arrived, waited);
        }
        if backend == Backend::Direct {
            return self.query_direct(&ds, &params, &request, arrived, waited);
        }
        let (plan, outcome) = self.plan_routed(&ds, params, backend)?;
        if outcome == CacheOutcome::Built {
            self.tenants.charge_plan_bytes(request.tenant, plan.bytes);
        }
        // a cold build may have consumed the whole budget
        if request.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.record_shed_deadline();
            return Err(EngineError::DeadlineExceeded);
        }
        let cfg = EvalConfig::of(&params);
        let n_points = request.points.len();
        let tenant = request.tenant;
        let t_eval = Instant::now();
        let (output, eval) = self.batcher.run(
            &plan,
            request.kind,
            cfg,
            request.points,
            request.deadline,
            &self.stats,
        )?;
        self.tenants.charge_eval(tenant, t_eval.elapsed());
        self.stats
            .record_request(request.dataset, n_points, arrived.elapsed(), waited);
        Ok(QueryResponse {
            output,
            eval,
            cache: outcome,
            plan_bytes: plan.bytes,
            backend,
        })
    }

    /// The direct-summation serving path: no plan, no cache — one
    /// guarded sweep over the dataset's particles. Runs under the permit
    /// `query` already holds.
    fn query_direct(
        &self,
        ds: &Arc<Dataset>,
        params: &TreecodeParams,
        request: &QueryRequest,
        arrived: Instant,
        waited: Duration,
    ) -> Result<QueryResponse, EngineError> {
        if request.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.record_shed_deadline();
            return Err(EngineError::DeadlineExceeded);
        }
        let key = PlanKey::routed(ds.id, params, Backend::Direct);
        let n_points = request.points.len();
        let t0 = Instant::now();
        let (mut outputs, eval) = evaluate_direct(
            ds.particles(),
            params.softening,
            request.kind,
            &[&request.points],
        );
        self.stats.record_batch(key, 1, n_points, t0.elapsed());
        self.tenants.charge_eval(request.tenant, t0.elapsed());
        self.stats
            .record_request(request.dataset, n_points, arrived.elapsed(), waited);
        // one slice in ⇒ exactly one output out; a missing output is an
        // evaluator bug and must not masquerade as a zero-length success
        debug_assert_eq!(outputs.len(), 1);
        let output = outputs
            .pop()
            .ok_or(EngineError::Internal("direct sweep returned no output"))?;
        Ok(QueryResponse {
            output,
            eval,
            cache: CacheOutcome::Bypassed,
            plan_bytes: 0,
            backend: Backend::Direct,
        })
    }

    /// The sharded serving path: resolve every shard plan (concurrent
    /// cold builds) and the skeleton, then fan out / reduce. Runs under
    /// the permit `query` already holds.
    fn query_sharded(
        &self,
        ds: &Arc<Dataset>,
        request: &QueryRequest,
        arrived: Instant,
        waited: Duration,
    ) -> Result<QueryResponse, EngineError> {
        let (plans, params, skeleton) = self.shard_plans(ds, request.accuracy)?;
        self.charge_built_plans(request.tenant, &plans);
        // cold shard builds may have consumed the whole budget
        if request.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.record_shed_deadline();
            return Err(EngineError::DeadlineExceeded);
        }
        let cfg = EvalConfig::of(&params);
        let n_points = request.points.len();
        let arc_plans: Vec<Arc<Plan>> = plans.iter().map(|(p, _)| Arc::clone(p)).collect();
        let t0 = Instant::now();
        let (mut outputs, eval, fan) =
            evaluate_sharded(&arc_plans, &skeleton, request.kind, &[&request.points], cfg);
        self.record_fanout_stats(ds, &params, &fan, t0.elapsed());
        self.tenants.charge_eval(request.tenant, t0.elapsed());
        self.stats
            .record_request(request.dataset, n_points, arrived.elapsed(), waited);
        // one slice in ⇒ exactly one output out (see `query_direct`)
        debug_assert_eq!(outputs.len(), 1);
        let output = outputs
            .pop()
            .ok_or(EngineError::Internal("sharded fan-out returned no output"))?;
        Ok(QueryResponse {
            output,
            eval,
            cache: aggregate_outcome(plans.iter().map(|(_, o)| *o)),
            plan_bytes: plans.iter().map(|(p, _)| p.bytes).sum(),
            backend: Backend::Treecode,
        })
    }

    /// One `query_batch` group against a sharded dataset: resolve the
    /// shard plans + skeleton once, fan the group's live requests out as
    /// one multi-request sweep, and scatter the per-request results.
    #[allow(clippy::too_many_arguments)]
    fn batch_group_sharded(
        &self,
        ds: &Arc<Dataset>,
        requests: &[QueryRequest],
        indices: Vec<usize>,
        kind: QueryKind,
        cfg: EvalConfig,
        arrived: Instant,
        waited: Duration,
        results: &mut [Option<Result<QueryResponse, EngineError>>],
    ) {
        let first = indices[0];
        let (plans, params, skeleton) = match self.shard_plans(ds, requests[first].accuracy) {
            Ok(t) => t,
            Err(e) => {
                for &i in &indices {
                    results[i] = Some(Err(e.clone()));
                }
                return;
            }
        };
        // the group shares (dataset, accuracy): builds bill its opener
        self.charge_built_plans(requests[first].tenant, &plans);
        let now = Instant::now();
        let live: Vec<usize> = indices
            .into_iter()
            .filter(|&i| {
                if requests[i].deadline.is_some_and(|d| now >= d) {
                    self.stats.record_shed_deadline();
                    results[i] = Some(Err(EngineError::DeadlineExceeded));
                    false
                } else {
                    true
                }
            })
            .collect();
        if live.is_empty() {
            return;
        }
        let slices: Vec<&[Vec3]> = live
            .iter()
            .map(|&i| requests[i].points.as_slice())
            .collect();
        let arc_plans: Vec<Arc<Plan>> = plans.iter().map(|(p, _)| Arc::clone(p)).collect();
        let t0 = Instant::now();
        let (outputs, sweep, fan) = evaluate_sharded(&arc_plans, &skeleton, kind, &slices, cfg);
        self.record_fanout_stats(ds, &params, &fan, t0.elapsed());
        self.charge_eval_split(requests, &live, t0.elapsed());
        let outcome = aggregate_outcome(plans.iter().map(|(_, o)| *o));
        let plan_bytes: usize = plans.iter().map(|(p, _)| p.bytes).sum();
        for (&i, output) in live.iter().zip(outputs) {
            self.stats.record_request(
                requests[i].dataset,
                requests[i].points.len(),
                arrived.elapsed(),
                waited,
            );
            results[i] = Some(Ok(QueryResponse {
                output,
                eval: sweep.clone(),
                cache: outcome,
                plan_bytes,
                backend: Backend::Treecode,
            }));
        }
    }

    /// Serves many queries from one caller as explicitly formed batches:
    /// requests are grouped by `(dataset, params, kind)`, each group is
    /// evaluated as one sweep, and results come back in request order.
    ///
    /// The whole call occupies **one** admission slot (it is one caller),
    /// using the earliest deadline among the requests for queue shedding.
    pub fn query_batch(
        &self,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse, EngineError>> {
        let arrived = Instant::now();
        let earliest = requests.iter().filter_map(|r| r.deadline).min();
        // the whole batch is one caller and queues as one unit, scheduled
        // under its first request's tenant; budgets are still checked and
        // billed per request below, so mixed-tenant batches stay honest
        let tenant = requests.first().map_or(TenantId::DEFAULT, |r| r.tenant);
        let weight = self.tenants.weight(tenant);
        let permit = match self.gate.admit(tenant, weight, earliest, &self.stats) {
            Ok(p) => p,
            Err(e) => return requests.iter().map(|_| Err(e.clone())).collect(),
        };
        let waited = arrived.elapsed();

        let mut results: Vec<Option<Result<QueryResponse, EngineError>>> =
            requests.iter().map(|_| None).collect();
        let mut groups: HashMap<(PlanKey, QueryKind, EvalConfig), Vec<usize>> = HashMap::new();
        for (i, r) in requests.iter().enumerate() {
            if let Err(e) = self.tenants.admit_request(r.tenant) {
                self.stats.record_shed_quota();
                results[i] = Some(Err(e));
                continue;
            }
            self.tenants.note_admitted(r.tenant);
            let ds = match self.registry.get(r.dataset) {
                Ok(ds) => ds,
                Err(e) => {
                    results[i] = Some(Err(e));
                    continue;
                }
            };
            let params = self.resolve_params_profiled(&ds, r.accuracy);
            if let Err(e) = params.validate() {
                results[i] = Some(Err(EngineError::InvalidParams(e)));
                continue;
            }
            let pinned = ds.is_sharded() || matches!(r.accuracy, Accuracy::Params(_));
            let backend = route(ds.len(), r.points.len(), pinned, &params);
            self.stats.record_route(backend);
            // sharded datasets group under their shard-0 key (== the
            // plain key when the dataset is unsharded), so one sweep per
            // (dataset, params, kind) still covers the whole fan-out;
            // unsharded requests group under their routed backend's key,
            // so differently-routed shapes batch into separate sweeps
            let key = if ds.is_sharded() {
                PlanKey::sharded(r.dataset, &params, 0, ds.shard_count())
            } else {
                PlanKey::routed(r.dataset, &params, backend)
            };
            groups
                .entry((key, r.kind, EvalConfig::of(&params)))
                .or_default()
                .push(i);
        }

        for ((key, kind, cfg), indices) in groups {
            // all requests in a group share (dataset, accuracy)
            let first = indices[0];
            let ds = match self.registry.get(requests[first].dataset) {
                Ok(ds) => ds,
                Err(e) => {
                    for &i in &indices {
                        results[i] = Some(Err(e.clone()));
                    }
                    continue;
                }
            };
            if ds.is_sharded() {
                self.batch_group_sharded(
                    &ds,
                    requests,
                    indices,
                    kind,
                    cfg,
                    arrived,
                    waited,
                    &mut results,
                );
                continue;
            }
            // re-resolution of the first request's accuracy (validated
            // during grouping) covers the whole group
            let params = self.resolve_params_profiled(&ds, requests[first].accuracy);
            let backend = key.backend();
            let (plan, outcome) = if backend == Backend::Direct {
                (None, CacheOutcome::Bypassed)
            } else {
                match self.plan_routed(&ds, params, backend) {
                    Ok((plan, outcome)) => {
                        if outcome == CacheOutcome::Built {
                            self.tenants
                                .charge_plan_bytes(requests[first].tenant, plan.bytes);
                        }
                        (Some(plan), outcome)
                    }
                    Err(e) => {
                        for &i in &indices {
                            results[i] = Some(Err(e.clone()));
                        }
                        continue;
                    }
                }
            };
            let now = Instant::now();
            let live: Vec<usize> = indices
                .into_iter()
                .filter(|&i| {
                    if requests[i].deadline.is_some_and(|d| now >= d) {
                        self.stats.record_shed_deadline();
                        results[i] = Some(Err(EngineError::DeadlineExceeded));
                        false
                    } else {
                        true
                    }
                })
                .collect();
            if live.is_empty() {
                continue;
            }
            let slices: Vec<&[Vec3]> = live
                .iter()
                .map(|&i| requests[i].points.as_slice())
                .collect();
            let total_points: usize = slices.iter().map(|s| s.len()).sum();
            let t0 = Instant::now();
            let (outputs, sweep) = match &plan {
                Some(plan) => evaluate_plan_batch(plan, kind, &slices, cfg),
                None => evaluate_direct(ds.particles(), params.softening, kind, &slices),
            };
            self.stats
                .record_batch(key, live.len(), total_points, t0.elapsed());
            self.charge_eval_split(requests, &live, t0.elapsed());
            let plan_bytes = plan.as_ref().map_or(0, |p| p.bytes);
            for (&i, output) in live.iter().zip(outputs) {
                self.stats.record_request(
                    requests[i].dataset,
                    requests[i].points.len(),
                    arrived.elapsed(),
                    waited,
                );
                results[i] = Some(Ok(QueryResponse {
                    output,
                    eval: sweep.clone(),
                    cache: outcome,
                    plan_bytes,
                    backend,
                }));
            }
        }
        drop(permit);

        // every slot was filled by its group above; an empty one means a
        // worker never delivered — that is an engine fault and must not
        // masquerade as client-caused deadline shedding
        debug_assert!(results.iter().all(Option::is_some));
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    self.stats.record_worker_panic();
                    Err(EngineError::WorkerPanicked)
                })
            })
            .collect()
    }

    /// Recent engine-phase spans (admission wait, plan build, batch
    /// execute), oldest first, from a bounded lock-free ring. Core-layer
    /// phases (compile, sweep) are reported through the process-global
    /// [`mbt_obs`] recorder instead, which stays inert unless installed.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.stats.spans()
    }

    /// Recent queries slower than
    /// [`EngineConfig::slow_query_threshold`], oldest first, from a
    /// bounded log whose hot path never allocates.
    #[must_use]
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.stats.slow_queries()
    }

    /// A point-in-time snapshot of every counter and gauge.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let (resident_plans, resident_bytes, operator_table_bytes) = self.cache.residency();
        let (in_flight, queue_depth) = self.gate.depth();
        let (skeletons, skeleton_bytes) = {
            let map = self
                .skeletons
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (map.len(), map.values().map(|s| s.heap_bytes()).sum())
        };
        let mut stats = self.stats.snapshot(Gauges {
            resident_plans,
            resident_bytes,
            operator_table_bytes,
            cache_budget_bytes: self.config.cache_budget_bytes,
            datasets: self.registry.len(),
            in_flight,
            queue_depth,
            skeletons,
            skeleton_bytes,
        });
        stats.per_tenant = self.tenants.breakdown();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbt_geometry::distribution::{uniform_cube, ChargeModel};

    fn particles(n: usize, seed: u64) -> Vec<Particle> {
        uniform_cube(n, 1.0, ChargeModel::RandomSign { magnitude: 1.0 }, seed)
    }

    fn points(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(1.2 + i as f64 * 0.01, -0.3, 0.4))
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(Engine::new(EngineConfig::default()).is_ok());
        for bad in [
            EngineConfig {
                alpha: -1.0,
                ..EngineConfig::default()
            },
            EngineConfig {
                alpha: f64::NAN,
                ..EngineConfig::default()
            },
            EngineConfig {
                leaf_capacity: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                max_in_flight: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                cache_budget_bytes: 0,
                ..EngineConfig::default()
            },
        ] {
            assert!(matches!(
                Engine::new(bad),
                Err(EngineError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn end_to_end_query_and_stats() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("tenant-a", particles(800, 7)).unwrap();
        let pts = points(30);
        let r1 = engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(4),
                pts.clone(),
            ))
            .unwrap();
        assert_eq!(r1.cache, CacheOutcome::Built);
        assert_eq!(r1.output.len(), 30);
        let r2 = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(4), pts))
            .unwrap();
        assert_eq!(r2.cache, CacheOutcome::Hit);
        assert_eq!(r1.output, r2.output);

        let s = engine.stats();
        assert_eq!(s.plan_builds, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.resident_plans, 1);
        assert!(s.resident_bytes > 0);
        assert_eq!(s.datasets, 1);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.in_flight, 0);
    }

    #[test]
    fn different_accuracies_build_different_plans() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(600, 11)).unwrap();
        let pts = points(5);
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(3),
                pts.clone(),
            ))
            .unwrap();
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Adaptive { p_min: 3 },
                pts.clone(),
            ))
            .unwrap();
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Tolerance { tol: 1e-5 },
                pts,
            ))
            .unwrap();
        let s = engine.stats();
        assert_eq!(s.plan_builds, 3);
        assert_eq!(s.resident_plans, 3);
    }

    #[test]
    fn field_queries_work() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(400, 13)).unwrap();
        let r = engine
            .query(QueryRequest::fields(id, Accuracy::Fixed(5), points(8)))
            .unwrap();
        let fields = r.output.fields().unwrap();
        assert_eq!(fields.len(), 8);
        assert!(fields
            .iter()
            .all(|(phi, g)| phi.is_finite() && g.is_finite()));
    }

    #[test]
    fn unknown_dataset_and_bad_params_are_typed_errors() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        assert!(matches!(
            engine.query(QueryRequest::potentials(
                DatasetId(42),
                Accuracy::Fixed(4),
                points(1),
            )),
            Err(EngineError::UnknownDataset(DatasetId(42)))
        ));
        let id = engine.register("t", particles(100, 17)).unwrap();
        assert!(matches!(
            engine.query(QueryRequest::potentials(
                id,
                Accuracy::Tolerance { tol: -1.0 },
                points(1),
            )),
            Err(EngineError::InvalidParams(_))
        ));
        assert!(matches!(
            engine.query(QueryRequest::potentials(id, Accuracy::Fixed(99), points(1))),
            Err(EngineError::InvalidParams(_))
        ));
    }

    #[test]
    fn warm_prebuilds_the_plan() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(600, 19)).unwrap();
        let report = engine.warm(id, Accuracy::Fixed(4)).unwrap();
        assert_eq!(report.outcome, CacheOutcome::Built);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].shard, 0);
        assert!(report.shards[0].bytes > 0);
        assert_eq!(
            engine.warm(id, Accuracy::Fixed(4)).unwrap().outcome,
            CacheOutcome::Hit
        );
        let r = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(4), points(3)))
            .unwrap();
        assert_eq!(r.cache, CacheOutcome::Hit);
    }

    #[test]
    fn warm_sharded_builds_every_shard_plan() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register_sharded("t", particles(600, 47), 4).unwrap();
        let report = engine.warm(id, Accuracy::Fixed(4)).unwrap();
        assert_eq!(report.outcome, CacheOutcome::Built);
        assert_eq!(report.shards.len(), 4);
        for (s, w) in report.shards.iter().enumerate() {
            assert_eq!(w.shard, s);
            assert_eq!(w.outcome, CacheOutcome::Built);
            assert!(w.bytes > 0);
            assert!(w.build_time > Duration::ZERO);
        }
        let s = engine.stats();
        assert_eq!(s.plan_builds, 4);
        assert_eq!(s.resident_plans, 4);
        assert_eq!(s.skeletons, 1);
        assert!(s.skeleton_bytes > 0);
        // warming again touches every shard without rebuilding
        let again = engine.warm(id, Accuracy::Fixed(4)).unwrap();
        assert_eq!(again.outcome, CacheOutcome::Hit);
        assert!(again.shards.iter().all(|w| w.outcome == CacheOutcome::Hit));
        assert_eq!(engine.stats().plan_builds, 4);
    }

    #[test]
    fn sharded_query_routes_and_counts() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register_sharded("t", particles(800, 53), 4).unwrap();
        let r = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(5), points(10)))
            .unwrap();
        assert_eq!(r.cache, CacheOutcome::Built);
        assert_eq!(r.output.len(), 10);
        assert!(r.plan_bytes > 0);
        assert_eq!(r.eval.targets, 10);
        let s = engine.stats();
        assert_eq!(s.sharded_queries, 1);
        assert!(
            s.global_shortcuts + s.skeleton_evals + s.shard_opens > 0,
            "fan-out routed nothing"
        );
        assert_eq!(s.fanout_latency.count, 1);
        // hot repeat: same values, all shard plans hit
        let r2 = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(5), points(10)))
            .unwrap();
        assert_eq!(r2.cache, CacheOutcome::Hit);
        assert_eq!(r.output, r2.output);
    }

    #[test]
    fn sharded_k1_serves_on_the_unsharded_path() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register_sharded("t", particles(300, 59), 1).unwrap();
        let r = engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(4), points(6)))
            .unwrap();
        assert_eq!(r.output.len(), 6);
        let s = engine.stats();
        assert_eq!(s.sharded_queries, 0);
        assert_eq!(s.skeletons, 0);
    }

    #[test]
    fn query_batch_handles_sharded_groups() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let a = engine.register_sharded("a", particles(600, 61), 2).unwrap();
        let b = engine.register("b", particles(300, 67)).unwrap();
        let pts = points(8);
        let reqs = vec![
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(b, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::fields(a, Accuracy::Fixed(4), pts.clone()),
        ];
        let results = engine.query_batch(&reqs);
        for r in &results {
            assert!(r.is_ok(), "{r:?}");
        }
        // identical sharded requests agree, and match a solo query
        assert_eq!(
            results[0].as_ref().unwrap().output,
            results[2].as_ref().unwrap().output
        );
        let solo = engine
            .query(QueryRequest::potentials(a, Accuracy::Fixed(4), pts))
            .unwrap();
        assert_eq!(solo.output, results[0].as_ref().unwrap().output);
        let s = engine.stats();
        // batch fan-outs: (a,pot) with two requests + (a,field); solo adds one
        assert_eq!(s.sharded_queries, 3);
    }

    #[test]
    fn aggregate_outcome_prefers_the_most_expensive() {
        use CacheOutcome::{Built, Coalesced, Hit};
        assert_eq!(aggregate_outcome([]), Hit);
        assert_eq!(aggregate_outcome([Hit, Hit]), Hit);
        assert_eq!(aggregate_outcome([Hit, Coalesced]), Coalesced);
        assert_eq!(aggregate_outcome([Coalesced, Built, Hit]), Built);
        assert_eq!(aggregate_outcome([Built]), Built);
    }

    #[test]
    fn query_batch_groups_and_orders_results() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let a = engine.register("a", particles(700, 23)).unwrap();
        let b = engine.register("b", particles(600, 29)).unwrap();
        let pts = points(12);
        let reqs = vec![
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(b, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::fields(a, Accuracy::Fixed(4), pts.clone()),
            QueryRequest::potentials(a, Accuracy::Fixed(6), pts),
        ];
        let results = engine.query_batch(&reqs);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.is_ok());
        }
        // requests 0 and 2 are identical → identical values
        let v0 = results[0].as_ref().unwrap().output.clone();
        let v2 = results[2].as_ref().unwrap().output.clone();
        assert_eq!(v0, v2);
        let s = engine.stats();
        // groups: (a,f4,pot) ×2, (b,f4,pot), (a,f4,field), (a,f6,pot)
        assert_eq!(s.batches, 4);
        assert_eq!(s.batched_requests, 5);
        assert_eq!(s.max_batch, 2);
        assert_eq!(s.admitted, 1); // one slot for the whole call
        assert_eq!(s.plan_builds, 3); // (a,f4), (b,f4), (a,f6) — field reuses (a,f4)
    }

    #[test]
    fn query_batch_propagates_per_request_errors() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let a = engine.register("a", particles(200, 31)).unwrap();
        let results = engine.query_batch(&[
            QueryRequest::potentials(a, Accuracy::Fixed(4), points(2)),
            QueryRequest::potentials(DatasetId(99), Accuracy::Fixed(4), points(2)),
            QueryRequest::potentials(a, Accuracy::Tolerance { tol: -2.0 }, points(2)),
        ]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::UnknownDataset(DatasetId(99)))
        ));
        assert!(matches!(results[2], Err(EngineError::InvalidParams(_))));
    }

    #[test]
    fn eviction_under_tight_budget() {
        // budget fits roughly one plan: alternating accuracies must evict
        let engine = Engine::new(EngineConfig {
            cache_budget_bytes: 1 << 20,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = engine.register("t", particles(3000, 37)).unwrap();
        let pts = points(4);
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(8),
                pts.clone(),
            ))
            .unwrap();
        let one_plan = engine.stats().resident_bytes;
        assert!(
            one_plan > (1 << 19),
            "instance too small to exercise eviction"
        );
        engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(9),
                pts.clone(),
            ))
            .unwrap();
        engine
            .query(QueryRequest::potentials(id, Accuracy::Fixed(8), pts))
            .unwrap();
        let s = engine.stats();
        assert!(s.evictions >= 1, "no eviction under a one-plan budget");
        assert!(s.resident_bytes <= s.cache_budget_bytes);
        assert_eq!(s.plan_builds, 3); // the third query rebuilt the evicted plan
    }

    #[test]
    fn f32_near_tier_is_admitted_by_profile_and_shares_the_plan() {
        use mbt_treecode::Precision;
        // α = 0.7 with p = 4: the Theorem 1 far-field bound dominates the
        // f32 near-field roundoff budget, so the resolver downgrades the
        // near field (compiled builds only; `validate` pins scalar f64)
        let engine = Engine::new(EngineConfig {
            alpha: 0.7,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = engine.register("t", particles(2000, 43)).unwrap();
        let ds = engine.dataset(id).unwrap();
        let resolved = Accuracy::Fixed(4).resolve_with_profile(0.7, 32, 64, ds.len(), ds.q_max);
        #[cfg(not(feature = "validate"))]
        assert_eq!(resolved.near_precision, Precision::F32Near);

        let pts = points(16);
        let r32 = engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Fixed(4),
                pts.clone(),
            ))
            .unwrap();
        // an explicit f64 request with otherwise identical parameters …
        let r64 = engine
            .query(QueryRequest::potentials(
                id,
                Accuracy::Params(resolved.with_near_precision(Precision::F64)),
                pts,
            ))
            .unwrap();
        // … shares the cached plan (precision is an execution knob, not
        // plan identity) and agrees far inside the request's own
        // truncation budget
        assert_eq!(engine.stats().plan_builds, 1);
        assert_eq!(r64.cache, CacheOutcome::Hit);
        for (a, b) in r32
            .output
            .potentials()
            .unwrap()
            .iter()
            .zip(r64.output.potentials().unwrap())
        {
            assert!(
                (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                "f32 tier diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn deadline_already_expired_is_shed_without_eval() {
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let id = engine.register("t", particles(200, 41)).unwrap();
        let mut req = QueryRequest::potentials(id, Accuracy::Fixed(4), points(2));
        req.deadline = Some(
            Instant::now()
                .checked_sub(Duration::from_millis(1))
                .unwrap(),
        );
        assert_eq!(
            engine.query(req).unwrap_err(),
            EngineError::DeadlineExceeded
        );
        assert_eq!(engine.stats().batches, 0);
    }
}
