//! The compiled FMM backend: flat per-level SoA arenas with shared
//! per-offset M2L/L2L operators executed by the dense batch kernels.
//!
//! The scalar reference ([`crate::Fmm`]) walks `HashMap` grids and
//! re-derives every translation from spherical-harmonic recurrences on the
//! hot path. This module compiles the level-synchronised pipeline instead:
//!
//! * **Operator probing, once per degree.** Within a level, an M2L
//!   translation depends only on the integer cell offset `Δ = s − t`
//!   (Chebyshev norm ≥ 2, each component in `[-3, 3]` — at most 316
//!   geometric classes), and Laplace M2L/L2L are homogeneous in the cell
//!   edge `e`. The arenas therefore hold a scaled basis — P2M stores
//!   `M̃_n = M_n·e⁻ⁿ`, the downward pass keeps `L̃_j = L_j·e^{j+1}`, and
//!   `lift_local` divides by `e^{j+1}` before L2P — in which every level
//!   uses the same unit-edge M2L operators, and L2L the unit operator
//!   with its columns scaled by `2^{−(n+1)}` (exact in binary).
//!   Those operators live in one [`OperatorTable`] per degree, probed
//!   column-by-column through the public translation API on first use and
//!   shared through an `Arc` by every live plan of that degree; dropping
//!   the last such plan frees them. See [`crate::operators`].
//! * **Flat arenas.** Multipole and local coefficients live in per-level
//!   `Vec<f64>` arenas (occupied cells × `2·tri_len(p_l)`), particles in
//!   SoA spans sorted by finest-level Morton key, and cell occupancy in a
//!   dense Morton-indexed table per level — no hashing anywhere on the
//!   downward or near-field path.
//! * **Class-blocked downward pass.** Each level is walked in blocks of
//!   Morton-ordered target cells. Within a block the targets are grouped
//!   by parity class, and each offset of the class's interaction list is
//!   applied in one [`mbt_multipole::m2l_apply_block`] call to every
//!   target with a source at that offset — a GEMM-shaped, register-tiled
//!   pass that streams each operator once per block instead of once per
//!   pair. Every target still sums its L2L and M2L terms in interaction
//!   list order, so the result is bit-identical to a per-pair loop.
//!
//! External targets are served too: a target inside the root cube but in
//! an *unoccupied* finest cell gets its local expansion from an on-demand
//! L2L/M2L chain down its cell path, in the same scaled basis (computed
//! once per distinct cell and shared by all targets in it); a target
//! outside the root cube falls back to a guarded direct sum over all
//! particles.

use std::sync::Arc;

use mbt_geometry::{Aabb, Particle, Vec3};
use mbt_multipole::{
    l2p_field_with, l2p_potential_with, m2l_apply, m2l_apply_block, p2m_into, tri_len, Complex,
    Workspace,
};
use mbt_treecode::{EvalResult, EvalStats};
use rayon::prelude::*;

use crate::grid::{cell_center, cell_of, key_coords, FmmError, LevelGrid};
use crate::method::{build_structure, Fmm, FmmEvalMode, FmmParams, FmmStructure};
use crate::operators::{offset_tables, OperatorTable};

/// Deepest level the compiled backend supports: the dense Morton-indexed
/// occupancy tables hold `8^l` entries per level, so depth is capped where
/// that stays reasonable (level 8 ≈ 16.7M finest cells). Sparse deeper
/// hierarchies (e.g. huge collinear clouds) stay on the scalar reference.
pub const COMPILED_MAX_LEVELS: usize = 8;

/// Largest block of target cells the downward pass works on at once: at
/// 64 targets per parity class, every operator a block applies is reused
/// across up to 64 pairs while it sits in cache.
const MAX_BLOCK_CELLS: usize = 512;

/// Smallest downward-pass block (8 targets per parity class).
const MIN_BLOCK_CELLS: usize = 64;

/// Block size for a level of `cells` occupied cells: the largest power of
/// two in `[MIN_BLOCK_CELLS, MAX_BLOCK_CELLS]` that still gives every
/// worker two blocks. Results do not depend on it.
fn downward_block_cells(cells: usize) -> usize {
    let per_block = cells / (2 * rayon::current_num_threads().max(1));
    let pow2 = if per_block == 0 {
        1
    } else {
        1 << per_block.ilog2()
    };
    pow2.clamp(MIN_BLOCK_CELLS, MAX_BLOCK_CELLS)
}

/// One level's inputs to the downward pass, in the scaled basis.
struct DownwardLevel<'a> {
    /// The level index.
    l: usize,
    /// Triangular span length at this level's degree.
    t: usize,
    /// Unit-edge M2L operators of this level's degree.
    m2l: &'a [f64],
    /// The 8 scaled L2L operators from the parent level's degree.
    l2l: &'a [f64],
    /// Parent-level locals.
    parents: &'a [f64],
    /// This level's multipoles.
    mult: &'a [f64],
    /// Morton code per occupied cell of this level.
    mortons: &'a [u64],
    /// Dense occupancy of this level and of the parent level.
    occ: &'a [u32],
    parent_occ: &'a [u32],
}

impl DownwardLevel<'_> {
    /// Computes the locals `y` of the occupied cells `first..`: each
    /// target's L2L from its parent, then, per parity class, each offset
    /// of the class's interaction list applied in one
    /// [`m2l_apply_block`] call to every target of the class that has a
    /// source at that offset. Each target therefore sums its
    /// contributions in the same order as a per-cell loop over its list.
    /// Returns the number of M2L pairs.
    fn run_block(&self, first: usize, y: &mut [f64]) -> u64 {
        let rows = 2 * self.t;
        let cells = y.len() / rows;
        let mortons = &self.mortons[first..first + cells];
        // targets by parity class (= Morton octant): (block index, x, y, z)
        // lint: allow(alloc, cold path: per-block class lists at plan build)
        let mut classes: [Vec<(u32, i64, i64, i64)>; 8] = Default::default();
        for (ci, &code) in mortons.iter().enumerate() {
            let (x, yy, z) = mbt_geometry::morton::decode(code);
            classes[(code & 7) as usize].push((
                ci as u32,
                i64::from(x),
                i64::from(yy),
                i64::from(z),
            ));
        }
        // lint: allow(alloc, cold path: per-block pair scratch at plan build)
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(cells);

        let l2l_stride = self.l2l.len() / 8;
        for (octant, members) in classes.iter().enumerate() {
            pairs.clear();
            pairs.extend(members.iter().map(|&(ci, ..)| {
                let parent = self.parent_occ[(mortons[ci as usize] >> 3) as usize];
                (ci, parent - 1)
            }));
            let op = &self.l2l[octant * l2l_stride..(octant + 1) * l2l_stride];
            m2l_apply_block(op, self.parents, y, rows, &pairs);
        }

        let stride = rows * rows;
        let side = 1i64 << self.l;
        let mut count = 0u64;
        for (class, members) in classes.iter().enumerate() {
            for &(dx, dy, dz, op) in &offset_tables().by_parity[class] {
                pairs.clear();
                for &(ci, x, yy, z) in members {
                    let (sx, sy, sz) = (x + i64::from(dx), yy + i64::from(dy), z + i64::from(dz));
                    if sx < 0 || sy < 0 || sz < 0 || sx >= side || sy >= side || sz >= side {
                        continue;
                    }
                    let code = mbt_geometry::morton::encode(sx as u32, sy as u32, sz as u32);
                    let si = self.occ[code as usize];
                    if si != 0 {
                        pairs.push((ci, si - 1));
                    }
                }
                count += pairs.len() as u64;
                let oi = op as usize;
                m2l_apply_block(
                    &self.m2l[oi * stride..(oi + 1) * stride],
                    self.mult,
                    y,
                    rows,
                    &pairs,
                );
            }
        }
        count
    }
}

/// Reusable SoA scratch holding the gathered 27-cell near field of one
/// finest cell.
#[derive(Debug, Default)]
struct NearGather {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    qs: Vec<f64>,
}

/// The FMM compiled into flat arenas, ready to evaluate at sources and at
/// arbitrary external targets.
pub struct CompiledFmm {
    bounds: Aabb,
    levels: usize,
    degrees: Vec<usize>,
    particles: Vec<Particle>,
    perm: Vec<usize>,
    grids: Vec<LevelGrid>,
    /// SoA mirror of the sorted particles for the near-field kernels.
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    qs: Vec<f64>,
    /// Per level: dense Morton-indexed occupancy (`occupied index + 1`).
    occ: Vec<Vec<u32>>,
    /// Per level: Morton code of each occupied cell (dense order).
    mortons: Vec<Vec<u64>>,
    /// Per level: interleaved scaled multipoles `M̃_n = M_n·e⁻ⁿ`
    /// (occupied × `2T`; empty below level 2, where no M2L reads them).
    mult_re: Vec<Vec<f64>>,
    /// Per level: interleaved scaled locals `L̃_j = L_j·e^{j+1}`
    /// (occupied × `2T`).
    locals_re: Vec<Vec<f64>>,
    /// Per level `l ≥ 2` (at index `l − 2`): the shared unit-edge
    /// operators of its degree.
    tables: Vec<Arc<OperatorTable>>,
    /// P2M terms formed during the upward pass (scalar-compatible counter).
    pub translation_terms: u64,
    /// Total compiled M2L list entries across all levels.
    pub m2l_pairs: u64,
}

impl CompiledFmm {
    /// Builds the compiled FMM over a particle set.
    pub fn new(particles: &[Particle], params: FmmParams) -> Result<CompiledFmm, FmmError> {
        let FmmStructure {
            bounds,
            levels,
            degrees,
            sorted,
            perm,
            grids,
        } = build_structure(particles, &params)?;
        if levels > COMPILED_MAX_LEVELS {
            return Err(FmmError::DenseGridTooDeep {
                levels,
                max: COMPILED_MAX_LEVELS,
            });
        }
        let max_degree = degrees.iter().copied().max().unwrap_or(0);

        // SoA mirror of the sorted particles
        // lint: allow(alloc, cold path: compiled once per plan build)
        let xs: Vec<f64> = sorted.iter().map(|p| p.position.x).collect();
        // lint: allow(alloc, cold path: compiled once per plan build)
        let ys: Vec<f64> = sorted.iter().map(|p| p.position.y).collect();
        // lint: allow(alloc, cold path: compiled once per plan build)
        let zs: Vec<f64> = sorted.iter().map(|p| p.position.z).collect();
        // lint: allow(alloc, cold path: compiled once per plan build)
        let qs: Vec<f64> = sorted.iter().map(|p| p.charge).collect();

        // dense occupancy + morton codes per level
        let mut occ: Vec<Vec<u32>> = Vec::with_capacity(levels + 1);
        let mut mortons: Vec<Vec<u64>> = Vec::with_capacity(levels + 1);
        for grid in &grids {
            // lint: allow(alloc, cold path: compiled once per plan build)
            let mut table = vec![0u32; 1usize << (3 * grid.level)];
            let codes: Vec<u64> = grid
                .keys
                .iter()
                .map(|&k| {
                    let (x, y, z) = key_coords(k);
                    mbt_geometry::morton::encode(x, y, z)
                })
                // lint: allow(alloc, cold path: compiled once per plan build)
                .collect();
            for (ci, &code) in codes.iter().enumerate() {
                table[code as usize] = ci as u32 + 1;
            }
            occ.push(table);
            mortons.push(codes);
        }

        // upward: scaled P2M straight into the interleaved arenas
        let mut translation_terms = 0u64;
        let mut mult_re: Vec<Vec<f64>> = Vec::with_capacity(levels + 1);
        for (l, grid) in grids.iter().enumerate() {
            let p = degrees[l];
            let t = tri_len(p);
            translation_terms += (grid.len() as u64) * ((p as u64 + 1) * (p as u64 + 1));
            if l < 2 {
                // lint: allow(alloc, cold path: empty arena placeholder per plan build)
                mult_re.push(Vec::new());
                continue;
            }
            // lint: allow(alloc, cold path: per-level scale table at plan build)
            let inv_pow: Vec<f64> = (0..=p).map(|n| grid.cell_edge.powi(-(n as i32))).collect();
            // lint: allow(alloc, cold path: compiled once per plan build)
            let mut arena = vec![0.0f64; grid.len() * 2 * t];
            arena
                .par_chunks_mut(2 * t)
                .enumerate()
                .for_each(|(ci, span)| {
                    let mut ws = Workspace::with_capacity(max_degree);
                    // lint: allow(alloc, cold path: per-cell P2M scratch at build)
                    let mut scratch = vec![Complex::ZERO; t];
                    let (s, e) = grid.ranges[ci];
                    p2m_into(
                        &mut scratch,
                        grid.centers[ci],
                        p,
                        &sorted[s as usize..e as usize],
                        &mut ws,
                    );
                    let mut k = 0;
                    for (n, &scale) in inv_pow.iter().enumerate() {
                        for _ in 0..=n {
                            span[2 * k] = scratch[k].re * scale;
                            span[2 * k + 1] = scratch[k].im * scale;
                            k += 1;
                        }
                    }
                });
            mult_re.push(arena);
        }

        // downward: per level, L2L from the parent then M2L, class-blocked
        // lint: allow(alloc, cold path: one Arc per level at plan build)
        let tables: Vec<Arc<OperatorTable>> = (2..=levels)
            .map(|l| OperatorTable::for_degree(degrees[l]))
            // lint: allow(alloc, cold path: one Arc per level at plan build)
            .collect();
        let mut locals_re: Vec<Vec<f64>> = (0..=levels)
            // lint: allow(alloc, cold path: compiled once per plan build)
            .map(|l| vec![0.0f64; grids[l].len() * 2 * tri_len(degrees[l])])
            // lint: allow(alloc, cold path: compiled once per plan build)
            .collect();
        let mut m2l_pairs = 0u64;
        for l in 2..=levels {
            let (before, after) = locals_re.split_at_mut(l);
            let level = DownwardLevel {
                l,
                t: tri_len(degrees[l]),
                m2l: tables[l - 2].m2l(),
                l2l: tables[l - 2].l2l(degrees[l - 1]),
                parents: &before[l - 1],
                mult: &mult_re[l],
                mortons: &mortons[l],
                occ: &occ[l],
                parent_occ: &occ[l - 1],
            };
            let block = downward_block_cells(grids[l].len());
            m2l_pairs += after[0]
                .par_chunks_mut(block * 2 * level.t)
                .enumerate()
                .map(|(b, y)| level.run_block(b * block, y))
                .sum::<u64>();
        }

        Ok(CompiledFmm {
            bounds,
            levels,
            degrees,
            particles: sorted,
            perm,
            grids,
            xs,
            ys,
            zs,
            qs,
            occ,
            mortons,
            mult_re,
            locals_re,
            tables,
            translation_terms,
            m2l_pairs,
        })
    }

    /// The finest level index.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The per-level expansion degrees.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// The root bounding cube.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Approximate owned heap footprint: arenas, occupancy tables, and
    /// particle mirrors. The shared operator tables are not owned by the
    /// plan; see [`Self::table_bytes`].
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let f64s = self.xs.len() * 4 * 8
            + self.particles.len() * std::mem::size_of::<Particle>()
            + self.perm.len() * 8;
        let arenas: usize = self
            .mult_re
            .iter()
            .zip(&self.locals_re)
            .map(|(m, l)| (m.len() + l.len()) * 8)
            .sum();
        let occ: usize = self.occ.iter().map(|t| t.len() * 4).sum();
        let mortons: usize = self.mortons.iter().map(|m| m.len() * 8).sum();
        let grids: usize = self
            .grids
            .iter()
            .map(|g| g.len() * (8 + 24 + 8 + 8 + 48))
            .sum();
        f64s + arenas + occ + mortons + grids + self.tables.len() * 8
    }

    /// The distinct shared operator tables this plan holds (one per
    /// degree at levels ≥ 2).
    #[must_use]
    pub fn operator_tables(&self) -> Vec<&Arc<OperatorTable>> {
        // lint: allow(alloc, O(levels) list for byte accounting)
        let mut distinct: Vec<&Arc<OperatorTable>> = Vec::new();
        for t in &self.tables {
            if !distinct.iter().any(|d| Arc::ptr_eq(d, t)) {
                distinct.push(t);
            }
        }
        distinct
    }

    /// Heap bytes of the shared operator tables this plan holds — shared
    /// with every other live plan of the same degrees.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.operator_tables().iter().map(|t| t.heap_bytes()).sum()
    }

    /// Gathers (and coalesces) the near-field particle ranges of the 27
    /// finest cells around `(x, y, z)`.
    fn near_ranges(&self, x: u32, y: u32, z: u32) -> Vec<(u32, u32)> {
        let finest = &self.grids[self.levels];
        let side = 1i64 << self.levels;
        let mut near: Vec<(u32, u32)> = Vec::with_capacity(27);
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let nx = i64::from(x) + dx;
                    let ny = i64::from(y) + dy;
                    let nz = i64::from(z) + dz;
                    if nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side {
                        continue;
                    }
                    let code = mbt_geometry::morton::encode(nx as u32, ny as u32, nz as u32);
                    let ni = self.occ[self.levels][code as usize];
                    if ni != 0 {
                        near.push(finest.ranges[ni as usize - 1]);
                    }
                }
            }
        }
        // Morton-sorted ranges often abut; coalescing shrinks the number
        // of SIMD span calls without changing the pair set.
        near.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(near.len());
        for r in near {
            match merged.last_mut() {
                Some(last) if last.1 == r.0 => last.1 = r.1,
                _ => merged.push(r),
            }
        }
        merged
    }

    /// Copies the near-field ranges into one contiguous SoA scratch so each
    /// target makes a single guarded span call (the gather cost is amortised
    /// over every target in the cell; full-width SIMD sweeps with one tail
    /// replace per-range calls with per-range tails).
    fn gather_near(&self, ranges: &[(u32, u32)], out: &mut NearGather) {
        out.xs.clear();
        out.ys.clear();
        out.zs.clear();
        out.qs.clear();
        for &(ns, ne) in ranges {
            let (ns, ne) = (ns as usize, ne as usize);
            out.xs.extend_from_slice(&self.xs[ns..ne]);
            out.ys.extend_from_slice(&self.ys[ns..ne]);
            out.zs.extend_from_slice(&self.zs[ns..ne]);
            out.qs.extend_from_slice(&self.qs[ns..ne]);
        }
    }

    /// Lifts the scaled interleaved local span of one finest cell (edge
    /// `edge`, degree `p`) into complex scratch for the L2P kernels:
    /// `L_j = L̃_j / e^{j+1}`.
    fn lift_local(span: &[f64], edge: f64, p: usize, scratch: &mut Vec<Complex>) {
        scratch.clear();
        let mut k = 0;
        for j in 0..=p {
            let scale = edge.powi(j as i32 + 1);
            for _ in 0..=j {
                scratch.push(Complex {
                    re: span[2 * k] / scale,
                    im: span[2 * k + 1] / scale,
                });
                k += 1;
            }
        }
    }

    /// Potentials at all source particles, caller order.
    #[must_use]
    pub fn potentials(&self) -> EvalResult<f64> {
        let finest = &self.grids[self.levels];
        let p = self.degrees[self.levels];
        let t = tri_len(p);

        let per_cell: Vec<(Vec<f64>, EvalStats)> = (0..finest.len())
            .into_par_iter()
            .map(|ci| {
                let mut ws = Workspace::with_capacity(p);
                let ws = &mut ws;
                let mut lc_store: Vec<Complex> = Vec::with_capacity(t);
                let lc = &mut lc_store;
                let mut gather = NearGather::default();
                let mut stats = EvalStats::default();
                let (s, e) = finest.ranges[ci];
                let (x, y, z) = key_coords(finest.keys[ci]);
                let near = self.near_ranges(x, y, z);
                self.gather_near(&near, &mut gather);
                Self::lift_local(
                    &self.locals_re[self.levels][ci * 2 * t..(ci + 1) * 2 * t],
                    finest.cell_edge,
                    p,
                    lc,
                );
                let center = finest.centers[ci];
                let vals: Vec<f64> = (s..e)
                    .map(|i| {
                        let xi = self.particles[i as usize].position;
                        let mut phi = l2p_potential_with(center, p, lc, xi, ws);
                        stats.record_interaction(p);
                        // one contiguous guarded span over all 27 cells;
                        // the r = 0 guard drops the self pair
                        let (v, pairs) = mbt_multipole::p2p_potential_span_guarded(
                            &gather.xs, &gather.ys, &gather.zs, &gather.qs, xi, 0.0,
                        );
                        phi += v;
                        stats.record_direct(pairs);
                        phi
                    })
                    // lint: allow(alloc, one output buffer per finest cell of the bulk sweep)
                    .collect();
                stats.targets = u64::from(e - s);
                (vals, stats)
            })
            // lint: allow(alloc, one arena per bulk sweep)
            .collect();

        // lint: allow(alloc, result buffer handed to the caller)
        let mut values = vec![0.0f64; self.particles.len()];
        let mut stats = EvalStats::default();
        for (ci, (vals, s)) in per_cell.into_iter().enumerate() {
            let (cs, _) = finest.ranges[ci];
            values[cs as usize..cs as usize + vals.len()].copy_from_slice(&vals);
            stats.merge(&s);
        }
        // lint: allow(alloc, result buffer handed to the caller)
        let mut out = vec![0.0f64; values.len()];
        for (i, &orig) in self.perm.iter().enumerate() {
            out[orig] = values[i];
        }
        EvalResult { values: out, stats }
    }

    /// Resolves the interleaved local coefficients of an arbitrary finest
    /// cell: occupied cells read the arena; empty cells get an on-demand
    /// L2L/M2L chain down their cell path.
    fn local_for_cell(&self, code: u64) -> Vec<f64> {
        let t = tri_len(self.degrees[self.levels]);
        let oc = self.occ[self.levels][code as usize];
        if oc != 0 {
            let ci = oc as usize - 1;
            // lint: allow(alloc, O(p^2) local copy per external target group)
            return self.locals_re[self.levels][ci * 2 * t..(ci + 1) * 2 * t].to_vec();
        }
        // cell path from the root
        // lint: allow(alloc, O(levels) path scratch per empty-cell chain)
        let mut path = vec![0u64; self.levels + 1];
        path[self.levels] = code;
        for l in (1..=self.levels).rev() {
            path[l - 1] = path[l] >> 3;
        }
        // deepest occupied ancestor (the root is always occupied)
        let mut la = self.levels;
        while self.occ[la][path[la] as usize] == 0 {
            la -= 1;
        }
        let mut cur: Vec<f64> = if la >= 2 {
            let tl = tri_len(self.degrees[la]);
            let ci = self.occ[la][path[la] as usize] as usize - 1;
            // lint: allow(alloc, O(p^2) local copy per external target group)
            self.locals_re[la][ci * 2 * tl..(ci + 1) * 2 * tl].to_vec()
        } else {
            // lint: allow(alloc, O(p^2) zero local at the top of the chain)
            vec![0.0f64; 2 * tri_len(self.degrees[la])]
        };
        #[allow(clippy::needless_range_loop)] // `l` indexes several level-keyed arrays
        for l in la + 1..=self.levels {
            let tl = tri_len(self.degrees[l]);
            // lint: allow(alloc, O(p^2) per level of the on-demand chain)
            let mut next = vec![0.0f64; 2 * tl];
            if l >= 2 {
                let table = &self.tables[l - 2];
                // L2L from the (possibly itself empty) parent chain; the
                // parent local below level 2 is identically zero.
                // lint: allow(float_cmp, exact-zero skip of an identically-zero parent local)
                if l > 2 || cur.iter().any(|&v| v != 0.0) {
                    let l2l = table.l2l(self.degrees[l - 1]);
                    let stride = l2l.len() / 8;
                    let octant = (path[l] & 7) as usize;
                    m2l_apply(
                        &l2l[octant * stride..(octant + 1) * stride],
                        &cur,
                        &mut next,
                    );
                }
                // M2L over the interaction list of this (empty) cell
                let m2l = table.m2l();
                let stride = (2 * tl) * (2 * tl);
                let (x, y, z) = mbt_geometry::morton::decode(path[l]);
                let parity = (path[l] & 7) as usize;
                let side = 1i64 << l;
                let mult = &self.mult_re[l];
                for &(dx, dy, dz, op) in &offset_tables().by_parity[parity] {
                    let sx = i64::from(x) + i64::from(dx);
                    let sy = i64::from(y) + i64::from(dy);
                    let sz = i64::from(z) + i64::from(dz);
                    if sx < 0 || sy < 0 || sz < 0 || sx >= side || sy >= side || sz >= side {
                        continue;
                    }
                    let scode = mbt_geometry::morton::encode(sx as u32, sy as u32, sz as u32);
                    let si = self.occ[l][scode as usize];
                    if si != 0 {
                        let si = si as usize - 1;
                        let oi = op as usize;
                        m2l_apply(
                            &m2l[oi * stride..(oi + 1) * stride],
                            &mult[si * 2 * tl..(si + 1) * 2 * tl],
                            &mut next,
                        );
                    }
                }
            }
            cur = next;
        }
        cur
    }

    /// Potentials at arbitrary points (order preserved). Points outside the
    /// root cube are served by guarded direct sums.
    #[must_use]
    pub fn potentials_at(&self, points: &[Vec3]) -> EvalResult<f64> {
        // lint: allow(alloc, result buffer handed to the caller)
        let mut values = vec![0.0f64; points.len()];
        let stats = self.potentials_at_into(points, &mut values);
        EvalResult { values, stats }
    }

    /// [`Self::potentials_at`] into a caller-provided slice.
    pub fn potentials_at_into(&self, points: &[Vec3], out: &mut [f64]) -> EvalStats {
        assert_eq!(points.len(), out.len());
        self.eval_external(points, out, &mut [], false)
    }

    /// Potentials and gradients at arbitrary points.
    #[must_use]
    pub fn fields_at(&self, points: &[Vec3]) -> EvalResult<(f64, Vec3)> {
        // lint: allow(alloc, result buffer handed to the caller)
        let mut values = vec![(0.0f64, Vec3::ZERO); points.len()];
        let stats = self.fields_at_into(points, &mut values);
        EvalResult { values, stats }
    }

    /// [`Self::fields_at`] into a caller-provided slice.
    pub fn fields_at_into(&self, points: &[Vec3], out: &mut [(f64, Vec3)]) -> EvalStats {
        assert_eq!(points.len(), out.len());
        // lint: allow(alloc, potential scratch backing the caller's field slice)
        let mut phis = vec![0.0f64; points.len()];
        self.eval_external(points, &mut phis, out, true)
    }

    /// Shared external-target sweep. With `want_fields`, `fields` receives
    /// `(φ, ∇φ)` per point; otherwise `phis` receives `φ`.
    fn eval_external(
        &self,
        points: &[Vec3],
        phis: &mut [f64],
        fields: &mut [(f64, Vec3)],
        want_fields: bool,
    ) -> EvalStats {
        let p = self.degrees[self.levels];
        let cells = 1u32 << self.levels;

        // group in-bounds points by finest cell; out-of-bounds directly
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(points.len());
        // lint: allow(alloc, O(points) grouping scratch per external query)
        let mut outside: Vec<u32> = Vec::new();
        for (i, pt) in points.iter().enumerate() {
            if self.bounds.contains(*pt) {
                let (x, y, z) = cell_of(&self.bounds, cells, *pt);
                keyed.push((mbt_geometry::morton::encode(x, y, z), i as u32));
            } else {
                outside.push(i as u32);
            }
        }
        keyed.sort_unstable();
        // lint: allow(alloc, O(points) grouping scratch per external query)
        let mut groups: Vec<(u64, usize, usize)> = Vec::new();
        let mut start = 0usize;
        while start < keyed.len() {
            let code = keyed[start].0;
            let mut end = start;
            while end < keyed.len() && keyed[end].0 == code {
                end += 1;
            }
            groups.push((code, start, end));
            start = end;
        }

        #[allow(clippy::type_complexity)] // per-group (index, φ, ∇φ) triples + stats
        let results: Vec<(Vec<(u32, f64, Vec3)>, EvalStats)> = groups
            .par_iter()
            .map(|&(code, s, e)| {
                let mut ws = Workspace::with_capacity(p);
                let ws = &mut ws;
                let mut stats = EvalStats::default();
                let (x, y, z) = mbt_geometry::morton::decode(code);
                let local = self.local_for_cell(code);
                let mut lc = Vec::with_capacity(local.len() / 2);
                Self::lift_local(&local, self.grids[self.levels].cell_edge, p, &mut lc);
                let center = cell_center(&self.bounds, cells, x, y, z);
                let near = self.near_ranges(x, y, z);
                let mut gather = NearGather::default();
                self.gather_near(&near, &mut gather);
                let vals: Vec<(u32, f64, Vec3)> = keyed[s..e]
                    .iter()
                    .map(|&(_, idx)| {
                        let pt = points[idx as usize];
                        stats.record_interaction(p);
                        if want_fields {
                            let (mut phi, mut grad) = l2p_field_with(center, p, &lc, pt, ws);
                            let (v, g, pairs) = mbt_multipole::p2p_field_span_guarded(
                                &gather.xs, &gather.ys, &gather.zs, &gather.qs, pt, 0.0,
                            );
                            phi += v;
                            grad += g;
                            stats.record_direct(pairs);
                            (idx, phi, grad)
                        } else {
                            let mut phi = l2p_potential_with(center, p, &lc, pt, ws);
                            let (v, pairs) = mbt_multipole::p2p_potential_span_guarded(
                                &gather.xs, &gather.ys, &gather.zs, &gather.qs, pt, 0.0,
                            );
                            phi += v;
                            stats.record_direct(pairs);
                            (idx, phi, Vec3::ZERO)
                        }
                    })
                    // lint: allow(alloc, one output buffer per target group)
                    .collect();
                stats.targets = (e - s) as u64;
                (vals, stats)
            })
            // lint: allow(alloc, one arena per external sweep)
            .collect();

        let mut stats = EvalStats::default();
        for (vals, s) in &results {
            stats.merge(s);
            for &(idx, phi, grad) in vals {
                if want_fields {
                    fields[idx as usize] = (phi, grad);
                } else {
                    phis[idx as usize] = phi;
                }
            }
        }

        // out-of-bounds: guarded direct sums over all particles
        let direct: Vec<(u32, f64, Vec3, u64)> = outside
            .par_iter()
            .map(|&idx| {
                let pt = points[idx as usize];
                if want_fields {
                    let (phi, grad, pairs) = mbt_multipole::p2p_field_span_guarded(
                        &self.xs, &self.ys, &self.zs, &self.qs, pt, 0.0,
                    );
                    (idx, phi, grad, pairs)
                } else {
                    let (phi, pairs) = mbt_multipole::p2p_potential_span_guarded(
                        &self.xs, &self.ys, &self.zs, &self.qs, pt, 0.0,
                    );
                    (idx, phi, Vec3::ZERO, pairs)
                }
            })
            // lint: allow(alloc, out-of-bounds fallback results, one tuple per point)
            .collect();
        for (idx, phi, grad, pairs) in direct {
            stats.targets += 1;
            stats.record_direct(pairs);
            if want_fields {
                fields[idx as usize] = (phi, grad);
            } else {
                phis[idx as usize] = phi;
            }
        }
        stats
    }
}

/// The [`FmmEvalMode`]-dispatching front door: builds whichever
/// implementation the params select and exposes the shared evaluation
/// surface. When the compiled backend cannot represent the hierarchy
/// (deeper than [`COMPILED_MAX_LEVELS`]), construction falls back to the
/// scalar reference rather than failing.
pub enum FmmEvaluator {
    /// The per-cell scalar reference pipeline.
    Scalar(Fmm),
    /// The flat-arena compiled pipeline.
    Compiled(CompiledFmm),
}

impl FmmEvaluator {
    /// Builds the implementation selected by `params.eval_mode`.
    pub fn new(particles: &[Particle], params: FmmParams) -> Result<FmmEvaluator, FmmError> {
        match params.eval_mode {
            FmmEvalMode::Scalar => Fmm::new(particles, params).map(FmmEvaluator::Scalar),
            FmmEvalMode::Compiled => match CompiledFmm::new(particles, params) {
                Ok(c) => Ok(FmmEvaluator::Compiled(c)),
                Err(FmmError::DenseGridTooDeep { .. }) => {
                    Fmm::new(particles, params).map(FmmEvaluator::Scalar)
                }
                Err(e) => Err(e),
            },
        }
    }

    /// Potentials at all source particles, caller order.
    #[must_use]
    pub fn potentials(&self) -> EvalResult<f64> {
        match self {
            FmmEvaluator::Scalar(f) => f.potentials(),
            FmmEvaluator::Compiled(c) => c.potentials(),
        }
    }

    /// The finest level index.
    #[must_use]
    pub fn levels(&self) -> usize {
        match self {
            FmmEvaluator::Scalar(f) => f.levels(),
            FmmEvaluator::Compiled(c) => c.levels(),
        }
    }

    /// The per-level expansion degrees.
    #[must_use]
    pub fn degrees(&self) -> &[usize] {
        match self {
            FmmEvaluator::Scalar(f) => f.degrees(),
            FmmEvaluator::Compiled(c) => c.degrees(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::M2L_OFFSET_CLASSES as M2L_CLASSES;
    use mbt_geometry::distribution::{gaussian, uniform_cube, ChargeModel};
    use mbt_treecode::relative_error;

    fn charges() -> ChargeModel {
        ChargeModel::RandomSign { magnitude: 1.0 }
    }

    #[test]
    fn morton_parent_child_contract() {
        // the arena layout relies on `parent = code >> 3` and
        // `octant = code & 7` decoding to the per-axis low bits
        for (x, y, z) in [(5u32, 9, 14), (0, 0, 1), (31, 2, 17)] {
            let code = mbt_geometry::morton::encode(x, y, z);
            assert_eq!(
                code >> 3,
                mbt_geometry::morton::encode(x >> 1, y >> 1, z >> 1)
            );
            assert_eq!(
                mbt_geometry::morton::decode(code & 7),
                (x & 1, y & 1, z & 1)
            );
        }
    }

    #[test]
    fn compiled_matches_scalar_values_and_bit_stats() {
        let ps = uniform_cube(3000, 1.0, charges(), 3);
        for params in [
            FmmParams::fixed(5).with_levels(3),
            FmmParams::adaptive(3, 0.7).with_levels(3),
        ] {
            let scalar = Fmm::new(&ps, params.with_eval_mode(FmmEvalMode::Scalar)).unwrap();
            let compiled = CompiledFmm::new(&ps, params).unwrap();
            assert_eq!(scalar.degrees(), compiled.degrees());
            let rs = scalar.potentials();
            let rc = compiled.potentials();
            // identical instrumentation, bit for bit
            assert_eq!(rs.stats, rc.stats);
            assert_eq!(scalar.translation_terms, compiled.translation_terms);
            // identical math up to summation order
            assert!(relative_error(&rc.values, &rs.values) < 1e-11);
        }
    }

    #[test]
    fn compiled_matches_direct_uniform() {
        let ps = uniform_cube(3000, 1.0, charges(), 3);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        let mut prev = f64::INFINITY;
        for p in [3usize, 6, 8] {
            let fmm = CompiledFmm::new(&ps, FmmParams::fixed(p).with_levels(3)).unwrap();
            let err = relative_error(&fmm.potentials().values, &exact);
            assert!(err < prev, "error must fall with degree: p={p}, err={err}");
            prev = err;
        }
        assert!(prev < 1e-4, "p=8 error {prev}");
    }

    #[test]
    fn external_targets_match_direct_in_and_out_of_bounds() {
        let ps = gaussian(2000, Vec3::ZERO, 0.4, charges(), 21);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        // a spread of targets: inside occupied space, in the sparse shell
        // (empty finest cells), and outside the root cube entirely
        let targets: Vec<Vec3> = (0..60)
            .map(|i| {
                let a = f64::from(i) * 0.61;
                let r = 0.1 + 0.06 * f64::from(i); // walks out past the hull
                Vec3::new(r * a.cos(), r * a.sin(), 0.02 * f64::from(i) - 0.6)
            })
            .collect();
        let got = fmm.potentials_at(&targets);
        assert_eq!(got.stats.targets, targets.len() as u64);
        for (k, &pt) in targets.iter().enumerate() {
            let exact: f64 = ps.iter().map(|p| p.charge / p.position.distance(pt)).sum();
            // p = 8 truncation leaves ~1e-4 relative error for deep
            // targets (matching the scalar gaussian acceptance); targets
            // outside the hull must be exact up to roundoff
            assert!(
                (got.values[k] - exact).abs() <= 1e-3 * exact.abs().max(1.0),
                "target {k} at {pt:?}: {} vs {exact}",
                got.values[k]
            );
        }
    }

    #[test]
    fn fields_at_match_direct() {
        let ps = uniform_cube(1500, 1.0, charges(), 29);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(8).with_levels(3)).unwrap();
        let targets = [
            Vec3::new(0.21, -0.34, 0.4),
            Vec3::new(-0.48, 0.05, -0.11),
            Vec3::new(1.4, 1.2, -1.3), // out of bounds
        ];
        let got = fmm.fields_at(&targets);
        for (k, &pt) in targets.iter().enumerate() {
            let mut phi = 0.0;
            let mut grad = Vec3::ZERO;
            for p in &ps {
                let d = pt - p.position;
                let r2 = d.norm_sq();
                let r = r2.sqrt();
                phi += p.charge / r;
                grad += d * (-p.charge / (r2 * r));
            }
            let (gphi, ggrad) = got.values[k];
            assert!((gphi - phi).abs() <= 2e-4 * phi.abs().max(1.0), "phi {k}");
            assert!(
                ggrad.distance(grad) <= 1e-3 * grad.norm().max(1.0),
                "grad {k}: {ggrad:?} vs {grad:?}"
            );
        }
    }

    #[test]
    fn shallow_levels_are_exact_direct_sums() {
        let ps = uniform_cube(300, 1.0, charges(), 23);
        let exact = mbt_treecode::direct::direct_potentials(&ps);
        for levels in [0usize, 1] {
            let fmm = CompiledFmm::new(&ps, FmmParams::fixed(3).with_levels(levels)).unwrap();
            let r = fmm.potentials();
            assert!(relative_error(&r.values, &exact) < 1e-13, "levels={levels}");
        }
    }

    #[test]
    fn evaluator_dispatches_and_falls_back() {
        let ps = uniform_cube(500, 1.0, charges(), 31);
        let scalar =
            FmmEvaluator::new(&ps, FmmParams::fixed(4).with_eval_mode(FmmEvalMode::Scalar))
                .unwrap();
        assert!(matches!(scalar, FmmEvaluator::Scalar(_)));
        let compiled = FmmEvaluator::new(&ps, FmmParams::fixed(4)).unwrap();
        assert!(matches!(compiled, FmmEvaluator::Compiled(_)));
        let es = scalar.potentials();
        let ec = compiled.potentials();
        assert_eq!(es.stats, ec.stats);
        // deeper than the dense tables allow: evaluator falls back to the
        // scalar reference instead of failing
        let deep = FmmEvaluator::new(&ps, FmmParams::fixed(3).with_levels(9)).unwrap();
        assert!(matches!(deep, FmmEvaluator::Scalar(_)));
        // ...while the compiled constructor itself reports a typed error
        assert!(matches!(
            CompiledFmm::new(&ps, FmmParams::fixed(3).with_levels(9)),
            Err(FmmError::DenseGridTooDeep { levels: 9, max: 8 })
        ));
    }

    #[test]
    fn heap_bytes_reports_plausible_footprint() {
        let ps = uniform_cube(2000, 1.0, charges(), 37);
        let fmm = CompiledFmm::new(&ps, FmmParams::fixed(4).with_levels(3)).unwrap();
        let bytes = fmm.heap_bytes();
        // at minimum the particle mirrors; well under a gigabyte here
        assert!(bytes > 2000 * 4 * 8, "bytes = {bytes}");
        assert!(bytes < 1 << 30, "bytes = {bytes}");
        assert!(fmm.m2l_pairs > 0);

        // a second plan of the same degree shares the operator table, and
        // neither plan counts it among its own bytes
        let other = CompiledFmm::new(&ps[..1500], FmmParams::fixed(4).with_levels(3)).unwrap();
        let (a, b) = (fmm.operator_tables(), other.operator_tables());
        assert_eq!((a.len(), b.len()), (1, 1), "one degree, one table");
        assert!(Arc::ptr_eq(a[0], b[0]));
        let m2l_bytes = M2L_CLASSES * (2 * tri_len(4)).pow(2) * 8;
        assert!(fmm.table_bytes() >= m2l_bytes);
        assert!(other.table_bytes() >= m2l_bytes);
        assert!(
            other.heap_bytes() < bytes,
            "fewer particles, fewer owned bytes"
        );
        assert!(
            fmm.heap_bytes() + other.heap_bytes() + fmm.table_bytes() < 2 * (bytes + m2l_bytes),
            "the table is not part of either plan's own bytes"
        );
    }

    /// The pre-blocking downward pass: one `m2l_apply` per L2L and per
    /// CSR entry, target by target, over the plan's own arenas and tables.
    fn per_pair_downward(fmm: &CompiledFmm) -> (Vec<Vec<f64>>, u64) {
        let mut locals: Vec<Vec<f64>> = fmm
            .locals_re
            .iter()
            .map(|a| vec![0.0f64; a.len()])
            .collect();
        let mut pairs = 0u64;
        for l in 2..=fmm.levels {
            let (t, t_par) = (tri_len(fmm.degrees[l]), tri_len(fmm.degrees[l - 1]));
            let grid = &fmm.grids[l];
            let side = 1i64 << l;
            let mut csr_off = vec![0usize];
            let mut csr: Vec<(usize, usize)> = Vec::new();
            for ci in 0..grid.len() {
                let (x, y, z) = key_coords(grid.keys[ci]);
                let parity = ((x & 1) | (y & 1) << 1 | (z & 1) << 2) as usize;
                for &(dx, dy, dz, op) in &offset_tables().by_parity[parity] {
                    let (sx, sy, sz) = (
                        i64::from(x) + i64::from(dx),
                        i64::from(y) + i64::from(dy),
                        i64::from(z) + i64::from(dz),
                    );
                    if sx < 0 || sy < 0 || sz < 0 || sx >= side || sy >= side || sz >= side {
                        continue;
                    }
                    let code = mbt_geometry::morton::encode(sx as u32, sy as u32, sz as u32);
                    let si = fmm.occ[l][code as usize];
                    if si != 0 {
                        csr.push((si as usize - 1, op as usize));
                    }
                }
                csr_off.push(csr.len());
            }
            pairs += csr.len() as u64;
            let table = &fmm.tables[l - 2];
            let (m2l, l2l) = (table.m2l(), table.l2l(fmm.degrees[l - 1]));
            let (m2l_stride, l2l_stride) = (4 * t * t, 4 * t * t_par);
            let (before, after) = locals.split_at_mut(l);
            for ci in 0..grid.len() {
                let y = &mut after[0][ci * 2 * t..(ci + 1) * 2 * t];
                let tm = fmm.mortons[l][ci];
                let pi = fmm.occ[l - 1][(tm >> 3) as usize] as usize - 1;
                let octant = (tm & 7) as usize;
                m2l_apply(
                    &l2l[octant * l2l_stride..(octant + 1) * l2l_stride],
                    &before[l - 1][pi * 2 * t_par..(pi + 1) * 2 * t_par],
                    y,
                );
                for &(si, oi) in &csr[csr_off[ci]..csr_off[ci + 1]] {
                    m2l_apply(
                        &m2l[oi * m2l_stride..(oi + 1) * m2l_stride],
                        &fmm.mult_re[l][si * 2 * t..(si + 1) * 2 * t],
                        y,
                    );
                }
            }
        }
        (locals, pairs)
    }

    #[test]
    fn blocked_downward_pass_is_bit_identical_to_per_pair_loop() {
        // a clustered cloud leaves cells (and whole blocks) empty
        let ps = gaussian(4000, Vec3::ZERO, 0.3, charges(), 41);
        for params in [
            FmmParams::fixed(5).with_levels(4),
            FmmParams::adaptive(3, 0.7).with_levels(4),
        ] {
            let fmm = CompiledFmm::new(&ps, params).unwrap();
            let (want, pairs) = per_pair_downward(&fmm);
            assert_eq!(fmm.m2l_pairs, pairs);
            for (l, (got, want)) in fmm.locals_re.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "level {l}, {:?}", fmm.degrees);
            }
        }
    }

    #[test]
    fn plans_of_one_degree_share_one_table_probed_once() {
        // degree 1 is used by no other test in this binary
        let ps = uniform_cube(800, 1.0, charges(), 43);
        let before = crate::operators::m2l_probes(1);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let build = || {
                barrier.wait();
                CompiledFmm::new(&ps, FmmParams::fixed(1).with_levels(3)).unwrap()
            };
            let ha = s.spawn(build);
            let hb = s.spawn(build);
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(Arc::ptr_eq(a.operator_tables()[0], b.operator_tables()[0]));
        assert_eq!(crate::operators::m2l_probes(1) - before, 1);
        assert_eq!(a.potentials().values, b.potentials().values);
    }

    #[test]
    fn dropping_the_last_plan_frees_its_table() {
        // degree 2 is used by no other test in this binary
        let ps = uniform_cube(600, 1.0, charges(), 47);
        let a = CompiledFmm::new(&ps, FmmParams::fixed(2).with_levels(3)).unwrap();
        let b = CompiledFmm::new(&ps, FmmParams::fixed(2).with_levels(2)).unwrap();
        let live = OperatorTable::live_bytes(2);
        assert!(live >= M2L_CLASSES * (2 * tri_len(2)).pow(2) * 8);
        assert_eq!(live, a.table_bytes());
        drop(a);
        assert_eq!(OperatorTable::live_bytes(2), b.table_bytes());
        drop(b);
        assert_eq!(OperatorTable::live_bytes(2), 0);
    }
}
